"""End-to-end CLI runs against temporary config files."""

import os
import random
import re

import numpy as np
import pytest

from impactdesk import fields
from impactdesk.cli import run
from impactdesk.config import ConfigError, parse_config

BASE = """
[agents]
agent = exponential aversion=2
agent = exponential aversion=2

[model]
endowment = linear slope=0.5
dividend = linear slope=1

[flow]
kind = constant
position = 0.5

[sim]
dt = 0.03125
paths = 40
seed = 7
quadrature = 16
cash = 1.5

[grid]
times = 0.0,0.5
levels = -0.5,0.0,0.5

[output]
paths = 2
"""

NO_CERT = BASE.replace("agent = exponential aversion=2",
                       "agent = sin2 base=2 amplitude=0.5 c=2.5", 1)


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if not ln.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in rows[1:]])
    return header, data


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("name,code", [("exp_pair", 0), ("tanh", 0),
                                       ("sin2", 1)])
def test_check_reproduces_the_golden_report(tmp_path, name, code):
    # the recorded check.txt of each golden config, byte for byte: the
    # certificate's suprema and moments must not move by one printed digit
    cfg = os.path.join(GOLDEN, f"{name}.cfg")
    assert run(["check", "--config", cfg, "--out", str(tmp_path)]) == code
    with open(os.path.join(GOLDEN, f"{name}.check.txt"), "rb") as fh:
        assert (tmp_path / "check.txt").read_bytes() == fh.read()


ENGINE_RUNS = [
    ("tanh_log", "simulate"), ("tanh_direct", "simulate"),
    ("tanh_eps", "simulate"), ("tanh_log", "oracle"),
    ("exp_pair", "simulate"), ("exp_pair", "fields"), ("tanh", "fields")]


def assert_golden_run(tmp_path, name, command):
    """Run a golden config and compare every file it writes, byte for byte."""
    cfg = os.path.join(GOLDEN, f"{name}.cfg")
    assert run([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    golden = os.path.join(GOLDEN, f"{name}.{command}")
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(golden))
    for file in os.listdir(golden):
        with open(os.path.join(golden, file), "rb") as fh:
            assert (tmp_path / file).read_bytes() == fh.read(), file


@pytest.mark.parametrize("name,command", ENGINE_RUNS)
def test_engine_reproduces_the_golden_artifacts(tmp_path, monkeypatch, name,
                                                command):
    # every file the recorded run wrote, byte for byte: the tanh desk under
    # a step flow in log and in direct coordinates, a variant whose paths
    # all stop by explosion, the error table of the lockstep ladder, a path
    # of the closed-form exponential pair, and the field grids of that pair
    # and of the mixed tanh desk
    monkeypatch.delenv("IMPACTDESK_WORKERS", raising=False)
    assert_golden_run(tmp_path, name, command)


@pytest.mark.parametrize("name,command", ENGINE_RUNS)
def test_golden_artifacts_in_one_row_field_blocks(tmp_path, monkeypatch, name,
                                                  command):
    # one row at the config's quadrature per field block, in process:
    # every batch, and a seeded tanh solve's multiplier state, crosses as
    # many blocks as it has rows, and the recorded bytes still come out
    monkeypatch.delenv("IMPACTDESK_WORKERS", raising=False)
    with open(os.path.join(GOLDEN, f"{name}.cfg")) as fh:
        n = parse_config(fh.read()).quadrature
    monkeypatch.setattr(fields, "FIELD_BLOCK", n)
    assert_golden_run(tmp_path, name, command)


@pytest.mark.parametrize("name", ["tanh_log", "tanh_direct", "tanh_eps",
                                  "exp_pair"])
def test_golden_simulate_on_two_workers(tmp_path, monkeypatch, name):
    # the pool pickles the desk, named payoffs included; two workers
    # write the recorded single-process files byte for byte
    monkeypatch.setenv("IMPACTDESK_WORKERS", "2")
    assert_golden_run(tmp_path, name, "simulate")


def test_check_certifies_exponential_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert run(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "check.txt").read_text()
    assert "certificate: PASS (regime 1, 2, 3)" in text
    assert "regime 2 (exponential): PASS" in text
    assert "# config sha256" in text
    assert "certificate" in capsys.readouterr().out


# regime 1 needs the aversion's fifth derivative on this desk: (2 + 6)
# members and stocks, halved, plus one
SIX_STOCKS = """
[agents]
agent = tanh base=2 amplitude=0.5 c=2.5
agent = exponential aversion=2

[model]
endowment = linear slope=0.5
""" + "dividend = tanh\n" * 6


def test_check_certifies_a_desk_needing_high_order_smoothness(tmp_path):
    cfg = write_cfg(tmp_path, SIX_STOCKS)
    assert run(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "check.txt").read_text().splitlines()
    assert "regime 1 (local): PASS" in text
    assert any(ln.startswith("  aversion smoothness (order 5): PASS")
               for ln in text)
    assert text[-1] == "certificate: PASS (regime 1, 3)"


def test_empty_agent_line_exits_two_with_its_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[agents]\nagent =\n")
    assert run(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "impactdesk: line 2: agents.agent needs a kind (exponential, tanh, "
        "sin2), got nothing\n")


def test_check_exits_nonzero_without_certificate(tmp_path):
    cfg = write_cfg(tmp_path, NO_CERT)
    assert run(["check", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "certificate: NONE" in (tmp_path / "check.txt").read_text()


def test_effective_config_echo_is_written_and_reparses(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    assert run(["check", "--config", cfg, "--out", str(tmp_path),
                "--seed", "3"]) == 0
    echoed = parse_config((tmp_path / "config.txt").read_text())
    assert echoed == parse_config(BASE).override(seed=3)


def test_fields_table_matches_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    assert run(["fields", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, data = read_csv(tmp_path / "fields.csv")
    assert header == ["t", "z", "v1", "v2", "x", "q1", "F", "Fx", "Fv1",
                      "Fv2", "H", "Hv1", "Hv2", "K1", "K2"]
    assert data.shape[0] == 2 * 3
    t, z, x = data[:, 0], data[:, 1], data[:, 4]
    # unit total exposure, harmonic aversion 1
    want_f = -np.exp(0.5 * (1.0 - t) - x - z)
    np.testing.assert_allclose(data[:, 6], want_f, rtol=1e-9)
    # coefficient route through the conjugate solve agrees with the
    # direct weight gradient of the integrand
    np.testing.assert_allclose(data[:, 13:15], data[:, 11:13], rtol=1e-7)


def test_fields_table_marks_overflowing_states(tmp_path):
    # at cash -5000 the shared utility leaves double precision; each row
    # says so instead of the run stopping
    cfg = write_cfg(tmp_path, BASE.replace("cash = 1.5", "cash = -5000"))
    assert run(["fields", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, data = read_csv(tmp_path / "fields.csv")
    assert data.shape[0] == 2 * 3
    assert not np.isfinite(data[:, 6:]).any()


def test_simulate_writes_paths_and_summary(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "summary.txt").read_text()
    assert "paths = 40" in summary
    assert "completed = 40" in summary
    assert "explosion = 0" in summary
    header, data = read_csv(tmp_path / "path-0000.csv")
    assert header == ["t", "B", "U1", "U2", "cash", "v1", "v2", "Q1",
                      "stopped"]
    assert data.shape[0] == 33          # dt = 2^-5 plus the initial row
    assert data[0, 0] == 0.0 and data[-1, 0] == 1.0
    assert np.all(data[:, 2:4] < 0.0)
    assert np.all(data[:, 8] == 0.0)    # no stop on a completed path
    assert os.path.exists(tmp_path / "path-0001.csv")
    assert not os.path.exists(tmp_path / "path-0002.csv")


STEP = (BASE.replace("kind = constant\nposition = 0.5",
                     "kind = step\nswitch = 0.5\nbefore = 0.5\nafter = 20")
        .replace("dt = 0.03125", "dt = 0.00390625")
        .replace("paths = 40", "paths = 2"))


def test_overflowing_initial_state_exits_two(tmp_path, capsys):
    # at cash -5000 the initial weights cannot be normalized: a one-line
    # error, not a traceback, and not the "no certificate" code 1
    cfg = write_cfg(tmp_path, BASE.replace("cash = 1.5", "cash = -5000"))
    for command in ("simulate", "oracle"):
        assert run([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("impactdesk: field overflow")
        assert "Traceback" not in err


def test_simulate_marks_the_stop_row(tmp_path):
    cfg = write_cfg(tmp_path, STEP)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "summary.txt").read_text()
    assert "explosion = 2" in summary
    header, data = read_csv(tmp_path / "path-0000.csv")
    assert data[-1, 8] == 1.0
    assert np.all(data[:-1, 8] == 0.0)
    assert np.isnan(data[-1, 4])        # cash is not defined on the stop row
    assert data[-1, 0] < 1.0


def test_simulate_without_completed_paths_reports_nan_stderr(tmp_path):
    # both paths explode: no mean and no spread to report
    cfg = write_cfg(tmp_path, STEP)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert "completed = 0" in summary
    assert "terminal_mean = nan,nan" in summary
    assert "terminal_stderr = nan,nan" in summary


def test_simulate_is_byte_identical_across_worker_counts(tmp_path,
                                                         monkeypatch):
    cfg = write_cfg(tmp_path, BASE)
    outs = {}
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}"
        monkeypatch.setenv("IMPACTDESK_WORKERS", workers)
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        outs[workers] = {
            name: (out / name).read_bytes()
            for name in sorted(os.listdir(out))}
    assert outs["1"].keys() == outs["3"].keys()
    for name in outs["1"]:
        assert outs["1"][name] == outs["3"][name], name


def test_pooled_closed_form_run_is_byte_identical_across_field_blocks(
        tmp_path, monkeypatch):
    # 600 paths of the exponential pair at 64 nodes: each of two workers
    # evaluates 300 rows a step, more than one field block; one worker
    # with 15-row blocks writes the same bytes too
    cfg = os.path.join(GOLDEN, "exp_pair.cfg")
    outs = {}
    for name, workers, block in (("w1", "1", None), ("w2", "2", None),
                                 ("small", "1", 997)):
        if block is not None:
            monkeypatch.setattr(fields, "FIELD_BLOCK", block)
        monkeypatch.setenv("IMPACTDESK_WORKERS", workers)
        out = tmp_path / name
        assert run(["simulate", "--config", cfg, "--out", str(out),
                    "--paths", "600", "--dt", "0.25",
                    "--quadrature", "64"]) == 0
        outs[name] = {file: (out / file).read_bytes()
                      for file in sorted(os.listdir(out))}
    assert outs["w1"] == outs["w2"] == outs["small"]


@pytest.mark.parametrize("workers", ["two", "0", "-3", "1.5"])
def test_bad_worker_count_exits_two_naming_the_variable(tmp_path, capsys,
                                                        monkeypatch, workers):
    monkeypatch.setenv("IMPACTDESK_WORKERS", workers)
    cfg = write_cfg(tmp_path, BASE)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "impactdesk: IMPACTDESK_WORKERS must be a positive integer, "
        f"got {workers!r}\n")


def test_oracle_error_table_decays_at_half_order(tmp_path):
    text = BASE.replace("quadrature = 16",
                        "quadrature = 8\ncoordinates = direct")
    text = text.replace("paths = 40", "paths = 200")
    cfg = write_cfg(tmp_path, text)
    assert run(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, data = read_csv(tmp_path / "oracle.csv")
    assert header == ["dt", "steps", "completed", "sim_mean", "oracle_mean",
                      "mean_abs_error", "ratio_vs_coarser"]
    assert data.shape[0] == 4
    assert np.all(np.diff(data[:, 5]) < 0.0)       # errors shrink with dt
    assert np.isnan(data[0, 6])
    assert np.all((data[1:, 6] > 1.2) & (data[1:, 6] < 1.7))


def test_oracle_in_log_coordinates_is_exact_here(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    assert run(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, data = read_csv(tmp_path / "oracle.csv")
    assert np.all(data[:, 5] <= 1e-12)


def test_oracle_with_exact_levels_reads_nan_ratios(tmp_path):
    # no payoff: the Euler step is exact, every level's error is exactly
    # 0, and each halving ratio 0/0 reads nan instead of raising
    text = BASE.split("[model]")[0] + "[sim]\ndt = 0.125\npaths = 4\n" \
        "quadrature = 8\n"
    cfg = write_cfg(tmp_path, text)
    assert run(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, data = read_csv(tmp_path / "oracle.csv")
    assert np.all(data[:, 2] == 4.0) and np.all(data[:, 5] == 0.0)
    assert np.isnan(data[:, 6]).all()


def test_oracle_without_completed_paths_reports_nan(tmp_path):
    # every path explodes at every dt: no mean to take, and no warning
    cfg = write_cfg(tmp_path, STEP)
    assert run(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, data = read_csv(tmp_path / "oracle.csv")
    assert np.all(data[:, 2] == 0.0)
    assert np.isnan(data[:, 3:]).all()


def test_oracle_rejects_too_coarse_ladder(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    code = run(["oracle", "--config", cfg, "--out", str(tmp_path),
                "--dt", "0.25"])
    assert code == 2
    assert "sim.dt" in capsys.readouterr().err


def test_flag_overrides_reach_the_run(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path),
                "--paths", "5", "--seed", "1", "--dt", "0.0625"]) == 0
    summary = (tmp_path / "summary.txt").read_text()
    assert "paths = 5" in summary
    assert "seed = 1" in summary
    assert "dt = 0.0625" in summary


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "\n[sim]\ndt = -1\n")
    assert run(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "sim.dt" in capsys.readouterr().err
    assert run(["check", "--config", str(tmp_path / "missing.cfg"),
                "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("dt", ["1e-320", "5e-324", "1e-12"])
def test_dt_beyond_the_step_ceiling_exits_2(tmp_path, capsys, dt):
    cfg = write_cfg(tmp_path, BASE.replace("dt = 0.03125", f"dt = {dt}"))
    assert run(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        "impactdesk: line 15: sim.dt must give at most 1048576 steps\n"
    cfg = write_cfg(tmp_path, BASE)
    assert run(["check", "--config", cfg, "--out", str(tmp_path),
                "--dt", dt]) == 2
    assert capsys.readouterr().err == \
        "impactdesk: sim.dt must give at most 1048576 steps\n"


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_the_noise_key_range_exits_2(tmp_path, capsys, seed):
    cfg = write_cfg(tmp_path, BASE)
    for cmd in ("simulate", "oracle"):
        assert run([cmd, "--config", cfg, "--out", str(tmp_path),
                    "--seed", seed]) == 2
        assert "sim.seed must lie in" in capsys.readouterr().err


def test_non_finite_grid_level_exits_2_and_names_the_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("levels = -0.5,0.0,0.5",
                                           "levels = -0.5,nan"))
    assert run(["fields", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        "impactdesk: line 23: grid.levels must be finite, got 'nan'\n"
    assert not (tmp_path / "fields.csv").exists()


@pytest.mark.parametrize("eps,message", [
    ("x", "sim.eps must be a number, got 'x'"),
    ("nan", "sim.eps must be finite, got 'nan'"),
    ("0", "sim.eps must be positive and finite (or auto)")])
def test_bad_eps_flag_names_the_key(tmp_path, capsys, eps, message):
    cfg = write_cfg(tmp_path, BASE)
    assert run(["check", "--config", cfg, "--out", str(tmp_path),
                "--eps", eps]) == 2
    assert capsys.readouterr().err == f"impactdesk: {message}\n"


def test_eps_flag_takes_auto_and_numbers(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("seed = 7", "seed = 7\neps = 1e-8"))
    for flag, line in (("auto", "eps = auto"), ("1e-9", "eps = 1e-09")):
        assert run(["check", "--config", cfg, "--out", str(tmp_path),
                    "--eps", flag]) == 0
        assert line in (tmp_path / "config.txt").read_text().splitlines()


# values a mutation writes over a key's value or an agent or payoff
# parameter: edge numbers, non-numbers and lists
_EDGE_VALUES = ("0", "-0", "-1", "1", "0.5", "3", "257", "1e-12", "1e-320",
                "5e-324", "1e400", "-1e400", "nan", "inf", "-inf",
                "18446744073709551616", "", "x", "auto", "1,2", "0.5;0.25",
                "tanh", "linear")
# lines a mutation inserts: keys of every flow kind, other agent and
# payoff families, section headers and malformed lines
_EXTRA_LINES = ("[flow]", "[sim]", "[bogus]", "kind = step",
                "kind = schedule", "position = 0.25", "times = 0,0.5",
                "positions = 0.5; 0.25", "switch = 0.5", "before = 0.5",
                "after = 0.25", "agent = exponential aversion=0.5 c=3",
                "agent = tanh base=2 amplitude=0.5 c=2.5",
                "agent = sin2 base=2 amplitude=0.5 c=2.5",
                "dividend = sin scale=0.5", "endowment = exp",
                "coordinates = direct", "eps = 0.6", "weights = 1,2",
                "dt = 0.25", "quadrature = 1", "no equals sign", "= 1")


def _mutate(lines, rng):
    """One random edit of a config's lines."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    op = rng.randrange(5)
    if op == 0 and "=" in lines[i]:
        key = lines[i].partition("=")[0]
        lines[i] = f"{key}= {rng.choice(_EDGE_VALUES)}"
    elif op == 1 and re.search(r"\w=", lines[i]):
        params = list(re.finditer(r"(\w+)=(\S*)", lines[i]))
        hit = rng.choice(params)
        lines[i] = (lines[i][:hit.start(2)] + rng.choice(_EDGE_VALUES)
                    + lines[i][hit.end(2):])
    elif op == 2:
        lines.insert(i, rng.choice(_EXTRA_LINES))
    elif op == 3:
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return lines


def test_mutated_configs_parse_build_or_name_their_fault(tmp_path, capsys):
    # every mutant of BASE either parses, echoes back to itself and
    # builds, or is refused by a ConfigError that names its line or key;
    # `check` on a sample exits 0, 1 or 2 and never with a traceback
    rng = random.Random(20240501)
    names = re.compile(r"^line \d+: |\b(agents|model|flow|sim|grid|output)"
                       r"(\.\w+|:)")
    base = BASE.strip().splitlines()
    outcomes = {"built": 0, "refused": 0}
    for n in range(600):
        lines = base
        for _ in range(rng.randint(1, 3)):
            lines = _mutate(lines, rng)
        text = "\n".join(lines) + "\n"
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            assert names.search(str(exc)), (text, str(exc))
            outcomes["refused"] += 1
        else:
            assert parse_config(cfg.echo()) == cfg, text
            cfg.build_agents(), cfg.build_model()
            cfg.build_flow(), cfg.build_sim()
            outcomes["built"] += 1
        if n % 50 == 0:
            path = write_cfg(tmp_path, text, name=f"mutant{n}.cfg")
            out = str(tmp_path / f"out{n}")
            assert run(["check", "--config", path, "--out", out]) in (0, 1, 2)
            assert "Traceback" not in capsys.readouterr().err
    assert min(outcomes.values()) >= 100, outcomes
