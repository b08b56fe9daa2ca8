"""End-to-end CLI runs against temporary config files."""

import os

import numpy as np
import pytest

from impactdesk.cli import run
from impactdesk.config import parse_config

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
