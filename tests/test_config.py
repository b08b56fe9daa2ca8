"""Config text parsing, defaults, canonical echo, and error reporting."""

import pytest

from impactdesk import utility
from impactdesk.config import ConfigError, parse_config
from impactdesk.sde import ConstantFlow, FeedbackFlow, ScheduleFlow

MINIMAL = """
[agents]
agent = exponential aversion=2
agent = exponential aversion=2

[model]
endowment = linear slope=0.5
dividend = linear slope=1
"""

FULL = """
# two dealer desks, one tanh
[agents]
agent = tanh base=2 amplitude=0.5 c=2.5
agent = exponential aversion=2

[model]
endowment = linear slope=0.5 intercept=0.1
dividend = tanh scale=0.8
dividend = linear slope=1

[flow]
kind = schedule
times = 0,0.25,0.75
positions = 0.5,0; 1,0.2; 0,0

[sim]
dt = 0.0078125
paths = 200
seed = 11
eps = 1e-8
quadrature = 32
coordinates = direct
weights = 1,2
cash = 1.5

[grid]
times = 0,0.9
levels = -1,0,1

[output]
paths = 3
precision = 10
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.n_members == 2
    assert cfg.n_dividends == 1
    assert cfg.dt == 0.015625
    assert cfg.n_paths == 1
    assert cfg.seed == 0
    assert cfg.eps is None
    assert cfg.quadrature == 64
    assert cfg.coordinates == "log"
    assert cfg.weights == (1.0, 1.0)
    assert cfg.cash == 0.0
    assert cfg.flow_kind == "constant"
    assert cfg.flow_position == (0.0,)
    assert cfg.output_paths == 1
    assert cfg.precision == 12


def test_exponential_band_default_is_explicit():
    cfg = parse_config(MINIMAL.replace("aversion=2", "aversion=0.5"))
    assert dict(cfg.agents[0][1])["c"] == 2.0
    assert "c=2.0" in cfg.echo()


def test_echo_round_trips_exactly():
    for text in (MINIMAL, FULL):
        cfg = parse_config(text)
        assert parse_config(cfg.echo()) == cfg


def test_content_hash_tracks_content():
    cfg = parse_config(MINIMAL)
    again = parse_config(cfg.echo())
    assert cfg.content_hash == again.content_hash
    assert len(cfg.content_hash) == 12
    other = parse_config(MINIMAL + "\n[sim]\nseed = 1\n")
    assert other.content_hash != cfg.content_hash


def test_builders_produce_module_objects():
    cfg = parse_config(FULL)
    agents = cfg.build_agents()
    model = cfg.build_model()
    assert agents.size == 2
    assert not agents.all_exponential
    assert model.n_dividends == 2
    flow = cfg.build_flow()
    assert isinstance(flow, ScheduleFlow)
    sim = cfg.build_sim()
    assert sim.dt == 0.0078125
    assert sim.n_paths == 200
    assert sim.explosion_eps == 1e-8
    assert sim.quadrature_n == 32
    assert not sim.log_coordinates


def test_flow_kinds_build():
    cfg = parse_config(MINIMAL + "\n[flow]\nkind = constant\nposition = 0.5\n")
    assert isinstance(cfg.build_flow(), ConstantFlow)
    step = parse_config(MINIMAL + "\n[flow]\nkind = step\nswitch = 0.5\n"
                        "before = 0.5\nafter = 20\n")
    flow = step.build_flow()
    assert isinstance(flow, FeedbackFlow)
    assert flow.local_bound == 20.0


def test_negative_dt_names_the_key():
    with pytest.raises(ConfigError, match="sim.dt"):
        parse_config(MINIMAL + "\n[sim]\ndt = -0.5\n")


def test_unknown_section_suggests():
    with pytest.raises(ConfigError, match=r"did you mean 'model'"):
        parse_config(MINIMAL.replace("[model]", "[modell]"))


def test_unknown_key_reports_line_and_suggests():
    bad = MINIMAL + "\n[sim]\nquadrture = 8\n"
    with pytest.raises(ConfigError, match=r"line \d+.*did you mean "
                                          r"'quadrature'"):
        parse_config(bad)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key sim.dt"):
        parse_config(MINIMAL + "\n[sim]\ndt = 0.5\ndt = 0.25\n")


def test_unknown_agent_family_suggests():
    with pytest.raises(ConfigError, match="did you mean 'exponential'"):
        parse_config(MINIMAL.replace("exponential aversion=2",
                                     "exponentail aversion=2", 1))


def test_unknown_agent_parameter_suggests():
    with pytest.raises(ConfigError, match="did you mean 'aversion'"):
        parse_config(MINIMAL.replace("aversion=2", "aversio=2", 1))


def test_missing_required_parameter_named():
    with pytest.raises(ConfigError, match=r"'tanh' needs parameter 'c'"):
        parse_config(MINIMAL.replace("exponential aversion=2",
                                     "tanh base=2 amplitude=0.5", 1))


def test_weights_length_checked():
    with pytest.raises(ConfigError, match="sim.weights needs 2 entries"):
        parse_config(MINIMAL + "\n[sim]\nweights = 1,1,1\n")


def test_flow_position_length_checked():
    with pytest.raises(ConfigError, match="flow.position needs 1 entries"):
        parse_config(MINIMAL + "\n[flow]\nkind = constant\n"
                     "position = 0.5,0.5\n")


def test_schedule_validation_is_wrapped():
    bad = MINIMAL + ("\n[flow]\nkind = schedule\ntimes = 0.5,0.75\n"
                     "positions = 0.5; 1\n")
    with pytest.raises(ConfigError, match="flow"):
        parse_config(bad)


def test_bad_aversion_value_is_wrapped():
    with pytest.raises(ConfigError, match="agents.agent"):
        parse_config(MINIMAL.replace("aversion=2", "aversion=-1", 1))


def test_eps_auto_and_value():
    assert parse_config(MINIMAL + "\n[sim]\neps = auto\n").eps is None
    assert parse_config(MINIMAL + "\n[sim]\neps = 1e-9\n").eps == 1e-9
    with pytest.raises(ConfigError, match="sim.eps"):
        parse_config(MINIMAL + "\n[sim]\neps = 0\n")


def test_coordinates_choice_checked():
    with pytest.raises(ConfigError, match="sim.coordinates"):
        parse_config(MINIMAL + "\n[sim]\ncoordinates = polar\n")


def test_dt_must_divide_horizon():
    with pytest.raises(ConfigError, match="sim.dt"):
        parse_config(MINIMAL + "\n[sim]\ndt = 0.3\n")


def test_grid_times_stay_inside_horizon():
    with pytest.raises(ConfigError, match="grid.times"):
        parse_config(MINIMAL + "\n[grid]\ntimes = 0,1.5\n")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2: expected key = value"):
        parse_config("[agents]\nagent exponential\n")
    with pytest.raises(ConfigError, match="assignment before any"):
        parse_config("agent = exponential aversion=2\n")
    with pytest.raises(ConfigError, match="unterminated section"):
        parse_config("[agents\n")


def test_agents_required():
    with pytest.raises(ConfigError, match="at least one agent"):
        parse_config("[model]\ndividend = linear slope=1\n")


def test_override_replaces_and_revalidates():
    cfg = parse_config(MINIMAL)
    out = cfg.override(paths=5, seed=3, dt=0.25, quadrature=8, eps=1e-7)
    assert (out.n_paths, out.seed, out.dt, out.quadrature, out.eps) == \
        (5, 3, 0.25, 8, 1e-7)
    assert out.agents == cfg.agents
    assert out.override(eps=None).eps is None
    with pytest.raises(ConfigError, match="sim.dt"):
        cfg.override(dt=0.3)
    with pytest.raises(ConfigError, match="sim.paths"):
        cfg.override(paths=0)


@pytest.mark.parametrize("key,value", [
    ("dt", "nan"), ("dt", "inf"), ("eps", "nan"), ("eps", "inf"),
    ("cash", "nan"), ("cash", "-inf"), ("weights", "nan,1"),
    ("weights", "1,inf")])
def test_non_finite_sim_numbers_name_the_key_and_line(key, value):
    # the key sits after MINIMAL, a blank line and the [sim] header
    line = MINIMAL.count("\n") + 3
    with pytest.raises(ConfigError, match=rf"line {line}: sim\.{key} "):
        parse_config(MINIMAL + f"\n[sim]\n{key} = {value}\n")


def test_non_finite_override_names_the_key():
    cfg = parse_config(MINIMAL)
    for kwargs in ({"dt": float("nan")}, {"dt": float("inf")},
                   {"eps": float("nan")}):
        key = next(iter(kwargs))
        with pytest.raises(ConfigError, match=rf"^sim\.{key} must be"):
            cfg.override(**kwargs)


@pytest.mark.parametrize("value", ["-1", "18446744073709551616"])
def test_seed_outside_the_noise_key_range_names_the_key_and_line(value):
    # the Philox key holds the seed as an unsigned 64-bit integer
    line = MINIMAL.count("\n") + 3
    with pytest.raises(ConfigError,
                       match=rf"line {line}: sim\.seed must lie in"):
        parse_config(MINIMAL + f"\n[sim]\nseed = {value}\n")
    top = parse_config(MINIMAL + "\n[sim]\nseed = 18446744073709551615\n")
    assert top.seed == 2**64 - 1


def test_seed_override_outside_the_noise_key_range_names_the_key():
    cfg = parse_config(MINIMAL)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=r"^sim\.seed must lie in"):
            cfg.override(seed=seed)
    assert cfg.override(seed=2**64 - 1).seed == 2**64 - 1


def test_parse_override_and_run_share_one_agent_build(monkeypatch):
    # parsing validates by building, an override validates again, and a
    # run builds the agents it uses: one table build per tanh member
    build, built = utility._build_tables, []

    def counted(aversion):
        built.append(aversion)
        return build(aversion)

    monkeypatch.setattr(utility, "_build_tables", counted)
    text = MINIMAL.replace(
        "agent = exponential aversion=2\nagent = exponential aversion=2",
        "agent = tanh base=2 amplitude=0.375 c=2.5\n"
        "agent = tanh base=1.5 amplitude=0.375 c=2.5")
    cfg = parse_config(text).override(seed=4, paths=3)
    agents = cfg.build_agents()
    assert [spec.family for spec in agents.members] == ["risk_aversion"] * 2
    assert len(built) == 2
