"""Config text parsing, defaults, canonical echo, and error reporting."""

import os

import pytest

from impactdesk import utility
from impactdesk.config import ConfigError, parse_config
from impactdesk.sde import ConstantFlow, ScheduleFlow

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

STEP = """
[agents]
agent = sin2 base=2 amplitude=0.5 c=2.5 scale=1.5
agent = exponential aversion=0.5

[model]
endowment = exp scale=0.5
dividend = cos scale=2
dividend = square

[flow]
kind = step
switch = 0.25
before = 0.5,0
after = 20,1

[sim]
dt = 0.03125
eps = 1e-6
"""

# MINIMAL has nine lines, so a key after "\n[section]\n" sits on line 11
SIM, FLOW = MINIMAL + "\n[sim]\n", MINIMAL + "\n[flow]\n"


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
    for text in (MINIMAL, FULL, STEP):
        cfg = parse_config(text)
        assert parse_config(cfg.echo()) == cfg


@pytest.mark.parametrize("text,digest", [
    (MINIMAL, "4c8fab92bffc"),   # constant flow, exponential, eps auto
    (FULL, "25a44b90034a"),      # schedule flow, tanh, named payoff
    (STEP, "f884909aa392"),      # step flow, sin2, named payoffs only
])
def test_echo_bytes_are_pinned(text, digest):
    # every artifact header carries this hash: a moved echo byte shows here
    assert parse_config(text).content_hash == digest


def test_readme_example_parses_and_round_trips():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
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
    # a step flow is the two-segment schedule switching at `switch`
    assert type(flow) is ScheduleFlow
    assert flow.times.tolist() == [0.0, 0.5]
    assert flow.positions.tolist() == [[0.5], [20.0]]


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
    assert all(spec.tables is not None for spec in agents.members)
    assert len(built) == 2


EXACT_MESSAGES = [
    # syntax
    ("[agents\n", "line 1: unterminated section header"),
    ("[modell]\n", "line 1: unknown section [modell]; did you mean 'model'?"),
    ("[agents]\nagent exponential\n",
     "line 2: expected key = value, got 'agent exponential'"),
    ("agent = exponential aversion=2\n",
     "line 1: assignment before any [section]"),
    (SIM + "quadrture = 8\n",
     "line 11: unknown key 'quadrture' in [sim]; did you mean 'quadrature'?"),
    (SIM + "dt = 0.5\ndt = 0.25\n", "line 12: duplicate key sim.dt"),
    # agent and payoff lines
    (MINIMAL.replace("exponential aversion=2", "exponentail aversion=2", 1),
     "line 3: agents.agent: unknown kind 'exponentail'; "
     "did you mean 'exponential'?"),
    (MINIMAL.replace("aversion=2", "aversion", 1),
     "line 3: agents.agent: expected parameter=value, got 'aversion'"),
    (MINIMAL.replace("aversion=2", "aversio=2", 1),
     "line 3: agents.agent: unknown parameter 'aversio' for 'exponential'; "
     "did you mean 'aversion'?"),
    (MINIMAL.replace("aversion=2", "aversion=2 aversion=3", 1),
     "line 3: agents.agent: duplicate parameter 'aversion'"),
    (MINIMAL.replace("exponential aversion=2", "tanh base=2 amplitude=0.5", 1),
     "line 3: agents.agent: 'tanh' needs parameter 'c'"),
    (MINIMAL.replace("aversion=2", "aversion=x", 1),
     "line 3: agents.agent.aversion must be a number, got 'x'"),
    (MINIMAL.replace("aversion=2", "aversion=-1", 1),
     "line 3: agents.agent: aversion must be positive"),
    ("[model]\ndividend = linear slope=1\n",
     "agents.agent: at least one agent is required"),
    (MINIMAL.replace("endowment = linear", "endowment = lineer", 1),
     "line 7: model.endowment: unknown kind 'lineer'; did you mean 'linear'?"),
    (MINIMAL.replace("slope=1", "slop=1", 1),
     "line 8: model.dividend: unknown parameter 'slop' for 'linear'; "
     "did you mean 'slope'?"),
    ("[agents]\nagent =\n",
     "line 2: agents.agent needs a kind (exponential, tanh, sin2), "
     "got nothing"),
    (MINIMAL.replace("endowment = linear slope=0.5", "endowment =", 1),
     "line 7: model.endowment needs a kind (linear, sin, cos, tanh, square, "
     "exp), got nothing"),
    (MINIMAL.replace("dividend = linear slope=1", "dividend =", 1),
     "line 8: model.dividend needs a kind (linear, sin, cos, tanh, square, "
     "exp), got nothing"),
    # [flow]
    (FLOW + "kind = bogus\n",
     "line 11: flow.kind must be constant, schedule, or step, got 'bogus'"),
    (FLOW + "position = 0.5,0.5\n",
     "line 11: flow.position needs 1 entries, got 2"),
    (FLOW + "position = x\n",
     "line 11: flow.position must be a number, got 'x'"),
    (FLOW + "kind = schedule\npositions = 0.5\n",
     "flow.times is required for a schedule flow"),
    (FLOW + "kind = schedule\ntimes = 0,0.5\n",
     "flow.positions is required for a schedule flow"),
    (FLOW + "kind = schedule\ntimes = 0,0.5\npositions = 0.5\n",
     "line 13: flow.positions needs one row per time (2), got 1"),
    (FLOW + "kind = schedule\ntimes = 0,0.5\npositions = 0.5,1; 1\n",
     "line 13: flow.positions needs 1 entries, got 2"),
    (FLOW + "kind = step\nbefore = 0.5\nafter = 20\n",
     "flow.switch is required for a step flow"),
    (FLOW + "kind = step\nswitch = 0.5\nafter = 20\n",
     "flow.before is required for a step flow"),
    (FLOW + "kind = step\nswitch = 0.5\nbefore = 0.5\n",
     "flow.after is required for a step flow"),
    (FLOW + "kind = step\nswitch = 1\nbefore = 0.5\nafter = 20\n",
     "line 12: flow.switch must lie strictly inside (0, 1)"),
    (FLOW + "kind = step\nswitch = 0.5\nbefore = 0.5,1\nafter = 20\n",
     "line 13: flow.before needs 1 entries, got 2"),
    # a key of another flow kind is refused, not dropped
    (FLOW + "kind = constant\ntimes = 0,0.5\nswitch = zz\n",
     "line 12: flow.times belongs to a schedule flow, but flow.kind is "
     "constant"),
    (FLOW + "switch = 0.5\n",
     "line 11: flow.switch belongs to a step flow, but flow.kind is constant"),
    (FLOW + "position = 0.5\nkind = schedule\ntimes = 0\npositions = 0.5\n",
     "line 11: flow.position belongs to a constant flow, but flow.kind is "
     "schedule"),
    (FLOW + "kind = step\nswitch = 0.5\nbefore = 0.5\nafter = 20\n"
     "positions = 0.5\n",
     "line 15: flow.positions belongs to a schedule flow, but flow.kind is "
     "step"),
    # [sim], [grid], [output]
    (SIM + "dt = -0.5\n", "line 11: sim.dt must be positive and finite"),
    (SIM + "dt = x\n", "line 11: sim.dt must be a number, got 'x'"),
    # 1/dt is inf for the two smallest, 10**12 steps for the third
    (SIM + "dt = 1e-320\n", "line 11: sim.dt must give at most 1048576 steps"),
    (SIM + "dt = 5e-324\n", "line 11: sim.dt must give at most 1048576 steps"),
    (SIM + "dt = 1e-12\n", "line 11: sim.dt must give at most 1048576 steps"),
    (SIM + "dt = 2\n", "line 11: sim.dt must lie in (0, 1]"),
    (SIM + "dt = 0.3\n",
     "line 11: sim.dt must divide the unit horizon evenly"),
    (SIM + "paths = 0\n", "line 11: sim.paths must be at least 1"),
    (SIM + "paths = 1.5\n",
     "line 11: sim.paths must be an integer, got '1.5'"),
    (SIM + "seed = -1\n", "line 11: sim.seed must lie in [0, 2**64)"),
    (SIM + "eps = 0\n",
     "line 11: sim.eps must be positive and finite (or auto)"),
    (SIM + "quadrature = 257\n",
     "line 11: sim.quadrature must lie in [1, 256]"),
    (SIM + "coordinates = polar\n",
     "line 11: sim.coordinates must be log or direct, got 'polar'"),
    (SIM + "weights = 1,1,1\n", "line 11: sim.weights needs 2 entries, got 3"),
    (SIM + "weights = 1,0\n",
     "line 11: sim.weights must all be positive and finite"),
    (SIM + "cash = x\n", "line 11: sim.cash must be a number, got 'x'"),
    (MINIMAL + "\n[grid]\ntimes = 0,1.5\n",
     "line 11: grid.times must be nonempty within [0, 1]"),
    (MINIMAL + "\n[grid]\nlevels =\n",
     "line 11: grid.levels must be nonempty"),
    (MINIMAL + "\n[output]\npaths = -1\n",
     "line 11: output.paths must be nonnegative"),
    (MINIMAL + "\n[output]\nprecision = 2\n",
     "line 11: output.precision must lie in [3, 17]"),
    # cross-field checks and wrapped builder errors carry no line
    (FLOW + "kind = schedule\ntimes = 0.5,0.25\npositions = 0.5; 1\n",
     "flow: schedule times must start at 0 and increase"),
    (MINIMAL.replace("exponential aversion=2",
                     "tanh base=2 amplitude=5 c=2.5", 1),
     "agents.agent: tanh aversion must stay positive"),
]


@pytest.mark.parametrize("text,message", EXACT_MESSAGES,
                         ids=[message for _, message in EXACT_MESSAGES])
def test_each_check_gives_its_exact_message(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


NON_FINITE = [
    (MINIMAL + "\n[grid]\nlevels = -1,nan\n",
     "line 11: grid.levels must be finite, got 'nan'"),
    (FLOW + "position = inf\n",
     "line 11: flow.position must be finite, got 'inf'"),
    (FLOW + "kind = schedule\ntimes = 0,inf\npositions = 0; 0\n",
     "line 12: flow.times must be finite, got 'inf'"),
    (FLOW + "kind = schedule\ntimes = 0\npositions = nan\n",
     "line 13: flow.positions must be finite, got 'nan'"),
    (FLOW + "kind = step\nswitch = nan\nbefore = 0.5\nafter = 20\n",
     "line 12: flow.switch must be finite, got 'nan'"),
    (FLOW + "kind = step\nswitch = 0.5\nbefore = nan\nafter = 20\n",
     "line 13: flow.before must be finite, got 'nan'"),
    (FLOW + "kind = step\nswitch = 0.5\nbefore = 0.5\nafter = -inf\n",
     "line 14: flow.after must be finite, got '-inf'"),
    (MINIMAL.replace("aversion=2", "aversion=nan", 1),
     "line 3: agents.agent.aversion must be finite, got 'nan'"),
    (MINIMAL.replace("aversion=2", "aversion=inf", 1),
     "line 3: agents.agent.aversion must be finite, got 'inf'"),
    (MINIMAL.replace("aversion=2", "aversion=2 c=1e400", 1),
     "line 3: agents.agent.c must be finite, got '1e400'"),
    # the default band c = max(aversion, 1/aversion) overflows here
    (MINIMAL.replace("aversion=2", "aversion=1e-320", 1),
     "line 3: agents.agent.c must be finite, got 1/aversion = inf"),
    (MINIMAL.replace("exponential aversion=2",
                     "tanh base=inf amplitude=0.5 c=2.5", 1),
     "line 3: agents.agent.base must be finite, got 'inf'"),
    (MINIMAL.replace("exponential aversion=2",
                     "sin2 base=2 amplitude=nan c=2.5", 1),
     "line 3: agents.agent.amplitude must be finite, got 'nan'"),
    (MINIMAL.replace("exponential aversion=2",
                     "tanh base=2 amplitude=0.5 c=2.5 scale=-inf", 1),
     "line 3: agents.agent.scale must be finite, got '-inf'"),
    (MINIMAL.replace("slope=0.5", "slope=nan", 1),
     "line 7: model.endowment.slope must be finite, got 'nan'"),
    (MINIMAL.replace("slope=0.5", "slope=0.5 intercept=inf", 1),
     "line 7: model.endowment.intercept must be finite, got 'inf'"),
    (MINIMAL.replace("dividend = linear slope=1", "dividend = exp scale=inf"),
     "line 8: model.dividend.scale must be finite, got 'inf'"),
]


@pytest.mark.parametrize("text,message", NON_FINITE,
                         ids=[message for _, message in NON_FINITE])
def test_non_finite_numbers_name_the_key_and_line(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message
