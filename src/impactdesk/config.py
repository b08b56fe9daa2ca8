"""Experiment configs: sectioned key=value text with a canonical echo.

The format is line oriented.  ``[section]`` opens a section, ``key =
value`` assigns, ``#`` starts a comment line, blank lines separate.
``agent`` and ``dividend`` lines repeat; everything else is single
valued.  ``parse_config`` fills every default, so the canonical echo of
a config always shows the complete effective experiment, and
``parse_config(cfg.echo()) == cfg`` holds exactly.  The first twelve
hex digits of the echo's SHA-256 tag every output file a run writes.

Every number must be finite, and every error names its key and, when
the text has one, its line.  Each key is one row of ``_KEYS``, which
parsing, checking and the echo all read.  Likewise each agent family and
payoff kind is one row of ``_AGENT_KINDS`` or ``_PAYOFF_KINDS``: the
parameters its line must give, the optional ones with their defaults,
and the builder of its member or payoff.  The named payoff kinds are
``market.NAMED_PAYOFFS``.
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

from .market import (NAMED_PAYOFFS, LinearPayoff, MarketModel, NamedPayoff,
                     market_model)
from .sde import (ConstantFlow, ScheduleFlow, SimulationConfig, step_count,
                  step_feedback)
from .utility import (AgentSet, SinSquareAversion, TanhAversion, agent_set,
                      build_from_risk_aversion, exponential_utility)


class ConfigError(ValueError):
    """Bad experiment text; carries the offending line when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class _Kind(NamedTuple):
    """One agent family or payoff kind of a config line."""

    required: tuple     # parameters the line must give
    optional: dict      # parameter -> default; None: filled at parse
    build: Callable     # {parameter: value} -> the member or payoff


_AGENT_KINDS = {
    "exponential": _Kind(("aversion",), {"c": None}, lambda p: (
        exponential_utility(p["aversion"], c_bound=p.get("c")))),
    "tanh": _Kind(("base", "amplitude", "c"), {"scale": 1.0}, lambda p: (
        build_from_risk_aversion(TanhAversion(
            p["base"], p["amplitude"], p["scale"]), c_bound=p["c"]))),
    "sin2": _Kind(("base", "amplitude", "c"), {"scale": 1.0}, lambda p: (
        build_from_risk_aversion(SinSquareAversion(
            p["base"], p["amplitude"], p["scale"]), c_bound=p["c"]))),
}
_PAYOFF_KINDS = {
    "linear": _Kind(("slope",), {"intercept": 0.0},
                    lambda p: LinearPayoff(p["slope"], p["intercept"])),
    **{name: _Kind((), {"scale": 1.0},
                   lambda p, name=name: NamedPayoff(name, p["scale"]))
       for name in NAMED_PAYOFFS},
}


def _suggest(word: str, known) -> str:
    close = difflib.get_close_matches(word, known, n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_list(xs) -> str:
    return ",".join(_fmt(x) for x in xs)


def _fmt_params(spec) -> str:
    kind, params = spec
    return " ".join([kind] + [f"{k}={_fmt(v)}" for k, v in params])


# Parsers take (text, key, line, fields read so far); the key and line
# name the text in every message.

def _parse_float(text: str, key: str, line=None, got=None) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}", line)
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}", line)
    return value


def _parse_int(text: str, key: str, line=None, got=None) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}", line)


def _parse_floats(text: str, key: str, line=None, got=None) -> tuple:
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    return tuple(_parse_float(p, key, line) for p in parts)


def parse_eps(text: str, key: str = "sim.eps", line=None,
              got=None) -> Optional[float]:
    """The `[sim] eps` value of `text`: a number, or None for `auto`."""
    return None if text == "auto" else _parse_float(text, key, line)


def _parse_word(text: str, key: str, line=None, got=None) -> str:
    return text


def _row_of(field: str):
    """A parser for one number per entry of an earlier field."""
    def parse(text, key, line, got):
        row = _parse_floats(text, key, line)
        if len(row) != len(got[field]):
            raise ConfigError(
                f"{key} needs {len(got[field])} entries, got {len(row)}", line)
        return row
    return parse


_per_dividend, _per_agent = _row_of("dividends"), _row_of("agents")


def _parse_positions(text: str, key: str, line, got) -> tuple:
    return tuple(_per_dividend(row, key, line, got)
                 for row in text.split(";"))


def _parse_params(tokens, key: str, table, line=None):
    """`name k=v ...` lines for agents and payoffs."""
    if not tokens:
        raise ConfigError(
            f"{key} needs a kind ({', '.join(table)}), got nothing", line)
    kind = tokens[0]
    if kind not in table:
        raise ConfigError(
            f"{key}: unknown kind {kind!r}{_suggest(kind, table)}", line)
    required, optional, _ = table[kind]
    seen = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ConfigError(
                f"{key}: expected parameter=value, got {tok!r}", line)
        name, _, raw = tok.partition("=")
        known = tuple(required) + tuple(optional)
        if name not in known:
            raise ConfigError(
                f"{key}: unknown parameter {name!r} for {kind!r}"
                f"{_suggest(name, known)}", line)
        if name in seen:
            raise ConfigError(f"{key}: duplicate parameter {name!r}", line)
        seen[name] = _parse_float(raw, f"{key}.{name}", line)
    for name in required:
        if name not in seen:
            raise ConfigError(
                f"{key}: {kind!r} needs parameter {name!r}", line)
    for name, default in optional.items():
        if name not in seen and default is not None:
            seen[name] = default
    return kind, tuple((n, seen[n]) for n in tuple(required) + tuple(optional)
                       if n in seen)


def _parse_agent(text: str, key: str, line, got):
    family, params = _parse_params(text.split(), key, _AGENT_KINDS, line)
    p = dict(params)
    if family == "exponential" and "c" not in p:
        # the band [1/c, c] defaults to the tightest one holding aversion
        if p["aversion"] <= 0:
            raise ConfigError(f"{key}: aversion must be positive", line)
        c = max(p["aversion"], 1.0 / p["aversion"])
        if not math.isfinite(c):
            raise ConfigError(f"{key}.c must be finite, got 1/aversion = "
                              f"{_fmt(c)}", line)
        params += (("c", c),)
    return family, params


def _parse_payoff(text: str, key: str, line, got):
    return _parse_params(text.split(), key, _PAYOFF_KINDS, line)


def _unless(ok, message: str):
    """A check giving `message` for a value that fails `ok`."""
    return lambda value, got: None if ok(value) else message


def _check_dt(dt: float, got) -> Optional[str]:
    if not 0 < dt < math.inf:
        return "sim.dt must be positive and finite"
    try:
        step_count(dt)
    except ValueError as exc:
        return f"sim.{exc}"


class _Key(NamedTuple):
    """One config key: where it sits, how it parses, checks and echoes."""

    section: str
    key: str
    field: str                  # the ExperimentConfig field it fills
    default: object             # text to parse, a function of the fields
                                # read so far, or None: `flow` needs it
    parse: Callable
    echo: Callable = _fmt
    check: Callable = lambda value, got: None   # -> message or None
    flow: Optional[str] = None  # the one flow kind that reads the key
    idle: object = ()           # the field's value under other flow kinds
    repeated: bool = False      # one line per entry of a tuple field


# Every key, in parse and echo order: a default may read the fields of
# the rows above it.
_KEYS = (
    _Key("agents", "agent", "agents", (), _parse_agent, _fmt_params,
         _unless(bool, "agents.agent: at least one agent is required"),
         repeated=True),
    _Key("model", "endowment", "endowment", "linear slope=0.0",
         _parse_payoff, _fmt_params),
    _Key("model", "dividend", "dividends", (), _parse_payoff, _fmt_params,
         repeated=True),
    _Key("flow", "kind", "flow_kind", "constant", _parse_word, str,
         lambda kind, got: None if kind in ("constant", "schedule", "step")
         else f"flow.kind must be constant, schedule, or step, got {kind!r}"),
    _Key("flow", "position", "flow_position",
         lambda got: (0.0,) * len(got["dividends"]), _per_dividend,
         _fmt_list, flow="constant"),
    _Key("flow", "times", "flow_times", None, _parse_floats, _fmt_list,
         flow="schedule"),
    _Key("flow", "positions", "flow_positions", None,
         _parse_positions,
         lambda rows: "; ".join(_fmt_list(row) for row in rows),
         lambda rows, got: None if len(rows) == len(got["flow_times"])
         else f"flow.positions needs one row per time "
              f"({len(got['flow_times'])}), got {len(rows)}",
         flow="schedule"),
    _Key("flow", "switch", "flow_switch", None, _parse_float,
         check=_unless(lambda s: 0.0 < s < 1.0,
                       "flow.switch must lie strictly inside (0, 1)"),
         flow="step", idle=0.0),
    _Key("flow", "before", "flow_before", None, _per_dividend,
         _fmt_list, flow="step"),
    _Key("flow", "after", "flow_after", None, _per_dividend,
         _fmt_list, flow="step"),
    _Key("sim", "dt", "dt", "0.015625", _parse_float,
         check=_check_dt),
    _Key("sim", "paths", "n_paths", "1", _parse_int, str,
         _unless(lambda n: n >= 1, "sim.paths must be at least 1")),
    _Key("sim", "seed", "seed", "0", _parse_int, str,
         _unless(lambda s: 0 <= s < 2**64, "sim.seed must lie in [0, 2**64)")),
    _Key("sim", "eps", "eps", "auto", parse_eps,
         lambda eps: "auto" if eps is None else _fmt(eps),
         _unless(lambda eps: eps is None or 0 < eps < math.inf,
                 "sim.eps must be positive and finite (or auto)")),
    _Key("sim", "quadrature", "quadrature", "64", _parse_int, str,
         _unless(lambda n: 1 <= n <= 256,
                 "sim.quadrature must lie in [1, 256]")),
    _Key("sim", "coordinates", "coordinates", "log", _parse_word, str,
         lambda c, got: None if c in ("log", "direct")
         else f"sim.coordinates must be log or direct, got {c!r}"),
    _Key("sim", "weights", "weights",
         lambda got: (1.0,) * len(got["agents"]), _per_agent,
         _fmt_list,
         _unless(lambda ws: all(0 < w < math.inf for w in ws),
                 "sim.weights must all be positive and finite")),
    _Key("sim", "cash", "cash", "0.0", _parse_float),
    _Key("grid", "times", "grid_times", "0.0,0.5,1.0", _parse_floats,
         _fmt_list,
         _unless(lambda ts: ts and all(0.0 <= t <= 1.0 for t in ts),
                 "grid.times must be nonempty within [0, 1]")),
    _Key("grid", "levels", "grid_levels", "-1.0,-0.5,0.0,0.5,1.0",
         _parse_floats, _fmt_list,
         _unless(bool, "grid.levels must be nonempty")),
    _Key("output", "paths", "output_paths", "1", _parse_int, str,
         _unless(lambda n: n >= 0, "output.paths must be nonnegative")),
    _Key("output", "precision", "precision", "12", _parse_int, str,
         _unless(lambda p: 3 <= p <= 17,
                 "output.precision must lie in [3, 17]")),
)
_SECTIONS = {section: tuple(row.key for row in rows)
             for section, rows in itertools.groupby(
                 _KEYS, operator.attrgetter("section"))}
_ROWS = {(row.section, row.key): row for row in _KEYS}


@functools.lru_cache(maxsize=1)
def _build_agent_set(agents: tuple) -> AgentSet:
    """The agent set of a config's `agents` entry.

    The last one built is kept, so parsing, an override and the run that
    follows share one build of each member's utility tables.
    """
    return agent_set(*(_AGENT_KINDS[family].build(dict(params))
                       for family, params in agents))


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: plain values only, builders attached."""

    agents: tuple                 # ((family, ((param, value), ...)), ...)
    endowment: tuple              # (kind, ((param, value), ...))
    dividends: tuple
    flow_kind: str
    flow_position: tuple          # constant flow
    flow_times: tuple             # schedule flow
    flow_positions: tuple         # schedule flow, one row per segment
    flow_switch: float            # step flow
    flow_before: tuple
    flow_after: tuple
    dt: float
    n_paths: int
    seed: int
    eps: Optional[float]
    quadrature: int
    coordinates: str
    weights: tuple
    cash: float
    grid_times: tuple
    grid_levels: tuple
    output_paths: int
    precision: int

    @property
    def n_members(self) -> int:
        return len(self.agents)

    @property
    def n_dividends(self) -> int:
        return len(self.dividends)

    def build_agents(self) -> AgentSet:
        return _build_agent_set(self.agents)

    def build_model(self) -> MarketModel:
        def payoff(spec):
            kind, params = spec
            return _PAYOFF_KINDS[kind].build(dict(params))

        return market_model(endowment=payoff(self.endowment),
                            dividends=tuple(payoff(s)
                                            for s in self.dividends))

    def build_flow(self):
        if self.flow_kind == "constant":
            return ConstantFlow(self.flow_position)
        if self.flow_kind == "schedule":
            return ScheduleFlow(self.flow_times, self.flow_positions)
        return step_feedback(self.flow_switch, self.flow_before,
                             self.flow_after)

    def build_sim(self) -> SimulationConfig:
        return SimulationConfig(dt=self.dt, n_paths=self.n_paths,
                                seed=self.seed, explosion_eps=self.eps,
                                quadrature_n=self.quadrature,
                                log_coordinates=self.coordinates == "log")

    def override(self, dt=None, paths=None, seed=None, quadrature=None,
                 eps="keep") -> "ExperimentConfig":
        changes = {field: cast(value) for field, cast, value in (
            ("dt", float, dt), ("n_paths", int, paths), ("seed", int, seed),
            ("quadrature", int, quadrature)) if value is not None}
        if eps != "keep":
            changes["eps"] = eps
        out = replace(self, **changes)
        _validate(out)
        return out

    def echo(self) -> str:
        lines = []
        for section, rows in itertools.groupby(
                _KEYS, operator.attrgetter("section")):
            lines.append(f"[{section}]")
            for row in rows:
                if row.flow in (None, self.flow_kind):
                    value = getattr(self, row.field)
                    lines += [f"{row.key} = {row.echo(v)}" for v in
                              (value if row.repeated else (value,))]
            lines.append("")
        return "\n".join(lines)

    @property
    def content_hash(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()[:12]


def _scan(text: str):
    """Raw {(section, key): [(value, line), ...]}, syntax errors located."""
    entries = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{name}]{_suggest(name, _SECTIONS)}",
                    lineno)
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if section is None:
            raise ConfigError("assignment before any [section]", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        known = _SECTIONS[section]
        if key not in known:
            raise ConfigError(
                f"unknown key {key!r} in [{section}]{_suggest(key, known)}",
                lineno)
        if (section, key) in entries and not _ROWS[section, key].repeated:
            raise ConfigError(f"duplicate key {section}.{key}", lineno)
        entries.setdefault((section, key), []).append((value, lineno))
    return entries


def parse_config(text: str) -> ExperimentConfig:
    """Parse, validate, and fill every default; see the module docstring."""
    entries = _scan(text)
    got = {}
    for row in _KEYS:
        name = f"{row.section}.{row.key}"
        found = entries.get((row.section, row.key), ())
        if row.flow and row.flow != got["flow_kind"]:
            if found:
                raise ConfigError(
                    f"{name} belongs to a {row.flow} flow, but flow.kind "
                    f"is {got['flow_kind']}", found[0][1])
            got[row.field] = row.idle
            continue
        line = None
        if row.repeated:
            value = tuple(row.parse(v, name, ln, got) for v, ln in found)
        elif found:
            (raw, line), = found
            value = row.parse(raw, name, line, got)
        elif row.default is None:
            raise ConfigError(f"{name} is required for a {row.flow} flow")
        elif callable(row.default):
            value = row.default(got)
        else:
            value = row.parse(row.default, name, None, got)
        message = row.check(value, got)
        if message:
            raise ConfigError(message, line)
        got[row.field] = value
    cfg = ExperimentConfig(**got)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    """Every key's check again, then the cross-field checks; overrides
    can invalidate any of them."""
    got = vars(cfg)
    for row in _KEYS:
        if row.flow in (None, cfg.flow_kind):
            message = row.check(got[row.field], got)
            if message:
                raise ConfigError(message)
    # eagerly build everything so a bad config never reaches a run
    for key, build in (("agents.agent", cfg.build_agents),
                       ("model", cfg.build_model),
                       ("flow", cfg.build_flow),
                       ("sim", cfg.build_sim)):
        try:
            build()
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"{key}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
