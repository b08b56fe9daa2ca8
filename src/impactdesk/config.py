"""Experiment configs: sectioned key=value text with a canonical echo.

The format is line oriented.  ``[section]`` opens a section, ``key =
value`` assigns, ``#`` starts a comment line, blank lines separate.
``agent`` and ``dividend`` lines repeat; everything else is single
valued.  ``parse_config`` fills every default, so the canonical echo of
a config always shows the complete effective experiment, and
``parse_config(cfg.echo()) == cfg`` holds exactly.  The first twelve
hex digits of the echo's SHA-256 tag every output file a run writes.
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import math
from dataclasses import dataclass, replace
from typing import Optional

from .market import LinearPayoff, MarketModel, NamedPayoff, market_model
from .sde import ConstantFlow, ScheduleFlow, SimulationConfig, step_feedback
from .utility import (AgentSet, SinSquareAversion, TanhAversion, agent_set,
                      build_from_risk_aversion, exponential_utility)


class ConfigError(ValueError):
    """Bad experiment text; carries the offending line when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_SECTIONS = {
    "agents": ("agent",),
    "model": ("endowment", "dividend"),
    "flow": ("kind", "position", "times", "positions", "switch", "before",
             "after"),
    "sim": ("dt", "paths", "seed", "eps", "quadrature", "coordinates",
            "weights", "cash"),
    "grid": ("times", "levels"),
    "output": ("paths", "precision"),
}
_REPEATED = {("agents", "agent"), ("model", "dividend")}

# family -> (required params, optional params with defaults)
_AGENT_PARAMS = {
    "exponential": (("aversion",), {"c": None}),
    "tanh": (("base", "amplitude", "c"), {"scale": 1.0}),
    "sin2": (("base", "amplitude", "c"), {"scale": 1.0}),
}
_PAYOFF_PARAMS = {
    "linear": (("slope",), {"intercept": 0.0}),
    "sin": ((), {"scale": 1.0}),
    "cos": ((), {"scale": 1.0}),
    "tanh": ((), {"scale": 1.0}),
    "square": ((), {"scale": 1.0}),
    "exp": ((), {"scale": 1.0}),
}


def _suggest(word: str, known) -> str:
    close = difflib.get_close_matches(word, known, n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_list(xs) -> str:
    return ",".join(_fmt(x) for x in xs)


def _parse_float(text: str, key: str, line=None) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}", line)


def _parse_int(text: str, key: str, line=None) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}", line)


def _parse_floats(text: str, key: str, line=None) -> tuple:
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    return tuple(_parse_float(p, key, line) for p in parts)


def _parse_eps(text: str, key: str, line=None) -> Optional[float]:
    return None if text == "auto" else _parse_float(text, key, line)


# [sim] scalars as (key, field, default, parser, fault, message); parsing
# checks each fault at its key's line, an override without one
_SIM_SCALARS = (
    ("dt", "dt", "0.015625", _parse_float, lambda v: not 0 < v < math.inf,
     "sim.dt must be positive and finite"),
    ("paths", "n_paths", "1", _parse_int, lambda v: v < 1,
     "sim.paths must be at least 1"),
    ("seed", "seed", "0", _parse_int, lambda v: not 0 <= v < 2**64,
     "sim.seed must lie in [0, 2**64)"),
    ("eps", "eps", "auto", _parse_eps,
     lambda v: v is not None and not 0 < v < math.inf,
     "sim.eps must be positive and finite (or auto)"),
    ("quadrature", "quadrature", "64", _parse_int,
     lambda v: not 1 <= v <= 256, "sim.quadrature must lie in [1, 256]"),
)


def _parse_params(tokens, key: str, table, line=None):
    """`name k=v ...` lines for agents and payoffs."""
    kind = tokens[0]
    if kind not in table:
        raise ConfigError(
            f"{key}: unknown kind {kind!r}{_suggest(kind, table)}", line)
    required, optional = table[kind]
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


@functools.lru_cache(maxsize=1)
def _build_agent_set(agents: tuple) -> AgentSet:
    """The agent set of a config's `agents` entry.

    The last one built is kept, so parsing, an override and the run that
    follows share one build of each member's utility tables.
    """
    members = []
    for family, params in agents:
        p = dict(params)
        if family == "exponential":
            members.append(exponential_utility(p["aversion"],
                                               c_bound=p.get("c")))
        elif family == "tanh":
            members.append(build_from_risk_aversion(
                TanhAversion(p["base"], p["amplitude"], p["scale"]),
                c_bound=p["c"]))
        else:
            members.append(build_from_risk_aversion(
                SinSquareAversion(p["base"], p["amplitude"], p["scale"]),
                c_bound=p["c"]))
    return agent_set(*members)


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
            p = dict(params)
            if kind == "linear":
                return LinearPayoff(p["slope"], p["intercept"])
            return NamedPayoff(kind, p["scale"])

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
        out = self
        if dt is not None:
            out = replace(out, dt=float(dt))
        if paths is not None:
            out = replace(out, n_paths=int(paths))
        if seed is not None:
            out = replace(out, seed=int(seed))
        if quadrature is not None:
            out = replace(out, quadrature=int(quadrature))
        if eps != "keep":
            out = replace(out, eps=eps)
        _validate(out)
        return out

    def echo(self) -> str:
        lines = ["[agents]"]
        for family, params in self.agents:
            rest = " ".join(f"{k}={_fmt(v)}" for k, v in params)
            lines.append(f"agent = {family} {rest}".rstrip())
        lines.append("")
        lines.append("[model]")
        kind, params = self.endowment
        rest = " ".join(f"{k}={_fmt(v)}" for k, v in params)
        lines.append(f"endowment = {kind} {rest}".rstrip())
        for kind, params in self.dividends:
            rest = " ".join(f"{k}={_fmt(v)}" for k, v in params)
            lines.append(f"dividend = {kind} {rest}".rstrip())
        lines.append("")
        lines.append("[flow]")
        lines.append(f"kind = {self.flow_kind}")
        if self.flow_kind == "constant":
            lines.append(f"position = {_fmt_list(self.flow_position)}")
        elif self.flow_kind == "schedule":
            lines.append(f"times = {_fmt_list(self.flow_times)}")
            rows = "; ".join(_fmt_list(row) for row in self.flow_positions)
            lines.append(f"positions = {rows}")
        else:
            lines.append(f"switch = {_fmt(self.flow_switch)}")
            lines.append(f"before = {_fmt_list(self.flow_before)}")
            lines.append(f"after = {_fmt_list(self.flow_after)}")
        lines.append("")
        lines.append("[sim]")
        lines.append(f"dt = {_fmt(self.dt)}")
        lines.append(f"paths = {self.n_paths}")
        lines.append(f"seed = {self.seed}")
        lines.append("eps = auto" if self.eps is None
                     else f"eps = {_fmt(self.eps)}")
        lines.append(f"quadrature = {self.quadrature}")
        lines.append(f"coordinates = {self.coordinates}")
        lines.append(f"weights = {_fmt_list(self.weights)}")
        lines.append(f"cash = {_fmt(self.cash)}")
        lines.append("")
        lines.append("[grid]")
        lines.append(f"times = {_fmt_list(self.grid_times)}")
        lines.append(f"levels = {_fmt_list(self.grid_levels)}")
        lines.append("")
        lines.append("[output]")
        lines.append(f"paths = {self.output_paths}")
        lines.append(f"precision = {self.precision}")
        lines.append("")
        return "\n".join(lines)

    @property
    def content_hash(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()[:12]


def _scan(text: str):
    """Raw (section, key, value, line) entries with syntax errors located."""
    entries = []
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
        if (section, key) not in _REPEATED and \
                any(s == section and k == key for s, k, _, _ in entries):
            raise ConfigError(f"duplicate key {section}.{key}", lineno)
        entries.append((section, key, value, lineno))
    return entries


def parse_config(text: str) -> ExperimentConfig:
    """Parse, validate, and fill every default; see the module docstring."""
    entries = _scan(text)

    def items(section, key):
        return [(v, ln) for s, k, v, ln in entries
                if s == section and k == key]

    def single(section, key, default=None):
        got = items(section, key)
        return got[0] if got else (default, None)

    agents = []
    for value, ln in items("agents", "agent"):
        family, params = _parse_params(value.split(), "agents.agent",
                                       _AGENT_PARAMS, ln)
        if family == "exponential":
            p = dict(params)
            if "c" not in p:
                a = p["aversion"]
                if a <= 0:
                    raise ConfigError(
                        "agents.agent: aversion must be positive", ln)
                params = params + (("c", max(a, 1.0 / a)),)
        agents.append((family, params))
    if not agents:
        raise ConfigError("agents.agent: at least one agent is required")

    endow_raw, ln = single("model", "endowment", "linear slope=0.0")
    endowment = _parse_params(endow_raw.split(), "model.endowment",
                              _PAYOFF_PARAMS, ln)
    dividends = tuple(
        _parse_params(value.split(), "model.dividend", _PAYOFF_PARAMS, ln)
        for value, ln in items("model", "dividend"))
    n_members, n_dividends = len(agents), len(dividends)

    kind, ln = single("flow", "kind", "constant")
    if kind not in ("constant", "schedule", "step"):
        raise ConfigError(
            f"flow.kind must be constant, schedule, or step, got {kind!r}",
            ln)
    flow_position = ()
    flow_times, flow_positions = (), ()
    flow_switch, flow_before, flow_after = 0.0, (), ()

    def positions_row(text, key, ln):
        row = _parse_floats(text, key, ln)
        if len(row) != n_dividends:
            raise ConfigError(
                f"{key} needs {n_dividends} entries, got {len(row)}", ln)
        return row

    if kind == "constant":
        raw, ln = single("flow", "position")
        flow_position = (positions_row(raw, "flow.position", ln)
                         if raw is not None else (0.0,) * n_dividends)
    elif kind == "schedule":
        raw, ln = single("flow", "times")
        if raw is None:
            raise ConfigError("flow.times is required for a schedule flow")
        flow_times = _parse_floats(raw, "flow.times", ln)
        raw, ln = single("flow", "positions")
        if raw is None:
            raise ConfigError(
                "flow.positions is required for a schedule flow")
        flow_positions = tuple(
            positions_row(row, "flow.positions", ln)
            for row in raw.split(";"))
        if len(flow_positions) != len(flow_times):
            raise ConfigError(
                f"flow.positions needs one row per time "
                f"({len(flow_times)}), got {len(flow_positions)}", ln)
    else:
        raw, ln = single("flow", "switch")
        if raw is None:
            raise ConfigError("flow.switch is required for a step flow")
        flow_switch = _parse_float(raw, "flow.switch", ln)
        if not 0.0 < flow_switch < 1.0:
            raise ConfigError("flow.switch must lie strictly inside (0, 1)",
                              ln)
        for name in ("before", "after"):
            raw, ln = single("flow", name)
            if raw is None:
                raise ConfigError(
                    f"flow.{name} is required for a step flow")
            row = positions_row(raw, f"flow.{name}", ln)
            if name == "before":
                flow_before = row
            else:
                flow_after = row

    sim = {}
    for key, field, default, parse, fault, message in _SIM_SCALARS:
        raw, ln = single("sim", key, default)
        sim[field] = parse(raw, f"sim.{key}", ln)
        if fault(sim[field]):
            raise ConfigError(message, ln)
    coordinates, ln = single("sim", "coordinates", "log")
    if coordinates not in ("log", "direct"):
        raise ConfigError(
            f"sim.coordinates must be log or direct, got {coordinates!r}",
            ln)
    raw, ln = single("sim", "weights")
    weights = (_parse_floats(raw, "sim.weights", ln)
               if raw is not None else (1.0,) * n_members)
    if len(weights) != n_members:
        raise ConfigError(
            f"sim.weights needs {n_members} entries, got {len(weights)}", ln)
    if any(not 0 < w < math.inf for w in weights):
        raise ConfigError("sim.weights must all be positive and finite", ln)
    raw, ln = single("sim", "cash", "0.0")
    cash = _parse_float(raw, "sim.cash", ln)
    if not math.isfinite(cash):
        raise ConfigError("sim.cash must be finite", ln)

    raw, ln = single("grid", "times", "0.0,0.5,1.0")
    grid_times = _parse_floats(raw, "grid.times", ln)
    if not grid_times or any(not 0.0 <= t <= 1.0 for t in grid_times):
        raise ConfigError("grid.times must be nonempty within [0, 1]", ln)
    raw, ln = single("grid", "levels", "-1.0,-0.5,0.0,0.5,1.0")
    grid_levels = _parse_floats(raw, "grid.levels", ln)
    if not grid_levels:
        raise ConfigError("grid.levels must be nonempty", ln)

    raw, ln = single("output", "paths", "1")
    output_paths = _parse_int(raw, "output.paths", ln)
    if output_paths < 0:
        raise ConfigError("output.paths must be nonnegative", ln)
    raw, ln = single("output", "precision", "12")
    precision = _parse_int(raw, "output.precision", ln)
    if not 3 <= precision <= 17:
        raise ConfigError("output.precision must lie in [3, 17]", ln)

    cfg = ExperimentConfig(
        agents=tuple(agents), endowment=endowment, dividends=dividends,
        flow_kind=kind, flow_position=flow_position, flow_times=flow_times,
        flow_positions=flow_positions, flow_switch=flow_switch,
        flow_before=flow_before, flow_after=flow_after,
        coordinates=coordinates, weights=weights, cash=cash,
        grid_times=grid_times, grid_levels=grid_levels,
        output_paths=output_paths, precision=precision, **sim)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    """Cross-field checks that overrides can invalidate again."""
    for _, field, _, _, fault, message in _SIM_SCALARS:
        if fault(getattr(cfg, field)):
            raise ConfigError(message)
    steps = 1.0 / cfg.dt
    if abs(round(steps) - steps) > 1e-9:
        raise ConfigError("sim.dt must divide the unit horizon evenly")
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
