"""Terminal-payoff market on a single Brownian factor.

The desk trades against one noise source B over [0, 1].  Book-level
wealth at the horizon is

    x + g(B_1) + sum_j q_j f_j(B_1)

with endowment profile g and dividend profiles f_j.  Payoffs are
deterministic functions of the terminal factor level, so factor
sensitivities reduce to the chain rule through the payoff slope, and
every conditional expectation downstream is a one-dimensional Gaussian
integral.

Whether those integrals are finite at all is a property of the payoff
tails.  ``check_integrability`` estimates the dominating exponential
moments with nested Gauss-Hermite rules and reports which ones
stabilize; divergence is flagged heuristically from unbounded growth of
the estimates (an integral cannot be proven infinite numerically).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .pareto import harmonic_aversion
from .quadrature import QuadratureRule, nested_orders
from .utility import AgentSet


class UnsupportedPayoffError(ValueError):
    """Payoff does not expose the analytic slope an operation needs."""


# --------------------------------------------------------------------------
# payoff profiles


class LinearPayoff:
    """slope * z + intercept."""

    def __init__(self, slope: float, intercept: float = 0.0):
        self.slope = float(slope)
        self.intercept = float(intercept)
        self.bounded = self.slope == 0.0
        self.slope_bounded = True
        self.label = f"linear({self.slope:g},{self.intercept:g})"

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return self.slope * z + self.intercept

    def derivative(self, z):
        return np.full_like(np.asarray(z, dtype=float), self.slope)

    def lipschitz_constant(self, radius: float = 20.0) -> float:
        return abs(self.slope)


_NAMED: dict[str, tuple[Callable, Callable, bool, bool]] = {
    # name -> (value, slope, bounded, slope_bounded)
    "sin": (np.sin, np.cos, True, True),
    "cos": (np.cos, lambda z: -np.sin(z), True, True),
    "tanh": (np.tanh, lambda z: 1.0 / np.cosh(z) ** 2, True, True),
    "square": (np.square, lambda z: 2.0 * z, False, False),
    "exp": (np.exp, np.exp, False, False),
}


class NamedPayoff:
    """scale * base(z) for a registered smooth base profile."""

    def __init__(self, name: str, scale: float = 1.0):
        if name not in _NAMED:
            raise UnsupportedPayoffError(
                f"unknown payoff name {name!r}; choices: {sorted(_NAMED)}")
        self.name = name
        self.scale = float(scale)
        self._value, self._slope, base_bounded, base_lip = _NAMED[name]
        self.bounded = base_bounded or self.scale == 0.0
        self.slope_bounded = base_lip or self.scale == 0.0
        self.label = f"{name}(scale={self.scale:g})"

    def value(self, z):
        return self.scale * self._value(np.asarray(z, dtype=float))

    def derivative(self, z):
        return self.scale * self._slope(np.asarray(z, dtype=float))

    def lipschitz_constant(self, radius: float = 20.0) -> float:
        grid = np.linspace(-radius, radius, 4001)
        return float(np.abs(self.derivative(grid)).max())


class TablePayoff:
    """Piecewise-linear interpolation through (knot, value) pairs.

    Between knots the slope of the active segment applies; outside the
    table the end segments extend linearly.  At a knot itself the slope
    of the segment to the LEFT is reported — knots are a null set under
    the factor law, so the convention cannot affect any expectation.
    """

    def __init__(self, knots: Sequence[float], values: Sequence[float]):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
            raise ValueError("need matching 1-d knot/value arrays, >= 2 knots")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        self.knots = knots
        self.values = values
        self.slopes = np.diff(values) / np.diff(knots)
        self.bounded = bool(np.all(self.slopes == 0.0))
        self.slope_bounded = True
        self.label = f"table({knots.size} knots)"

    def value(self, z):
        z = np.asarray(z, dtype=float)
        out = np.interp(z, self.knots, self.values)
        lo = z < self.knots[0]
        hi = z > self.knots[-1]
        if np.any(lo):
            out = np.where(
                lo, self.values[0] + self.slopes[0] * (z - self.knots[0]), out)
        if np.any(hi):
            out = np.where(
                hi, self.values[-1] + self.slopes[-1] * (z - self.knots[-1]),
                out)
        return out

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        # side="left" puts an exact knot hit into the segment on its left
        idx = np.searchsorted(self.knots, z, side="left") - 1
        idx = np.clip(idx, 0, self.slopes.size - 1)
        return self.slopes[idx]

    def lipschitz_constant(self, radius: float = 20.0) -> float:
        return float(np.abs(self.slopes).max())


class CustomPayoff:
    """Caller-supplied profile; slope optional."""

    def __init__(self, fn: Callable, slope: Optional[Callable] = None,
                 bounded: bool = False, slope_bounded: Optional[bool] = None,
                 label: str = "custom"):
        self._fn = fn
        self._slope = slope
        self.bounded = bounded
        self.slope_bounded = slope_bounded
        self.label = label

    def value(self, z):
        return np.asarray(self._fn(np.asarray(z, dtype=float)), dtype=float)

    def derivative(self, z):
        if self._slope is None:
            raise UnsupportedPayoffError(
                f"payoff {self.label!r} declares no slope")
        return np.asarray(self._slope(np.asarray(z, dtype=float)), dtype=float)

    def lipschitz_constant(self, radius: float = 20.0) -> float:
        grid = np.linspace(-radius, radius, 4001)
        return float(np.abs(self.derivative(grid)).max())


ZERO_PAYOFF = LinearPayoff(0.0, 0.0)


# --------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class MarketModel:
    """One-factor market: endowment profile plus J dividend profiles."""

    endowment: object = ZERO_PAYOFF
    dividends: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "dividends", tuple(self.dividends))
        for p in (self.endowment, *self.dividends):
            if not callable(getattr(p, "value", None)):
                raise TypeError(f"not a payoff: {p!r}")

    @property
    def n_dividends(self) -> int:
        return len(self.dividends)


def market_model(endowment=None, dividends=()) -> MarketModel:
    return MarketModel(endowment=endowment or ZERO_PAYOFF,
                       dividends=tuple(dividends))


def terminal_wealth(model: MarketModel, x, q, z):
    """Book wealth at the horizon: x + g(z) + <q, f(z)>.

    x is cash, q the dividend position vector, z the terminal factor
    level; z may be an array.
    """
    z = np.asarray(z, dtype=float)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.shape != (model.n_dividends,):
        raise ValueError(
            f"position has {q.size} components, model has "
            f"{model.n_dividends} dividends")
    total = x + model.endowment.value(z)
    for qj, payoff in zip(q, model.dividends):
        if qj != 0.0:
            total = total + qj * payoff.value(z)
    return total


def malliavin_derivative(model: MarketModel, z):
    """Factor sensitivities (g'(z), f'(z)) of the terminal payoffs.

    For payoffs of the terminal factor level the sensitivity process is
    constant in time and equals the chain-rule slope at z.  Payoffs
    without a declared slope raise UnsupportedPayoffError.
    """
    z = np.asarray(z, dtype=float)
    g_slope = np.asarray(model.endowment.derivative(z), dtype=float)
    f_slopes = np.stack(
        [np.broadcast_to(np.asarray(p.derivative(z), dtype=float), z.shape)
         for p in model.dividends]) if model.dividends else np.zeros((0,) + z.shape)
    return g_slope, f_slopes


# --------------------------------------------------------------------------
# exponential moments and integrability verdicts

MODES = ("value", "baseline", "exponential", "strong")


def _logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    if not np.isfinite(m):
        return float(m)  # all -inf (empty mass) or a +inf spike
    return float(m + np.log(np.sum(np.exp(a - m))))


def _log_moment_ladder(exponent_fn, rtol: float, orders: Sequence[int]):
    """Nested-rule estimates of log E[exp(exponent_fn(Z))]."""
    history = []
    prev = None
    for n in orders:
        rule = QuadratureRule.gauss_hermite(n)
        est = _logsumexp(exponent_fn(rule.nodes) + np.log(rule.weights))
        history.append((n, est))
        if prev is not None:
            if est == prev or abs(est - prev) <= rtol:
                return est, n, True, history
        prev = est
    return history[-1][1], history[-1][0], False, history


@dataclass(frozen=True)
class MomentEstimate:
    """Stabilized (or not) nested-quadrature exponential moment."""

    log_value: float
    order: int
    stabilized: bool
    history: tuple

    @property
    def value(self) -> float:
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf


def exponential_moment(payoff, p: float, rtol: float = 1e-6,
                       orders: Optional[Sequence[int]] = None) -> MomentEstimate:
    """E[exp(p * payoff(Z))] for standard normal Z, by the nested ladder."""
    orders = list(orders) if orders is not None else nested_orders()
    log_est, order, ok, hist = _log_moment_ladder(
        lambda z: p * payoff.value(z), rtol, orders)
    return MomentEstimate(log_value=log_est, order=order, stabilized=ok,
                          history=tuple(hist))


@dataclass(frozen=True)
class IntegrabilityReport:
    """Per-p verdicts for one exponential-moment condition."""

    mode: str
    p_values: tuple
    verdicts: tuple          # "PASS" | "DIVERGENT", aligned with p_values
    log_estimates: tuple     # log of the dominating smooth-term sum
    orders: tuple            # highest rule order consulted per p
    n_terms: int             # smooth terms in the kink decomposition

    @property
    def verdict(self) -> str:
        return "PASS" if all(v == "PASS" for v in self.verdicts) else "DIVERGENT"

    def lines(self) -> list[str]:
        out = []
        for p, v, log_e, n in zip(self.p_values, self.verdicts,
                                  self.log_estimates, self.orders):
            out.append(f"{self.mode} p={p:g}: {v} "
                       f"(log-moment {log_e:.6g}, order {n})")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def check_integrability(model: MarketModel, agents: AgentSet,
                        p_values: Sequence[float] = (1.0, 2.0, 4.0),
                        mode: str = "baseline",
                        rtol: float = 1e-6) -> IntegrabilityReport:
    """Estimate the exponential moments a given wellposedness regime needs.

    Every regime requires E[exp(p|f(Z)| + kappa * h(g(Z)))] < infinity,
    with the dividend part always in absolute value and the endowment
    part depending on the mode:

    - "value":       p and the negative part of g both scaled by
                     (aversion cap) / (number of members) — the envelope
                     that dominates the utility field itself at position
                     size p;
    - "baseline":    negative part of g scaled by cap/members;
    - "exponential": signed g weighted by the harmonic mean of the
                     members' aversion at zero (the exact tilt when all
                     members have constant aversion);
    - "strong":      negative part of g scaled by 2*cap/members.

    The kinks from |f| and the negative part make plain quadrature
    meaningless, so the integrand is first split over the 2^J dividend
    sign patterns (and an on/off factor for the endowment part); the sum
    of the resulting smooth terms is finite exactly when the original
    moment is.  Each term runs the nested ladder; PASS means every term
    stabilized (successive change of log estimate <= rtol), otherwise
    the growth is reported as DIVERGENT.  Terms built entirely from
    payoffs that declare themselves bounded are finite by construction
    and PASS outright even if oscillation keeps the capped ladder from
    resolving the value to rtol.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    nm = agents.size
    cap = agents.c
    if mode == "exponential":
        g_coeffs = [-harmonic_aversion(agents.aversion_at_zero)]
    elif mode == "strong":
        g_coeffs = [0.0, -2.0 * cap / nm]
    else:
        g_coeffs = [0.0, -cap / nm]

    verdicts, logs, orders_used = [], [], []
    signs = list(itertools.product((-1.0, 1.0), repeat=model.n_dividends))
    ladder = nested_orders()
    for p in p_values:
        p_f = (cap / nm) * p if mode == "value" else p
        term_logs = []
        all_ok = True
        top_order = ladder[0]
        for sigma in signs:
            for kg in g_coeffs:

                def exponent(z, sigma=sigma, kg=kg):
                    acc = kg * model.endowment.value(z) if kg != 0.0 \
                        else np.zeros_like(z)
                    for s, payoff in zip(sigma, model.dividends):
                        acc = acc + (p_f * s) * payoff.value(z)
                    return acc

                term_bounded = (kg == 0.0 or model.endowment.bounded) and \
                    all(p.bounded or p_f == 0.0 for p in model.dividends)
                log_est, order, ok, _ = _log_moment_ladder(
                    exponent, rtol, ladder)
                term_logs.append(log_est)
                all_ok = all_ok and (ok or term_bounded)
                top_order = max(top_order, order)
        verdicts.append("PASS" if all_ok else "DIVERGENT")
        logs.append(_logsumexp(np.asarray(term_logs)))
        orders_used.append(top_order)
    return IntegrabilityReport(
        mode=mode, p_values=tuple(float(p) for p in p_values),
        verdicts=tuple(verdicts), log_estimates=tuple(logs),
        orders=tuple(orders_used),
        n_terms=len(signs) * len(g_coeffs))
