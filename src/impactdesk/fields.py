"""Conditional expected-utility fields over the Brownian factor.

At time t with factor level z the desk's field is the expectation of
the shared terminal utility over the remaining noise,

    value(t, z, v, x, q) = E[ share(v, x + g(Z) + <q, f(Z)>) ],
    Z ~ N(z, 1 - t),

with ``share`` the optimal-split utility from `pareto`.  Derivatives in
(v, x) pass through the expectation, so each partial is the Gaussian
integral of the matching share partial.  Three consumers sit on top:

- the martingale integrand: cash marginal times the payoff slope at the
  terminal node (chain rule through the factor), plus its weight
  gradient;
- weight normalization onto the slice where the cash marginal is one;
- the conjugate solve: Newton inversion of (value_v, value_x) =
  (utilities, slope) in (log-weights, cash), whose solution carries the
  transform value cash*slope and recovers the weights as the gradient
  of that value in the utilities argument.

The SDE coefficient row for the dealer system is the integrand's weight
gradient at the conjugate point on the slope=1 slice.  Every Newton
residual evaluates the integrand too, so the row comes from the
evaluation that converged it; `coefficient_rows` is the one place that
builds it, for `sde`, `conditions` and the `fields` command alike.

Faults are per row.  `field_core` flags a row that leaves double
precision, or has a node with no sharing multiplier, in its `finite`
mask instead of raising, and the conjugate solve ends only the row at
fault; nothing is retried.  The single-state entries `eval_field`
and `normalize_weights` raise FieldRangeError themselves.  Every
quadrature sum is an einsum, so a row's bits do not depend on the batch
it is evaluated in, nor therefore on the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .market import MarketModel, malliavin_derivative
from .pareto import harmonic_aversion, sharing_derivatives
from .quadrature import MAX_STABLE_ORDER, QuadratureRule, degenerate_rule
from .utility import AgentSet

DEFAULT_ORDER = 64


class FieldRangeError(RuntimeError):
    """Quadrature left the representable range (utility under/overflow)."""


def _require_finite(out: dict, t: float):
    """Raise FieldRangeError if any evaluated row left double precision."""
    bad = ~out["finite"]
    if bad.any():
        raise FieldRangeError(
            f"field overflow at t={t:g} for {int(bad.sum())} of {bad.size} "
            "points; the terminal wealth drives the shared utility outside "
            "double precision")


class ConjugateInfeasibleError(RuntimeError):
    """Newton failed: requested marginals unreachable at this state."""

    def __init__(self, message: str, indices=None):
        super().__init__(message)
        self.indices = indices if indices is not None else ()


def _batched(z, v, x, q, n_members: int, n_dividends: int):
    """Coerce inputs to (B,), (B,M), (B,), (B,J) with a common B."""
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if v.shape[-1] != n_members:
        raise ValueError(f"weights have {v.shape[-1]} components, "
                         f"expected {n_members}")
    q = np.asarray(q, dtype=float) if q is not None else np.zeros(n_dividends)
    if q.ndim == 0:
        q = q.reshape(1)
    if q.ndim == 1:
        q = q[None, :]
    if q.shape[-1] != n_dividends:
        raise ValueError(f"position has {q.shape[-1]} components, "
                         f"expected {n_dividends}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b = max(z.shape[0], x.shape[0], v.shape[0], q.shape[0])
    z = np.broadcast_to(z, (b,))
    x = np.broadcast_to(x, (b,))
    v = np.broadcast_to(v, (b, n_members))
    q = np.broadcast_to(q, (b, n_dividends))
    return z, v, x, q


def field_core(agents: AgentSet, model: MarketModel, rule: QuadratureRule,
               t: float, level, weights, cash, position=None, order: int = 2,
               with_integrand: bool = False) -> dict:
    """Batched field evaluation; the engine behind every public entry.

    level (B,), weights (B,M), cash (B,), position (B,J); scalars
    broadcast.  Returns a dict of arrays keyed like the share partials
    (value, value_x, value_v, ... ) plus integrand / integrand_v when
    requested, and a (B,) mask `finite` of the rows whose value and cash
    marginal stayed inside double precision.  A row outside it is
    reported there, never raised, so it cannot stop the rest of the batch.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("time must lie in [0, 1]")
    z, v, x, q = _batched(level, weights, cash, position,
                          agents.size, model.n_dividends)
    b = z.shape[0]
    s = math.sqrt(max(1.0 - t, 0.0))
    if s == 0.0:
        rule = degenerate_rule()
    nodes = z[:, None] + s * rule.nodes                       # (B, n)
    wealth = x[:, None] + model.endowment.value(nodes)
    for j, payoff in enumerate(model.dividends):
        wealth = wealth + q[:, j:j + 1] * payoff.value(nodes)

    need = max(order, 2 if with_integrand else order)
    d = sharing_derivatives(
        agents, np.broadcast_to(v[:, None, :], (b, rule.n, agents.size)),
        wealth, order=need)

    # einsum rather than `@`: BLAS blocks a matrix-vector product by
    # batch size, so each row's bits would depend on its batch
    w = rule.weights
    out = {
        "value": np.einsum("bn,n->b", d["value"], w),
        "value_x": np.einsum("bn,n->b", d["value_x"], w),
        "value_v": np.einsum("bnm,n->bm", d["value_v"], w),
    }
    if order >= 2:
        out["value_xx"] = np.einsum("bn,n->b", d["value_xx"], w)
        out["value_xv"] = np.einsum("bnm,n->bm", d["value_xv"], w)
        out["value_vv"] = np.einsum("bnmk,n->bmk", d["value_vv"], w)
    if with_integrand:
        g_slope, f_slopes = malliavin_derivative(model, nodes)
        slope = g_slope
        if model.n_dividends:
            slope = slope + np.einsum("bj,jbn->bn", q, f_slopes)
        out["integrand"] = np.einsum("bn,bn,n->b", d["value_x"], slope, w)
        out["integrand_v"] = np.einsum("bnm,bn,n->bm", d["value_xv"], slope, w)

    out["finite"] = np.isfinite(out["value"]) & np.isfinite(out["value_x"])
    return out


@dataclass(frozen=True)
class FieldPoint:
    """Field value, partials, and martingale integrand at one state."""

    t: float
    level: float
    weights: np.ndarray
    cash: float
    position: np.ndarray
    value: float
    value_x: float
    value_v: np.ndarray
    value_xx: Optional[float] = None
    value_xv: Optional[np.ndarray] = None
    value_vv: Optional[np.ndarray] = None
    integrand: Optional[float] = None
    integrand_v: Optional[np.ndarray] = None
    rule_order: int = DEFAULT_ORDER


def eval_field(agents: AgentSet, model: MarketModel, t: float, level: float,
               weights, cash: float, position=None, order: int = 2,
               rule: Optional[QuadratureRule] = None,
               with_integrand: bool = False, rtol: float = 1e-9) -> FieldPoint:
    """Field at a single state.

    With an explicit rule the integral is taken as given; with
    rule=None the order doubles from the default until the value
    stabilizes to rtol (or the stable construction cap is hit).
    """
    if rule is None:
        n = DEFAULT_ORDER
        prev = None
        while True:
            used = QuadratureRule.gauss_hermite(n)
            out = field_core(agents, model, used, t, level, weights, cash,
                             position, order=order,
                             with_integrand=with_integrand)
            _require_finite(out, t)
            if prev is not None and abs(out["value"][0] - prev) <= \
                    rtol * abs(out["value"][0]):
                break
            prev = out["value"][0]
            if n >= MAX_STABLE_ORDER:
                break
            n = min(2 * n, MAX_STABLE_ORDER)
    else:
        used = rule
        out = field_core(agents, model, used, t, level, weights, cash,
                         position, order=order, with_integrand=with_integrand)
        _require_finite(out, t)

    def one(key):
        val = out.get(key)
        if val is None:
            return None
        return float(val[0]) if val.ndim == 1 else val[0]

    return FieldPoint(
        t=t, level=float(level),
        weights=np.atleast_1d(np.asarray(weights, dtype=float)),
        cash=float(cash),
        position=np.atleast_1d(np.asarray(
            position if position is not None else
            np.zeros(model.n_dividends), dtype=float)),
        value=one("value"), value_x=one("value_x"), value_v=one("value_v"),
        value_xx=one("value_xx"), value_xv=one("value_xv"),
        value_vv=one("value_vv"), integrand=one("integrand"),
        integrand_v=one("integrand_v"), rule_order=used.n)


def normalize_weights(agents: AgentSet, model: MarketModel,
                      rule: QuadratureRule, t: float, level, weights, cash,
                      position=None) -> np.ndarray:
    """Scale weights so the field's cash marginal equals one.

    The cash marginal is degree-1 homogeneous in the weights, so
    dividing by it lands exactly on the normalized slice and doing it
    twice is a no-op.
    """
    z, v, x, q = _batched(level, weights, cash, position,
                          agents.size, model.n_dividends)
    out = field_core(agents, model, rule, t, z, v, x, q, order=1)
    _require_finite(out, t)
    scaled = v / out["value_x"][:, None]
    return scaled[0] if np.asarray(weights).ndim <= 1 else scaled


@dataclass(frozen=True)
class ConjugatePoint:
    """Solved state where the field marginals hit prescribed targets.

    weights solves value_v(weights, cash) = utilities with
    value_x(weights, cash) = slope; value is cash*slope, the conjugate
    transform of the field, and weights is its gradient in the
    utilities argument.
    """

    t: float
    level: np.ndarray
    utilities: np.ndarray
    slope: np.ndarray
    position: np.ndarray
    weights: np.ndarray
    cash: np.ndarray
    value: np.ndarray
    iterations: int

    def item(self) -> "ConjugatePoint":
        """Squeeze a batch of one down to scalar fields."""
        return ConjugatePoint(
            t=self.t, level=float(self.level[0]),
            utilities=self.utilities[0], slope=float(self.slope[0]),
            position=self.position[0], weights=self.weights[0],
            cash=float(self.cash[0]), value=float(self.value[0]),
            iterations=self.iterations)


def _targets(agents, model, level, utilities, slope, position):
    """Check the conjugate targets and broadcast them to one batch."""
    u = np.atleast_2d(np.asarray(utilities, dtype=float))
    if np.any(u >= 0):
        raise ValueError("utility targets must be negative")
    b = u.shape[0]
    y = np.broadcast_to(np.atleast_1d(np.asarray(slope, dtype=float)), (b,))
    if np.any(y <= 0):
        raise ValueError("slope target must be positive")
    z, _, _, q = _batched(level, np.ones(agents.size), 0.0, position,
                          agents.size, model.n_dividends)
    z = np.broadcast_to(z, (b,)) if z.shape[0] == 1 else z
    q = np.broadcast_to(q, (b, model.n_dividends)) if q.shape[0] == 1 else q
    return z, u, y, q


@dataclass(frozen=True)
class ConjugateRows:
    """Per-row outcome of the batched conjugate solve.

    coefficient is the weight gradient of the martingale integrand at
    the solved state.  weights, cash and coefficient are nan on rows
    that did not converge.
    """

    weights: np.ndarray       # (B, M)
    cash: np.ndarray          # (B,)
    coefficient: np.ndarray   # (B, M)
    converged: np.ndarray     # (B,) bool
    iterations: int


def _conjugate_batch(agents, model, rule, t, level, utilities, slope,
                     position, warm=None, max_iter=100,
                     tol=1e-10) -> ConjugateRows:
    """Damped Newton in (log-weights, cash), one row per target state.

    The residual is log-scaled — log of the marginal ratios — which
    makes the tolerance meaningful across many orders of magnitude of
    utility levels and keeps weights positive by construction.  Every
    residual evaluation carries the integrand, so a row's coefficient
    comes from the evaluation that converged it.  A fault in one row —
    a non-finite start or field row, a non-finite or singular Jacobian —
    ends that row unconverged and leaves the others alone; a non-finite
    line-search trial halves only its own row's step.  The targets come
    checked and broadcast by `_targets`.
    """
    z, u, y, q = level, utilities, slope, position
    b, m = u.shape
    if warm is not None:
        w0, c0 = warm
        logv = np.log(np.broadcast_to(np.asarray(w0, dtype=float), (b, m)))
        cash = np.broadcast_to(
            np.atleast_1d(np.asarray(c0, dtype=float)), (b,)).copy()
    else:
        # constant-aversion guess: exact when every member is exponential
        # and payoffs vanish, close enough to land in the Newton basin
        a0 = agents.aversion_at_zero
        with np.errstate(over="ignore", divide="ignore"):
            v0 = -y[:, None] / (a0 * u)
            logv = np.log(v0)
        cash = np.full(b, np.nan)
        rows = np.flatnonzero(np.isfinite(logv).all(axis=1))
        if rows.size:
            probe = field_core(agents, model, rule, t, z[rows], v0[rows],
                               np.zeros(rows.size), q[rows], order=1)
            cash[rows] = (np.log(probe["value_x"] / y[rows])
                          / harmonic_aversion(a0))

    def residual(rows, logv_r, cash_r):
        with np.errstate(over="ignore"):
            v = np.exp(logv_r)
        out = field_core(agents, model, rule, t, z[rows], v, cash_r, q[rows],
                         order=2, with_integrand=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.concatenate(
                [np.log(-out["value_v"]) - np.log(-u[rows]),
                 (np.log(out["value_x"]) - np.log(y[rows]))[:, None]],
                axis=1)
        return out, rho

    coef = np.full((b, m), np.nan)
    converged = np.zeros(b, dtype=bool)
    active = np.flatnonzero(np.isfinite(logv).all(axis=1) & np.isfinite(cash))
    if active.size:
        out, rho = residual(active, logv[active], cash[active])
    iterations = 0
    while active.size:
        norm = np.abs(rho).max(axis=1)
        done = norm <= tol
        coef[active[done]] = out["integrand_v"][done]
        converged[active[done]] = True
        if iterations == max_iter:
            break
        iterations += 1

        jac = np.empty((active.size, m + 1, m + 1))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vv = np.exp(logv[active])
            jac[:, :m, :m] = vv[:, None, :] * out["value_vv"] \
                / out["value_v"][:, :, None]
            jac[:, :m, m] = out["value_xv"] / out["value_v"]
            jac[:, m, :m] = vv * out["value_xv"] / out["value_x"][:, None]
            jac[:, m, m] = out["value_xx"] / out["value_x"]
        # open rows go on unless their residual or Jacobian is non-finite
        # or the Jacobian is singular; a NaN norm is never done
        go = ~done & np.isfinite(norm) & np.isfinite(jac).all(axis=(1, 2))
        if go.any():
            go[go] = np.linalg.slogdet(jac[go])[0] != 0
        active, rho, norm, jac = active[go], rho[go], norm[go], jac[go]
        if not active.size:
            break
        step = np.linalg.solve(jac, -rho[:, :, None])[:, :, 0]

        alpha = np.ones(active.size)
        start_v, start_c = logv[active], cash[active]
        for _ in range(25):
            trial_v = start_v + alpha[:, None] * step[:, :m]
            trial_c = start_c + alpha * step[:, m]
            out, rho = residual(active, trial_v, trial_c)
            worse = ~(np.abs(rho).max(axis=1)
                      <= norm * (1 - 1e-4 * alpha))   # NaN is worse
            if not worse.any():
                break
            alpha = np.where(worse, alpha / 2, alpha)
        # the accepted trial's residual doubles as the next iteration's
        logv[active] = trial_v
        cash[active] = trial_c

    return ConjugateRows(
        weights=np.where(converged[:, None], np.exp(logv), np.nan),
        cash=np.where(converged, cash, np.nan), coefficient=coef,
        converged=converged, iterations=iterations)


def coefficient_rows(agents: AgentSet, model: MarketModel,
                     rule: QuadratureRule, t: float, level, utilities,
                     position, warm=None, max_iter: int = 100,
                     tol: float = 1e-10):
    """Diffusion rows of the dealer system, one per state, with a mask.

    Solves the conjugate system on the slope-one slice in one batch and
    returns (weights, cash, coefficient, ok), each row computed as it
    would be alone.  A row that does not converge — a row with no sharing
    multiplier included, whose field comes back NaN — is nan with ok
    False; nothing is retried.
    """
    z, u, y, q = _targets(agents, model, level, utilities, 1.0, position)
    res = _conjugate_batch(agents, model, rule, t, z, u, y, q, warm=warm,
                           max_iter=max_iter, tol=tol)
    return res.weights, res.cash, res.coefficient, res.converged


def _solve(agents, model, rule, t, level, utilities, slope, position,
           warm=None, max_iter=100, tol=1e-10):
    """Conjugate point and coefficient rows; raises unless every row
    converges."""
    z, u, y, q = _targets(agents, model, level, utilities, slope, position)
    res = _conjugate_batch(agents, model, rule, t, z, u, y, q, warm=warm,
                           max_iter=max_iter, tol=tol)
    if not res.converged.all():
        bad = np.flatnonzero(~res.converged)
        raise ConjugateInfeasibleError(
            f"conjugate solve failed for {bad.size} of "
            f"{res.converged.size} points at t={t:g} after "
            f"{res.iterations} damped Newton steps",
            indices=tuple(int(i) for i in bad))
    point = ConjugatePoint(t=t, level=z, utilities=u, slope=y, position=q,
                           weights=res.weights, cash=res.cash,
                           value=res.cash * y, iterations=res.iterations)
    return point, res.coefficient


def solve_conjugate(agents: AgentSet, model: MarketModel,
                    rule: QuadratureRule, t: float, level, utilities, slope,
                    position=None, warm=None, max_iter: int = 100,
                    tol: float = 1e-10) -> ConjugatePoint:
    """Invert the field marginals at one or many states.

    Raises ConjugateInfeasibleError when any point fails to converge —
    the requested utility levels are unreachable at that state (for the
    dealer system this is how explosion shows up).
    """
    point, _ = _solve(agents, model, rule, t, level, utilities, slope,
                      position, warm, max_iter, tol)
    return point.item() if np.asarray(utilities).ndim <= 1 else point


def eval_sde_coefficient(agents: AgentSet, model: MarketModel,
                         rule: QuadratureRule, t: float, level, utilities,
                         position=None, warm=None):
    """Diffusion row of the dealer system.

    The weight gradient of the martingale integrand at the conjugate
    point on the slope=1 slice, taken from the solve's own last field
    evaluation.  Returns (coefficient row(s), conjugate point) and
    raises ConjugateInfeasibleError when a row does not converge.
    """
    point, coef = _solve(agents, model, rule, t, level, utilities, 1.0,
                         position, warm)
    if np.asarray(utilities).ndim <= 1:
        return coef[0], point.item()
    return coef, point
