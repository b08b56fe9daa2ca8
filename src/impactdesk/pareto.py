"""Optimal risk sharing across dealers (weighted sup-convolution).

For positive weights v and aggregate wealth x the dealers split x so as to
maximize sum_m v^m u_m(y^m) over allocations with sum_m y^m = x.  The
first-order conditions equalize weighted marginal utilities at a common
multiplier lam = d(value)/dx:

    v^m u_m'(y^m) = lam,        sum_m y^m = x.

The solver runs a bracket-safeguarded Newton iteration in log(lam)
(the "rtsafe" hybrid of Numerical Recipes, section 9.4).  The aversion
band [1/c, c] bounds the slope of the aggregate response away from zero
and infinity, which yields an a-priori bracket around any initial guess.
Points that meet their tolerance are frozen while the rest iterate, so
each point's result is the same whatever batch it is solved in; a point
with no multiplier (a non-finite residual, or still open at the
iteration cap) comes back NaN, and nothing is raised or retried.  All
partial derivatives of the sharing value follow from the envelope theorem
and implicit differentiation of the first-order conditions; risk
tolerances t_m = 1/a_m evaluated at the optimal allocation carry all the
second- and third-order structure.

The constant-aversion (exponential) family admits closed forms which the
tests use as an oracle for the generic numerical path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .utility import (
    AgentSet,
    inverse_log_marginal,
    log_marginal,
    risk_aversion,
    utility_value,
)

WEIGHT_RATIO_LIMIT = 1e12


def _quiet(fn):
    """Mute fp warnings; out-of-range inputs surface as inf/nan and are
    caught by the callers' finiteness checks instead."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore",
                         under="ignore"):
            return fn(*args, **kwargs)
    return wrapper


class DegenerateWeightsError(ValueError):
    """Weight components spread over more than WEIGHT_RATIO_LIMIT."""


def check_weights(v: np.ndarray):
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise DegenerateWeightsError("weights must be positive and finite")
    ratio = v.max(axis=-1) / v.min(axis=-1)
    if np.any(ratio > WEIGHT_RATIO_LIMIT):
        raise DegenerateWeightsError(
            f"weight ratio {float(np.max(ratio)):.3e} exceeds "
            f"{WEIGHT_RATIO_LIMIT:.0e}")


# ---------------------------------------------------------------------------
# multiplier solve


def _solve_log_multiplier(agents: AgentSet, logv: np.ndarray, x: np.ndarray,
                          atol_scale: float = 1e-13):
    """Solve sum_m (u_m')^{-1}(exp(l) / v^m) = x for l = log(lam).

    logv carries the member axis last and must broadcast against x after
    dropping it.  Returns (l, allocations list).

    The points are flattened into rows and iterated through an
    active-index array: a row that meets its tolerance is frozen with its
    l, allocations and bracket, and only the open rows take further
    steps.  Every row therefore follows its own iteration, and its result
    does not depend on which other rows share the batch.  A row whose
    residual is not finite has no root to bracket and ends at once; a row
    still open after 100 steps ends there.  Both return NaN l and NaN
    allocations.
    """
    members = agents.members
    nm = len(members)
    shape = np.broadcast_shapes(logv.shape[:-1], x.shape)
    x = np.broadcast_to(x, shape).reshape(-1)
    logv = np.broadcast_to(logv, shape + (nm,)).reshape(-1, nm)
    c = agents.c
    a0 = agents.aversion_at_zero
    t0 = 1.0 / a0
    # constant-aversion proxy: exact for exponential members, a good seed
    # otherwise
    l = np.zeros(x.shape)
    for m in range(nm):
        l = l + t0[m] * logv[:, m]
    l = (l - x) / t0.sum()

    def residual(lcur, rows):
        xhat = [inverse_log_marginal(members[m], lcur - logv[rows, m])
                for m in range(nm)]
        return xhat, sum(xhat) - x[rows]

    xhat, psi = residual(l, slice(None))
    # aversion band => |dpsi/dl| in [M/c, M*c], so the root sits within
    # |psi| * c/M of the current point; no need to probe the endpoints
    span = c / nm
    lo = l + np.minimum(psi, 0.0) * span
    hi = l + np.maximum(psi, 0.0) * span

    tol = atol_scale * (1.0 + np.abs(x))
    rows = np.arange(x.size)
    for it in range(101):
        open_ = ~(np.abs(psi) <= tol)
        end = open_ if it == 100 else open_ & ~np.isfinite(psi)
        if end.any():
            l[rows[end]] = np.nan
            for xm in xhat:
                xm[rows[end]] = np.nan
            open_ &= ~end
        if not open_.any():
            break
        rows, psi, tol = rows[open_], psi[open_], tol[open_]
        lo, hi, lr = lo[open_], hi[open_], l[rows]
        lo = np.where(psi > 0.0, lr, lo)
        hi = np.where(psi <= 0.0, lr, hi)
        slope = sum(1.0 / risk_aversion(members[m], xhat[m][rows])[0]
                    for m in range(nm))
        l_new = lr + psi / slope
        outside = (l_new <= lo) | (l_new >= hi)
        l[rows] = lr = np.where(outside, 0.5 * (lo + hi), l_new)
        xr, psi = residual(lr, rows)
        for m in range(nm):
            xhat[m][rows] = xr[m]
    return l.reshape(shape), [xm.reshape(shape) for xm in xhat]


@_quiet
def sharing_derivatives(agents: AgentSet, v: np.ndarray, x: np.ndarray,
                        order: int = 2) -> dict:
    """Vectorized sharing value and partials.

    Parameters
    ----------
    v : (..., M) positive weights; leading axes broadcast against x.
    x : (...) aggregate wealth.
    order : 1, 2 or 3; how many derivative levels to assemble.

    Returns a dict with keys value, value_x, value_v, multiplier,
    allocation, log_multiplier and, for order >= 2, value_xx, value_xv,
    value_vv, plus value_xxx, value_xxv for order 3.
    """
    members = agents.members
    nm = len(members)
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    logv = np.log(v)
    l, xhat = _solve_log_multiplier(agents, logv, x)
    lam = np.exp(l)

    uvals = [utility_value(members[m], xhat[m]) for m in range(nm)]
    out = {
        "log_multiplier": l,
        "multiplier": lam,
        "allocation": np.stack(xhat, axis=-1),
        "value": sum(v[..., m] * uvals[m] for m in range(nm)),
        "value_x": lam,
        "value_v": np.stack(uvals, axis=-1),
    }
    if order < 2:
        return out

    need = 1 if order >= 3 else 0
    avers = [risk_aversion(members[m], xhat[m], need) for m in range(nm)]
    t = [1.0 / avers[m][0] for m in range(nm)]
    big_t = sum(t)
    out["value_xx"] = -lam / big_t
    out["value_xv"] = np.stack(
        [lam * t[m] / (v[..., m] * big_t) for m in range(nm)], axis=-1)
    vv = np.empty(out["value_xv"].shape + (nm,))
    for m in range(nm):
        for n in range(nm):
            delta = 1.0 if m == n else 0.0
            vv[..., m, n] = (lam * t[m] / (v[..., m] * v[..., n])
                             * (delta - t[n] / big_t))
    out["value_vv"] = vv
    if order < 3:
        return out

    tp = [-avers[m][1] * t[m] ** 2 for m in range(nm)]  # t' = -a'/a^2
    s1 = sum(tp[m] * t[m] for m in range(nm))
    out["value_xxx"] = lam / big_t**2 * (1.0 + s1 / big_t)
    out["value_xxv"] = np.stack(
        [lam * t[m] / (v[..., m] * big_t**2) * (tp[m] - 1.0 - s1 / big_t)
         for m in range(nm)], axis=-1)
    return out


# ---------------------------------------------------------------------------
# public points


@dataclass(eq=False)
class ParetoPoint:
    """Sharing value, optimal allocation and partials at one (v, x)."""

    weights: np.ndarray
    wealth: float
    allocation: np.ndarray
    multiplier: float
    value: float
    value_x: float
    value_v: np.ndarray
    value_xx: float
    value_xv: np.ndarray
    value_vv: np.ndarray
    value_xxx: float
    value_xxv: np.ndarray


def solve_allocation(agents: AgentSet, v, x):
    """Optimal split of x and the marginal value of aggregate wealth."""
    v = np.asarray(v, dtype=float)
    check_weights(v)
    d = sharing_derivatives(agents, v, np.asarray(x, dtype=float), order=1)
    return d["allocation"], d["multiplier"]


def pareto_point(agents: AgentSet, v, x) -> ParetoPoint:
    """Full evaluation of the sharing value at scalar (v, x)."""
    v = np.asarray(v, dtype=float)
    check_weights(v)
    if v.ndim != 1 or v.size != agents.size:
        raise ValueError("v must be a flat vector with one weight per member")
    d = sharing_derivatives(agents, v, np.asarray(float(x)), order=3)
    return ParetoPoint(
        weights=v, wealth=float(x), allocation=d["allocation"],
        multiplier=float(d["multiplier"]), value=float(d["value"]),
        value_x=float(d["value_x"]), value_v=d["value_v"],
        value_xx=float(d["value_xx"]), value_xv=d["value_xv"],
        value_vv=d["value_vv"], value_xxx=float(d["value_xxx"]),
        value_xxv=d["value_xxv"])


def harmonic_aversion(coefficients) -> float:
    """Aggregate constant aversion: reciprocal of summed tolerances."""
    a = np.asarray(coefficients, dtype=float)
    return 1.0 / float((1.0 / a).sum())


def exponential_point(coefficients, v, x) -> ParetoPoint:
    """Closed-form sharing point for constant-aversion members.

    With aggregate aversion 1/a = sum_m 1/a_m the value factorizes as
    value = -(1/a) exp(-a x) prod_m (v^m)^{a/a_m}; every partial reduces
    to elementary algebra in lam = d(value)/dx.  Serves as the oracle for
    the generic numerical path.
    """
    a = np.asarray(coefficients, dtype=float)
    v = np.asarray(v, dtype=float)
    x = float(x)
    check_weights(v)
    nm = a.size
    agg = harmonic_aversion(a)
    logv = np.log(v)
    logl = agg * float((logv / a).sum() - x)
    lam = np.exp(logl)
    xhat = (logv - logl) / a
    t = 1.0 / a
    big_t = t.sum()
    value = -lam / agg
    value_v = -lam / (v * a)
    value_xv = lam * t / (v * big_t)
    vv = np.empty((nm, nm))
    for m in range(nm):
        for n in range(nm):
            delta = 1.0 if m == n else 0.0
            vv[m, n] = lam * t[m] / (v[m] * v[n]) * (delta - t[n] / big_t)
    return ParetoPoint(
        weights=v, wealth=x, allocation=xhat, multiplier=lam, value=value,
        value_x=lam, value_v=value_v, value_xx=-agg * lam, value_xv=value_xv,
        value_vv=vv, value_xxx=agg**2 * lam,
        value_xxv=-(agg**2) * lam * t / v)
