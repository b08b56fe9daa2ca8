"""Optimal risk sharing across dealers (weighted sup-convolution).

For positive weights v and aggregate wealth x the dealers split x so as to
maximize sum_m v^m u_m(y^m) over allocations with sum_m y^m = x.  The
first-order conditions equalize weighted marginal utilities at a common
multiplier lam = d(value)/dx:

    v^m u_m'(y^m) = lam,        sum_m y^m = x.

The solver runs a bracket-safeguarded iteration in log(lam) (the
"rtsafe" hybrid of Numerical Recipes, section 9.4) whose steps are
Halley's: the aversion's own derivative a' gives the residual's
curvature, and it is the Newton step bit for bit where every member has
constant aversion.  The aversion band [1/c, c] bounds the slope of the
aggregate response away from zero and infinity, which yields an
a-priori bracket around any initial guess.  Each point starts from the
constant-aversion seed, which is exact when every member has constant
aversion, or from a per-point seed its caller predicts:
`sharing_planes` returns the multiplier state (l, t_m / T, T) it
solved, and `predict_log_multiplier` steps that state to first order
to nearby weights and wealth, which on desks whose aversion varies
starts points much closer to their roots (`fields` seeds each
conjugate residual from the row's last evaluation this way).
Only the points left open by the first residual get brackets, and
points that meet their tolerance are frozen while the rest iterate, so
each point's result is the same whatever batch it is solved in; a point
with no multiplier (a non-finite residual, or still open at the
iteration cap) comes back NaN, and nothing is raised or retried.  All
partial derivatives of the sharing value follow from the envelope theorem
and implicit differentiation of the first-order conditions; risk
tolerances t_m = 1/a_m evaluated at the optimal allocation carry all the
second- and third-order structure.

`sharing_planes` assembles the partials as planes: one array over the
points per partial and member component, all in one stack that a caller
can reduce in a single pass (`fields` sums it over quadrature nodes).
Every second-order plane is built from lam * t_m and t_n / T with
T = sum_m t_m.  A member in closed form (no tables; see `utility`) has
a t_m of one number rather than an array of one value, and T is one
number when every member is in closed form.  Weights keep their own
shape, so one weight row per row of points costs one row, not one
value per point.
`sharing_derivatives` is the same math with the member axes stacked last,
bit for bit.

A desk of constant-aversion members admits a closed-form sharing point,
`exponential_point`, which the tests use as an oracle for the generic
numerical path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .utility import (
    AgentSet,
    harmonic_aversion,
    inverse_log_marginal,
    risk_aversion,
    utility_value,
)

WEIGHT_RATIO_LIMIT = 1e12
MULTIPLIER_ATOL = 1e-13     # a point meets MULTIPLIER_ATOL * (1 + |x|)


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
                          seed=None):
    """Solve sum_m (u_m')^{-1}(exp(l) / v^m) = x for l = log(lam).

    logv carries the member axis last and must broadcast against x after
    dropping it; l and the allocations come back in the broadcast shape.
    seed, if given, is a starting l per point in that shape; a point
    whose seed is not finite starts from the constant-aversion seed, as
    every point does without one.  Returns (l, allocations list).

    The first residual is taken at every point at once, with logv at its
    own shape: weights shared by a row of points are never repeated per
    point.  Only the points still open after it get a row index, a
    bracket and a tolerance, and they iterate through an active-index
    array: a row that meets its tolerance is frozen with its l,
    allocations and bracket, and only the open rows take further steps.
    Every point therefore follows its own iteration, and its result does
    not depend on which other points share the batch.  A row whose
    residual is not finite has no root to bracket and ends at once; a
    row still open after 100 steps ends there.  Both return NaN l and
    NaN allocations.

    Each step is Halley's: with psi the residual, S = sum_m t_m its
    slope's magnitude and Q = -sum_m a_m' t_m^3 its curvature,

        l += psi / (S - psi Q / (2 S)),

    which is the Newton step psi / S bit for bit where Q is 0 (every
    member of constant aversion).  Where the denominator falls below S / 2
    the point is too far from its root for the cubic model to help, and
    it takes the Newton step; a step that leaves the bracket bisects it.
    """
    members = agents.members
    nm = len(members)
    shape = np.broadcast_shapes(logv.shape[:-1], x.shape)
    flat = shape or (1,)        # one point is solved as a row of one
    t0 = 1.0 / agents.aversion_at_zero
    # constant-aversion proxy: exact for constant-aversion members, a good
    # seed otherwise
    l = 0.0
    for m in range(nm):
        l = l + t0[m] * logv[..., m]
    l = (l - x) / t0.sum()
    if seed is not None:
        l = np.where(np.isfinite(seed), seed, l)
    xhat = [inverse_log_marginal(members[m], (l - logv[..., m]).reshape(-1))
            for m in range(nm)]
    l = l.reshape(-1)
    x = np.broadcast_to(x, shape).reshape(-1)
    psi = sum(xhat) - x
    rows = np.flatnonzero(~(np.abs(psi) <= MULTIPLIER_ATOL
                            * (1.0 + np.abs(x))))
    if not rows.size:
        return l.reshape(shape), [xm.reshape(shape) for xm in xhat]

    logv = np.broadcast_to(logv, flat + (nm,))

    def residual(lcur, rows):
        lv = logv[np.unravel_index(rows, flat)]
        xr = [inverse_log_marginal(members[m], lcur - lv[:, m])
              for m in range(nm)]
        return xr, sum(xr) - x[rows]

    psi, lr = psi[rows], l[rows]
    # aversion band => |dpsi/dl| in [M/c, M*c], so the root sits within
    # |psi| * c/M of the current point; no need to probe the endpoints
    span = agents.c / nm
    lo = lr + np.minimum(psi, 0.0) * span
    hi = lr + np.maximum(psi, 0.0) * span
    tol = MULTIPLIER_ATOL * (1.0 + np.abs(x[rows]))
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
        l_new = lr + _halley_step(members, xhat, rows, psi)
        outside = (l_new <= lo) | (l_new >= hi)
        l[rows] = lr = np.where(outside, 0.5 * (lo + hi), l_new)
        xr, psi = residual(lr, rows)
        for m in range(nm):
            xhat[m][rows] = xr[m]
    return l.reshape(shape), [xm.reshape(shape) for xm in xhat]


def _halley_step(members, xhat, rows, psi):
    """The multiplier step at the open rows (see `_solve_log_multiplier`).

    a' comes from each member's aversion profile, so the step needs no
    derivative budget beyond the utility's second; a member in closed
    form adds one number to S and nothing to Q.
    """
    slope = curve = 0.0
    for spec, xm in zip(members, xhat):
        if spec.tables is None:
            slope = slope + 1.0 / spec.aversion.level
            continue
        a, da = spec.aversion.derivatives(xm[rows], 1)
        t = 1.0 / a
        slope = slope + t
        curve = curve - da * t**3
    halley = slope - psi * curve / (2.0 * slope)
    return psi / np.where(halley >= 0.5 * slope, halley, slope)


def _aversion(spec, x, order: int = 0):
    """risk_aversion at x; for a member in closed form one value per
    derivative instead of a full array of one value."""
    return risk_aversion(spec, 0.0 if spec.tables is None else x, order)


# ---------------------------------------------------------------------------
# planes


# the sharing partials in stacking order, each with its number of member
# axes; the keys of orders 1 and 2 are prefixes of the next order's, and
# value_x sits right before value_xv
_PLANE_KEYS = (("value", 0), ("value_v", 1), ("value_x", 0),
               ("value_xv", 1), ("value_xx", 0), ("value_vv", 2),
               ("value_xxx", 0), ("value_xxv", 1))
_ORDER_KEYS = {1: 3, 2: 6, 3: 8}


@functools.cache
def plane_rows(n_members: int, order: int) -> MappingProxyType:
    """Rows of a plane stack that hold each partial: key -> slice."""
    rows, k = {}, 0
    for key, axes in _PLANE_KEYS[:_ORDER_KEYS[order]]:
        rows[key] = slice(k, k + n_members ** axes)
        k = rows[key].stop
    return MappingProxyType(rows)


def unstack(stack: np.ndarray, n_members: int, order: int) -> dict:
    """Split a plane stack into its partials, as views with the member
    axes last.

    stack is (K,) + shape, laid out by `plane_rows`: the stack itself,
    or any array reduced from it over the point axes (a quadrature sum,
    say).  Only the partials of `order` are read, so a stack built for a
    higher order splits as well.
    """
    out = {}
    points = stack.ndim - 1
    for (key, axes), rows in zip(_PLANE_KEYS,
                                 plane_rows(n_members, order).values()):
        part = stack[rows].reshape((n_members,) * axes + stack.shape[1:])
        out[key] = part.transpose(*range(axes, axes + points), *range(axes))
    return out


@_quiet
def sharing_planes(agents: AgentSet, v: np.ndarray, x: np.ndarray,
                   order: int = 2, seed=None) -> dict:
    """Sharing value and partials as one stack of planes.

    Takes v and x as `sharing_derivatives` does.  A plane is one partial,
    or one member component of it, over the broadcast shape of the
    points; the planes are stacked in the order of `plane_rows` into one
    (K,) + shape array, so a caller can reduce them all in one pass.
    Weights stay at their own shape: given one weight row per row of
    points, say (B, 1, M) against (B, n) wealth, each weight plane is
    computed once per row, not at every point.

    The partials follow from the risk tolerances t_m at the allocation
    and their sum T: every plane of order 2 is built from lam * t_m and
    t_n / T, one pair of factors per member.  A member in closed form has
    a t_m of a single number, and T is one too when every member is in
    closed form.

    seed is an optional starting log-multiplier per point, as
    `_solve_log_multiplier` takes it.  Returns a dict with keys
    log_multiplier, allocation (a list of M planes) and stack, and for
    order >= 2 also tolerance_share (the M factors t_m / T) and tolerance
    (T): with log_multiplier they predict the multiplier at nearby
    weights and wealth (see `predict_log_multiplier`).
    """
    members = agents.members
    nm = len(members)
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    l, xhat = _solve_log_multiplier(agents, np.log(v), x, seed=seed)
    rows = plane_rows(nm, order)
    stack = np.empty((max(r.stop for r in rows.values()),) + l.shape)

    def plane(key, k=0):
        """Writable view of the k-th plane of partial `key`."""
        return stack[rows[key].start + k, ...]

    lam = np.exp(l, out=plane("value_x"))
    value = plane("value")
    value[...] = 0.0        # summed from zero, as sum() does
    for m in range(nm):
        u = plane("value_v", m)
        u[...] = utility_value(members[m], xhat[m])
        value += v[..., m] * u
    if order >= 2:
        avers = [_aversion(members[m], xhat[m], order - 2)
                 for m in range(nm)]
        t = [1.0 / a[0] for a in avers]
        big_t = sum(t)
        np.divide(-lam, big_t, out=plane("value_xx"))
        share = [tn / big_t for tn in t]
        for m in range(nm):
            lam_t = lam * t[m]
            np.divide(lam_t, v[..., m] * big_t, out=plane("value_xv", m))
            for n in range(nm):
                vv = plane("value_vv", m * nm + n)
                np.divide(lam_t, v[..., m] * v[..., n], out=vv)
                vv *= (1.0 if m == n else 0.0) - share[n]
    if order >= 3:
        tp = [-avers[m][1] * t[m] ** 2 for m in range(nm)]  # t' = -a'/a^2
        s1 = sum(tp[m] * t[m] for m in range(nm))
        plane("value_xxx")[...] = lam / big_t**2 * (1.0 + s1 / big_t)
        for m in range(nm):
            plane("value_xxv", m)[...] = (lam * t[m] / (v[..., m] * big_t**2)
                                          * (tp[m] - 1.0 - s1 / big_t))
    out = {"log_multiplier": l, "allocation": xhat, "stack": stack}
    if order >= 2:
        out["tolerance_share"], out["tolerance"] = share, big_t
    return out


@_quiet
def predict_log_multiplier(state, rows, dlogv, dx):
    """First-order log-multiplier after a move of the weights and wealth.

    state is (log_multiplier, tolerance_share, tolerance) as
    `sharing_planes` solves them at order 2 for points with one weight
    row per row of points, each entry an array over the points, as
    `fields.field_core` returns the state on every desk (a closed-form
    entry broadcast); rows picks the rows to predict.  The first-order
    conditions move each point's log-multiplier by the log-weight move
    dlogv (R, M) of its row and the wealth move dx (R,) shared by its
    row's points to

        l + sum_m (t_m / T) dlogv_m - dx / T,

    the first-order continuation step (Allgower & Georg, Numerical
    Continuation Methods, 1990, ch. 2).
    """
    l, share, big_t = state
    seed = l[rows] - dx[:, None] / big_t[rows]
    for m, s in enumerate(share):
        seed += s[rows] * dlogv[:, m, None]
    return seed


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
    value_vv, plus value_xxx, value_xxv for order 3: the planes of
    `sharing_planes`, with the member axes stacked last.
    """
    p = sharing_planes(agents, v, x, order)
    parts = unstack(p["stack"], agents.size, order)
    out = {"log_multiplier": p["log_multiplier"],
           "allocation": np.stack(p["allocation"], axis=-1)}
    for key, part in parts.items():
        out[key] = part.copy()[()]
    out["multiplier"] = out["value_x"]
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
