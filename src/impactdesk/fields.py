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
  gradient and its cash derivative integrand_x, which is the factor
  derivative of the cash marginal (the node sum of value_xx * slope);
- weight normalization onto the slice where the cash marginal is one;
- the conjugate solve: Newton inversion of (value_v, value_x) =
  (utilities, slope) in (log-weights, cash), whose solution carries the
  transform value cash*slope and recovers the weights as the gradient
  of that value in the utilities argument.

The SDE coefficient row for the dealer system is the integrand's weight
gradient at the conjugate point on the slope=1 slice.  Every Newton
residual evaluates the integrand too, so the row comes from the
evaluation that converged it, together with the cash marginal's
volatility integrand_x / value_x and the Newton Jacobian there, from
which `ConjugatePoint.predict` moves the solved point to the next Euler
step's warm start.  `coefficient_rows` is the one conjugate entry and
`ConjugatePoint` its one result, for `sde`, `conditions`, the `fields`
command and the two raising wrappers `solve_conjugate` and
`eval_sde_coefficient` alike.

Every entry reads its inputs by one batch rule, `_batched`: level (B,)
and position (B, J), weights and utilities (B, M), cash and slope (B,).
Scalars and single rows broadcast, B is the one length other than 1 (an
empty batch stays empty), and a row of the wrong width is refused by
name.  A result comes back as a single point only when its batch has one
row.

The warm start is a predictor-corrector step across Euler steps
(Allgower & Georg, Numerical Continuation Methods, 1990, ch. 2), and
the Newton solve is its corrector.  For a frozen book the exact
solution keeps the weights on one ray: the field marginals at fixed
(weights, cash) are martingales in (t, B_t), and only the normalisation
by the cash marginal value_x moves.  value_v is homogeneous of degree 0
in the weights and value_x of degree 1, so scaling the weights
renormalises value_x without touching value_v, and a uniform shift of
the log-weights is exactly the Newton step for the cash residual.  With
value_x's volatility sigma = integrand_x / value_x, the ray guess after
a factor move dB over dt is

    weights * exp(sigma^2 dt / 2 - sigma dB),

with the cash left as solved.  This guess moves value_v by the
log-Euler step of the utilities; in log coordinates that is the step
taken, so on constant-aversion desks with linear payoffs, where value_x
is lognormal in the factor and the log-Euler step is exact, the guess
solves the next step's system to round-off and the solve needs one
field evaluation.  A direct Euler step lands elsewhere, short of
value_v's move by a residual drho known in closed form, so there the
tangent correction moves the guess's (log-weights, cash) by
-J^{-1} [drho, 0], with J the residual's Jacobian at the solved point;
on the same desks one field evaluation per step again suffices.  A row
whose Jacobian is unusable, or whose corrected point leaves the
positive finite range, keeps the ray guess.  On other desks the
predictor is first-order and the Newton corrects it.

Faults are per row.  `field_core` flags a row that leaves double
precision, or has a node with no sharing multiplier, in its `finite`
mask instead of raising, and the conjugate solve ends only the row at
fault; nothing is retried.  `field_core` and `normalize_weights` are
the two ways to evaluate a field, and `normalize_weights` raises
FieldRangeError itself.  A conjugate solve takes at most
NEWTON_MAX_ITER damped Newton steps.

Within one conjugate solve a row moves only its weights and cash, so
each residual can predict the multiplier at every node from the row's
last evaluation (line-search trials included) and seed the multiplier
solve with it: `field_core(seed=...)` returns the multiplier state it
solved, the solve keeps the last residual's rows, log-weights, cash and
state as they are, and `pareto.predict_log_multiplier` steps that state
to the next residual's point.  With the multiplier's Halley step this
takes the tanh desk's multiplier solve from 4 residual evaluations per
call to about 2.2.  Desks whose members are all in closed form skip it:
the multiplier's closed-form seed is already exact there, and keeping
the state would only cost memory.

`field_core` evaluates its batch in blocks of rows, each of at most
FIELD_BLOCK points (rows times quadrature nodes), so its working set is
bounded whatever the batch size; a batch of one block is evaluated as
it comes.  Each block hands `pareto.sharing_planes` one weight row per
state, not one per node, and gets the share partials back as a single
(K, rows, n) stack of contiguous planes, one per partial and member
component.  One einsum sums every plane against the rule weights, and
one more sums the slope-weighted value_x, value_xv and value_xx planes
into the integrand and its partials; both write into one (K, B) array
of sums allocated for the whole batch, which is split into the result's
keys once, at the end.  Each sum runs along a contiguous row of n nodes
in an order fixed by n alone, the order the scalar partials were always
summed in, so a row's bits do not depend on the batch or block it is
evaluated in, nor therefore on the worker count; BLAS `@` would block
the sums by batch size and break that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .market import MarketModel, malliavin_derivative, terminal_wealth
from .pareto import (WEIGHT_RATIO_LIMIT, plane_rows, predict_log_multiplier,
                     sharing_planes, unstack)
from .quadrature import QuadratureRule, degenerate_rule
from .utility import AgentSet, harmonic_aversion

_LOG_RATIO_LIMIT = math.log(WEIGHT_RATIO_LIMIT)
NEWTON_MAX_ITER = 100   # damped Newton steps a conjugate solve may take
# points (rows x quadrature nodes) a field evaluation forms at once
FIELD_BLOCK = 16384


class FieldRangeError(RuntimeError):
    """Quadrature left the representable range (utility under/overflow)."""


class ConjugateInfeasibleError(RuntimeError):
    """Newton failed: requested marginals unreachable at this state."""

    def __init__(self, message: str, indices=None):
        super().__init__(message)
        self.indices = indices if indices is not None else ()


def _batched(agents: AgentSet, model: MarketModel, level, position,
             **rows):
    """Broadcast level, the named rows and position to one batch.

    level is (B,) and position (B, J), zeros when None; of the named
    rows, weights and utilities are (B, M), cash and slope (B,).  Scalars
    and single rows broadcast, and B is the one length other than 1
    among the inputs, so an empty batch stays empty.  Returns level, the
    rows in the order given, then position.
    """
    widths = {"weights": agents.size, "utilities": agents.size,
              "position": model.n_dividends}
    if position is None:
        position = np.zeros(model.n_dividends)
    arrays = []
    for name, value in {"level": level, **rows, "position": position}.items():
        a = np.asarray(value, dtype=float)
        width = widths.get(name)
        if width is None:
            arrays.append(np.atleast_1d(a))
            continue
        a = np.atleast_2d(a)
        if a.shape[-1] != width:
            raise ValueError(f"{name} must have {width} components, "
                             f"got {a.shape[-1]}")
        arrays.append(a)
    lengths = {a.shape[0] for a in arrays}
    longer = lengths - {1}
    if len(longer) > 1:
        raise ValueError(f"inputs of lengths {sorted(lengths)} do not "
                         "broadcast to one batch")
    b = longer.pop() if longer else 1
    return tuple(np.broadcast_to(a, (b,) + a.shape[1:]) for a in arrays)


def field_core(agents: AgentSet, model: MarketModel, rule: QuadratureRule,
               t: float, level, weights, cash, position=None, order: int = 2,
               with_integrand: bool = False, seed=None) -> dict:
    """Batched field evaluation; the engine behind every public entry.

    level (B,), weights (B,M), cash (B,), position (B,J); scalars
    broadcast.  Returns a dict of arrays keyed like the share partials
    (value, value_x, value_v, ... ) plus integrand / integrand_v /
    integrand_x when requested, and a (B,) mask `finite` of the rows whose value and cash
    marginal stayed inside double precision.  A row outside it is
    reported there, never raised, so it cannot stop the rest of the batch.

    seed, if given, starts the multiplier solve at each node: a starting
    log-multiplier broadcastable to (B, n), whose NaN entries start from
    the closed-form seed, as an unseeded call does everywhere.  A seeded
    call, which must be of order 2 or carry the integrand, also returns
    the multiplier state it solved,
    (log_multiplier, tolerance_share, tolerance) of
    `pareto.sharing_planes`, under "multiplier_state", for
    `pareto.predict_log_multiplier` to seed a nearby call with.  An
    unseeded call keeps no node-sized array in its result.
    """
    z, v, x, q = _batched(agents, model, level, position, weights=weights,
                          cash=cash)
    return _evaluate(agents, model, rule, t, z, v, x, q, order,
                     with_integrand, seed)


def _evaluate(agents, model, rule, t, z, v, x, q, order, with_integrand,
              seed):
    """`field_core` on a broadcast batch, FIELD_BLOCK points at a time.

    Each block of rows writes its plane and integrand sums into one
    (K, B) array allocated up front, and a seeded call's multiplier
    state into (B, n) arrays; the sums are split into the result's keys
    once, at the end.  A batch of one block is evaluated as it comes.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("time must lie in [0, 1]")
    s = math.sqrt(max(1.0 - t, 0.0))
    if s == 0.0:
        rule = degenerate_rule()
    need = max(order, 2 if with_integrand else order)
    k = max(r.stop for r in plane_rows(agents.size, need).values())
    b = z.shape[0]
    sums = np.empty((k + (agents.size + 2 if with_integrand else 0), b))
    step = max(FIELD_BLOCK // rule.n, 1)
    if b <= step:
        state = _block_sums(agents, model, rule, s, z, v, x, q, need,
                            with_integrand, seed, sums)
    else:
        seeds = None if seed is None else np.broadcast_to(seed, (b, rule.n))
        entries = None
        for lo in range(0, b, step):
            rows = slice(lo, lo + step)
            part = _block_sums(agents, model, rule, s, z[rows], v[rows],
                               x[rows], q[rows], need, with_integrand,
                               None if seed is None else seeds[rows],
                               sums[:, rows])
            if part is None:
                continue
            flat = [part[0], *part[1], part[2]]       # l, each t_m / T, T
            if entries is None:
                # an entry of one number is the same in every block
                entries = [np.empty((b,) + a.shape[1:]) if np.ndim(a) else a
                           for a in flat]
            for whole, a in zip(entries, flat):
                if np.ndim(a):
                    whole[rows] = a
        state = None if seed is None else (entries[0], entries[1:-1],
                                           entries[-1])

    out = unstack(sums[:k], agents.size, order)
    if with_integrand:
        out["integrand"] = sums[k]
        out["integrand_v"] = sums[k + 1:-1].T
        out["integrand_x"] = sums[-1]
    out["finite"] = np.isfinite(out["value"]) & np.isfinite(out["value_x"])
    if seed is not None:
        out["multiplier_state"] = state
    return out


def _block_sums(agents, model, rule, s, z, v, x, q, need, with_integrand,
                seed, sums):
    """Node sums of one block of rows into sums (K[+M+2], rows).

    Returns the multiplier state of a seeded block, else None.
    """
    nodes = z[:, None] + s * rule.nodes                       # (rows, n)
    wealth = terminal_wealth(model, x, q, nodes)
    planes = sharing_planes(agents, v[:, None, :], wealth, order=need,
                            seed=seed)
    stack = planes["stack"]                                # (K, rows, n)
    state = None
    if seed is not None:
        state = (planes["log_multiplier"], planes["tolerance_share"],
                 planes["tolerance"])
    del planes      # the allocations go before the sums

    # each plane is summed along its own contiguous row of nodes, in an
    # order fixed by the node count, so a row's sums are the same bits
    # in any batch (BLAS `@` would block them by batch size)
    w = rule.weights
    k = stack.shape[0]
    np.einsum("kbn,n->kb", stack, w, out=sums[:k])
    if with_integrand:
        g_slope, f_slopes = malliavin_derivative(model, nodes)
        slope = g_slope
        if model.n_dividends:
            slope = slope + np.einsum("bj,jbn->bn", q, f_slopes)
        # value_x, value_xv and value_xx are adjacent planes; the slope
        # weights them inside the sum, with no (B, n) product formed
        rows = plane_rows(agents.size, need)
        xv = slice(rows["value_x"].start, rows["value_xx"].stop)
        np.einsum("kbn,bn,n->kb", stack[xv], slope, w, out=sums[k:])
    return state


def normalize_weights(agents: AgentSet, model: MarketModel,
                      rule: QuadratureRule, t: float, level, weights, cash,
                      position=None) -> np.ndarray:
    """Scale weights so the field's cash marginal equals one.

    The cash marginal is degree-1 homogeneous in the weights, so
    dividing by it lands exactly on the normalized slice and doing it
    twice is a no-op.
    """
    z, v, x, q = _batched(agents, model, level, position, weights=weights,
                          cash=cash)
    out = _evaluate(agents, model, rule, t, z, v, x, q, 1, False, None)
    bad = ~out["finite"]
    if bad.any():
        raise FieldRangeError(
            f"field overflow at t={t:g} for {int(bad.sum())} of {bad.size} "
            "points; the terminal wealth drives the shared utility outside "
            "double precision")
    scaled = v / out["value_x"][:, None]
    single = np.asarray(weights).ndim <= 1 and z.shape[0] == 1
    return scaled[0] if single else scaled


# the fields of a ConjugatePoint that hold one entry per row
_ROW_FIELDS = ("level", "utilities", "slope", "position", "weights", "cash",
               "coefficient", "sigma", "jacobian", "converged")


@dataclass(frozen=True)
class ConjugatePoint:
    """Solved states where the field marginals hit prescribed targets.

    weights solves value_v(weights, cash) = utilities with
    value_x(weights, cash) = slope, one row per target state; value is
    cash*slope, the conjugate transform of the field, and weights is its
    gradient in the utilities argument.  coefficient is the weight
    gradient of the martingale integrand at the solved state, and sigma
    the cash marginal's volatility there, integrand_x / value_x.
    jacobian is the Newton Jacobian of the log-scaled residual
    (log(-value_v), log(value_x)) in (log-weights, cash) at the
    evaluation that converged the row.  sigma and jacobian are what
    `predict` reads to warm-start the next Euler step's solve.  weights,
    cash, coefficient, sigma and jacobian are nan on rows that did not
    converge.  level, utilities, slope and position are the checked,
    broadcast targets.
    """

    t: float
    level: np.ndarray         # (B,)
    utilities: np.ndarray     # (B, M)
    slope: np.ndarray         # (B,)
    position: np.ndarray      # (B, J)
    weights: np.ndarray       # (B, M)
    cash: np.ndarray          # (B,)
    coefficient: np.ndarray   # (B, M)
    sigma: np.ndarray         # (B,)
    jacobian: np.ndarray      # (B, M+1, M+1)
    converged: np.ndarray     # (B,) bool
    iterations: int           # Newton steps the batch took

    @property
    def value(self):
        return self.cash * self.slope

    def item(self) -> "ConjugatePoint":
        """Squeeze a batch of one down to scalar fields."""
        rows = {name: getattr(self, name)[0] for name in _ROW_FIELDS}
        return replace(self, **{name: row.item() if row.ndim == 0 else row
                                for name, row in rows.items()})

    def take(self, rows) -> "ConjugatePoint":
        """The batch's rows selected by an index or mask, in order."""
        return replace(self, **{name: getattr(self, name)[rows]
                                for name in _ROW_FIELDS})

    def predict(self, db, dt, drho=None):
        """Warm (weights, cash) for the next Euler step of solved rows.

        db (B,) is each row's factor move and dt (B,) its step (see the
        module docstring).  Without drho the prediction is the ray guess,
        which keeps the solved weights where it leaves the positive
        finite range; drho (B, M), the residual move in log(-value_v) the
        guess falls short by, adds the tangent correction.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            guess = self.weights * np.exp(
                0.5 * self.sigma**2 * dt - self.sigma * db)[:, None]
        fine = ((guess > 0.0) & (guess < np.inf)).all(axis=1)
        guess = np.where(fine[:, None], guess, self.weights)
        if drho is None:
            return guess, self.cash
        # one Newton step from the solved point's own Jacobian, which is
        # homogeneous of degree 0 in the weights, so it holds on the ray
        m = guess.shape[1]
        rhs = np.zeros((self.cash.size, m + 1))
        rhs[:, :m] = -drho
        step, ok = solve_rows(self.jacobian, rhs)
        with np.errstate(over="ignore", invalid="ignore"):
            w = guess * np.exp(step[:, :m])
            c = self.cash + step[:, m]
        ok &= ((w > 0.0) & (w < np.inf)).all(axis=1) & np.isfinite(c)
        return np.where(ok[:, None], w, guess), np.where(ok, c, self.cash)


def _jacobian(logv, out) -> np.ndarray:
    """(B, M+1, M+1) Jacobian of the conjugate residual at one evaluation.

    Rows are the log-scaled residuals log(-value_v) and log(value_x),
    columns the log-weights and cash, all read off the evaluation's
    order-2 outputs at log-weights logv.  Each entry is formed along the
    batch, where `field_core`'s partials are contiguous, and the result
    is a view of that (M+1, M+1, B) layout.  Elementwise, so a row's
    bits do not depend on its batch.
    """
    b, m = logv.shape
    jac = np.empty((m + 1, m + 1, b))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = np.exp(logv.T)
        fv, xv, fx = out["value_v"].T, out["value_xv"].T, out["value_x"]
        jac[:m, :m] = v * out["value_vv"].transpose(1, 2, 0) / fv[:, None]
        jac[:m, m] = xv / fv
        jac[m, :m] = v * xv / fx
        jac[m, m] = out["value_xx"] / fx
    return jac.transpose(2, 0, 1)


def solve_rows(jac, rhs):
    """Solve jac x = rhs row by row where jac is finite and non-singular.

    jac (B, N, N), rhs (B, N).  Returns (x, ok): x is nan on the rows
    outside the mask ok.  LAPACK solves each row's system on its own, so
    a row's bits do not depend on its batch.
    """
    ok = np.isfinite(jac).all(axis=(1, 2))
    ok[ok] = np.linalg.slogdet(jac[ok])[0] != 0
    x = np.full(rhs.shape, np.nan)
    x[ok] = np.linalg.solve(jac[ok], rhs[ok, :, None])[:, :, 0]
    return x, ok


def _conjugate_batch(agents, model, rule, t, level, utilities, slope,
                     position, warm=None, tol=1e-10) -> ConjugatePoint:
    """Damped Newton in (log-weights, cash), one row per target state.

    The residual is log-scaled — log of the marginal ratios — which
    makes the tolerance meaningful across many orders of magnitude of
    utility levels and keeps weights positive by construction.  Every
    residual evaluation carries the integrand, so a row's weights, cash,
    coefficient, sigma and Jacobian are written once, from the
    evaluation that converged it.  A fault in one row — a non-finite
    start or field row, a non-finite or singular Jacobian, a line search
    that does not descend in 25 halvings — ends that row unconverged and
    leaves the others alone; a non-finite line-search trial halves only
    its own row's step.  A row solved to weights that spread past
    `pareto.WEIGHT_RATIO_LIMIT`, which `pareto.check_weights` refuses,
    also comes back unconverged.  The targets come checked and broadcast
    by `coefficient_rows`.

    When some member is reconstructed from tables, each residual after
    the first seeds the multiplier solve from the last residual's
    evaluation (see the module docstring).  A residual's rows are an
    in-order subset of the last one's, so `np.searchsorted` finds each
    row's last state.
    """
    z, u, y, q = level, utilities, slope, position
    b, m = u.shape
    if warm is not None:
        w0, c0 = warm
        logv = np.log(np.broadcast_to(np.asarray(w0, dtype=float), (b, m)))
        cash = np.broadcast_to(
            np.atleast_1d(np.asarray(c0, dtype=float)), (b,)).copy()
    else:
        # constant-aversion guess: exact when every member has constant
        # aversion and payoffs vanish, close enough to land in the Newton
        # basin
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

    seeded = not agents.all_exponential
    last = None     # rows, log-weights, cash and state of the last residual

    def residual(rows, logv_r, cash_r):
        nonlocal last
        seed = np.nan if seeded else None     # NaN: no seed at any node
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.exp(logv_r)
            if last is not None:
                last_rows, last_v, last_c, state = last
                at = np.searchsorted(last_rows, rows)
                seed = predict_log_multiplier(state, at, logv_r - last_v[at],
                                              cash_r - last_c[at])
        out = field_core(agents, model, rule, t, z[rows], v, cash_r,
                         q[rows], order=2, with_integrand=True, seed=seed)
        if seeded:
            last = (rows, logv_r, cash_r, out["multiplier_state"])
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.concatenate(
                [np.log(-out["value_v"]) - np.log(-u[rows]),
                 (np.log(out["value_x"]) - np.log(y[rows]))[:, None]],
                axis=1)
        return out, rho

    active = np.flatnonzero(np.isfinite(logv).all(axis=1) & np.isfinite(cash))
    if active.size:
        out, rho = residual(active, logv[active], cash[active])
    # the results are allocated after the first evaluation, whose share
    # planes set the memory peak of a solve that converges at its start
    weights = np.full((b, m), np.nan)
    solved_cash = np.full(b, np.nan)
    coef = np.full((b, m), np.nan)
    sigma = np.full(b, np.nan)
    jacobian = np.full((b, m + 1, m + 1), np.nan)
    converged = np.zeros(b, dtype=bool)
    iterations = 0      # Newton steps taken, capped at NEWTON_MAX_ITER
    while active.size:
        norm = np.abs(rho).max(axis=1)
        done = norm <= tol
        jac = _jacobian(logv[active], out)
        if done.any():
            # a done row is written here, once, unless its weights spread
            # past the ratio limit, where they are degenerate
            hit = np.flatnonzero(done)
            lv = logv[active[hit]]
            fine = lv.max(axis=1) - lv.min(axis=1) <= _LOG_RATIO_LIMIT
            hit, lv = hit[fine], lv[fine]
            rows = active[hit]
            weights[rows] = np.exp(lv)
            solved_cash[rows] = cash[rows]
            coef[rows] = out["integrand_v"][hit]
            sigma[rows] = out["integrand_x"][hit] / out["value_x"][hit]
            jacobian[rows] = jac[hit]
            converged[rows] = True
        # open rows go on unless their residual is non-finite (a NaN
        # norm is never done); one whose Jacobian is non-finite or
        # singular ends here
        go = ~done & np.isfinite(norm)
        if not go.any() or iterations == NEWTON_MAX_ITER:
            break
        step, ok = solve_rows(jac[go], -rho[go])
        active, norm, step = active[go][ok], norm[go][ok], step[ok]
        if not active.size:
            break
        iterations += 1

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
        # a row still worse after every halving cannot descend (Dennis &
        # Schnabel, 1983, Alg. A6.3.1): unless its trial meets tol, its
        # residual goes NaN, which ends it at the next iteration
        rho[worse & ~(np.abs(rho).max(axis=1) <= tol)] = np.nan
        # the accepted trial's residual doubles as the next iteration's
        logv[active] = trial_v
        cash[active] = trial_c

    return ConjugatePoint(
        t=t, level=z, utilities=u, slope=y, position=q, weights=weights,
        cash=solved_cash, coefficient=coef, sigma=sigma, jacobian=jacobian,
        converged=converged, iterations=iterations)


def coefficient_rows(agents: AgentSet, model: MarketModel,
                     rule: QuadratureRule, t: float, level, utilities,
                     position, warm=None, tol: float = 1e-10,
                     slope=1.0) -> ConjugatePoint:
    """Conjugate rows, one per state, with a mask; the one conjugate entry.

    Solves value_v = utilities, value_x = slope in one batch (slope one
    gives the diffusion rows of the dealer system), each row computed as
    it would be alone.  A row that does not converge — a row with no
    sharing multiplier included, whose field comes back NaN — is nan
    with converged False; nothing is retried.
    """
    z, u, y, q = _batched(agents, model, level, position,
                          utilities=utilities, slope=slope)
    if np.any(u >= 0):
        raise ValueError("utility targets must be negative")
    if np.any(y <= 0):
        raise ValueError("slope target must be positive")
    return _conjugate_batch(agents, model, rule, t, z, u, y, q, warm=warm,
                            tol=tol)


def solve_conjugate(agents: AgentSet, model: MarketModel,
                    rule: QuadratureRule, t: float, level, utilities, slope,
                    position=None) -> ConjugatePoint:
    """Invert the field marginals at one or many states.

    The targets broadcast to one batch; a single utility row whose batch
    has one row comes back as a single point.  Raises
    ConjugateInfeasibleError when any point fails to converge — the
    requested utility levels are unreachable at that state (for the
    dealer system this is how explosion shows up).
    """
    point = coefficient_rows(agents, model, rule, t, level, utilities,
                             position, slope=slope)
    if not point.converged.all():
        bad = np.flatnonzero(~point.converged)
        raise ConjugateInfeasibleError(
            f"conjugate solve failed for {bad.size} of "
            f"{point.converged.size} points at t={t:g} after "
            f"{point.iterations} damped Newton steps",
            indices=tuple(int(i) for i in bad))
    single = np.asarray(utilities).ndim <= 1 and point.converged.size == 1
    return point.item() if single else point


def eval_sde_coefficient(agents: AgentSet, model: MarketModel,
                         rule: QuadratureRule, t: float, level, utilities,
                         position=None):
    """Diffusion row of the dealer system.

    The weight gradient of the martingale integrand at the conjugate
    point on the slope=1 slice, taken from the solve's own last field
    evaluation.  Returns (coefficient row(s), conjugate point) and
    raises ConjugateInfeasibleError when a row does not converge.
    """
    point = solve_conjugate(agents, model, rule, t, level, utilities, 1.0,
                            position)
    return point.coefficient, point
