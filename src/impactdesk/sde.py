"""Euler simulation of the dealers' expected-utility system.

The state is the vector of dealer utility levels U (all negative), and
one Euler step moves it by the conjugate-point diffusion row from
`fields.coefficient_rows`:

    U_{k+1} = U_k + coefficient(t_k, B_k, U_k, Q_k) * dB_k.

Because each component must stay strictly negative, the default scheme
steps the logarithms L = log(-U) instead,

    L_{k+1} = L_k + A dB_k - 0.5 A^2 dt,   A = coefficient / U,

which keeps negativity structurally; direct coordinates are retained
for convergence cross-checks (a sign flip there is clipped to the
smallest negative double and the path stops on the next explosion
check).

Each step's conjugate solve starts from the warm point that
`fields.ConjugatePoint.predict` moves the last solve's rows to.  The
engine hands it each row's factor move and step, and in direct
coordinates the residual the step falls short of the log-Euler move by,

    drho = log(-U_k) + A dB - A^2 dt / 2 - log(-U_{k+1}),

known in closed form.

A path ends in one of three ways, recorded per path rather than
raised: it reaches the horizon (completed); some component climbs
above the explosion threshold -eps (explosion — the system only admits
a local solution and this is its boundary), checked at every step
start and at the end of the last step; or the conjugate solve
stops converging (conjugate-infeasible — the state left the reachable
region some other way).  The solve reports each path's row in a mask,
so a fault in one path never stops another.

The book's position comes from a flow: a `ScheduleFlow` reads the time
alone, and a `FeedbackFlow` calls its rule on each step's left-limit
state.  Neither promises a bound on the positions; a flow that drives
the state to the boundary shows up as explosion stops.

Rows with their own step size share each step time.  Every row keeps
its own step size dt_r and step counter k_r, and one engine pass steps,
in one conjugate solve, every row whose own k_r * dt_r equals the
earliest step time pending.  An ensemble's rows all share one dt; the
strong-error study runs its whole dt ladder as rows of one block, so on
a dyadic ladder every level due at a fine step time shares that step's
solve.  Step times are compared as floats, never rounded to a common
clock, so each row steps at exactly the times a run of its level alone
would.

The entry points draw the noise: Brownian increments come from
counter-based per-path streams keyed by (seed, absolute path index).
The engine, `_run_chunk`, only takes them, as a ladder of (dt,
increments) levels, and each path's coefficient row is computed as it
would be alone, so results are reproducible, bit-for-bit independent of
how paths are split across workers, and shareable between a simulation
and its quadrature oracle.  The strong-error study divides each level's
error by the next one's in IEEE arithmetic, so where the Euler step is
exact and an error is 0 the halving ratio reads inf or nan.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import coefficient_rows, field_core, normalize_weights
from .market import MarketModel
from .quadrature import QuadratureRule, degenerate_rule
from .utility import AgentSet

COMPLETED = "completed"
EXPLOSION = "explosion"
INFEASIBLE = "conjugate-infeasible"
_REASONS = (COMPLETED, EXPLOSION, INFEASIBLE)

WORKERS_ENV = "IMPACTDESK_WORKERS"


# --------------------------------------------------------------------------
# order flows


class ScheduleFlow:
    """Piecewise-constant position; segment k covers [t_k, t_{k+1}).

    The one state-free flow: its position depends on the time alone.
    """

    def __init__(self, times: Sequence[float], positions):
        self.times = np.asarray(times, dtype=float)
        self.positions = np.atleast_2d(np.asarray(positions, dtype=float))
        if self.times.ndim != 1 or self.times.size != self.positions.shape[0]:
            raise ValueError("need one position row per schedule time")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("schedule times must be finite")
        if self.times.size == 0 or self.times[0] != 0.0 \
                or np.any(np.diff(self.times) <= 0):
            raise ValueError("schedule times must start at 0 and increase")

    @property
    def initial_position(self) -> np.ndarray:
        return self.positions[0]

    def position_at(self, t: float) -> np.ndarray:
        """The position held at time t in [0, 1], shape (J,)."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("time must lie in [0, 1]")
        return self.positions[int(np.searchsorted(self.times, t,
                                                  side="right")) - 1]

    def at(self, t: float, utilities: np.ndarray, level: np.ndarray):
        return np.broadcast_to(self.position_at(t),
                               (utilities.shape[0], self.positions.shape[1]))


class ConstantFlow(ScheduleFlow):
    """Fixed position held over the whole horizon: a one-segment schedule."""

    def __init__(self, position):
        super().__init__([0.0], [np.atleast_1d(position)])


def step_feedback(t_switch: float, before, after) -> ScheduleFlow:
    """Schedule that rebalances from `before` to `after` at t_switch."""
    return ScheduleFlow([0.0, t_switch],
                        [np.atleast_1d(before), np.atleast_1d(after)])


class FeedbackFlow:
    """Position chosen by a rule from the left-limit state.

    The one flow that reads the state.  The rule is called as rule(t,
    utilities (P, M), level (P,)) and must return something
    broadcastable to (P, J); it sees the state before the step's
    increment is applied.
    """

    def __init__(self, rule: Callable, initial_position):
        self.rule = rule
        self._initial = np.atleast_1d(np.asarray(initial_position,
                                                 dtype=float))

    @property
    def initial_position(self) -> np.ndarray:
        return self._initial

    def at(self, t: float, utilities: np.ndarray, level: np.ndarray):
        q = np.asarray(self.rule(t, utilities, level), dtype=float)
        return np.broadcast_to(q, (utilities.shape[0], self._initial.size))


# --------------------------------------------------------------------------
# configuration and results


# the most Euler steps a run may take over the unit horizon, so dt >=
# 2**-20: a finer dt would ask for a (paths, steps) noise array past any
# run's memory, and a dt whose 1/dt overflows has no step count at all
MAX_STEPS = 2**20


def step_count(dt: float) -> int:
    """Steps of size dt over the unit horizon.  ValueError unless dt lies
    in (0, 1], gives at most MAX_STEPS steps and divides the horizon."""
    if not 0.0 < dt <= 1.0:
        raise ValueError("dt must lie in (0, 1]")
    steps = 1.0 / dt
    if not steps <= MAX_STEPS:
        raise ValueError(f"dt must give at most {MAX_STEPS} steps")
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError("dt must divide the unit horizon evenly")
    return int(round(steps))


@dataclass(frozen=True)
class SimulationConfig:
    dt: float = 2.0**-6
    n_paths: int = 1
    seed: int = 0
    explosion_eps: Optional[float] = None   # None -> 1e-6 * min |U0|
    quadrature_n: int = 64
    log_coordinates: bool = True
    newton_tol: float = 1e-10

    def __post_init__(self):
        step_count(self.dt)
        if self.n_paths < 1:
            raise ValueError("n_paths must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        if self.explosion_eps is not None \
                and not 0 < self.explosion_eps < math.inf:
            raise ValueError("explosion_eps must be positive and finite")
        if not 0 < self.newton_tol < math.inf:
            raise ValueError("newton_tol must be positive and finite")
        if self.quadrature_n < 1:
            raise ValueError("quadrature_n must be positive")

    @property
    def n_steps(self) -> int:
        return step_count(self.dt)


@dataclass(frozen=True)
class InitialState:
    """Starting utilities plus the weights/cash that certify them.

    weights is scaled so the field's cash marginal is one at
    (t, z) = (0, 0); utilities are the weight marginals there, which
    lands on the slope-one slice the conjugate solver works on.
    """

    utilities: np.ndarray
    weights: np.ndarray
    cash: float
    position: np.ndarray


def initial_state(agents: AgentSet, model: MarketModel, rule: QuadratureRule,
                  weights, cash: float = 0.0, position=None) -> InitialState:
    """Normalize starting weights and read off the initial utilities."""
    q = np.atleast_1d(np.asarray(
        np.zeros(model.n_dividends) if position is None else position,
        dtype=float))
    v_norm = normalize_weights(agents, model, rule, 0.0, 0.0, weights, cash,
                               q)
    out = field_core(agents, model, rule, 0.0, 0.0, v_norm[None, :], [cash],
                     q[None, :], order=1)
    return InitialState(utilities=out["value_v"][0], weights=v_norm,
                        cash=float(cash), position=q)


@dataclass(frozen=True)
class PathResult:
    """One simulated path, recorded on the step grid up to its end."""

    times: np.ndarray        # (n_rec,)
    brownian: np.ndarray     # (n_rec,)
    utilities: np.ndarray    # (n_rec, M)
    weights: np.ndarray      # (n_rec, M); nan on a stop row
    cash: np.ndarray         # (n_rec,);   nan on a stop row
    position: np.ndarray     # (n_rec, J)
    stopped: bool
    tau: Optional[float]
    stop_reason: str


@dataclass(frozen=True)
class EnsembleSummary:
    """Terminal statistics of a simulated ensemble."""

    n_paths: int
    dt: float
    seed: int
    coordinates: str
    initial_utilities: np.ndarray
    terminal_utilities: np.ndarray   # (P, M); nan rows for stopped paths
    stop_reasons: tuple              # per path
    taus: np.ndarray                 # (P,); nan where completed
    recorded: tuple = ()

    @property
    def n_completed(self) -> int:
        return sum(1 for r in self.stop_reasons if r == COMPLETED)

    @property
    def n_explosion(self) -> int:
        return sum(1 for r in self.stop_reasons if r == EXPLOSION)

    @property
    def n_infeasible(self) -> int:
        return sum(1 for r in self.stop_reasons if r == INFEASIBLE)

    def _completed_terminals(self) -> np.ndarray:
        done = np.array([r == COMPLETED for r in self.stop_reasons])
        return self.terminal_utilities[done]

    @property
    def terminal_mean(self) -> np.ndarray:
        u = self._completed_terminals()
        if u.shape[0] == 0:
            return np.full(self.terminal_utilities.shape[1], np.nan)
        return u.mean(axis=0)

    @property
    def terminal_stderr(self) -> np.ndarray:
        """Standard error of the terminal mean; nan with fewer than two
        completed paths, where the sample spread is undefined."""
        u = self._completed_terminals()
        if u.shape[0] < 2:
            return np.full(self.terminal_utilities.shape[1], np.nan)
        return u.std(axis=0, ddof=1) / math.sqrt(u.shape[0])


# --------------------------------------------------------------------------
# noise


def brownian_increments(seed: int, first_path: int, n_paths: int,
                        n_steps: int, dt: float) -> np.ndarray:
    """Per-path counter-based streams; (n_paths, n_steps) increments.

    Stream i depends only on (seed, first_path + i), never on how many
    paths are drawn together, so any partition over workers sees the
    same noise.  One generator serves every path: its state is reset to
    the path's key with a zero counter, the state a fresh
    `Philox(key=...)` starts in, without a fresh one's entropy draw.
    """
    out = np.empty((n_paths, n_steps))
    bits = np.random.Philox(key=np.array([seed, first_path], dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    for i in range(n_paths):
        state["state"]["key"] = np.array([seed, first_path + i],
                                         dtype=np.uint64)
        state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
        bits.state = state
        out[i] = gen.standard_normal(n_steps)
    out *= math.sqrt(dt)
    return out


def coarsen_increments(fine: np.ndarray, factor: int) -> np.ndarray:
    """Aggregate fine-grid increments onto a grid `factor` times coarser."""
    p, n = fine.shape
    if factor < 1 or n % factor:
        raise ValueError("factor must divide the number of fine steps")
    return fine.reshape(p, n // factor, factor).sum(axis=2)


# --------------------------------------------------------------------------
# engine


def _run_chunk(agents, model, flow, config: SimulationConfig,
               initial: InitialState, ladder: Sequence[tuple],
               record: int = 0) -> dict:
    """Lockstep Euler over a block of paths; the one engine.

    The noise is a `ladder` of (dt, increments) levels, each increments
    of shape (P, 1/dt) for the block's P paths; level i's paths are rows
    i*P to (i+1)*P - 1, stepping at the level's dt and reading the
    level's own array in place, and the results come back in that
    level-major order.  Each pass steps the rows due at the earliest
    pending step time (see the module docstring); stops record the
    row's own step k_r and tau k_r * dt_r.  The first `record` rows
    keep a full trace.
    """
    n_paths = ladder[0][1].shape[0]
    steps = [step_count(d) for d, _ in ladder]
    for (_, inc), n in zip(ladder, steps):
        if inc.shape != (n_paths, n):
            raise ValueError("increment array does not match (paths, steps)")
    p = n_paths * len(ladder)
    dt = np.repeat([d for d, _ in ladder], n_paths)
    n_steps = np.repeat(steps, n_paths)
    n_max = max(steps)

    rule = QuadratureRule.gauss_hermite(config.quadrature_n)
    nm = agents.size
    nj = model.n_dividends
    u0 = np.asarray(initial.utilities, dtype=float)
    eps = config.explosion_eps if config.explosion_eps is not None \
        else 1e-6 * float(np.abs(u0).min())

    utilities = np.tile(u0, (p, 1))
    log_u = np.log(-utilities) if config.log_coordinates else None
    level = np.zeros(p)
    warm_w = np.tile(initial.weights, (p, 1))
    warm_c = np.full(p, initial.cash)
    q_full = np.zeros((p, nj))
    taus = np.full(p, np.nan)
    reasons = np.zeros(p, dtype=np.int8)    # index into _REASONS
    k = np.zeros(p, dtype=np.int64)         # each row's own step counter
    live = np.ones(p, dtype=bool)           # rows still stepping

    record = min(record, p)
    tr_b = np.full((record, n_max + 1), np.nan)
    tr_u = np.full((record, n_max + 1, nm), np.nan)
    tr_w = np.full((record, n_max + 1, nm), np.nan)
    tr_c = np.full((record, n_max + 1), np.nan)
    tr_q = np.full((record, n_max + 1, nj), np.nan)

    def write(idx, weights=None, cash=None):
        """Trace rows idx at their own step; a stop row has no weights."""
        sel = idx < record
        if not sel.any():
            return
        rec = idx[sel]
        kr = k[rec]
        tr_b[rec, kr] = level[rec]
        tr_u[rec, kr] = utilities[rec]
        tr_q[rec, kr] = q_full[rec]
        if weights is not None:
            tr_w[rec, kr] = weights[sel]
            tr_c[rec, kr] = cash[sel]

    def drop(idx, code):
        """Mark stopped rows at their own step, write their stop row."""
        taus[idx] = k[idx] * dt[idx]
        reasons[idx] = code
        live[idx] = False
        write(idx)

    while True:
        active = np.flatnonzero(live)
        if active.size == 0:
            break
        t_act = k[active] * dt[active]
        t = float(t_act.min())
        due = active[t_act == t]
        u_due = utilities[due]
        q_due = np.asarray(flow.at(t, u_due, level[due]), dtype=float)
        if q_due.shape != (due.size, nj):
            raise ValueError(f"flow returned shape {q_due.shape}, expected "
                             f"{(due.size, nj)}")
        q_full[due] = q_due

        exploded = u_due.max(axis=1) > -eps
        drop(due[exploded], 1)
        due = due[~exploded]
        rows = coefficient_rows(
            agents, model, rule, t, level[due], utilities[due], q_full[due],
            warm=(warm_w[due], warm_c[due]), tol=config.newton_tol)
        drop(due[~rows.converged], 2)
        due = due[rows.converged]
        rows = rows.take(rows.converged)
        if due.size == 0:
            continue
        write(due, rows.weights, rows.cash)

        h = dt[due]
        # row r is path r % P of level r // P
        rung, path = np.divmod(due, n_paths)
        db = np.empty(due.size)
        for i, (_, inc) in enumerate(ladder):
            at = rung == i
            db[at] = inc[path[at], k[due[at]]]
        u_due = rows.utilities
        vol = rows.coefficient / u_due
        log_step = vol * db[:, None] - 0.5 * vol**2 * h[:, None]
        drho = None
        if config.log_coordinates:
            log_u[due] += log_step
            utilities[due] = -np.exp(log_u[due])
        else:
            nxt = u_due + rows.coefficient * db[:, None]
            # a discrete step overshooting zero is clipped to the closest
            # representable negative state; the explosion check records
            # the stop
            nxt[nxt >= 0.0] = -np.finfo(float).tiny
            utilities[due] = nxt
            drho = np.log(-u_due) + log_step - np.log(-nxt)
        level[due] += db
        warm_w[due], warm_c[due] = rows.predict(db, h, drho)
        # the warm arrays carry all the next step needs: release the
        # solve's rows before the next solve's field evaluations
        del rows
        k[due] += 1
        live[due] = k[due] < n_steps[due]
        # a row whose last step ends past the threshold has no next step
        # start to catch it: it stops there, at tau 1
        last = due[~live[due]]
        drop(last[utilities[last].max(axis=1) > -eps], 1)

    stopped = reasons != 0
    # terminal row, at k_r = n_steps, for traced paths that ran the horizon
    done = np.flatnonzero(~stopped[:record])
    if done.size:
        q_full[done] = flow.at(1.0, utilities[done], level[done])
        last = coefficient_rows(
            agents, model, rule, 1.0, level[done], utilities[done],
            q_full[done], warm=(warm_w[done], warm_c[done]),
            tol=config.newton_tol)
        write(done, last.weights, last.cash)

    terminal = utilities.copy()
    terminal[stopped] = np.nan

    results = []
    for i in range(record):
        end = k[i] + 1       # a row's trace ends at its own last step
        results.append(PathResult(
            times=np.arange(end) * dt[i], brownian=tr_b[i, :end],
            utilities=tr_u[i, :end], weights=tr_w[i, :end],
            cash=tr_c[i, :end], position=tr_q[i, :end],
            stopped=bool(stopped[i]),
            tau=float(taus[i]) if stopped[i] else None,
            stop_reason=_REASONS[reasons[i]]))
    return {
        "terminal": terminal,
        "reasons": tuple(_REASONS[c] for c in reasons),
        "taus": taus,
        "recorded": tuple(results),
    }


def simulate_path(agents: AgentSet, model: MarketModel, flow,
                  config: SimulationConfig,
                  initial: InitialState) -> PathResult:
    """Run path 0 of config.seed with a full trace."""
    increments = brownian_increments(config.seed, 0, 1, config.n_steps,
                                     config.dt)
    chunk = _run_chunk(agents, model, flow, config, initial,
                       [(config.dt, increments)], record=1)
    return chunk["recorded"][0]


def _initial(agents, model, flow, config, weights, cash):
    """The entries' starting state: unit weights unless given."""
    rule = QuadratureRule.gauss_hermite(config.quadrature_n)
    v0 = np.ones(agents.size) if weights is None else weights
    return initial_state(agents, model, rule, v0, cash,
                         flow.initial_position)


def run_ensemble(agents: AgentSet, model: MarketModel, flow,
                 config: SimulationConfig, weights=None, cash: float = 0.0,
                 record: int = 0) -> EnsembleSummary:
    """Simulate config.n_paths paths and collect terminal statistics.

    The worker count comes from the IMPACTDESK_WORKERS environment
    variable (default 1 when unset or empty), and any other value than a
    positive integer raises ValueError.  Increments are keyed by absolute
    path index and drawn once, each worker gets its block's rows, and
    blocks are merged back in path order, so the split cannot change any
    number in the output.
    """
    raw = os.environ.get(WORKERS_ENV, "") or "1"
    workers = int(raw) if raw.strip().isdecimal() else 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, "
                         f"got {raw!r}")
    init = _initial(agents, model, flow, config, weights, cash)
    p = config.n_paths
    workers = min(workers, p)
    increments = brownian_increments(config.seed, 0, p, config.n_steps,
                                     config.dt)
    size = -(-p // workers)
    jobs = [(agents, model, flow, config, init,
             [(config.dt, increments[lo:lo + size])], max(0, record - lo))
            for lo in range(0, p, size)]
    if workers == 1:
        chunks = [_run_chunk(*jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_chunk, *zip(*jobs)))

    terminal = np.concatenate([c["terminal"] for c in chunks])
    reasons = tuple(r for c in chunks for r in c["reasons"])
    taus = np.concatenate([c["taus"] for c in chunks])
    recorded = tuple(r for c in chunks for r in c["recorded"])
    return EnsembleSummary(
        n_paths=p, dt=config.dt, seed=config.seed,
        coordinates="log" if config.log_coordinates else "direct",
        initial_utilities=init.utilities, terminal_utilities=terminal,
        stop_reasons=reasons, taus=taus, recorded=recorded)


# --------------------------------------------------------------------------
# oracles


def static_oracle(agents: AgentSet, model: MarketModel, rule: QuadratureRule,
                  initial: InitialState, times, levels) -> np.ndarray:
    """Utilities at (time, level) points for a frozen book.

    With the position held fixed, the field's weight marginals at the
    frozen (weights, cash) solve the dealer system along any factor path
    — they are martingales in the factor, and the simulated state is
    their value at the moving (t, B_t).  Evaluating them directly by
    quadrature gives a reference that never touches the Euler stepper.
    The points that share a time are evaluated in one batch (at t = 1
    the rule is not used); a row's bits do not depend on its batch.
    """
    times = np.asarray(times, dtype=float)
    levels = np.asarray(levels, dtype=float)
    out = np.empty((times.size, agents.size))
    for t in dict.fromkeys(times.tolist()):
        rows = times == t
        out[rows] = field_core(agents, model, rule, t, levels[rows],
                               initial.weights[None, :], [initial.cash],
                               initial.position[None, :],
                               order=1)["value_v"]
    return out


@dataclass(frozen=True)
class StrongErrorStudy:
    """Terminal error against the frozen-book oracle across step sizes."""

    dts: tuple             # descending
    errors: tuple          # mean over paths/components of |U - oracle| at t=1
    ratios: tuple          # errors[i] / errors[i+1], one per halving
    sim_means: tuple = ()  # per dt, completed-path mean of the terminal state
    oracle_mean: float = float("nan")
    n_completed: tuple = ()


def _mean(a: np.ndarray) -> float:
    """Mean of a; nan, without numpy's empty-slice warning, when empty."""
    return float(a.mean()) if a.size else float("nan")


def strong_error_study(agents: AgentSet, model: MarketModel, flow,
                       config: SimulationConfig, dts: Sequence[float],
                       weights=None, cash: float = 0.0) -> StrongErrorStudy:
    """Mean terminal error vs the oracle on common noise per step size.

    All step sizes consume the same fine-grid increments (coarser grids
    aggregate them), so the comparison is pathwise and the expected
    decay per halving of dt is the square root of two.  Every dt must be
    a whole multiple of the finest.  The levels run as one lockstep
    batch, one row per path and level: at each step time one conjugate
    solve serves every level due then (on a dyadic ladder, as many
    solves as the finest level has steps), and each row is computed as
    it would be in a run of its level alone.
    """
    dts_desc = sorted((float(d) for d in dts), reverse=True)
    if not dts_desc:
        raise ValueError("dts must hold at least one step size")
    fine = dts_desc[-1]
    n_fine = step_count(fine)
    for d in dts_desc:
        step_count(d)
        if abs(round(d / fine) - d / fine) > 1e-9:
            raise ValueError(f"dt {d:g} is not a whole multiple of the "
                             f"finest dt {fine:g}")
    init = _initial(agents, model, flow, config, weights, cash)
    p = config.n_paths
    fine_inc = brownian_increments(config.seed, 0, p, n_fine, fine)
    oracle = static_oracle(agents, model, degenerate_rule(), init,
                           np.ones(p), fine_inc.sum(axis=1))
    ladder = [(d, coarsen_increments(fine_inc, int(round(d / fine))))
              for d in dts_desc]
    chunk = _run_chunk(agents, model, flow, config, init, ladder)
    errors, sim_means, completed = [], [], []
    all_done = np.ones(p, dtype=bool)
    for i in range(len(dts_desc)):
        rows = slice(i * p, (i + 1) * p)
        terminal = chunk["terminal"][rows]
        done = np.array([r == COMPLETED for r in chunk["reasons"][rows]])
        errors.append(_mean(np.abs(terminal[done] - oracle[done])))
        sim_means.append(_mean(terminal[done]))
        completed.append(int(done.sum()))
        all_done &= done
    # IEEE division: a level with no error reads inf or nan, never raises
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = tuple(float(r) for r in np.divide(errors[:-1], errors[1:]))
    return StrongErrorStudy(dts=tuple(dts_desc), errors=tuple(errors),
                            ratios=ratios, sim_means=tuple(sim_means),
                            oracle_mean=_mean(oracle[all_done]),
                            n_completed=tuple(completed))
