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

A path ends in one of three ways, recorded per path rather than
raised: it reaches the horizon (completed); some component climbs
above the explosion threshold -eps (explosion — the system only admits
a local solution and this is its boundary); or the conjugate solve
stops converging (conjugate-infeasible — the state left the reachable
region some other way).  The solve reports each path's row in a mask,
so a fault in one path never stops another.

Brownian increments come from counter-based per-path streams keyed by
(seed, absolute path index), and each path's coefficient row is
computed as it would be alone, so results are reproducible, bit-for-bit
independent of how paths are split across workers, and shareable
between a simulation and its quadrature oracle.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import coefficient_rows, field_core, normalize_weights
from .market import MarketModel
from .quadrature import QuadratureRule
from .utility import AgentSet

COMPLETED = "completed"
EXPLOSION = "explosion"
INFEASIBLE = "conjugate-infeasible"
_REASONS = (COMPLETED, EXPLOSION, INFEASIBLE)

WORKERS_ENV = "IMPACTDESK_WORKERS"


# --------------------------------------------------------------------------
# order flows


class ConstantFlow:
    """Fixed position held over the whole horizon."""

    def __init__(self, position):
        self.position = np.atleast_1d(np.asarray(position, dtype=float))

    @property
    def initial_position(self) -> np.ndarray:
        return self.position

    @property
    def local_bound(self) -> float:
        return float(np.abs(self.position).max(initial=0.0))

    def at(self, t: float, utilities: np.ndarray, level: np.ndarray):
        return np.broadcast_to(self.position,
                               (utilities.shape[0], self.position.size))


class ScheduleFlow:
    """Piecewise-constant position; segment k covers [t_k, t_{k+1})."""

    def __init__(self, times: Sequence[float], positions):
        self.times = np.asarray(times, dtype=float)
        self.positions = np.atleast_2d(np.asarray(positions, dtype=float))
        if self.times.ndim != 1 or self.times.size != self.positions.shape[0]:
            raise ValueError("need one position row per schedule time")
        if self.times.size == 0 or self.times[0] != 0.0 \
                or np.any(np.diff(self.times) <= 0):
            raise ValueError("schedule times must start at 0 and increase")

    @property
    def initial_position(self) -> np.ndarray:
        return self.positions[0]

    @property
    def local_bound(self) -> float:
        return float(np.abs(self.positions).max(initial=0.0))

    def at(self, t: float, utilities: np.ndarray, level: np.ndarray):
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        return np.broadcast_to(self.positions[k],
                               (utilities.shape[0], self.positions.shape[1]))


class FeedbackFlow:
    """Position chosen by a rule from the left-limit state.

    The rule is called as rule(t, utilities (P, M), level (P,)) and must
    return something broadcastable to (P, J); it sees the state before
    the step's increment is applied.  A finite local bound must be
    declared — the flow promises |position| never exceeds it.
    """

    def __init__(self, rule: Callable, initial_position, local_bound: float):
        self.rule = rule
        self._initial = np.atleast_1d(np.asarray(initial_position,
                                                 dtype=float))
        self._bound = float(local_bound)
        if self._initial.size and not self._bound > 0:
            raise ValueError("feedback flow needs a positive local bound")

    @property
    def initial_position(self) -> np.ndarray:
        return self._initial

    @property
    def local_bound(self) -> float:
        return self._bound

    def at(self, t: float, utilities: np.ndarray, level: np.ndarray):
        q = np.asarray(self.rule(t, utilities, level), dtype=float)
        return np.broadcast_to(q, (utilities.shape[0], self._initial.size))


class _StepRule:
    """Jump from one constant position to another at a switch time."""

    def __init__(self, t_switch: float, before, after):
        self.t_switch = float(t_switch)
        self.before = np.atleast_1d(np.asarray(before, dtype=float))
        self.after = np.atleast_1d(np.asarray(after, dtype=float))

    def __call__(self, t, utilities, level):
        return self.after if t >= self.t_switch else self.before


def step_feedback(t_switch: float, before, after) -> FeedbackFlow:
    """Feedback flow that rebalances to a new position at t_switch."""
    rule = _StepRule(t_switch, before, after)
    bound = max(float(np.abs(rule.before).max(initial=0.0)),
                float(np.abs(rule.after).max(initial=0.0)))
    return FeedbackFlow(rule, rule.before, bound)


# --------------------------------------------------------------------------
# configuration and results


@dataclass(frozen=True)
class SimulationConfig:
    dt: float = 2.0**-6
    n_paths: int = 1
    seed: int = 0
    explosion_eps: Optional[float] = None   # None -> 1e-6 * min |U0|
    quadrature_n: int = 64
    log_coordinates: bool = True
    newton_max_iter: int = 100
    newton_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.dt <= 1.0:
            raise ValueError("dt must lie in (0, 1]")
        steps = 1.0 / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("dt must divide the unit horizon evenly")
        if self.n_paths < 1:
            raise ValueError("n_paths must be positive")
        if self.explosion_eps is not None and not self.explosion_eps > 0:
            raise ValueError("explosion_eps must be positive")
        if self.quadrature_n < 1:
            raise ValueError("quadrature_n must be positive")

    @property
    def n_steps(self) -> int:
        return int(round(1.0 / self.dt))


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
    v = np.atleast_1d(np.asarray(weights, dtype=float))
    if np.any(v <= 0):
        raise ValueError("starting weights must be positive")
    q = np.atleast_1d(np.asarray(
        np.zeros(model.n_dividends) if position is None else position,
        dtype=float))
    v_norm = normalize_weights(agents, model, rule, 0.0, 0.0, v, cash, q)
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
        u = self._completed_terminals()
        if u.shape[0] < 2:
            return np.zeros(self.terminal_utilities.shape[1])
        return u.std(axis=0, ddof=1) / math.sqrt(u.shape[0])


# --------------------------------------------------------------------------
# noise


def brownian_increments(seed: int, first_path: int, n_paths: int,
                        n_steps: int, dt: float) -> np.ndarray:
    """Per-path counter-based streams; (n_paths, n_steps) increments.

    Stream i depends only on (seed, first_path + i), never on how many
    paths are drawn together, so any partition over workers sees the
    same noise.
    """
    out = np.empty((n_paths, n_steps))
    for i in range(n_paths):
        key = np.array([seed, first_path + i], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
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
               initial: InitialState, first_path: int, n_paths: int,
               record: int = 0,
               increments: Optional[np.ndarray] = None) -> dict:
    """Lockstep Euler over a contiguous block of path indices."""
    n_steps = config.n_steps
    dt = config.dt
    rule = QuadratureRule.gauss_hermite(config.quadrature_n)
    nm = agents.size
    nj = model.n_dividends
    u0 = np.asarray(initial.utilities, dtype=float)
    eps = config.explosion_eps if config.explosion_eps is not None \
        else 1e-6 * float(np.abs(u0).min())

    if increments is None:
        increments = brownian_increments(config.seed, first_path, n_paths,
                                         n_steps, dt)
    elif increments.shape != (n_paths, n_steps):
        raise ValueError("increment array does not match (paths, steps)")

    p = n_paths
    utilities = np.tile(u0, (p, 1))
    log_u = np.log(-utilities) if config.log_coordinates else None
    level = np.zeros(p)
    warm_w = np.tile(initial.weights, (p, 1))
    warm_c = np.full(p, initial.cash)
    q_full = np.zeros((p, nj))
    taus = np.full(p, np.nan)
    reasons = np.zeros(p, dtype=np.int8)    # index into _REASONS
    active = np.arange(p)

    record = min(record, p)
    if record:
        tr_b = np.full((record, n_steps + 1), np.nan)
        tr_u = np.full((record, n_steps + 1, nm), np.nan)
        tr_w = np.full((record, n_steps + 1, nm), np.nan)
        tr_c = np.full((record, n_steps + 1), np.nan)
        tr_q = np.full((record, n_steps + 1, nj), np.nan)
        tr_last = np.full(record, n_steps, dtype=int)

    def drop(mask, k, code):
        """Mark stopped paths, write their stop row, shrink the active set."""
        nonlocal active
        idx = active[mask]
        taus[idx] = k * dt
        reasons[idx] = code
        if record:
            rec = idx[idx < record]
            if rec.size:
                tr_b[rec, k] = level[rec]
                tr_u[rec, k] = utilities[rec]
                tr_q[rec, k] = q_full[rec]
                tr_last[rec] = k
        active = active[~mask]

    for k in range(n_steps):
        if active.size == 0:
            break
        t = k * dt
        u_act = utilities[active]
        q_act = np.asarray(flow.at(t, u_act, level[active]), dtype=float)
        if q_act.shape != (active.size, nj):
            raise ValueError(f"flow returned shape {q_act.shape}, expected "
                             f"{(active.size, nj)}")
        q_full[active] = q_act

        exploded = u_act.max(axis=1) > -eps
        if exploded.any():
            drop(exploded, k, 1)
            if active.size == 0:
                break
            u_act = utilities[active]
            q_act = q_full[active]

        weights, cash, coeff, ok = coefficient_rows(
            agents, model, rule, t, level[active], u_act, q_act,
            warm=(warm_w[active], warm_c[active]),
            max_iter=config.newton_max_iter, tol=config.newton_tol)
        if not ok.all():
            keep = ok
            drop(~ok, k, 2)
            if active.size == 0:
                break
            weights, cash, coeff = weights[keep], cash[keep], coeff[keep]
            u_act = utilities[active]
        warm_w[active] = weights
        warm_c[active] = cash

        if record:
            mask = active < record
            rec = active[mask]
            if rec.size:
                tr_b[rec, k] = level[rec]
                tr_u[rec, k] = utilities[rec]
                tr_q[rec, k] = q_full[rec]
                tr_w[rec, k] = weights[mask]
                tr_c[rec, k] = cash[mask]

        db = increments[active, k]
        if config.log_coordinates:
            vol = coeff / u_act
            log_u[active] += vol * db[:, None] - 0.5 * vol**2 * dt
            utilities[active] = -np.exp(log_u[active])
        else:
            nxt = u_act + coeff * db[:, None]
            flipped = nxt >= 0.0
            if flipped.any():
                # a discrete step overshooting zero is clipped to the
                # closest representable negative state; the explosion
                # check at the next step start records the stop
                nxt[flipped] = -np.finfo(float).tiny
            utilities[active] = nxt
        level[active] += db

    # terminal row for paths that ran the full horizon
    if active.size and record:
        rec = active[active < record]
        if rec.size:
            q_term = np.asarray(flow.at(1.0, utilities[rec], level[rec]),
                                dtype=float)
            q_full[rec] = q_term
            tr_w[rec, n_steps], tr_c[rec, n_steps], _, _ = coefficient_rows(
                agents, model, rule, 1.0, level[rec], utilities[rec], q_term,
                warm=(warm_w[rec], warm_c[rec]),
                max_iter=config.newton_max_iter, tol=config.newton_tol)
            tr_b[rec, n_steps] = level[rec]
            tr_u[rec, n_steps] = utilities[rec]
            tr_q[rec, n_steps] = q_term

    terminal = utilities.copy()
    stopped = reasons != 0
    terminal[stopped] = np.nan

    results = []
    if record:
        times = np.arange(n_steps + 1) * dt
        for i in range(record):
            last = tr_last[i]
            results.append(PathResult(
                times=times[:last + 1], brownian=tr_b[i, :last + 1],
                utilities=tr_u[i, :last + 1], weights=tr_w[i, :last + 1],
                cash=tr_c[i, :last + 1], position=tr_q[i, :last + 1],
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
                  config: SimulationConfig, initial: InitialState,
                  path_index: int = 0,
                  increments: Optional[np.ndarray] = None) -> PathResult:
    """Run one path with a full trace."""
    chunk = _run_chunk(agents, model, flow, replace(config, n_paths=1),
                       initial, first_path=path_index, n_paths=1, record=1,
                       increments=increments)
    return chunk["recorded"][0]


def _worker(args):
    return _run_chunk(*args)


def run_ensemble(agents: AgentSet, model: MarketModel, flow,
                 config: SimulationConfig, weights=None, cash: float = 0.0,
                 record: int = 0) -> EnsembleSummary:
    """Simulate config.n_paths paths and collect terminal statistics.

    The worker count comes from the IMPACTDESK_WORKERS environment
    variable (default 1).  Increments are keyed by absolute path index
    and chunks are merged back in path order, so the split cannot
    change any number in the output.
    """
    rule = QuadratureRule.gauss_hermite(config.quadrature_n)
    v0 = np.ones(agents.size) if weights is None else weights
    init = initial_state(agents, model, rule, v0, cash, flow.initial_position)
    p = config.n_paths
    workers = int(os.environ.get(WORKERS_ENV, "1") or "1")
    workers = max(1, min(workers, p))

    if workers == 1:
        chunks = [_run_chunk(agents, model, flow, config, init, 0, p,
                             record=record)]
    else:
        size = -(-p // workers)
        jobs = []
        for lo in range(0, p, size):
            hi = min(lo + size, p)
            jobs.append((agents, model, flow, config, init, lo, hi - lo,
                         max(0, min(record - lo, hi - lo)), None))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_worker, jobs))

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
    """Utilities along one factor path for a frozen book.

    With the position held fixed, the field's weight marginals at the
    frozen (weights, cash) solve the dealer system along the path —
    they are martingales in the factor, and the simulated state is
    their value at the moving (t, B_t).  Evaluating them directly by
    quadrature gives a reference that never touches the Euler stepper.
    """
    times = np.asarray(times, dtype=float)
    levels = np.asarray(levels, dtype=float)
    out = np.empty((times.size, agents.size))
    for i, (t, z) in enumerate(zip(times, levels)):
        res = field_core(agents, model, rule, float(t), np.atleast_1d(z),
                         initial.weights[None, :], [initial.cash],
                         initial.position[None, :], order=1)
        out[i] = res["value_v"][0]
    return out


def static_oracle_terminal(agents: AgentSet, model: MarketModel,
                           initial: InitialState, levels) -> np.ndarray:
    """Terminal utilities for many paths at once (t = 1, no quadrature)."""
    levels = np.asarray(levels, dtype=float)
    rule = QuadratureRule.gauss_hermite(1)
    res = field_core(agents, model, rule, 1.0, levels,
                     np.tile(initial.weights, (levels.size, 1)),
                     np.full(levels.size, initial.cash),
                     np.tile(initial.position, (levels.size, 1)), order=1)
    return res["value_v"]


@dataclass(frozen=True)
class StrongErrorStudy:
    """Terminal error against the frozen-book oracle across step sizes."""

    dts: tuple             # descending
    errors: tuple          # mean over paths/components of |U - oracle| at t=1
    ratios: tuple          # errors[i] / errors[i+1], one per halving
    sim_means: tuple = ()  # per dt, completed-path mean of the terminal state
    oracle_mean: float = float("nan")
    n_completed: tuple = ()

    def __str__(self):
        rows = [f"dt={dt:g}: mean abs error {e:.6g}"
                for dt, e in zip(self.dts, self.errors)]
        rows.append("halving ratios: "
                    + ", ".join(f"{r:.3f}" for r in self.ratios))
        return "\n".join(rows)


def _mean(a: np.ndarray) -> float:
    """Mean of a; nan, without numpy's empty-slice warning, when empty."""
    return float(a.mean()) if a.size else float("nan")


def strong_error_study(agents: AgentSet, model: MarketModel, flow,
                       config: SimulationConfig, dts: Sequence[float],
                       weights=None, cash: float = 0.0) -> StrongErrorStudy:
    """Mean terminal error vs the oracle on common noise per step size.

    All step sizes consume the same fine-grid increments (coarser grids
    aggregate them), so the comparison is pathwise and the expected
    decay per halving of dt is the square root of two.
    """
    dts_desc = sorted((float(d) for d in dts), reverse=True)
    for d in dts_desc:
        if abs(round(1.0 / d) - 1.0 / d) > 1e-9:
            raise ValueError("every dt must divide the horizon evenly")
    fine = dts_desc[-1]
    n_fine = int(round(1.0 / fine))
    rule = QuadratureRule.gauss_hermite(config.quadrature_n)
    v0 = np.ones(agents.size) if weights is None else weights
    init = initial_state(agents, model, rule, v0, cash, flow.initial_position)
    p = config.n_paths
    fine_inc = brownian_increments(config.seed, 0, p, n_fine, fine)
    oracle = static_oracle_terminal(agents, model, init, fine_inc.sum(axis=1))
    errors, sim_means, completed = [], [], []
    all_done = np.ones(p, dtype=bool)
    for d in dts_desc:
        factor = int(round(d / fine))
        inc = coarsen_increments(fine_inc, factor)
        chunk = _run_chunk(agents, model, flow, replace(config, dt=d),
                           init, 0, p, increments=inc)
        done = np.array([r == COMPLETED for r in chunk["reasons"]])
        errors.append(_mean(np.abs(chunk["terminal"][done] - oracle[done])))
        sim_means.append(_mean(chunk["terminal"][done]))
        completed.append(int(done.sum()))
        all_done &= done
    ratios = tuple(errors[i] / errors[i + 1] for i in range(len(errors) - 1))
    return StrongErrorStudy(dts=tuple(dts_desc), errors=tuple(errors),
                            ratios=ratios, sim_means=tuple(sim_means),
                            oracle_mean=_mean(oracle[all_done]),
                            n_completed=tuple(completed))
