"""Simulation engine: initial state, Euler schemes, stops, reproducibility.

The exponential/linear configuration is the workhorse: there the utility
system is geometric Brownian motion with volatility equal to harmonic
aversion times total exposure, and the log-coordinate Euler scheme
reproduces it exactly, so closed forms pin every moving part.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from impactdesk import fields, pareto, sde
from impactdesk.market import LinearPayoff, market_model
from impactdesk.quadrature import QuadratureRule
from impactdesk.sde import (COMPLETED, EXPLOSION, INFEASIBLE, MAX_STEPS,
                            ConstantFlow,
                            EnsembleSummary, FeedbackFlow, ScheduleFlow,
                            SimulationConfig, brownian_increments,
                            coarsen_increments,
                            initial_state, run_ensemble, simulate_path,
                            static_oracle,
                            step_feedback, strong_error_study)
from impactdesk.utility import (TanhAversion, agent_set,
                                build_from_risk_aversion, exponential_utility)

EXP_PAIR = agent_set(exponential_utility(2.0), exponential_utility(2.0))
TANH_MIX = agent_set(
    build_from_risk_aversion(TanhAversion(2.0, 0.5), c_bound=2.5),
    exponential_utility(2.0))
FLAT = market_model()
# harmonic aversion 1, endowment slope 0.5, one unit-slope stock: holding
# q = 0.5 makes total exposure exactly 1
LIN = market_model(endowment=LinearPayoff(0.5), dividends=(LinearPayoff(1.0),))
RULE = QuadratureRule.gauss_hermite(64)
HALF_FLOW = ConstantFlow([0.5])


def gbm_closed_form(init, times, levels, vol=1.0):
    factor = np.exp(-vol * levels - 0.5 * vol**2 * times)
    return init.utilities[None, :] * factor[:, None]


# --------------------------------------------------------------------------
# initial state


def test_initial_state_flat_market_frozen():
    init = initial_state(EXP_PAIR, FLAT, RULE, [1.0, 1.0])
    assert np.abs(init.utilities - (-0.5)).max() <= 1e-12
    assert np.abs(init.weights - 1.0).max() <= 1e-12
    assert init.cash == 0.0


def test_initial_state_scale_invariant():
    one = initial_state(EXP_PAIR, LIN, RULE, [1.0, 1.0], 0.0, [0.5])
    ten = initial_state(EXP_PAIR, LIN, RULE, [10.0, 10.0], 0.0, [0.5])
    assert np.abs(one.utilities - ten.utilities).max() <= 1e-12
    assert np.abs(ten.weights - one.weights).max() <= 1e-10


def test_initial_state_linear_market_frozen():
    # exposure 1: forward factor e^{1/2}, split half/half => -e^{1/2}/2
    init = initial_state(EXP_PAIR, LIN, RULE, [1.0, 1.0], 0.0, [0.5])
    target = -0.5 * math.exp(0.5)
    assert np.abs(init.utilities - target).max() <= 1e-10 * abs(target)
    rich = initial_state(EXP_PAIR, LIN, RULE, [1.0, 1.0], 1.5, [0.5])
    target = -0.5 * math.exp(0.5 - 1.5)
    assert np.abs(rich.utilities - target).max() <= 1e-10 * abs(target)


def test_initial_state_rejects_bad_weights():
    for bad in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="weights must be positive"):
            initial_state(EXP_PAIR, FLAT, RULE, [1.0, bad])


# --------------------------------------------------------------------------
# order flows


def test_schedule_flow_right_open():
    flow = ScheduleFlow([0.0, 0.5], [[0.2], [0.7]])
    u = np.zeros((3, 2)) - 1.0
    b = np.zeros(3)
    assert np.all(flow.at(0.0, u, b) == 0.2)
    assert np.all(flow.at(0.499, u, b) == 0.2)
    assert np.all(flow.at(0.5, u, b) == 0.7)     # switch time belongs right
    assert np.all(flow.at(1.0, u, b) == 0.7)
    assert np.all(flow.initial_position == [0.2])


def test_schedule_flow_validation():
    with pytest.raises(ValueError):
        ScheduleFlow([0.1, 0.5], [[1.0], [2.0]])     # must start at 0
    with pytest.raises(ValueError):
        ScheduleFlow([0.0, 0.5, 0.5], [[1.0], [2.0], [3.0]])
    with pytest.raises(ValueError):
        ScheduleFlow([0.0, 0.5], [[1.0]])


@pytest.mark.parametrize("t", [-0.1, -1e-300, 1.5, math.nan])
def test_schedule_flow_refuses_a_time_outside_the_horizon(t):
    # a time before 0 once read the last segment through index -1
    flow = ScheduleFlow([0.0, 0.5], [[1.0], [2.0]])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        flow.position_at(t)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        flow.at(t, -np.ones((2, 2)), np.zeros(2))


def test_feedback_flow_sees_left_limits():
    calls = []

    def rule(t, utilities, level):
        calls.append((t, utilities.copy()))
        return np.array([0.5])

    flow = FeedbackFlow(rule, [0.5])
    cfg = SimulationConfig(dt=0.25, seed=4, quadrature_n=16)
    init = initial_state(EXP_PAIR, LIN, RULE, [1.0, 1.0], 1.0, [0.5])
    path = simulate_path(EXP_PAIR, LIN, flow, cfg, init)
    assert path.stop_reason == COMPLETED
    # the state handed to the rule at step k is the recorded left limit
    sim_times = [t for t, _ in calls[:-1]]          # last call is terminal
    assert sim_times == [0.0, 0.25, 0.5, 0.75]
    for k, (_, seen) in enumerate(calls[:-1]):
        assert np.abs(seen[0] - path.utilities[k]).max() <= 1e-15


def test_constant_and_step_flows_are_schedules():
    const = ConstantFlow([0.5])
    assert isinstance(const, ScheduleFlow)
    assert np.array_equal(const.times, [0.0])
    assert np.array_equal(const.positions, [[0.5]])
    assert ConstantFlow(np.zeros(0)).positions.shape == (1, 0)
    step = step_feedback(0.5, [0.5], [20.0])
    assert type(step) is ScheduleFlow
    assert np.array_equal(step.times, [0.0, 0.5])
    assert np.array_equal(step.positions, [[0.5], [20.0]])
    with pytest.raises(ValueError, match="must start at 0 and increase"):
        step_feedback(0.0, [0.5], [20.0])


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_schedule_times_must_be_finite(t):
    # a NaN or infinite switch would hold the first row for the whole
    # horizon while the schedule lists the second
    with pytest.raises(ValueError, match="schedule times must be finite"):
        ScheduleFlow([0.0, t], [[0.5], [20.0]])
    with pytest.raises(ValueError, match="schedule times must be finite"):
        step_feedback(t, [0.5], [20.0])


def _lean_against_the_factor(t, utilities, level):
    """Row-wise feedback: hold less after the factor rises, more after
    it falls, and less as the first dealer's utility climbs."""
    lean = 0.5 - 0.25 * np.tanh(level) - 0.05 * np.tanh(utilities[:, 0] + 1)
    return lean[:, None]


# a flow that reads the state; module level, so workers can unpickle it
LEAN_FLOW = FeedbackFlow(_lean_against_the_factor, [0.5])


# --------------------------------------------------------------------------
# noise bookkeeping


def test_brownian_increments_worker_independent():
    full = brownian_increments(11, 0, 10, 16, 0.0625)
    tail = brownian_increments(11, 5, 5, 16, 0.0625)
    assert np.array_equal(full[5:], tail)


def test_brownian_increments_match_a_fresh_generator_per_path():
    # one generator is re-keyed for every path; each stream must be the
    # one a fresh Philox keyed (seed, path) draws
    for seed, first in ((0, 0), (11, 5), (7, 123456), (2**40 + 3, 1997)):
        got = brownian_increments(seed, first, 3, 16, 0.0625)
        for i in range(3):
            key = np.array([seed, first + i], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key))
            want = fresh.standard_normal(16) * math.sqrt(0.0625)
            assert got[i].tobytes() == want.tobytes()


def test_coarsen_increments_sums_pairs():
    fine = brownian_increments(3, 0, 4, 8, 0.125)
    coarse = coarsen_increments(fine, 2)
    assert coarse.shape == (4, 4)
    assert np.abs(coarse[:, 0] - fine[:, :2].sum(axis=1)).max() == 0.0
    with pytest.raises(ValueError):
        coarsen_increments(fine, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(dt=0.3)                     # does not divide horizon
    with pytest.raises(ValueError):
        SimulationConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimulationConfig(n_paths=0)
    with pytest.raises(ValueError):
        SimulationConfig(explosion_eps=-1e-6)
    with pytest.raises(ValueError):
        SimulationConfig(quadrature_n=0)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_newton_tol_must_be_positive_and_finite(tol):
    # a nan or non-positive tolerance reports converging paths as
    # conjugate-infeasible, an infinite one accepts every warm start
    with pytest.raises(ValueError,
                       match="newton_tol must be positive and finite"):
        SimulationConfig(dt=0.25, n_paths=3, newton_tol=tol)


def test_explosion_eps_must_be_finite():
    # an infinite threshold would stop every path as an explosion at tau 0
    with pytest.raises(ValueError,
                       match="explosion_eps must be positive and finite"):
        SimulationConfig(dt=0.25, n_paths=3, explosion_eps=math.inf)


def test_step_count_ceiling():
    assert SimulationConfig(dt=1.0 / MAX_STEPS).n_steps == MAX_STEPS
    # 1/dt is 10**12 steps for 1e-12 and inf for the two smallest
    for dt in (0.5 / MAX_STEPS, 1e-12, 1e-320, 5e-324):
        with pytest.raises(ValueError, match=f"at most {MAX_STEPS} steps"):
            SimulationConfig(dt=dt)


def test_seed_must_fit_the_noise_key():
    # the Philox key holds the seed as an unsigned 64-bit integer; a seed
    # outside [0, 2**64) is refused up front, not by the first noise draw
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must lie in"):
            SimulationConfig(seed=seed)
    top = SimulationConfig(dt=0.25, seed=2**64 - 1)
    inc = brownian_increments(top.seed, 0, 2, top.n_steps, top.dt)
    assert inc.shape == (2, 4) and np.isfinite(inc).all()


# --------------------------------------------------------------------------
# paths


def test_deterministic_market_constant_path():
    init = initial_state(EXP_PAIR, FLAT, RULE, [1.0, 1.0])
    cfg = SimulationConfig(dt=0.125, seed=7)
    path = simulate_path(EXP_PAIR, FLAT, ConstantFlow(np.zeros(0)), cfg, init)
    assert not path.stopped and path.tau is None
    assert path.stop_reason == COMPLETED
    assert np.abs(path.utilities - init.utilities).max() == 0.0
    assert np.abs(path.weights - init.weights).max() == 0.0
    assert np.abs(path.cash).max() == 0.0
    summ = run_ensemble(EXP_PAIR, FLAT, ConstantFlow(np.zeros(0)),
                        SimulationConfig(dt=0.125, n_paths=5, seed=7))
    assert np.abs(summ.terminal_mean - init.utilities).max() == 0.0
    assert np.abs(summ.terminal_stderr).max() == 0.0


def test_stderr_needs_two_completed_paths():
    # one completed path has a mean but no sample spread
    summ = EnsembleSummary(
        n_paths=2, dt=0.125, seed=7, coordinates="log",
        initial_utilities=np.array([-0.5, -0.5]),
        terminal_utilities=np.array([[-0.4, -0.6], [np.nan, np.nan]]),
        stop_reasons=(COMPLETED, EXPLOSION), taus=np.array([np.nan, 0.5]))
    assert summ.terminal_mean.tolist() == [-0.4, -0.6]
    assert np.isnan(summ.terminal_stderr).all()


def test_gbm_log_euler_exact():
    init = initial_state(EXP_PAIR, LIN, RULE, [1.0, 1.0], 0.0, [0.5])
    cfg = SimulationConfig(dt=2.0**-6, seed=3, quadrature_n=32)
    path = simulate_path(EXP_PAIR, LIN, HALF_FLOW, cfg, init)
    closed = gbm_closed_form(init, path.times, path.brownian)
    assert np.abs(path.utilities - closed).max() <= 1e-12
    assert np.all(path.utilities < 0.0)


def test_conjugate_solves_seed_their_multiplier_solves(monkeypatch):
    # on a tanh desk each conjugate residual after a row's first seeds
    # the multiplier solve from the row's last evaluation; in a small
    # direct-coordinate strong-error study the seeded sharing calls take
    # at most 2 multiplier residual evaluations (table inverses) per
    # member, the unseeded ones at most 3
    calls = [0]
    per_member = {True: [], False: []}     # by whether the call is seeded
    inverse, planes = pareto.inverse_log_marginal, fields.sharing_planes

    def counted_inverse(spec, w):
        calls[0] += 1
        return inverse(spec, w)

    def counted_planes(*args, **kwargs):
        # a NaN seed entry is no seed: count a call seeded by its finite ones
        before = calls[0]
        out = planes(*args, **kwargs)
        seed = kwargs.get("seed")
        per_member[seed is not None and bool(np.isfinite(seed).any())].append(
            (calls[0] - before) / TANH_MIX.size)
        return out

    monkeypatch.delenv("IMPACTDESK_WORKERS", raising=False)
    monkeypatch.setattr(pareto, "inverse_log_marginal", counted_inverse)
    monkeypatch.setattr(fields, "sharing_planes", counted_planes)
    dts = [2.0**-3, 2.0**-4, 2.0**-5]
    cfg = SimulationConfig(dt=dts[-1], n_paths=4, seed=3, quadrature_n=8,
                           log_coordinates=False, newton_tol=1e-7)
    study = strong_error_study(TANH_MIX, LIN, HALF_FLOW, cfg, dts, cash=1.5)
    assert study.n_completed == (4, 4, 4)
    assert per_member[True] and per_member[False]
    assert np.mean(per_member[True]) <= 2.0
    assert np.mean(per_member[False]) <= 3.0


def _solve_counts(monkeypatch, agents, log_coordinates):
    """Field evaluations and Newton steps of each step's conjugate solve
    over 20 paths of 32 steps on the linear market; the counting patches
    are undone on return, so the helper can run again."""
    solve, evaluate = fields._conjugate_batch, fields.field_core
    residuals, per_solve, iterations = [0], [], []

    def counted_solve(*args, **kwargs):
        before = residuals[0]
        res = solve(*args, **kwargs)
        per_solve.append(residuals[0] - before)
        iterations.append(res.iterations)
        return res

    def counted_eval(*args, **kwargs):
        residuals[0] += bool(kwargs.get("with_integrand"))
        return evaluate(*args, **kwargs)

    monkeypatch.delenv("IMPACTDESK_WORKERS", raising=False)
    monkeypatch.setattr(fields, "_conjugate_batch", counted_solve)
    monkeypatch.setattr(fields, "field_core", counted_eval)
    cfg = SimulationConfig(dt=2.0**-5, n_paths=20, seed=17, quadrature_n=64,
                           log_coordinates=log_coordinates)
    summ = run_ensemble(agents, LIN, HALF_FLOW, cfg, cash=1.5)
    monkeypatch.undo()
    assert summ.n_completed == 20
    return per_solve, iterations


def test_warm_start_predictor_needs_one_field_evaluation_per_step(
        monkeypatch):
    # on the exponential pair with linear payoffs the cash marginal is
    # lognormal and the log-Euler step exact, so the predicted warm point
    # already solves each step's conjugate system to tolerance: one field
    # evaluation and no Newton step
    per_solve, iterations = _solve_counts(monkeypatch, EXP_PAIR, True)
    assert per_solve == [1] * 32
    assert iterations == [0] * 32


def test_tangent_predictor_needs_one_field_evaluation_per_direct_step(
        monkeypatch):
    # in direct coordinates the step misses value_v's lognormal move by a
    # known amount; the tangent correction closes it with the solved
    # point's Jacobian, so the exponential pair again needs one field
    # evaluation and no Newton step, and the tanh desk no more
    # evaluations per step than in log coordinates
    per_solve, iterations = _solve_counts(monkeypatch, EXP_PAIR, False)
    assert per_solve == [1] * 32
    assert iterations == [0] * 32
    direct = np.mean(_solve_counts(monkeypatch, TANH_MIX, False)[0])
    log = np.mean(_solve_counts(monkeypatch, TANH_MIX, True)[0])
    assert direct <= log


def test_predictor_out_of_range_keeps_the_solved_weights(monkeypatch):
    # a volatility whose lognormal step overflows must not leave a path
    # with an infinite warm start: it falls back to the solved weights,
    # as a zero volatility does
    solve = fields._conjugate_batch
    monkeypatch.delenv("IMPACTDESK_WORKERS", raising=False)
    cfg = SimulationConfig(dt=2.0**-3, n_paths=3, seed=9, quadrature_n=16)
    runs = []
    for sigma in (0.0, 1e300):
        monkeypatch.setattr(fields, "_conjugate_batch", lambda *a, **k: replace(
            solve(*a, **k), sigma=np.full(np.shape(a[5])[0], sigma)))
        runs.append(run_ensemble(TANH_MIX, LIN, HALF_FLOW, cfg, cash=1.5,
                                 record=3))
    assert runs[0].n_completed == runs[1].n_completed == 3
    for ra, rb in zip(runs[0].recorded, runs[1].recorded):
        assert ra.weights.tobytes() == rb.weights.tobytes()


def test_unusable_jacobian_keeps_the_ray_guess(monkeypatch):
    # a non-finite or singular Jacobian gives no tangent correction: both
    # leave the direct-coordinate warm start on the weight ray, so the
    # runs solve from the same guesses to the same bits
    solve = fields._conjugate_batch
    monkeypatch.delenv("IMPACTDESK_WORKERS", raising=False)
    cfg = SimulationConfig(dt=2.0**-3, n_paths=3, seed=9, quadrature_n=16,
                           log_coordinates=False)
    runs = []
    for fill in (np.nan, 0.0):
        def unusable(*args, **kwargs):
            res = solve(*args, **kwargs)
            return replace(res, jacobian=np.full_like(res.jacobian, fill))

        monkeypatch.setattr(fields, "_conjugate_batch", unusable)
        runs.append(run_ensemble(TANH_MIX, LIN, HALF_FLOW, cfg, cash=1.5,
                                 record=3))
    assert runs[0].n_completed == runs[1].n_completed == 3
    for ra, rb in zip(runs[0].recorded, runs[1].recorded):
        assert ra.weights.tobytes() == rb.weights.tobytes()


def test_gbm_direct_euler_converges():
    study = strong_error_study(
        EXP_PAIR, LIN, HALF_FLOW,
        SimulationConfig(n_paths=200, seed=5, quadrature_n=8,
                         log_coordinates=False, newton_tol=1e-9),
        dts=[2.0**-4, 2.0**-6], cash=1.5)
    assert study.errors[0] > study.errors[1] > 0.0
    # two halvings at strong order 1/2; generous band for 200 paths
    assert 1.4 <= study.ratios[0] <= 2.9


def test_log_euler_is_spot_on_where_direct_only_converges():
    # 16 nodes integrate the unit-exposure exponential integrand to machine
    # precision, so the only residual error is the solver tolerance
    study = strong_error_study(
        EXP_PAIR, LIN, HALF_FLOW,
        SimulationConfig(n_paths=50, seed=6, quadrature_n=16),
        dts=[2.0**-4, 2.0**-5], cash=1.5)
    assert max(study.errors) <= 1e-10


def test_log_vs_direct_pathwise_agreement():
    dt = 2.0**-6
    kw = dict(dt=dt, n_paths=100, seed=12, quadrature_n=8, newton_tol=1e-9)
    log_run = run_ensemble(EXP_PAIR, LIN, HALF_FLOW,
                           SimulationConfig(log_coordinates=True, **kw),
                           cash=1.5)
    direct = run_ensemble(EXP_PAIR, LIN, HALF_FLOW,
                          SimulationConfig(log_coordinates=False, **kw),
                          cash=1.5)
    diff = np.abs(log_run.terminal_utilities - direct.terminal_utilities)
    assert diff.mean() <= 5.0 * dt


def test_static_oracle_matches_closed_form():
    init = initial_state(EXP_PAIR, LIN, RULE, [1.0, 1.0], 0.0, [0.5])
    times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    levels = np.array([0.0, -0.3, 0.4, 1.1, 0.2])
    oracle = static_oracle(EXP_PAIR, LIN, RULE, init, times, levels)
    closed = gbm_closed_form(init, times, levels)
    assert np.abs(oracle / closed - 1.0).max() <= 1e-12
    term = static_oracle(EXP_PAIR, LIN, RULE, init, np.ones_like(levels),
                         levels)
    closed_term = gbm_closed_form(init, np.ones_like(levels), levels)
    assert np.abs(term / closed_term - 1.0).max() <= 1e-12
    # points sharing a time form one batch, whatever the mix of times
    mixed = np.concatenate([times, np.ones_like(levels), times[::-1]])
    at = np.concatenate([levels, levels[::-1], levels])
    batch = static_oracle(EXP_PAIR, LIN, RULE, init, mixed, at)
    for i in range(mixed.size):
        one = static_oracle(EXP_PAIR, LIN, RULE, init, mixed[i:i + 1],
                            at[i:i + 1])
        assert batch[i].tobytes() == one[0].tobytes()


def test_martingale_mean_within_three_stderr():
    cfg = SimulationConfig(dt=2.0**-5, n_paths=2000, seed=20, quadrature_n=8,
                           newton_tol=1e-9)
    summ = run_ensemble(EXP_PAIR, LIN, HALF_FLOW, cfg, cash=1.5)
    assert summ.n_completed == 2000
    dev = np.abs(summ.terminal_mean - summ.initial_utilities)
    assert np.all(summ.terminal_stderr > 0.0)
    assert np.all(dev <= 3.0 * summ.terminal_stderr)


def test_tanh_path_tracks_static_oracle():
    init = initial_state(TANH_MIX, LIN, RULE, [1.0, 1.0], 1.5, [0.5])
    cfg = SimulationConfig(dt=2.0**-5, seed=8, quadrature_n=16,
                           newton_tol=1e-8)
    path = simulate_path(TANH_MIX, LIN, HALF_FLOW, cfg, init)
    assert path.stop_reason == COMPLETED
    assert np.all(path.utilities < 0.0)
    oracle = static_oracle(TANH_MIX, LIN, RULE, init, path.times,
                           path.brownian)
    err = np.abs(path.utilities - oracle).max()
    assert err <= 0.05 * np.abs(init.utilities).min()
    # weights stay on the normalized slice: marginal-one cash certificates
    assert np.all(np.isfinite(path.cash))


# --------------------------------------------------------------------------
# stops


def test_explosion_stop_adversarial_feedback():
    flow = step_feedback(0.5, [0.5], [20.0])
    init = initial_state(EXP_PAIR, LIN, RULE, [1.0, 1.0], 1.5,
                         flow.initial_position)
    eps = 1e-6 * np.abs(init.utilities).min()
    cfg = SimulationConfig(dt=2.0**-8, n_paths=8, seed=11, quadrature_n=16,
                           newton_tol=1e-8)
    summ = run_ensemble(EXP_PAIR, LIN, flow, cfg, cash=1.5, record=8)
    assert summ.n_explosion == 8
    assert np.all(summ.taus > 0.5) and np.all(summ.taus <= 1.0)
    assert np.all(np.isnan(summ.terminal_utilities))
    for rec in summ.recorded:
        assert rec.stopped and rec.stop_reason == EXPLOSION
        assert rec.tau == rec.times[-1]
        # the stop row is the first state past the threshold
        assert rec.utilities[-1].max() > -eps
        assert np.all(rec.utilities[:-1].max(axis=1) <= -eps)
        assert np.isnan(rec.cash[-1]) and np.all(np.isfinite(rec.cash[:-1]))


def test_last_step_past_the_threshold_is_an_explosion():
    # path 5 ends its last Euler step with a sign flip, clipped to the
    # smallest negative double; no step start follows to catch it, so the
    # check after the last step stops it at tau 1 instead of completing it
    flow = step_feedback(0.75, [0.5], [20.0])
    cfg = SimulationConfig(dt=2.0**-5, n_paths=6, seed=1182, quadrature_n=8,
                           log_coordinates=False, newton_tol=1e-8)
    summ = run_ensemble(EXP_PAIR, LIN, flow, cfg, cash=1.5, record=6)
    assert summ.stop_reasons[5] == EXPLOSION
    assert summ.taus[5] == 1.0
    assert np.isnan(summ.terminal_utilities[5]).all()
    rec = summ.recorded[5]
    assert rec.stopped and rec.tau == rec.times[-1] == 1.0
    assert rec.utilities[-1].max() > -1e-6 * np.abs(rec.utilities[0]).min()
    assert np.isnan(rec.weights[-1]).all() and np.isnan(rec.cash[-1])


@settings(max_examples=8, deadline=None)
@given(t_switch=st.sampled_from([0.25, 0.5, 0.75]),
       after=st.floats(4.0, 40.0), log=st.booleans(), tanh=st.booleans(),
       seed=st.integers(0, 2**16))
# noise seeds where a late switch in direct coordinates leaves paths that
# Euler throws far below zero, and which complete
@example(t_switch=0.75, after=20.0, log=False, tanh=False, seed=59)
@example(t_switch=0.75, after=20.0, log=False, tanh=False, seed=908)
@example(t_switch=0.75, after=20.0, log=False, tanh=False, seed=314)
def test_flows_towards_explosion_stop_every_path_with_a_reason(
        t_switch, after, log, tanh, seed):
    # a step flow raises the exposure at t_switch until paths explode
    # mid-run, where the warm-start predictor meets its largest steps;
    # each path still ends with a recorded reason, the same on one worker
    # and two.  At dt 2^-5 every path explodes once the exposure after
    # the switch is 20 or more only for an early switch, or a mid-run one
    # in log coordinates; after a late switch, or a mid-run one in direct
    # coordinates, a few paths can complete
    flow = step_feedback(t_switch, [0.5], [after])
    cfg = SimulationConfig(dt=2.0**-5, n_paths=6, seed=seed, quadrature_n=8,
                           log_coordinates=log, newton_tol=1e-8)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for workers in ("1", "2"):
            mp.setenv("IMPACTDESK_WORKERS", workers)
            runs.append(run_ensemble(TANH_MIX if tanh else EXP_PAIR, LIN,
                                     flow, cfg, cash=1.5, record=6))
    for summ in runs:
        stopped = np.array([r != COMPLETED for r in summ.stop_reasons])
        assert set(summ.stop_reasons) <= {COMPLETED, EXPLOSION, INFEASIBLE}
        assert np.array_equal(np.isfinite(summ.taus), stopped)
        assert [r.stop_reason for r in summ.recorded] == \
            list(summ.stop_reasons)
    solo, split = runs
    if after >= 20.0 and (t_switch == 0.25 or (t_switch == 0.5 and log)):
        assert solo.n_completed == 0                  # these all explode
    assert solo.stop_reasons == split.stop_reasons
    assert np.array_equal(solo.taus, split.taus, equal_nan=True)
    assert np.array_equal(solo.terminal_utilities, split.terminal_utilities,
                          equal_nan=True)
    for ra, rb in zip(solo.recorded, split.recorded):
        assert np.array_equal(ra.utilities, rb.utilities, equal_nan=True)
        assert np.array_equal(ra.weights, rb.weights, equal_nan=True)


def test_multiplier_failure_stops_only_its_path(monkeypatch):
    # the conjugate solve sees NaN field rows for path 3 from step 1 on,
    # as from a multiplier solve with no root; the path is identified by
    # its first Brownian level
    cfg = SimulationConfig(dt=2.0**-3, n_paths=6, seed=5, quadrature_n=8)
    marked = brownian_increments(cfg.seed, 0, cfg.n_paths, cfg.n_steps,
                                 cfg.dt)[3, 0]
    evaluate = fields.field_core

    def faulty(agents, model, rule, t, level, *args, **kwargs):
        out = evaluate(agents, model, rule, t, level, *args, **kwargs)
        bad = np.asarray(level) == marked
        for val in out.values():
            val[bad] = False if val.dtype == bool else np.nan
        return out

    monkeypatch.delenv("IMPACTDESK_WORKERS", raising=False)
    monkeypatch.setattr(fields, "field_core", faulty)
    summ = run_ensemble(EXP_PAIR, LIN, HALF_FLOW, cfg, cash=1.5)
    assert summ.stop_reasons[3] == INFEASIBLE
    assert summ.taus[3] == cfg.dt
    others = [r for i, r in enumerate(summ.stop_reasons) if i != 3]
    assert others == [COMPLETED] * 5


@pytest.mark.parametrize("workers", ["two", "0", "-3", " "])
def test_worker_count_must_be_a_positive_integer(monkeypatch, workers):
    monkeypatch.setenv("IMPACTDESK_WORKERS", workers)
    cfg = SimulationConfig(dt=0.5, n_paths=2, seed=1, quadrature_n=8)
    with pytest.raises(ValueError, match="IMPACTDESK_WORKERS must be a "
                                         "positive integer"):
        run_ensemble(EXP_PAIR, LIN, HALF_FLOW, cfg, cash=1.5)


@pytest.mark.parametrize("workers", [None, ""])
def test_unset_or_empty_worker_count_runs_on_one_worker(monkeypatch,
                                                        workers):
    if workers is None:
        monkeypatch.delenv("IMPACTDESK_WORKERS", raising=False)
    else:
        monkeypatch.setenv("IMPACTDESK_WORKERS", workers)
    cfg = SimulationConfig(dt=0.5, n_paths=2, seed=1, quadrature_n=8)
    summ = run_ensemble(EXP_PAIR, LIN, HALF_FLOW, cfg, cash=1.5)
    assert summ.n_completed == 2


def test_benign_ensemble_never_stops():
    cfg = SimulationConfig(dt=2.0**-5, n_paths=2000, seed=13, quadrature_n=8,
                           newton_tol=1e-9)
    summ = run_ensemble(EXP_PAIR, LIN, HALF_FLOW, cfg, cash=1.5)
    assert summ.n_explosion == 0 and summ.n_infeasible == 0
    assert summ.n_completed == 2000
    assert np.all(np.isnan(summ.taus))


# --------------------------------------------------------------------------
# determinism


def test_repeat_runs_identical():
    cfg = SimulationConfig(dt=2.0**-4, n_paths=10, seed=42, quadrature_n=8)
    a = run_ensemble(EXP_PAIR, LIN, HALF_FLOW, cfg, cash=1.5, record=2)
    b = run_ensemble(EXP_PAIR, LIN, HALF_FLOW, cfg, cash=1.5, record=2)
    assert np.array_equal(a.terminal_utilities, b.terminal_utilities)
    for ra, rb in zip(a.recorded, b.recorded):
        assert np.array_equal(ra.brownian, rb.brownian)
        assert np.array_equal(ra.utilities, rb.utilities)
        assert np.array_equal(ra.cash, rb.cash)


def test_worker_count_does_not_change_results(monkeypatch):
    # each worker solves its paths in batches of other sizes than a
    # single worker does; 13 paths also split unevenly (7+6, 5+5+3), and
    # 6 recorded paths of 13 straddle the first block edge at 3 workers;
    # the feedback flow reads each row's own state, at 1 and 2 workers
    cases = [(agents, log, HALF_FLOW, splits)
             for agents, log in ((EXP_PAIR, True), (TANH_MIX, True),
                                 (TANH_MIX, False))
             for splits in ((12, ("3",), 3), (13, ("2", "3"), 3),
                            (13, ("3",), 6))]
    cases.append((TANH_MIX, False, LEAN_FLOW, (13, ("2",), 6)))
    for agents, log, flow, (n_paths, counts, record) in cases:
        cfg = SimulationConfig(dt=2.0**-4, n_paths=n_paths, seed=42,
                               quadrature_n=8, log_coordinates=log)
        monkeypatch.delenv("IMPACTDESK_WORKERS", raising=False)
        solo = run_ensemble(agents, LIN, flow, cfg, cash=1.5, record=record)
        for workers in counts:
            monkeypatch.setenv("IMPACTDESK_WORKERS", workers)
            split = run_ensemble(agents, LIN, flow, cfg, cash=1.5,
                                 record=record)
            assert np.array_equal(solo.terminal_utilities,
                                  split.terminal_utilities)
            assert solo.stop_reasons == split.stop_reasons
            assert len(split.recorded) == record
            for ra, rb in zip(solo.recorded, split.recorded):
                assert np.array_equal(ra.brownian, rb.brownian)
                assert np.array_equal(ra.utilities, rb.utilities)
                assert np.array_equal(ra.weights, rb.weights)
                assert np.array_equal(ra.position, rb.position)


# --------------------------------------------------------------------------
# strong-error ladder in lockstep


def _ladder_alone(agents, flow, cfg, dts):
    """Each level run on its own at config dt = d, then the study's
    aggregates from those runs: the route that runs a level at a time."""
    init = initial_state(agents, LIN, QuadratureRule.gauss_hermite(
        cfg.quadrature_n), np.ones(agents.size), 1.5, flow.initial_position)
    fine = min(dts)
    n_fine = int(round(1.0 / fine))
    fine_inc = brownian_increments(cfg.seed, 0, cfg.n_paths, n_fine, fine)
    oracle = static_oracle(agents, LIN, RULE, init, np.ones(cfg.n_paths),
                           fine_inc.sum(axis=1))
    ladder, chunks = [], []
    for d in sorted(dts, reverse=True):
        inc = coarsen_increments(fine_inc, int(round(d / fine)))
        ladder.append((d, inc))
        chunks.append(sde._run_chunk(agents, LIN, flow, replace(cfg, dt=d),
                                     init, [(d, inc)]))
    errors, means, completed = [], [], []
    all_done = np.ones(cfg.n_paths, dtype=bool)
    for chunk in chunks:
        done = np.array([r == COMPLETED for r in chunk["reasons"]])
        u = chunk["terminal"][done]
        errors.append(np.abs(u - oracle[done]).mean() if u.size else np.nan)
        means.append(u.mean() if u.size else np.nan)
        completed.append(int(done.sum()))
        all_done &= done
    study = (errors, means, completed,
             oracle[all_done].mean() if all_done.any() else np.nan)
    return init, ladder, chunks, study


@pytest.mark.parametrize("agents,flow,dts,log,stops", [
    (TANH_MIX, HALF_FLOW, [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6], False, False),
    (TANH_MIX, HALF_FLOW, [0.2, 1.0 / 15.0], True, False),
    (EXP_PAIR, step_feedback(0.5, [0.5], [6.0]),
     [2.0**-3, 2.0**-4, 2.0**-5], False, True),
    (TANH_MIX, LEAN_FLOW, [2.0**-3, 2.0**-4, 2.0**-5], False, False),
], ids=["tanh-dyadic-direct", "tanh-nondyadic-log", "step-feedback-stops",
        "tanh-state-feedback"])
def test_lockstep_ladder_matches_each_level_run_alone(monkeypatch, agents,
                                                      flow, dts, log, stops):
    # rows of every level due at a step time share one flow call, so the
    # feedback case also checks that the rule reads each row's own state
    cfg = SimulationConfig(n_paths=6, seed=4, quadrature_n=12,
                           log_coordinates=log, newton_tol=1e-9)
    init, ladder, alone, (errors, means, completed, oracle_mean) = \
        _ladder_alone(agents, flow, cfg, dts)
    times = []
    solve = sde.coefficient_rows

    def counted(agents, model, rule, t, *args, **kwargs):
        times.append(t)
        return solve(agents, model, rule, t, *args, **kwargs)

    monkeypatch.setattr(sde, "coefficient_rows", counted)
    lock = sde._run_chunk(agents, LIN, flow, cfg, init, ladder)
    # one solve per distinct step time, compared as floats: on [0.2, 1/15]
    # 3 * 0.2 = 0.6000000000000001 and 9 * (1/15) = 0.6 are two solves
    steps = sorted({k * d for d, inc in ladder for k in range(inc.shape[1])})
    if stops:
        assert times == sorted(set(times)) and set(times) <= set(steps)
    else:
        assert times == steps
    assert lock["terminal"].tobytes() == np.concatenate(
        [c["terminal"] for c in alone]).tobytes()
    assert lock["reasons"] == tuple(r for c in alone for r in c["reasons"])
    assert lock["taus"].tobytes() == np.concatenate(
        [c["taus"] for c in alone]).tobytes()
    if stops:
        assert EXPLOSION in lock["reasons"] and COMPLETED in lock["reasons"]
    else:
        assert set(lock["reasons"]) == {COMPLETED}

    study = strong_error_study(agents, LIN, flow, cfg, dts, cash=1.5)
    assert study.dts == tuple(sorted(dts, reverse=True))
    assert np.array(study.errors).tobytes() == np.array(errors).tobytes()
    assert np.array(study.sim_means).tobytes() == np.array(means).tobytes()
    assert study.n_completed == tuple(completed)
    assert np.float64(study.oracle_mean).tobytes() == \
        np.float64(oracle_mean).tobytes()


def test_dyadic_ladder_makes_one_conjugate_solve_per_finest_step(
        monkeypatch):
    # levels 2^-4 ... 2^-7 are due together at every step time of the
    # coarser ones: 128 solves, where a level at a time makes 16 + 32 +
    # 64 + 128 = 240
    calls = []
    solve = sde.coefficient_rows

    def counted(*args, **kwargs):
        calls.append(np.shape(args[5])[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(sde, "coefficient_rows", counted)
    cfg = SimulationConfig(n_paths=2, seed=5, quadrature_n=8)
    study = strong_error_study(EXP_PAIR, LIN, HALF_FLOW, cfg,
                               [2.0**-k for k in range(4, 8)], cash=1.5)
    assert study.n_completed == (2, 2, 2, 2)
    assert len(calls) == 128
    assert sum(calls) == 2 * (16 + 32 + 64 + 128)


def test_empty_ladder_is_refused_by_name():
    cfg = SimulationConfig(n_paths=2, seed=1, quadrature_n=8)
    with pytest.raises(ValueError, match="dts must hold at least one"):
        strong_error_study(EXP_PAIR, LIN, HALF_FLOW, cfg, [], cash=1.5)


@pytest.mark.parametrize("dts,bad", [([0.25, 0.2], "0.25"),
                                     ([0.5, 0.2], "0.5")])
def test_ladder_that_does_not_nest_is_refused_by_name(dts, bad):
    cfg = SimulationConfig(n_paths=2, seed=1, quadrature_n=8)
    with pytest.raises(ValueError, match=f"dt {bad} is not a whole multiple "
                       "of the finest dt 0.2"):
        strong_error_study(EXP_PAIR, LIN, HALF_FLOW, cfg, dts, cash=1.5)


@pytest.mark.parametrize("dts,message", [
    ([0.25, 1e-320], "at most 1048576 steps"),
    ([0.25, 1e-12], "at most 1048576 steps"),
    ([0.25, -0.25], r"dt must lie in \(0, 1\]"),
    ([0.25, 0.3], "dt must divide the unit horizon evenly")])
def test_study_ladder_takes_the_config_step_rules(dts, message):
    cfg = SimulationConfig(n_paths=2, seed=1, quadrature_n=8)
    with pytest.raises(ValueError, match=message):
        strong_error_study(EXP_PAIR, LIN, HALF_FLOW, cfg, dts, cash=1.5)
