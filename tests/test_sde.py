"""Simulation engine: initial state, Euler schemes, stops, reproducibility.

The exponential/linear configuration is the workhorse: there the utility
system is geometric Brownian motion with volatility equal to harmonic
aversion times total exposure, and the log-coordinate Euler scheme
reproduces it exactly, so closed forms pin every moving part.
"""

import math

import numpy as np
import pytest

from impactdesk import fields
from impactdesk.market import LinearPayoff, market_model
from impactdesk.quadrature import QuadratureRule
from impactdesk.sde import (COMPLETED, EXPLOSION, INFEASIBLE, ConstantFlow,
                            FeedbackFlow, ScheduleFlow, SimulationConfig,
                            brownian_increments, coarsen_increments,
                            initial_state, run_ensemble, simulate_path,
                            static_oracle, static_oracle_terminal,
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
    with pytest.raises(ValueError):
        initial_state(EXP_PAIR, FLAT, RULE, [1.0, 0.0])
    with pytest.raises(ValueError):
        initial_state(EXP_PAIR, FLAT, RULE, [1.0, -2.0])


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
    assert flow.local_bound == 0.7
    assert np.all(flow.initial_position == [0.2])


def test_schedule_flow_validation():
    with pytest.raises(ValueError):
        ScheduleFlow([0.1, 0.5], [[1.0], [2.0]])     # must start at 0
    with pytest.raises(ValueError):
        ScheduleFlow([0.0, 0.5, 0.5], [[1.0], [2.0], [3.0]])
    with pytest.raises(ValueError):
        ScheduleFlow([0.0, 0.5], [[1.0]])


def test_feedback_flow_sees_left_limits():
    calls = []

    def rule(t, utilities, level):
        calls.append((t, utilities.copy()))
        return np.array([0.5])

    flow = FeedbackFlow(rule, [0.5], local_bound=0.5)
    cfg = SimulationConfig(dt=0.25, seed=4, quadrature_n=16)
    init = initial_state(EXP_PAIR, LIN, RULE, [1.0, 1.0], 1.0, [0.5])
    path = simulate_path(EXP_PAIR, LIN, flow, cfg, init)
    assert path.stop_reason == COMPLETED
    # the state handed to the rule at step k is the recorded left limit
    sim_times = [t for t, _ in calls[:-1]]          # last call is terminal
    assert sim_times == [0.0, 0.25, 0.5, 0.75]
    for k, (_, seen) in enumerate(calls[:-1]):
        assert np.abs(seen[0] - path.utilities[k]).max() <= 1e-15


def test_feedback_flow_requires_bound():
    with pytest.raises(ValueError):
        FeedbackFlow(lambda t, u, b: [0.0], [0.0], local_bound=0.0)


# --------------------------------------------------------------------------
# noise bookkeeping


def test_brownian_increments_worker_independent():
    full = brownian_increments(11, 0, 10, 16, 0.0625)
    tail = brownian_increments(11, 5, 5, 16, 0.0625)
    assert np.array_equal(full[5:], tail)


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


def test_gbm_log_euler_exact():
    init = initial_state(EXP_PAIR, LIN, RULE, [1.0, 1.0], 0.0, [0.5])
    cfg = SimulationConfig(dt=2.0**-6, seed=3, quadrature_n=32)
    path = simulate_path(EXP_PAIR, LIN, HALF_FLOW, cfg, init)
    closed = gbm_closed_form(init, path.times, path.brownian)
    assert np.abs(path.utilities - closed).max() <= 1e-12
    assert np.all(path.utilities < 0.0)


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
    term = static_oracle_terminal(EXP_PAIR, LIN, init, levels)
    closed_term = gbm_closed_form(init, np.ones_like(levels), levels)
    assert np.abs(term / closed_term - 1.0).max() <= 1e-12


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
    # single worker does; 13 paths also split unevenly (7+6, 5+5+3)
    for agents in (EXP_PAIR, TANH_MIX):
        for n_paths, counts in ((12, ("3",)), (13, ("2", "3"))):
            cfg = SimulationConfig(dt=2.0**-4, n_paths=n_paths, seed=42,
                                   quadrature_n=8)
            monkeypatch.delenv("IMPACTDESK_WORKERS", raising=False)
            solo = run_ensemble(agents, LIN, HALF_FLOW, cfg, cash=1.5,
                                record=3)
            for workers in counts:
                monkeypatch.setenv("IMPACTDESK_WORKERS", workers)
                split = run_ensemble(agents, LIN, HALF_FLOW, cfg, cash=1.5,
                                     record=3)
                assert np.array_equal(solo.terminal_utilities,
                                      split.terminal_utilities)
                assert solo.stop_reasons == split.stop_reasons
                assert len(split.recorded) == 3
                for ra, rb in zip(solo.recorded, split.recorded):
                    assert np.array_equal(ra.utilities, rb.utilities)
                    assert np.array_equal(ra.weights, rb.weights)
                    assert np.array_equal(ra.position, rb.position)
