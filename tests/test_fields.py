"""Conditional field evaluation, conjugate inversion, SDE coefficient."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from impactdesk import fields
from impactdesk.fields import (
    ConjugateInfeasibleError,
    FieldRangeError,
    coefficient_rows,
    eval_sde_coefficient,
    field_core,
    normalize_weights,
    solve_conjugate,
)
from impactdesk.market import LinearPayoff, NamedPayoff, market_model
from impactdesk.pareto import (WEIGHT_RATIO_LIMIT, pareto_point,
                               sharing_derivatives)
from impactdesk.quadrature import QuadratureRule, degenerate_rule
from impactdesk.utility import (
    ConstantAversion,
    TanhAversion,
    agent_set,
    build_from_risk_aversion,
    exponential_utility,
)

EXP_PAIR = agent_set(exponential_utility(2.0), exponential_utility(2.0))
TANH_MIX = agent_set(
    build_from_risk_aversion(TanhAversion(2.0, 0.5), c_bound=2.5),
    exponential_utility(2.0),
)
# unit-slope endowment at half size plus one tradable unit-slope dividend:
# held at q the book's total exposure is 0.5 + q
LIN_MARKET = market_model(endowment=LinearPayoff(0.5),
                          dividends=[LinearPayoff(1.0)])
FLAT_MARKET = market_model()
RULE = QuadratureRule.gauss_hermite(64)
RULE16 = QuadratureRule.gauss_hermite(16)


def field_at(agents, model, t, z, v, x, q=None, order=2,
             with_integrand=False):
    """`field_core` under RULE at one state, each output at its one row."""
    out = field_core(agents, model, RULE, t, z, v, x, q, order=order,
                     with_integrand=with_integrand)
    return SimpleNamespace(**{key: a[0] for key, a in out.items()})


def closed_form_factor(t, z, exposure):
    # E[exp(-exposure * Z) | Z ~ N(z, 1-t)] for harmonic aversion 1
    return math.exp(-exposure * z + exposure**2 * (1.0 - t) / 2.0)


def test_rule_moments():
    for n in (16, 64, 128):
        rule = QuadratureRule.gauss_hermite(n)
        assert abs(rule.weights.sum() - 1.0) <= 1e-14
        first, second, third = (np.einsum("n,n->", rule.nodes**k, rule.weights)
                                for k in (1, 2, 3))
        assert abs(first) <= 1e-13
        assert abs(third) <= 1e-13
        assert abs(second - 1.0) <= 1e-12
    d = degenerate_rule()
    assert d.n == 1 and d.nodes[0] == 0.0 and d.weights[0] == 1.0


def test_terminal_time_returns_sharing_value():
    fp = field_at(EXP_PAIR, LIN_MARKET, 1.0, 0.7, (1.0, 2.0), 0.3, [0.5])
    wealth = 0.3 + 0.5 * 0.7 + 0.5 * 0.7
    ref = pareto_point(EXP_PAIR, (1.0, 2.0), wealth)
    assert fp.value == pytest.approx(ref.value, rel=1e-13)
    assert fp.value_x == pytest.approx(ref.value_x, rel=1e-13)


def test_deterministic_payoff_is_time_constant():
    shifted = market_model(endowment=LinearPayoff(0.0, 2.0))
    ref = pareto_point(EXP_PAIR, (1.0, 1.0), 2.4)
    for t, z in [(0.0, 0.0), (0.3, -1.1), (0.9, 5.0)]:
        fp = field_at(EXP_PAIR, shifted, t, z, (1.0, 1.0), 0.4,
                      with_integrand=True)
        assert fp.value == pytest.approx(ref.value, rel=1e-12)
        assert fp.integrand == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("t,z,v,x,q", [
    (0.0, 0.0, (1.0, 2.0), 0.3, 0.5),
    (0.5, -0.7, (0.5, 0.5), 1.5, 0.5),
    (0.9, 1.2, (2.0, 1.0), -0.4, -1.2),
])
def test_exponential_linear_factorization(t, z, v, x, q):
    fp = field_at(EXP_PAIR, LIN_MARKET, t, z, v, x, [q], with_integrand=True)
    exposure = 0.5 + q  # harmonic aversion is 1
    ref = pareto_point(EXP_PAIR, v, x)
    factor = closed_form_factor(t, z, exposure)
    assert fp.value == pytest.approx(ref.value * factor, rel=1e-8)
    assert fp.value_x == pytest.approx(ref.value_x * factor, rel=1e-8)
    assert np.allclose(fp.value_v, np.asarray(ref.value_v) * factor,
                       rtol=1e-8)
    # martingale integrand inherits the factorization
    assert fp.integrand == pytest.approx(-exposure * fp.value, rel=1e-8)
    assert np.allclose(fp.integrand_v, -exposure * fp.value_v, rtol=1e-8)


@pytest.mark.parametrize("agents", [EXP_PAIR, TANH_MIX], ids=["exp", "tanh"])
def test_homogeneity_and_euler(agents):
    v = np.array([1.1, 0.6])
    fp = field_at(agents, LIN_MARKET, 0.4, 0.2, v, 0.7, [0.5],
                  with_integrand=True)
    for b in (0.5, 2.0):
        fb = field_at(agents, LIN_MARKET, 0.4, 0.2, b * v, 0.7, [0.5],
                      with_integrand=True)
        assert fb.value == pytest.approx(b * fp.value, rel=1e-10)
        assert fb.integrand == pytest.approx(b * fp.integrand, rel=1e-10)
    assert np.dot(v, fp.value_v) == pytest.approx(fp.value, rel=1e-10)
    assert fp.value < 0 and fp.value_x > 0 and fp.value_xx < 0


def test_field_signs_across_grid():
    out = field_core(EXP_PAIR, LIN_MARKET, RULE, 0.3,
                     np.linspace(-2, 2, 11),
                     np.tile([1.0, 2.0], (11, 1)),
                     np.linspace(-3, 3, 11), np.full((11, 1), 0.5))
    assert np.all(out["value"] < 0)
    assert np.all(out["value_x"] > 0)
    assert np.all(out["value_xx"] < 0)


def test_tower_property():
    t0, t1, z0 = 0.2, 0.5, 0.15
    sub = QuadratureRule.gauss_hermite(64)
    zs = z0 + math.sqrt(t1 - t0) * sub.nodes
    out = field_core(EXP_PAIR, LIN_MARKET, RULE, t1, zs,
                     np.tile([1.0, 2.0], (sub.n, 1)), np.full(sub.n, 0.3),
                     np.full((sub.n, 1), 0.5))
    towered = out["value"] @ sub.weights
    direct = field_at(EXP_PAIR, LIN_MARKET, t0, z0, (1.0, 2.0), 0.3,
                      [0.5]).value
    assert towered == pytest.approx(direct, rel=1e-7)


def test_normalize_weights_lands_on_unit_slice():
    vn = normalize_weights(EXP_PAIR, LIN_MARKET, RULE, 0.5, 0.2, (1.0, 2.0),
                           0.3, [0.5])
    fp = field_at(EXP_PAIR, LIN_MARKET, 0.5, 0.2, vn, 0.3, [0.5], order=1)
    assert fp.value_x == pytest.approx(1.0, rel=1e-10)
    again = normalize_weights(EXP_PAIR, LIN_MARKET, RULE, 0.5, 0.2, vn, 0.3,
                              [0.5])
    assert np.allclose(again, vn, rtol=1e-12)


def test_normalize_weights_broadcasts_one_weight_row_over_levels():
    # one weight row at three levels is three states, each row the bits
    # of its own one-level call
    levels = [-1.0, 0.0, 1.0]
    rows = normalize_weights(EXP_PAIR, LIN_MARKET, RULE, 0.5, levels,
                             (1.0, 2.0), 0.3, [0.5])
    assert rows.shape == (3, 2)
    for z, row in zip(levels, rows):
        one = normalize_weights(EXP_PAIR, LIN_MARKET, RULE, 0.5, z,
                                (1.0, 2.0), 0.3, [0.5])
        assert one.shape == (2,) and row.tobytes() == one.tobytes()


def test_normalize_matches_exponential_closed_form():
    # cash marginal = (harmonic aversion) * (-value) for constant aversion
    v = np.array([1.0, 2.0])
    fp = field_at(EXP_PAIR, LIN_MARKET, 0.4, -0.3, v, 0.8, [0.5], order=1)
    vn = normalize_weights(EXP_PAIR, LIN_MARKET, RULE, 0.4, -0.3, v, 0.8,
                           [0.5])
    assert np.allclose(vn, v / (-1.0 * fp.value), rtol=1e-12)


def test_conjugate_symmetric_frozen_point():
    # flat market: the field equals the sharing value at every time
    cp = solve_conjugate(EXP_PAIR, FLAT_MARKET, RULE, 1.0, 0.0, (-1.0, -1.0),
                         1.0)
    assert np.allclose(cp.weights, [0.5, 0.5], atol=1e-10)
    assert cp.cash == pytest.approx(-math.log(2.0), abs=1e-10)
    assert cp.value == pytest.approx(-math.log(2.0), abs=1e-10)


@pytest.mark.parametrize("agents", [EXP_PAIR, TANH_MIX], ids=["exp", "tanh"])
@pytest.mark.parametrize("t", [0.0, 0.5, 0.9])
def test_conjugate_round_trip(agents, t):
    v0 = np.array([0.8, 1.7])
    x0 = 0.6
    fp = field_at(agents, LIN_MARKET, t, 0.2, v0, x0, [0.5])
    cp = solve_conjugate(agents, LIN_MARKET, RULE, t, 0.2, fp.value_v,
                         fp.value_x, [0.5])
    assert np.allclose(cp.weights, v0, rtol=1e-8)
    assert cp.cash == pytest.approx(x0, abs=1e-8)
    # the conjugate residuals themselves
    chk = field_at(agents, LIN_MARKET, t, 0.2, cp.weights, cp.cash, [0.5])
    assert np.allclose(chk.value_v, fp.value_v, rtol=1e-9)
    assert chk.value_x == pytest.approx(fp.value_x, rel=1e-9)


def test_conjugate_slope_scaling():
    # doubling the slope target doubles the weights and keeps the cash
    u = np.array([-0.4, -0.3])
    c1 = solve_conjugate(EXP_PAIR, LIN_MARKET, RULE, 0.5, 0.1, u, 1.0, [0.5])
    c2 = solve_conjugate(EXP_PAIR, LIN_MARKET, RULE, 0.5, 0.1, u, 2.0, [0.5])
    assert np.allclose(c2.weights, 2.0 * c1.weights, rtol=1e-9)
    assert c2.cash == pytest.approx(c1.cash, abs=1e-9)
    assert c2.value == pytest.approx(2.0 * c1.value, rel=1e-9)


def test_conjugate_warm_start_converges_fast():
    u = np.array([-0.25, -0.35])
    c1 = solve_conjugate(TANH_MIX, LIN_MARKET, RULE, 0.25, 0.1, u, 1.0, [0.5])
    c2 = coefficient_rows(TANH_MIX, LIN_MARKET, RULE, 0.25, 0.1, u, [0.5],
                          warm=(c1.weights, c1.cash)).item()
    assert c2.converged and c2.iterations <= 2
    assert np.allclose(c2.weights, c1.weights, rtol=1e-10)


def test_table_built_constant_desk_seeds_its_newton_steps():
    # every member has constant aversion but is held in tables: the solve
    # keeps the multiplier state, as arrays over the nodes, and seeds each
    # residual after the first from it; a warm start off the root under a
    # non-linear endowment needs such residuals
    desk = agent_set(
        build_from_risk_aversion(ConstantAversion(2.0), c_bound=2.0),
        build_from_risk_aversion(ConstantAversion(0.5), c_bound=2.0))
    model = market_model(endowment=NamedPayoff("tanh"),
                         dividends=[LinearPayoff(1.0)])
    u = np.array([[-0.4, -1.3], [-0.3, -1.1], [-0.5, -2.0]])
    cold = coefficient_rows(desk, model, RULE, 0.3, 0.1, u, [0.5])
    warm = coefficient_rows(desk, model, RULE, 0.3, 0.1, u, [0.5],
                            warm=(cold.weights * 1.1, cold.cash + 0.05))
    assert cold.converged.all() and warm.converged.all()
    assert warm.iterations >= 1
    np.testing.assert_allclose(warm.coefficient, cold.coefficient,
                               rtol=1e-8)


def test_rows_solved_at_their_warm_start_take_no_newton_step(monkeypatch):
    # restarted at its own solution every row meets tol on the first
    # residual: one field evaluation, no Jacobian and no step counted
    rng = np.random.default_rng(8)
    u = -np.exp(rng.uniform(-2.0, 0.5, size=(5, 2)))
    first = coefficient_rows(TANH_MIX, LIN_MARKET, RULE, 0.3, 0.2, u, [0.5])
    assert first.converged.all() and first.iterations > 0
    evaluate, calls = fields.field_core, []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("with_integrand"))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(fields, "field_core", counted)
    again = coefficient_rows(TANH_MIX, LIN_MARKET, RULE, 0.3, 0.2, u, [0.5],
                             warm=(first.weights, first.cash))
    assert calls == [True]
    assert again.iterations == 0
    assert again.converged.all()
    assert again.weights.tobytes() == first.weights.tobytes()


def test_conjugate_batch_matches_scalar():
    rng = np.random.default_rng(3)
    u = -np.exp(rng.uniform(-2.0, 0.5, size=(20, 2)))
    batch = solve_conjugate(EXP_PAIR, LIN_MARKET, RULE, 0.5, 0.3, u,
                            np.ones(20), [0.5])
    for i in (0, 7, 19):
        one = solve_conjugate(EXP_PAIR, LIN_MARKET, RULE, 0.5, 0.3, u[i], 1.0,
                              [0.5])
        assert np.allclose(batch.weights[i], one.weights, rtol=1e-9)
        assert batch.cash[i] == pytest.approx(one.cash, abs=1e-9)


def test_sde_coefficient_exponential_linear():
    # with harmonic aversion 1 and total exposure 0.5+q the coefficient
    # row is -(0.5+q) * utilities
    u = np.array([-0.3, -0.2])
    for q in (0.5, -0.2):
        k, point = eval_sde_coefficient(EXP_PAIR, LIN_MARKET, RULE, 0.25, 0.1,
                                        u, [q])
        assert np.allclose(k, -(0.5 + q) * u, rtol=1e-8)
        assert point.slope == pytest.approx(1.0)
    # perfectly hedged book
    k0, _ = eval_sde_coefficient(EXP_PAIR, LIN_MARKET, RULE, 0.25, 0.1, u,
                                 [-0.5])
    assert np.allclose(k0, 0.0, atol=1e-12)


def test_sde_coefficient_deterministic_market_is_zero():
    u = np.array([-0.3, -0.2])
    k, _ = eval_sde_coefficient(EXP_PAIR, FLAT_MARKET, RULE, 0.25, 0.1, u)
    assert np.allclose(k, 0.0, atol=1e-14)


def test_range_error_diagnostic():
    with pytest.raises(FieldRangeError, match="terminal wealth"):
        normalize_weights(EXP_PAIR, LIN_MARKET, RULE, 0.0, 0.0, (1.0, 1.0),
                          -5000.0, [0.5])


def test_infeasible_after_iteration_budget(monkeypatch):
    monkeypatch.setattr(fields, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConjugateInfeasibleError) as exc:
        solve_conjugate(TANH_MIX, LIN_MARKET, RULE, 0.5, 0.0,
                        np.array([-9.0, -1e-4]), 1.0, [0.5])
    assert exc.value.indices == (0,)


def test_subnormal_target_is_infeasible_not_a_crash():
    # the constant-aversion seed -1/(a u) overflows at a subnormal
    # utility, so no Newton step runs
    with pytest.raises(ConjugateInfeasibleError,
                       match="after 0 damped Newton steps") as exc:
        solve_conjugate(TANH_MIX, LIN_MARKET, RULE, 0.5, 0.0,
                        np.array([-1e-320, -1.0]), 1.0, [0.5])
    assert exc.value.indices == (0,)


ROW_KEYS = ("weights", "cash", "coefficient", "sigma", "converged")


def test_coefficient_rows_do_not_depend_on_their_batch(monkeypatch):
    rng = np.random.default_rng(11)
    n = 11
    # seeded rows, then faulty ones: a state whose field leaves double
    # precision, a subnormal utility whose cold seed overflows, and
    # extremes whose residual or Jacobian leaves floating-point range
    bad = np.array([[-1e200, -1.0], [-1e-320, -1.0], [-1e-300, -1e-300],
                    [-1e-300, -1e307], [-1.0, -1e300]])
    u = np.vstack([-np.exp(rng.uniform(-2.0, 1.0, size=(n, 2))), bad])
    g = u.shape[0]
    z = rng.normal(size=g)
    q = rng.uniform(-1.0, 1.0, size=(g, 1))
    calls = []
    solve = fields._conjugate_batch

    def counted(*args, **kwargs):
        calls.append(np.atleast_2d(args[5]).shape[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(fields, "_conjugate_batch", counted)
    cold = coefficient_rows(TANH_MIX, LIN_MARKET, RULE, 0.4, z, u, q)
    assert calls == [g]              # one batch, no row-by-row retry
    expect = [True] * n + [False] * len(bad)
    assert cold.converged.tolist() == expect
    # warm starts near the solution; the faulty rows start far out at
    # cash 400, or at nan, which is a fault of its row
    far = np.where(np.arange(g) == n, np.nan, 400.0)
    warm = (np.where(cold.converged[:, None], cold.weights * 1.05, 1.0),
            np.where(cold.converged, cold.cash + 0.01, far))
    for start in (None, warm):
        calls.clear()
        batch = coefficient_rows(TANH_MIX, LIN_MARKET, RULE, 0.4, z, u, q,
                                 warm=start)
        assert calls == [g]
        assert batch.converged[:n + 2].tolist() == expect[:n + 2]
        for i in range(g):
            row = slice(i, i + 1)
            one = coefficient_rows(
                TANH_MIX, LIN_MARKET, RULE, 0.4, z[row], u[row], q[row],
                warm=None if start is None else (start[0][row],
                                                 start[1][row]))
            for key in ROW_KEYS:
                got, want = getattr(batch, key), getattr(one, key)
                assert got[i].tobytes() == want[0].tobytes(), key


def test_seeded_coefficient_rows_match_their_rows_alone(monkeypatch):
    # on a desk with a varying aversion every residual after a row's
    # first starts the multiplier solve from that row's own last
    # evaluation, line-search trials included; the seeded batch keeps the
    # bits of each row solved alone, and stays within solver tolerance of
    # solves that start every multiplier cold
    rng = np.random.default_rng(12)
    u = -np.exp(rng.uniform(-2.0, 1.0, size=(9, 2)))
    z = rng.normal(size=9)
    q = rng.uniform(-1.0, 1.0, size=(9, 1))
    evaluate, seeded = fields.field_core, []

    def counted(*args, **kwargs):
        # a NaN seed entry is no seed: count a call seeded by its finite ones
        seed = kwargs.get("seed")
        seeded.append(seed is not None and bool(np.isfinite(seed).any()))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(fields, "field_core", counted)
    batch = coefficient_rows(TANH_MIX, LIN_MARKET, RULE16, 0.4, z, u, q)
    assert batch.converged.all() and batch.iterations > 1
    # the probe and the first residual start cold, every later one seeded
    assert seeded[:2] == [False, False] and all(seeded[2:])
    for i in range(u.shape[0]):
        row = slice(i, i + 1)
        one = coefficient_rows(TANH_MIX, LIN_MARKET, RULE16, 0.4, z[row],
                               u[row], q[row])
        for key in ROW_KEYS:
            got, want = getattr(batch, key), getattr(one, key)
            assert got[i].tobytes() == want[0].tobytes(), key
    monkeypatch.setattr(fields, "predict_log_multiplier",
                        lambda state, rows, dlogv, dx: np.nan)
    cold = coefficient_rows(TANH_MIX, LIN_MARKET, RULE16, 0.4, z, u, q)
    np.testing.assert_allclose(batch.weights, cold.weights, rtol=1e-9)
    np.testing.assert_allclose(batch.cash, cold.cash, rtol=0, atol=1e-9)


@pytest.mark.parametrize("fault", ["trial", "singular", "nan", "stuck"])
def test_row_fault_leaves_other_rows_alone(monkeypatch, fault):
    # row 1 gets a fault: its first line-search trial comes back out of
    # range (as an overflowing field row would), its first Jacobian is
    # singular or non-finite, or every trial of its line search comes back
    # finite but worse; row 0 must be solved as if it were alone
    u = np.array([[-0.3, -0.4], [-0.5, -0.2]])
    evaluate = fields.field_core
    residuals = []

    def faulty(*args, **kwargs):
        out = evaluate(*args, **kwargs)
        if kwargs.get("with_integrand"):
            residuals.append(out["finite"].size)
            if fault == "trial" and residuals == [2, 2]:
                out["value_x"][1] = np.inf
                out["finite"][1] = False
            elif fault == "singular" and residuals == [2]:
                out["value_vv"][1] = 0.0
                out["value_xv"][1] = 0.0
            elif fault == "nan" and residuals == [2]:
                out["value_xx"][1] = np.nan
            elif fault == "stuck" and residuals[1:] and residuals[-1] == 2:
                out["value_x"][1] = 1e6
        return out

    monkeypatch.setattr(fields, "field_core", faulty)
    both = coefficient_rows(TANH_MIX, LIN_MARKET, RULE, 0.4, 0.0, u, [[0.5]])
    # a bad trial only halves its row's step; a bad Jacobian ends its row,
    # and so does a line search that runs out of halvings, at once
    assert both.converged.tolist() == [True, fault == "trial"]
    alone = coefficient_rows(TANH_MIX, LIN_MARKET, RULE, 0.4, 0.0, u[:1],
                             [[0.5]])
    if fault == "stuck":
        assert both.iterations == alone.iterations
    for key in ROW_KEYS:
        got, want = getattr(both, key), getattr(alone, key)
        assert got[0].tobytes() == want[0].tobytes(), key


# one conjugate row target per draw: ordinary utilities, a pair whose
# ratio puts the solved weights near WEIGHT_RATIO_LIMIT, or a component
# near underflow (down to subnormal), with its factor level and position
_LOG_LIMIT = math.log(WEIGHT_RATIO_LIMIT)
_ORDINARY = st.tuples(st.floats(-2.0, 1.0), st.floats(-2.0, 1.0))
_NEAR_LIMIT = st.tuples(st.floats(-1.0, 1.0), st.floats(0.9, 1.1),
                        st.sampled_from([-1.0, 1.0])).map(
    lambda d: (d[0] + d[1] * d[2] * _LOG_LIMIT / 2,
               d[0] - d[1] * d[2] * _LOG_LIMIT / 2))
_NEAR_UNDERFLOW = st.tuples(st.floats(-744.0, -690.0), st.floats(-2.0, 1.0),
                            st.booleans()).map(
    lambda d: (d[0], d[1]) if d[2] else (d[1], d[0]))
_TARGET_ROWS = st.lists(
    st.tuples(st.one_of(_ORDINARY, _NEAR_LIMIT, _NEAR_UNDERFLOW),
              st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)),
    min_size=2, max_size=5)


@settings(max_examples=10, deadline=None)
@given(rows=_TARGET_ROWS, warm=st.booleans())
@example(rows=[((-744.0, 0.0), 0.3, 0.2), ((-0.5, 0.3), 0.0, 0.5)],
         warm=True)
@example(rows=[((-690.0, 0.0), 0.3, 0.2), ((-0.5, 0.3), 0.0, 0.5)],
         warm=False)
def test_coefficient_rows_at_extreme_targets(rows, warm):
    # each row converges to finite weights within WEIGHT_RATIO_LIMIT, as
    # `pareto.check_weights` demands, or comes back masked (nan), never
    # raising or warning (RuntimeWarnings fail the suite), and its bits
    # are those of its solo solve; the lockstep Euler relies on this.
    # The first example is a warm-started row whose log-weights run past
    # exp's range before it is given up; the second meets tol at weights
    # (1.8e299, 0.5), which is no sharing rule
    u = -np.exp(np.array([r[0] for r in rows]))
    z = np.array([r[1] for r in rows])
    q = np.array([[r[2]] for r in rows])
    b = len(rows)
    start = (np.ones((b, 2)), np.full(b, 0.5)) if warm else None
    batch = coefficient_rows(TANH_MIX, LIN_MARKET, RULE16, 0.4, z, u, q,
                             warm=start)
    for i in range(b):
        values = [getattr(batch, key)[i] for key in ROW_KEYS[:-1]]
        if batch.converged[i]:
            assert all(np.isfinite(v).all() for v in values)
            w = batch.weights[i]
            assert w.max() / w.min() <= WEIGHT_RATIO_LIMIT
        else:
            assert all(np.isnan(v).all() for v in values)
        row = slice(i, i + 1)
        one = coefficient_rows(
            TANH_MIX, LIN_MARKET, RULE16, 0.4, z[row], u[row], q[row],
            warm=None if start is None else (start[0][row], start[1][row]))
        for key in ROW_KEYS:
            got, want = getattr(batch, key), getattr(one, key)
            assert got[i].tobytes() == want[0].tobytes(), key


def _field_states(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=n), np.exp(rng.normal(size=(n, 2))),
            rng.uniform(-2.0, 2.0, size=n), rng.uniform(-1.0, 1.0, (n, 1)))


@pytest.mark.parametrize("agents", [EXP_PAIR, TANH_MIX], ids=["exp", "tanh"])
def test_field_rows_do_not_depend_on_their_batch(agents):
    # ensemble scale: 300 rows at 64 nodes; each sampled row evaluated
    # alone gives the bits it has inside the batch, in every key
    z, v, x, q = _field_states(300, 5)
    batch = field_core(agents, LIN_MARKET, RULE, 0.4, z, v, x, q, order=2,
                       with_integrand=True)
    rng = np.random.default_rng(6)
    for i in rng.choice(z.size, size=12, replace=False):
        row = slice(i, i + 1)
        one = field_core(agents, LIN_MARKET, RULE, 0.4, z[row], v[row],
                         x[row], q[row], order=2, with_integrand=True)
        assert one.keys() == batch.keys()
        for key, got in batch.items():
            assert got[i].tobytes() == one[key][0].tobytes(), key


@pytest.mark.parametrize("agents", [EXP_PAIR, TANH_MIX], ids=["exp", "tanh"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("with_integrand", [False, True],
                         ids=["plain", "integrand"])
def test_field_core_is_a_node_sum_of_sharing_partials(agents, order,
                                                      with_integrand):
    # the field's partials are the rule-weighted node sums of the public
    # sharing partials at the terminal wealth of each node
    z, v, x, q = _field_states(7, 8)
    t = 0.4
    out = field_core(agents, LIN_MARKET, RULE, t, z, v, x, q, order=order,
                     with_integrand=with_integrand)
    nodes = z[:, None] + math.sqrt(1.0 - t) * RULE.nodes
    wealth = (x[:, None] + LIN_MARKET.endowment.value(nodes)
              + q * LIN_MARKET.dividends[0].value(nodes))
    d = sharing_derivatives(agents, v[:, None, :], wealth, order=2)
    w = RULE.weights

    def node_sum(a):
        return (a * w.reshape((-1,) + (1,) * (a.ndim - 2))).sum(axis=1)

    keys = ["value", "value_x", "value_v"]
    if order == 2:
        keys += ["value_xx", "value_xv", "value_vv"]
    want = {key: node_sum(d[key]) for key in keys}
    if with_integrand:
        slope = (LIN_MARKET.endowment.derivative(nodes)
                 + q * LIN_MARKET.dividends[0].derivative(nodes))
        want["integrand"] = node_sum(d["value_x"] * slope)
        want["integrand_v"] = node_sum(d["value_xv"] * slope[:, :, None])
        want["integrand_x"] = node_sum(d["value_xx"] * slope)
    assert out.keys() == want.keys() | {"finite"}
    for key, expect in want.items():
        np.testing.assert_allclose(out[key], expect, rtol=1e-13, atol=0,
                                   err_msg=key)


def _field_core_peak_planes(agents):
    # one ensemble-sized evaluation: 2000 rows at 64 nodes, second order
    # plus the integrand, counted in planes of B*n doubles; tracemalloc
    # sees numpy's buffers, so the count is deterministic
    b = 2000
    z, v, x, q = _field_states(b, 9)

    def evaluate():
        field_core(agents, LIN_MARKET, RULE, 0.4, z, v, x, q, order=2,
                   with_integrand=True)

    evaluate()
    tracemalloc.start()
    try:
        evaluate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (b * RULE.n * 8)


def test_field_core_peak_memory():
    assert _field_core_peak_planes(EXP_PAIR) <= 19.0


def test_field_core_peak_memory_with_table_member():
    # the tanh member's utility-table inverse sets this peak
    assert _field_core_peak_planes(TANH_MIX) <= 31.0


def test_field_core_peak_memory_is_bounded_by_the_block():
    # the planes of one FIELD_BLOCK of points, not of the whole batch,
    # set the peak: under 4 MB where the batch's stack alone is 11 MB
    assert _field_core_peak_planes(EXP_PAIR) * 2000 * RULE.n * 8 < 4e6


def _state_entries(state):
    l, share, big_t = state
    return [l, *share, big_t]


@pytest.mark.parametrize("agents", [EXP_PAIR, TANH_MIX], ids=["exp", "tanh"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("with_integrand", [False, True],
                         ids=["plain", "integrand"])
def test_field_blocks_keep_every_bit(monkeypatch, agents, order,
                                     with_integrand):
    # one row per block, 997 points per block and one block of B*n + 1
    # points give the bits of the batch evaluated whole, in every key;
    # on the tanh desk a seeded call's multiplier state too
    b = 37
    z, v, x, q = _field_states(b, 10)
    seeded = agents is TANH_MIX and (order >= 2 or with_integrand)

    def evaluate(seed=None):
        return field_core(agents, LIN_MARKET, RULE, 0.4, z, v, x, q,
                          order=order, with_integrand=with_integrand,
                          seed=seed)

    monkeypatch.setattr(fields, "FIELD_BLOCK", b * RULE.n)
    seed = None
    if seeded:
        # finite seeds near the solved multipliers, with NaN entries
        seed = evaluate(np.nan)["multiplier_state"][0] + 1e-3
        seed[:, ::5] = np.nan
    whole = evaluate(seed)
    for block in (RULE.n, 997, b * RULE.n + 1):
        monkeypatch.setattr(fields, "FIELD_BLOCK", block)
        got = evaluate(seed)
        assert got.keys() == whole.keys()
        for key, want in whole.items():
            if key == "multiplier_state":
                pairs = zip(_state_entries(got[key]), _state_entries(want))
                assert all(np.array_equal(g, w) for g, w in pairs), block
            else:
                assert np.array_equal(got[key], want), (block, key)


def test_an_empty_batch_stays_empty_in_blocks(monkeypatch):
    monkeypatch.setattr(fields, "FIELD_BLOCK", RULE.n)
    out = field_core(TANH_MIX, LIN_MARKET, RULE, 0.5, np.zeros(0),
                     np.ones((0, 2)), np.zeros(0), np.zeros((0, 1)), order=2,
                     with_integrand=True, seed=np.nan)
    for name in ("value", "value_x", "integrand", "finite"):
        assert out[name].shape == (0,), name
    assert out["value_v"].shape == out["integrand_v"].shape == (0, 2)
    assert out["multiplier_state"][0].shape == (0, RULE.n)


def test_normalize_weights_broadcasts_its_inputs_once(monkeypatch):
    calls = []
    batched = fields._batched

    def counted(*args, **kwargs):
        calls.append(1)
        return batched(*args, **kwargs)

    monkeypatch.setattr(fields, "_batched", counted)
    normalize_weights(EXP_PAIR, LIN_MARKET, RULE, 0.5, [0.1, 0.2],
                      (1.0, 2.0), 0.3, [0.5])
    assert len(calls) == 1


def test_target_sign_validation():
    with pytest.raises(ValueError):
        solve_conjugate(EXP_PAIR, FLAT_MARKET, RULE, 0.5, 0.0, (0.1, -1.0),
                        1.0)
    with pytest.raises(ValueError):
        solve_conjugate(EXP_PAIR, FLAT_MARKET, RULE, 0.5, 0.0, (-1.0, -1.0),
                        -2.0)


def test_utilities_of_the_wrong_width_are_named():
    # three utilities on a two-member desk, refused before any solve
    for solve in (coefficient_rows, solve_conjugate):
        with pytest.raises(ValueError, match="utilities"):
            solve(EXP_PAIR, LIN_MARKET, RULE, 0.5, 0.0, [-1.0, -1.0, -1.0],
                  [[0.5]])


def test_an_empty_batch_stays_empty():
    # the Euler engine sends no rows once every due path has stopped
    out = field_core(EXP_PAIR, LIN_MARKET, RULE, 0.5, np.zeros(0),
                     np.ones((0, 2)), np.zeros(0), np.zeros((0, 1)), order=2,
                     with_integrand=True)
    for name in ("value", "value_x", "integrand", "finite"):
        assert out[name].shape == (0,), name
    assert out["value_v"].shape == (0, 2)
    rows = coefficient_rows(EXP_PAIR, LIN_MARKET, RULE, 0.5, np.zeros(0),
                            -np.ones((0, 2)), np.zeros((0, 1)))
    assert rows.weights.shape == rows.coefficient.shape == (0, 2)
    assert rows.converged.shape == rows.cash.shape == (0,)
    assert rows.jacobian.shape == (0, 3, 3)


def test_targets_broadcast_to_one_batch():
    # three levels and one utility row are three targets, each solved as
    # it would be alone; a single point comes back only for one row
    levels = [0.1, 0.2, 0.3]
    rows = coefficient_rows(EXP_PAIR, LIN_MARKET, RULE, 0.5, levels,
                            [-1.0, -1.0], [[0.5]])
    assert rows.level.tolist() == levels
    assert rows.utilities.shape == (3, 2) and rows.converged.all()
    for i, z in enumerate(levels):
        one = coefficient_rows(EXP_PAIR, LIN_MARKET, RULE, 0.5, z,
                               [-1.0, -1.0], [[0.5]])
        assert rows.weights[i].tobytes() == one.weights[0].tobytes()
    point = solve_conjugate(EXP_PAIR, LIN_MARKET, RULE, 0.5, levels,
                            [-1.0, -1.0], 1.0, [[0.5]])
    assert point.weights.tobytes() == rows.weights.tobytes()
    single = solve_conjugate(EXP_PAIR, LIN_MARKET, RULE, 0.5, 0.2,
                             [-1.0, -1.0], 1.0, [[0.5]])
    assert single.level == 0.2
    assert single.weights.tobytes() == rows.weights[1].tobytes()
    with pytest.raises(ValueError, match="do not broadcast"):
        coefficient_rows(EXP_PAIR, LIN_MARKET, RULE, 0.5, levels,
                         -np.ones((2, 2)), [[0.5]])
    with pytest.raises(ValueError, match="do not broadcast"):
        solve_conjugate(EXP_PAIR, LIN_MARKET, RULE, 0.5, 0.0,
                        -np.ones((3, 2)), [1.0, 1.0], [[0.5]])
