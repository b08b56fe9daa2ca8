"""Conditional field evaluation, conjugate inversion, SDE coefficient."""

import math

import numpy as np
import pytest

from impactdesk import fields
from impactdesk.fields import (
    ConjugateInfeasibleError,
    FieldRangeError,
    coefficient_rows,
    eval_field,
    eval_sde_coefficient,
    field_core,
    normalize_weights,
    solve_conjugate,
)
from impactdesk.market import LinearPayoff, market_model
from impactdesk.pareto import pareto_point
from impactdesk.quadrature import QuadratureRule, degenerate_rule
from impactdesk.utility import (
    TanhAversion,
    agent_set,
    build_from_risk_aversion,
    exponential_utility,
)

EXP_PAIR = agent_set(exponential_utility(2.0), exponential_utility(2.0))
TANH_MIX = agent_set(
    build_from_risk_aversion(TanhAversion(2.0, 0.5), c_bound=2.5, max_order=6),
    exponential_utility(2.0),
)
# unit-slope endowment at half size plus one tradable unit-slope dividend:
# held at q the book's total exposure is 0.5 + q
LIN_MARKET = market_model(endowment=LinearPayoff(0.5),
                          dividends=[LinearPayoff(1.0)])
FLAT_MARKET = market_model()
RULE = QuadratureRule.gauss_hermite(64)


def closed_form_factor(t, z, exposure):
    # E[exp(-exposure * Z) | Z ~ N(z, 1-t)] for harmonic aversion 1
    return math.exp(-exposure * z + exposure**2 * (1.0 - t) / 2.0)


def test_rule_moments():
    for n in (16, 64, 128):
        rule = QuadratureRule.gauss_hermite(n)
        assert abs(rule.weights.sum() - 1.0) <= 1e-14
        assert abs(rule.expect(rule.nodes)) <= 1e-13
        assert abs(rule.expect(rule.nodes**3)) <= 1e-13
        assert abs(rule.expect(rule.nodes**2) - 1.0) <= 1e-12
    d = degenerate_rule()
    assert d.n == 1 and d.nodes[0] == 0.0 and d.weights[0] == 1.0


def test_terminal_time_returns_sharing_value():
    fp = eval_field(EXP_PAIR, LIN_MARKET, 1.0, 0.7, (1.0, 2.0), 0.3, [0.5],
                    rule=RULE)
    wealth = 0.3 + 0.5 * 0.7 + 0.5 * 0.7
    ref = pareto_point(EXP_PAIR, (1.0, 2.0), wealth)
    assert fp.value == pytest.approx(ref.value, rel=1e-13)
    assert fp.value_x == pytest.approx(ref.value_x, rel=1e-13)


def test_deterministic_payoff_is_time_constant():
    shifted = market_model(endowment=LinearPayoff(0.0, 2.0))
    ref = pareto_point(EXP_PAIR, (1.0, 1.0), 2.4)
    for t, z in [(0.0, 0.0), (0.3, -1.1), (0.9, 5.0)]:
        fp = eval_field(EXP_PAIR, shifted, t, z, (1.0, 1.0), 0.4,
                        rule=RULE, with_integrand=True)
        assert fp.value == pytest.approx(ref.value, rel=1e-12)
        assert fp.integrand == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("t,z,v,x,q", [
    (0.0, 0.0, (1.0, 2.0), 0.3, 0.5),
    (0.5, -0.7, (0.5, 0.5), 1.5, 0.5),
    (0.9, 1.2, (2.0, 1.0), -0.4, -1.2),
])
def test_exponential_linear_factorization(t, z, v, x, q):
    fp = eval_field(EXP_PAIR, LIN_MARKET, t, z, v, x, [q], rule=RULE,
                    with_integrand=True)
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
    fp = eval_field(agents, LIN_MARKET, 0.4, 0.2, v, 0.7, [0.5], rule=RULE,
                    with_integrand=True)
    for b in (0.5, 2.0):
        fb = eval_field(agents, LIN_MARKET, 0.4, 0.2, b * v, 0.7, [0.5],
                        rule=RULE, with_integrand=True)
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
    direct = eval_field(EXP_PAIR, LIN_MARKET, t0, z0, (1.0, 2.0), 0.3, [0.5],
                        rule=RULE).value
    assert towered == pytest.approx(direct, rel=1e-7)


def test_adaptive_rule_stabilizes():
    fp = eval_field(EXP_PAIR, LIN_MARKET, 0.5, 0.1, (1.0, 1.0), 0.2, [0.5])
    fixed = eval_field(EXP_PAIR, LIN_MARKET, 0.5, 0.1, (1.0, 1.0), 0.2, [0.5],
                       rule=QuadratureRule.gauss_hermite(128))
    assert fp.value == pytest.approx(fixed.value, rel=1e-9)


def test_normalize_weights_lands_on_unit_slice():
    vn = normalize_weights(EXP_PAIR, LIN_MARKET, RULE, 0.5, 0.2, (1.0, 2.0),
                           0.3, [0.5])
    fp = eval_field(EXP_PAIR, LIN_MARKET, 0.5, 0.2, vn, 0.3, [0.5], rule=RULE,
                    order=1)
    assert fp.value_x == pytest.approx(1.0, rel=1e-10)
    again = normalize_weights(EXP_PAIR, LIN_MARKET, RULE, 0.5, 0.2, vn, 0.3,
                              [0.5])
    assert np.allclose(again, vn, rtol=1e-12)


def test_normalize_matches_exponential_closed_form():
    # cash marginal = (harmonic aversion) * (-value) for constant aversion
    v = np.array([1.0, 2.0])
    fp = eval_field(EXP_PAIR, LIN_MARKET, 0.4, -0.3, v, 0.8, [0.5], rule=RULE,
                    order=1)
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
    fp = eval_field(agents, LIN_MARKET, t, 0.2, v0, x0, [0.5], rule=RULE)
    cp = solve_conjugate(agents, LIN_MARKET, RULE, t, 0.2, fp.value_v,
                         fp.value_x, [0.5])
    assert np.allclose(cp.weights, v0, rtol=1e-8)
    assert cp.cash == pytest.approx(x0, abs=1e-8)
    # the conjugate residuals themselves
    chk = eval_field(agents, LIN_MARKET, t, 0.2, cp.weights, cp.cash, [0.5],
                     rule=RULE)
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
    c2 = solve_conjugate(TANH_MIX, LIN_MARKET, RULE, 0.25, 0.1, u, 1.0, [0.5],
                         warm=(c1.weights, c1.cash))
    assert c2.iterations <= 2
    assert np.allclose(c2.weights, c1.weights, rtol=1e-10)


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
        eval_field(EXP_PAIR, LIN_MARKET, 0.0, 0.0, (1.0, 1.0), -5000.0, [0.5],
                   rule=RULE)


def test_infeasible_after_iteration_budget():
    with pytest.raises(ConjugateInfeasibleError) as exc:
        solve_conjugate(TANH_MIX, LIN_MARKET, RULE, 0.5, 0.0,
                        np.array([-9.0, -1e-4]), 1.0, [0.5], max_iter=1)
    assert exc.value.indices == (0,)


def test_subnormal_target_is_infeasible_not_a_crash():
    # the constant-aversion seed -1/(a u) overflows at a subnormal
    # utility, so no Newton step runs
    with pytest.raises(ConjugateInfeasibleError,
                       match="after 0 damped Newton steps") as exc:
        solve_conjugate(TANH_MIX, LIN_MARKET, RULE, 0.5, 0.0,
                        np.array([-1e-320, -1.0]), 1.0, [0.5])
    assert exc.value.indices == (0,)


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
    assert cold[3].tolist() == expect
    # warm starts near the solution; the faulty rows start far out at
    # cash 400, or at nan, which is a fault of its row
    far = np.where(np.arange(g) == n, np.nan, 400.0)
    warm = (np.where(cold[3][:, None], cold[0] * 1.05, 1.0),
            np.where(cold[3], cold[1] + 0.01, far))
    for start in (None, warm):
        calls.clear()
        batch = coefficient_rows(TANH_MIX, LIN_MARKET, RULE, 0.4, z, u, q,
                                 warm=start)
        assert calls == [g]
        assert batch[3][:n + 2].tolist() == expect[:n + 2]
        for i in range(g):
            row = slice(i, i + 1)
            one = coefficient_rows(
                TANH_MIX, LIN_MARKET, RULE, 0.4, z[row], u[row], q[row],
                warm=None if start is None else (start[0][row],
                                                 start[1][row]))
            for got, want in zip(batch, one):
                assert got[i].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("fault", ["trial", "singular", "nan"])
def test_row_fault_leaves_other_rows_alone(monkeypatch, fault):
    # row 1 gets a fault: its first line-search trial comes back out of
    # range (as an overflowing field row would), or its first Jacobian is
    # singular or non-finite; row 0 must be solved as if it were alone
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
        return out

    monkeypatch.setattr(fields, "field_core", faulty)
    both = coefficient_rows(TANH_MIX, LIN_MARKET, RULE, 0.4, 0.0, u, [[0.5]])
    # a bad trial only halves its row's step; a bad Jacobian ends its row
    assert both[3].tolist() == [True, fault == "trial"]
    alone = coefficient_rows(TANH_MIX, LIN_MARKET, RULE, 0.4, 0.0, u[:1],
                             [[0.5]])
    for got, want in zip(both, alone):
        assert got[0].tobytes() == want[0].tobytes()


def test_target_sign_validation():
    with pytest.raises(ValueError):
        solve_conjugate(EXP_PAIR, FLAT_MARKET, RULE, 0.5, 0.0, (0.1, -1.0),
                        1.0)
    with pytest.raises(ValueError):
        solve_conjugate(EXP_PAIR, FLAT_MARKET, RULE, 0.5, 0.0, (-1.0, -1.0),
                        -2.0)
