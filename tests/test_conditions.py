"""Regime certificates and the sampled flow functionals."""

import numpy as np
import pytest

from impactdesk.conditions import (FAIL, INCONCLUSIVE, PASS, check_all_regimes,
                                   check_regime, eval_functionals,
                                   smoothness_index)
from impactdesk.market import (CustomPayoff, LinearPayoff, NamedPayoff,
                               market_model)
from impactdesk import utility
from impactdesk.quadrature import QuadratureRule
from impactdesk.utility import (ConstantAversion, SinSquareAversion,
                                TanhAversion, UtilitySpec, agent_set,
                                build_from_risk_aversion, check_smoothness,
                                exponential_utility)

EXP_PAIR = agent_set(exponential_utility(2.0), exponential_utility(2.0))
TANH_MIX = agent_set(
    build_from_risk_aversion(TanhAversion(2.0, 0.5), c_bound=2.5),
    exponential_utility(2.0))
WIGGLE_MIX = agent_set(
    build_from_risk_aversion(SinSquareAversion(2.0, 0.5), c_bound=2.5),
    exponential_utility(2.0))
FLAT = market_model()
# endowment slope 0.5 plus one unit-slope stock
LIN = market_model(endowment=LinearPayoff(0.5), dividends=(LinearPayoff(1.0),))
RULE = QuadratureRule.gauss_hermite(64)


# ---------------------------------------------------------------------------
# derivative-order index


def test_smoothness_index_table():
    table = {(1, 1): 2, (2, 1): 2, (2, 2): 3, (3, 3): 4, (1, 2): 2, (4, 4): 5}
    for (members, stocks), want in table.items():
        assert smoothness_index(members, stocks) == want


def test_smoothness_index_is_least_integer_above_half_sum():
    for members in range(1, 7):
        for stocks in range(0, 7):
            idx = smoothness_index(members, stocks)
            assert idx > (members + stocks) / 2
            assert idx - 1 <= (members + stocks) / 2


def test_smoothness_index_rejects_degenerate_dimensions():
    with pytest.raises(ValueError):
        smoothness_index(0, 1)
    with pytest.raises(ValueError):
        smoothness_index(1, -1)


# ---------------------------------------------------------------------------
# regime certificates


def test_exponential_pair_passes_all_three_regimes():
    for rep in check_all_regimes(EXP_PAIR, LIN):
        assert rep.verdict == PASS, str(rep)


def test_member_budget_below_the_needed_order_fails_by_name():
    # regime 1 needs aversion derivatives to order 2 here; a profile of
    # order 1 declares the aversion's first only
    class _Short(ConstantAversion):
        order = 1

    desk = agent_set(exponential_utility(2.0),
                     UtilitySpec(c_bound=2.0, aversion=_Short(2.0)))
    local = check_regime(desk, LIN, 1)
    assert local.verdict == FAIL
    assert local.checks[0].detail == (
        "member(s) [1] declare aversion derivatives only up to order(s) "
        "[1], below 2")
    assert local.smoothness is None
    # the slope bound needs the first derivative only
    assert check_regime(desk, LIN, 3).verdict == PASS


def test_regime_one_uses_the_dimension_linked_order():
    rep = check_regime(EXP_PAIR, LIN, 1)
    assert rep.smoothness_order == smoothness_index(2, 1) == 2
    assert rep.smoothness is not None
    assert rep.integrability is not None
    assert rep.integrability.mode == "baseline"


def test_regime_two_rejects_state_dependent_aversion():
    rep = check_regime(TANH_MIX, LIN, 2)
    assert rep.verdict == FAIL
    fam = [c for c in rep.checks if "family" in c.name][0]
    assert fam.verdict == FAIL
    assert "0" in fam.detail


# a constant-aversion member reconstructed from tables, not in closed form
CONST_TABLE = build_from_risk_aversion(ConstantAversion(2.0), c_bound=2.0)


def test_regime_two_accepts_a_table_built_constant_member():
    # constancy is the profile's, however the member is held
    rep = check_regime(agent_set(CONST_TABLE, exponential_utility(2.0)),
                       LIN, 2)
    assert rep.verdict == PASS, str(rep)


def test_smoothness_and_regime_two_agree_on_constant_members(monkeypatch):
    # the smoothness suprema evaluate each constant member at one point in
    # all, and every other member once on each grid point; regime 2 names
    # every other member
    desk = agent_set(CONST_TABLE, exponential_utility(2.0),
                     build_from_risk_aversion(TanhAversion(2.0, 0.5),
                                              c_bound=2.5))
    aversion, points = utility.risk_aversion, [0] * desk.size

    def spied(spec, x, order=0):
        points[desk.members.index(spec)] += np.size(x)
        return aversion(spec, x, order)

    monkeypatch.setattr(utility, "risk_aversion", spied)
    check_smoothness(desk, 2)
    assert points == [1, 1, 80_001]
    fam = check_regime(desk, LIN, 2).checks[0]
    assert fam.verdict == FAIL
    assert fam.detail == "member(s) [2] are not constant-aversion"


def test_tanh_mix_passes_slope_regime():
    # a(x) = 2 + 0.5 tanh(x): every derivative bounded
    rep = check_regime(TANH_MIX, LIN, 3)
    assert rep.verdict == PASS, str(rep)


def test_growing_aversion_slope_is_flagged():
    # a(x) = 2 + 0.5 sin(x^2) has unbounded slope; the profile declares it
    rep = check_regime(WIGGLE_MIX, LIN, 3)
    assert rep.verdict == FAIL
    slope = [c for c in rep.checks if "slope bound" in c.name][0]
    assert slope.verdict == FAIL


class _UndeclaredSinSquare(SinSquareAversion):
    """The sin-square profile without its declaration of unbounded
    derivatives, so only the growing suprema can flag it."""

    bounded = None


@pytest.mark.parametrize("profile,phrase", [
    (SinSquareAversion(2.0, 0.5), "member(s) [1] declare unbounded"),
    (_UndeclaredSinSquare(2.0, 0.5), "member(s) [1] keep growing")],
    ids=["declared", "growing"])
def test_smoothness_detail_lists_plain_member_indices(profile, phrase):
    # the report prints the member indices as plain ints, not numpy scalars
    agents = agent_set(exponential_utility(2.0),
                       build_from_risk_aversion(profile, c_bound=2.5))
    check = check_regime(agents, LIN, 1).checks[0]
    assert check.name.startswith("aversion smoothness")
    assert phrase in check.detail


def test_payoff_without_slope_fails_hedging_regime():
    bumpy = market_model(
        endowment=LinearPayoff(0.5),
        dividends=(CustomPayoff(lambda z: np.abs(z), label="kink"),))
    rep = check_regime(EXP_PAIR, bumpy, 3)
    payoff_check = [c for c in rep.checks if c.name == "payoff slopes"][0]
    assert payoff_check.verdict == FAIL
    assert "kink" in payoff_check.detail


def test_unbounded_payoff_slope_fails_hedging_regime():
    steep = market_model(endowment=LinearPayoff(0.5),
                         dividends=(NamedPayoff("square", 0.25),))
    rep = check_regime(EXP_PAIR, steep, 3)
    payoff_check = [c for c in rep.checks if c.name == "payoff slopes"][0]
    assert payoff_check.verdict == FAIL


def test_undeclared_payoff_slope_is_inconclusive():
    mystery = market_model(
        endowment=LinearPayoff(0.5),
        dividends=(CustomPayoff(np.tanh, slope=lambda z: 1 / np.cosh(z)**2,
                                label="mystery"),))
    rep = check_regime(EXP_PAIR, mystery, 3)
    payoff_check = [c for c in rep.checks if c.name == "payoff slopes"][0]
    assert payoff_check.verdict == INCONCLUSIVE
    assert rep.verdict == INCONCLUSIVE


def test_report_renders_one_line_per_check():
    rep = check_regime(EXP_PAIR, LIN, 2)
    text = str(rep)
    assert text.splitlines()[0].startswith("regime 2 (exponential): PASS")
    for check in rep.checks:
        assert check.name in text


def test_unknown_regime_rejected():
    with pytest.raises(ValueError):
        check_regime(EXP_PAIR, LIN, 4)


# ---------------------------------------------------------------------------
# flow functionals


def grids():
    u = np.array([[-0.4, -0.7], [-0.2, -0.9], [-0.5, -0.5]])
    q = np.full((3, 1), 0.5)
    v = np.array([[1.0, 1.0], [0.8, 1.3], [2.0, 2.0]])
    x = np.array([0.0, 1.5, -0.5])
    return (u, q), (v, x, q)


def test_functionals_match_constant_aversion_closed_forms():
    # harmonic aversion 1, total exposure 0.5 + 0.5 = 1:
    #   L = n a^2 e^2 / (1 + sum |log(-u)|),  M = n a^2 e^2 / (1 + |x|),
    #   N = e^2 sum (a/a_m)^2 / (1 + |x|)
    dual, primal = grids()
    s = eval_functionals(EXP_PAIR, LIN, RULE, times=[0.25, 0.5, 0.75],
                         dual_grid=dual, primal_grid=primal)
    u, x = dual[0], primal[1]
    want_l = 2.0 / (1.0 + np.abs(np.log(-u)).sum(axis=1))
    want_m = 2.0 / (1.0 + np.abs(x))
    want_n = 0.5 / (1.0 + np.abs(x))
    for row in s.l_values:
        np.testing.assert_allclose(row, want_l, rtol=1e-8)
    for row in s.m_values:
        np.testing.assert_allclose(row, want_m, rtol=1e-8)
    for row in s.n_values:
        np.testing.assert_allclose(row, want_n, rtol=1e-8)
    assert s.l_skipped == s.m_skipped == s.n_skipped == 0


def test_functionals_vanish_without_noise_exposure():
    dual, primal = grids()
    u, q = dual
    v, x, _ = primal
    flat_q = np.empty((3, 0))
    s = eval_functionals(EXP_PAIR, FLAT, RULE, times=[0.0, 0.5, 1.0],
                         dual_grid=(u, flat_q),
                         primal_grid=(v, x, flat_q), b=50.0)
    assert np.all(s.l_values == 0.0)
    assert np.all(s.m_values == 0.0)
    assert np.all(s.n_values == 0.0)
    assert s.l_aggregate == s.m_aggregate == s.n_aggregate == 0.0


def test_out_of_box_points_are_skipped_and_counted():
    u = np.array([[-0.4, -0.7], [-5.0, -0.5], [-0.3, -0.3]])
    q = np.array([[0.5], [0.0], [9.0]])
    # weights (0.1, 1): dealer 0's marginal state -1/(2 sqrt(0.1)) stays
    # inside the utility box, but the field slope sqrt(0.1) exceeds
    # b * 0.1, so the point belongs to the M box and not the N box
    v = np.array([[1.0, 1.0], [0.1, 1.0], [1.0, 2.0]])
    x = np.zeros(3)
    pq = np.array([[0.5], [0.5], [9.0]])
    s = eval_functionals(EXP_PAIR, LIN, RULE, times=[1.0],
                         dual_grid=(u, q), primal_grid=(v, x, pq), b=2.0)
    # dual rows 1 (utility below -b) and 2 (|q| > b) skipped
    assert s.l_skipped == 2
    assert np.isnan(s.l_values[:, 1:]).all()
    assert np.isfinite(s.l_values[:, 0]).all()
    assert s.m_skipped == 1
    assert np.isnan(s.m_values[:, 2]).all()
    assert np.isfinite(s.m_values[:, :2]).all()
    assert s.n_skipped == 2
    assert np.isnan(s.n_values[:, 1:]).all()
    assert np.isfinite(s.n_values[:, 0]).all()


def test_subnormal_dual_point_is_skipped_and_counted():
    # in the box, but the conjugate solve's cold seed overflows there
    (u, q), _ = grids()
    base = eval_functionals(TANH_MIX, LIN, RULE, times=[0.25, 0.5],
                            dual_grid=(u, q))
    s = eval_functionals(TANH_MIX, LIN, RULE, times=[0.25, 0.5],
                         dual_grid=(np.vstack([u, [[-1e-320, -1.0]]]),
                                    np.vstack([q, [[0.5]]])))
    assert s.bound == base.bound
    assert s.l_skipped == base.l_skipped + 2
    assert np.isnan(s.l_values[:, -1]).all()
    assert np.array_equal(s.l_values[:, :-1], base.l_values)


def test_overflowing_primal_row_is_skipped_and_counted():
    _, (v, x, q) = grids()
    base = eval_functionals(EXP_PAIR, LIN, RULE, times=[0.25, 0.5],
                            primal_grid=(v, x, q))
    s = eval_functionals(EXP_PAIR, LIN, RULE, times=[0.25, 0.5],
                         primal_grid=(np.vstack([v, [[1.0, 1.0]]]),
                                      np.append(x, -5000.0),
                                      np.vstack([q, [[0.5]]])))
    assert s.m_skipped == base.m_skipped + 2
    assert s.n_skipped == base.n_skipped + 2
    for got, want in ((s.m_values, base.m_values),
                      (s.n_values, base.n_values)):
        assert np.isnan(got[:, -1]).all()
        assert np.array_equal(got[:, :-1], want)


def test_functionals_are_nonnegative_and_finite_inside_boxes():
    rng = np.random.default_rng(3)
    g = 12
    u = -np.exp(rng.normal(size=(g, 2)))
    q = rng.uniform(-1.0, 1.0, size=(g, 1))
    v = np.exp(rng.normal(scale=0.3, size=(g, 2)))
    x = rng.normal(size=g)
    s = eval_functionals(TANH_MIX, LIN, RULE, times=[0.1, 0.6],
                         dual_grid=(u, q), primal_grid=(v, x, q), b=25.0)
    for block in (s.l_values, s.m_values, s.n_values):
        good = block[~np.isnan(block)]
        assert good.size
        assert np.all(good >= 0.0)
        assert np.all(np.isfinite(good))


def test_default_box_bound_covers_grid_positions():
    dual, primal = grids()
    s = eval_functionals(EXP_PAIR, LIN, RULE, times=[0.5], dual_grid=dual,
                         primal_grid=primal)
    assert s.bound == pytest.approx(0.5 + EXP_PAIR.c)
    assert s.l_skipped == 0


def test_constant_integrand_aggregates_to_its_own_value():
    dual, primal = grids()
    s = eval_functionals(EXP_PAIR, LIN, RULE,
                         times=np.linspace(0.0, 1.0, 9),
                         dual_grid=dual, primal_grid=primal)
    # constant-aversion loads are time-constant, so the trapezoid over
    # [0, 1] reproduces the single-time supremum
    assert s.l_aggregate == pytest.approx(s.l_sup[0], rel=1e-12)
    assert s.m_aggregate == pytest.approx(s.m_sup[0], rel=1e-12)
    assert s.n_aggregate == pytest.approx(s.n_sup[0], rel=1e-12)


def test_utility_side_load_stabilizes_near_collapse():
    # as utilities head to zero the log weight in the denominator grows,
    # so the sampled load decays rather than blowing up
    scales = np.array([1e-2, 1e-4, 1e-8])
    u = np.column_stack([-scales, -scales])
    q = np.full((3, 1), 0.5)
    s = eval_functionals(EXP_PAIR, LIN, RULE, times=[0.5],
                         dual_grid=(u, q), b=100.0)
    vals = s.l_values[0]
    assert np.all(np.isfinite(vals))
    assert vals[0] > vals[1] > vals[2]


def test_time_grid_validation():
    with pytest.raises(ValueError):
        eval_functionals(EXP_PAIR, LIN, RULE, times=[])
