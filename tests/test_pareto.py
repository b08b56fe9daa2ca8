"""Risk-sharing solver: oracle parity, envelope identities, band bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impactdesk import pareto
from impactdesk.pareto import (
    WEIGHT_RATIO_LIMIT,
    DegenerateWeightsError,
    exponential_point,
    harmonic_aversion,
    pareto_point,
    sharing_derivatives,
    solve_allocation,
)
from impactdesk.utility import (
    TanhAversion,
    agent_set,
    build_from_risk_aversion,
    eval_utility,
    exponential_utility,
)

EXP_PAIR = agent_set(exponential_utility(2.0), exponential_utility(2.0))
MIXED = agent_set(
    exponential_utility(1.0),
    build_from_risk_aversion(TanhAversion(2.0, 0.5), c_bound=2.5, max_order=6),
    exponential_utility(3.0),
)
TANH_EXP = agent_set(
    build_from_risk_aversion(TanhAversion(2.0, 0.5), c_bound=2.5, max_order=6),
    exponential_utility(2.0),
)
TANH_PAIR = agent_set(
    build_from_risk_aversion(TanhAversion(2.0, 0.5), c_bound=2.5, max_order=6),
    build_from_risk_aversion(TanhAversion(1.5, 0.5), c_bound=2.0, max_order=6),
)


def test_symmetric_pair_at_zero():
    p = pareto_point(EXP_PAIR, [1.0, 1.0], 0.0)
    assert p.multiplier == pytest.approx(1.0, abs=1e-14)
    assert p.value == pytest.approx(-1.0, abs=1e-14)
    assert np.allclose(p.allocation, [0.0, 0.0], atol=1e-14)
    assert p.value_x == pytest.approx(1.0, abs=1e-14)


def test_tilted_pair_frozen_values():
    # hand-derived: v^m exp(-2 y^m) = lam, y^1 + y^2 = 0 gives
    # lam = sqrt(2), allocation +-log(2)/4, value = -sqrt(2)
    p = pareto_point(EXP_PAIR, [1.0, 2.0], 0.0)
    assert p.multiplier == pytest.approx(math.sqrt(2.0), rel=1e-13)
    assert p.value == pytest.approx(-math.sqrt(2.0), rel=1e-13)
    assert np.allclose(p.allocation,
                       [-math.log(2.0) / 4.0, math.log(2.0) / 4.0], atol=1e-13)


def test_single_member_allocation():
    single = agent_set(exponential_utility(2.0))
    alloc, lam = solve_allocation(single, [1.5], 0.7)
    assert alloc[0] == pytest.approx(0.7, abs=1e-13)
    assert lam == pytest.approx(1.5 * math.exp(-1.4), rel=1e-12)


def test_harmonic_aversion_values():
    assert harmonic_aversion([2.0, 2.0]) == pytest.approx(1.0)
    assert harmonic_aversion([1.0, 1.0]) == pytest.approx(0.5)
    assert harmonic_aversion([1.0, 2.0, 4.0]) == pytest.approx(4.0 / 7.0)


def test_first_order_conditions_and_feasibility():
    for ag, v, x in [
        (EXP_PAIR, [1.0, 2.0], 0.3),
        (MIXED, [0.5, 1.3, 2.0], -1.2),
        (TANH_PAIR, [3.0, 0.2], 4.0),
    ]:
        p = pareto_point(ag, v, x)
        assert abs(p.allocation.sum() - x) <= 1e-12 * (1 + abs(x))
        for m, spec in enumerate(ag.members):
            marg = eval_utility(spec, p.allocation[m], 1)[1]
            assert abs(v[m] * marg - p.multiplier) <= 1e-10 * p.multiplier
        assert p.value < 0 and p.multiplier > 0 and p.value_xx < 0


def test_matches_exponential_closed_form_on_grid():
    coeffs = [1.0, 2.0, 4.0]
    ag = agent_set(*[exponential_utility(a) for a in coeffs])
    vs = np.array([0.1, 0.7, 2.3, 10.0])
    xs = np.linspace(-5.0, 5.0, 7)
    for v1 in vs:
        for v2 in vs:
            for x in xs:
                v = [v1, v2, 1.0]
                p = pareto_point(ag, v, x)
                q = exponential_point(coeffs, v, x)
                for f in ("value", "multiplier", "value_xx", "value_xxx"):
                    assert getattr(p, f) == pytest.approx(
                        getattr(q, f), rel=1e-10)
                for f in ("allocation", "value_v", "value_xv", "value_vv",
                          "value_xxv"):
                    assert np.allclose(getattr(p, f), getattr(q, f),
                                       rtol=1e-10, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*[st.floats(0.1, 10.0) for _ in range(3)]),
    st.floats(-5.0, 5.0),
    st.floats(0.1, 10.0),
)
def test_homogeneity_and_euler_identity(vtup, x, b):
    v = np.asarray(vtup)
    p = pareto_point(MIXED, v, x)
    q = pareto_point(MIXED, b * v, x)
    assert q.value == pytest.approx(b * p.value, rel=1e-12)
    assert q.value_x == pytest.approx(b * p.value_x, rel=1e-12)
    # weights enter with degree one: value = <v, value_v>
    assert np.dot(v, p.value_v) == pytest.approx(p.value, rel=1e-10)
    # marginals in v are scale free
    assert np.allclose(q.value_v, p.value_v, rtol=1e-10)


@pytest.mark.parametrize("ag,v,x", [
    (EXP_PAIR, [1.0, 2.0], 0.3),
    (MIXED, [0.5, 1.3, 2.0], 1.2),
    (TANH_PAIR, [3.0, 0.2], -2.0),
])
def test_partials_match_finite_differences(ag, v, x):
    v = np.asarray(v, dtype=float)
    p = pareto_point(ag, v, x)
    h = 1e-4
    up = pareto_point(ag, v, x + h)
    dn = pareto_point(ag, v, x - h)
    assert (up.value - dn.value) / (2 * h) == pytest.approx(p.value_x, rel=1e-5)
    assert ((up.value - 2 * p.value + dn.value) / h**2
            == pytest.approx(p.value_xx, rel=1e-5))
    assert ((up.value_xx - dn.value_xx) / (2 * h)
            == pytest.approx(p.value_xxx, rel=1e-5))
    assert np.allclose((up.value_v - dn.value_v) / (2 * h), p.value_xv,
                       rtol=1e-5)
    assert np.allclose((up.value_xv - dn.value_xv) / (2 * h), p.value_xxv,
                       rtol=1e-4, atol=1e-10)
    for m in range(ag.size):
        e = np.zeros(ag.size)
        e[m] = h
        vp = pareto_point(ag, v + e, x)
        vm = pareto_point(ag, v - e, x)
        assert ((vp.value - vm.value) / (2 * h)
                == pytest.approx(p.value_v[m], rel=1e-5))
        assert np.allclose((vp.value_v - vm.value_v) / (2 * h),
                           p.value_vv[:, m], rtol=1e-4, atol=1e-10)


def _bound_grid(ag):
    rng = np.random.default_rng(42)
    n = 300
    v = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(n, ag.size)))
    x = rng.uniform(-5.0, 5.0, size=n)
    return v, x


@pytest.mark.parametrize("ag", [EXP_PAIR, MIXED, TANH_PAIR],
                         ids=["exp", "mixed", "tanh"])
def test_aversion_band_bounds_on_grid(ag):
    v, x = _bound_grid(ag)
    d = sharing_derivatives(ag, v, x, order=2)
    c, nm = ag.c, ag.size
    slack = 1 + 1e-9
    lam = d["value_x"]
    # curvature band
    assert np.all(-nm * d["value_xx"] <= c * lam * slack)
    assert np.all(-nm * d["value_xx"] >= lam / c / slack)
    # value-vs-marginal band
    assert np.all(nm * lam <= -c * d["value"] * slack)
    assert np.all(nm * lam >= -d["value"] / c / slack)
    # per-member marginal band
    for m in range(nm):
        prod = -v[:, m] * d["value_v"][:, m]
        assert np.all(prod <= c * lam * slack)
        assert np.all(prod >= lam / c / slack)
        ratio = v[:, m] * d["value_xv"][:, m] / lam
        assert np.all(ratio <= c**2 / nm * slack)
        assert np.all(ratio >= 1.0 / (nm * c**2) / slack)


@pytest.mark.parametrize("ag", [EXP_PAIR, TANH_PAIR], ids=["exp", "tanh"])
def test_marginal_growth_bounds(ag):
    v, x = _bound_grid(ag)
    c, nm = ag.c, ag.size
    base = sharing_derivatives(ag, v, x, order=1)["value_x"]
    for y in (-3.0, -0.7, 0.9, 2.5):
        shifted = sharing_derivatives(ag, v, x + y, order=1)["value_x"]
        ratio = shifted / base
        yp, yn = max(y, 0.0), max(-y, 0.0)
        lo = math.exp(-yp * c / nm + yn / (c * nm))
        hi = math.exp(-yp / (c * nm) + yn * c / nm)
        assert np.all(ratio >= lo * (1 - 1e-9))
        assert np.all(ratio <= hi * (1 + 1e-9))


def test_degenerate_weights_rejected():
    with pytest.raises(DegenerateWeightsError):
        pareto_point(EXP_PAIR, [1.0, 2e12], 0.0)
    with pytest.raises(DegenerateWeightsError):
        solve_allocation(EXP_PAIR, [0.0, 1.0], 0.0)


def test_batched_shapes_match_scalar_path():
    v = np.array([[0.5, 1.3, 2.0], [1.0, 1.0, 1.0]])
    x = np.array([1.2, -0.3])
    d = sharing_derivatives(MIXED, v, x, order=3)
    for i in range(2):
        p = pareto_point(MIXED, v[i], x[i])
        assert d["value"][i] == pytest.approx(p.value, rel=1e-13)
        assert np.allclose(d["value_vv"][i], p.value_vv, rtol=1e-12)
        assert d["value_xxv"][i] == pytest.approx(p.value_xxv, rel=1e-12)


# --------------------------------------------------------------------------
# multiplier solve: converged rows are frozen


def _seeded_rows(n, seed):
    rng = np.random.default_rng(seed)
    v = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(n, 2)))
    x = rng.uniform(-5.0, 5.0, size=n)
    return v, x


def test_batch_solve_matches_single_row_solves_bitwise():
    v, x = _seeded_rows(200, 7)
    d = sharing_derivatives(TANH_EXP, v, x, order=1)
    for i in range(x.size):
        row = slice(i, i + 1)
        s = sharing_derivatives(TANH_EXP, v[row], x[row], order=1)
        assert np.array_equal(s["log_multiplier"], d["log_multiplier"][row])
        assert np.array_equal(s["allocation"], d["allocation"][row])


def test_multiplier_solve_work_bound(monkeypatch):
    v, x = _seeded_rows(2000, 11)
    calls, elems = [0], [0]
    inner = pareto.inverse_log_marginal

    def counted(spec, w):
        calls[0] += 1
        elems[0] += np.size(w)
        return inner(spec, w)

    monkeypatch.setattr(pareto, "inverse_log_marginal", counted)
    sharing_derivatives(TANH_EXP, v, x, order=1)
    nm = TANH_EXP.size
    assert calls[0] <= 6 * nm
    assert elems[0] <= 5 * x.size * nm


def test_rows_open_at_the_iteration_cap_come_back_nan():
    # with zero tolerance only an exact root converges; the other rows
    # take all 100 steps and end there, without raising
    v, x = _seeded_rows(20, 7)
    l, alloc = pareto._solve_log_multiplier(TANH_EXP, np.log(v), x,
                                            atol_scale=0.0)
    capped = np.isnan(l)
    assert 0 < capped.sum() < x.size
    for xm in alloc:
        assert np.array_equal(np.isnan(xm), capped)
    assert np.all(sum(alloc)[~capped] == x[~capped])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-110.0, 110.0)),
                min_size=1, max_size=8))
def test_multiplier_solve_at_extreme_weights_and_wealth(rows):
    # weight ratios up to ~0.99 * WEIGHT_RATIO_LIMIT either way; the tanh
    # table spans +-120 around zero
    half = 0.99 * 0.5 * math.log(WEIGHT_RATIO_LIMIT)
    r = np.array([q for q, _ in rows]) * half
    v = np.exp(np.stack([r, -r], axis=-1))
    x = np.array([w for _, w in rows])
    d = sharing_derivatives(TANH_EXP, v, x, order=1)
    alloc = d["allocation"]
    psi = sum(alloc[:, m] for m in range(TANH_EXP.size)) - x
    assert np.all(np.abs(psi) <= 1e-13 * (1.0 + np.abs(x)))
    # a NaN-wealth row has no multiplier: it comes back NaN, and the
    # others as if it were not there
    k = len(rows) // 2
    bad = sharing_derivatives(TANH_EXP, np.insert(v, k, [1.0, 1.0], axis=0),
                              np.insert(x, k, np.nan), order=1)
    for key in ("log_multiplier", "allocation"):
        assert np.isnan(bad[key][k]).all()
        assert np.delete(bad[key], k, axis=0).tobytes() == d[key].tobytes()
