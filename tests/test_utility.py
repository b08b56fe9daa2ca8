"""Utility construction: closed forms, reconstruction, smoothness reports."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from impactdesk import utility
from impactdesk.utility import (
    SMOOTHNESS_RADII,
    SMOOTHNESS_RTOL,
    SMOOTHNESS_STEP,
    AgentSet,
    ConstantAversion,
    InvalidRiskAversionError,
    SinSquareAversion,
    TanhAversion,
    UnsupportedOrderError,
    UtilitySpec,
    _reciprocal_derivatives,
    agent_set,
    build_from_risk_aversion,
    check_smoothness,
    eval_utility,
    exponential_utility,
    inverse_log_marginal,
    log_marginal,
    risk_aversion,
    utility_value,
)

# analytic maximum of |d2 a| for a = 2 + 0.5*tanh(x):
# |a''| = |tanh * sech^2| = t*(1 - t^2) at t = tanh(x); stationary at
# t = 3**-0.5, giving 2 / (3*sqrt(3)).
TANH_A2_SUP = 2.0 / (3.0 * math.sqrt(3.0))

EXP2 = exponential_utility(2.0)
CONST2 = build_from_risk_aversion(ConstantAversion(2.0), c_bound=2.0)
TANH = build_from_risk_aversion(TanhAversion(2.0, 0.5), c_bound=2.5)
TANH_WIDE = build_from_risk_aversion(TanhAversion(1.5, 0.5), c_bound=2.0)


def test_exponential_closed_form_at_zero():
    vals = eval_utility(EXP2, 0.0, 2)
    assert vals[0] == pytest.approx(-0.5, abs=1e-15)
    assert vals[1] == pytest.approx(1.0, abs=1e-15)
    assert vals[2] == pytest.approx(-2.0, abs=1e-15)


def test_exponential_higher_orders():
    x = 0.8
    vals = eval_utility(EXP2, x, 5)
    up = math.exp(-2.0 * x)
    for k in range(1, 6):
        assert vals[k] == pytest.approx((-2.0) ** (k - 1) * up, rel=1e-14)


def test_constant_aversion_matches_exponential():
    xs = np.linspace(-5.0, 5.0, 41)
    got = eval_utility(CONST2, xs, 2)
    want = np.stack([-np.exp(-2 * xs) / 2, np.exp(-2 * xs), -2 * np.exp(-2 * xs)])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-9


def test_normalization_at_zero():
    # reconstruction pins u'(0) = 1
    assert eval_utility(TANH, 0.0, 1)[1] == pytest.approx(1.0, abs=1e-12)


def test_tanh_profile_values():
    a = risk_aversion(TANH, 0.0, 1)
    assert a[0] == pytest.approx(2.0, abs=1e-14)
    assert a[1] == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("spec", [EXP2, CONST2, TANH], ids=["exp", "const", "tanh"])
@pytest.mark.parametrize("x", [-2.3, -0.4, 0.7, 3.1])
def test_derivatives_match_finite_differences(spec, x):
    h = 1e-5
    vals = eval_utility(spec, x, 4)
    for k in range(4):
        plus = eval_utility(spec, x + h, k)[k]
        minus = eval_utility(spec, x - h, k)[k]
        fd = (plus - minus) / (2 * h)
        assert fd == pytest.approx(vals[k + 1], rel=1e-6)


def test_marginal_utility_bracket():
    # a in [1, 2] forces exp(-2x) <= u'(x) <= exp(-x) for x >= 0
    xs = np.linspace(0.0, 25.0, 64)
    up = eval_utility(TANH_WIDE, xs, 1)[1]
    assert np.all(up <= np.exp(-xs) * (1 + 1e-9))
    assert np.all(up >= np.exp(-2 * xs) * (1 - 1e-9))
    xs = np.linspace(-25.0, 0.0, 64)
    up = eval_utility(TANH_WIDE, xs, 1)[1]
    assert np.all(up >= np.exp(-xs) * (1 - 1e-9))
    assert np.all(up <= np.exp(-2 * xs) * (1 + 1e-9))


def test_tail_bracket():
    # -u is squeezed between u'/c and c*u', including across the tail cutoff
    c = TANH.c_bound
    for x in (10.0, 20.0, 39.0, 41.0, 60.0):
        u, up = eval_utility(TANH, x, 1)
        assert u < 0.0
        assert up / c * (1 - 1e-9) <= -u <= c * up * (1 + 1e-9)


def test_value_tends_to_zero_monotonically():
    xs = np.array([10.0, 20.0, 40.0, 80.0])
    u = utility_value(TANH, xs)
    assert np.all(u < 0)
    assert np.all(np.diff(u) > 0)


@settings(max_examples=60, deadline=None)
@given(st.floats(-30.0, 30.0))
def test_aversion_band_properties(x):
    for spec in (EXP2, TANH):
        c = spec.c_bound
        u, up, upp = eval_utility(spec, x, 2)
        assert u < 0 and up > 0 and upp < 0
        a = -upp / up
        assert 1.0 / c - 1e-12 <= a <= c + 1e-12
        assert -c * u >= up * (1 - 1e-9)
        assert up >= -u / c * (1 - 1e-9)


def test_recovered_aversion_from_log_marginal():
    # independent recovery: a(x) = -d/dx log u'(x) by central differences
    xs = np.linspace(-10.0, 10.0, 81)
    h = 1e-4
    fd = -(log_marginal(TANH, xs + h) - log_marginal(TANH, xs - h)) / (2 * h)
    want = risk_aversion(TANH, xs)[0]
    assert np.max(np.abs(fd / want - 1.0)) <= 1e-8


def test_inverse_log_marginal_round_trip():
    xs = np.array([-40.0, -3.0, 0.0, 0.3, 7.0, 55.0])
    for spec in (EXP2, TANH):
        w = log_marginal(spec, xs)
        back = inverse_log_marginal(spec, w)
        assert np.max(np.abs(back - xs)) <= 1e-10


def test_risk_tolerance_recursion():
    a, a1, a2 = risk_aversion(TANH, 0.7, 2)
    t = _reciprocal_derivatives(risk_aversion(TANH, 0.7, 2), 2)
    assert t[0] == pytest.approx(1.0 / a)
    assert t[1] == pytest.approx(-a1 / a**2)
    assert t[2] == pytest.approx((2 * a1**2 - a * a2) / a**3)


def test_unsupported_order_raises():
    # a profile of order 1 gives a closed-form member a budget of three
    class _Short(ConstantAversion):
        order = 1

    low = UtilitySpec(c_bound=2.0, aversion=_Short(2.0))
    assert low.tables is None and low.max_derivative_order == 3
    with pytest.raises(UnsupportedOrderError):
        eval_utility(low, 0.0, 4)
    with pytest.raises(UnsupportedOrderError):
        risk_aversion(low, 0.0, 2)


def test_derivative_budget_is_read_off_the_profile():
    # closed form or rebuilt from tables, a constant profile of order 64
    # gives 66 utility derivatives, and the budget cannot be set
    assert EXP2.max_derivative_order == CONST2.max_derivative_order == 66
    assert TANH.max_derivative_order == TanhAversion.order + 2
    with pytest.raises(AttributeError):
        EXP2.max_derivative_order = 3
    with pytest.raises(TypeError):
        UtilitySpec(c_bound=2.0, max_derivative_order=3,
                    aversion=ConstantAversion(2.0))


def test_out_of_band_aversion_rejected():
    with pytest.raises(InvalidRiskAversionError):
        # profile reaches 2.5 but the declared band tops out at 2.2
        build_from_risk_aversion(TanhAversion(2.0, 0.5), c_bound=2.2)


def test_agent_set_shared_bound():
    ag = agent_set(EXP2, TANH)
    assert ag.size == 2
    assert ag.c == pytest.approx(2.5)
    assert np.allclose(ag.aversion_at_zero, [2.0, 2.0])


def test_smoothness_report_stable_profiles():
    rep = check_smoothness(agent_set(EXP2, TANH), 2)
    assert not rep.any_growing
    assert np.all(rep.aversion_sup[0] == 0.0)
    assert rep.sup(1, 1) == pytest.approx(0.5, abs=1e-6)
    assert rep.sup(1, 2) == pytest.approx(TANH_A2_SUP, abs=1e-4)
    # risk-tolerance form: t = 1/a bounded by c on every window
    assert np.all(rep.tolerance_sup[:, 0, :] <= 2.5 + 1e-9)


def test_smoothness_report_flags_growth():
    sq = build_from_risk_aversion(SinSquareAversion(2.0, 0.5), c_bound=2.5)
    rep = check_smoothness(agent_set(sq), 2)
    assert rep.growing[0]
    assert rep.declared_unbounded[0]
    assert rep.any_growing
    # windowed sup of |a'| keeps pace with the window radius
    assert rep.aversion_sup[0, 0, 2] > 1.5 * rep.aversion_sup[0, 0, 1]


def _masked_smoothness(agents, order):
    """check_smoothness's suprema by brute force: every member on the
    whole grid, one boolean mask per window."""
    radii, step = SMOOTHNESS_RADII, SMOOTHNESS_STEP
    grid = np.arange(-radii[-1], radii[-1] + step / 2, step)
    nm, nr = agents.size, len(radii)
    a_sup, t_sup = np.zeros((nm, order, nr)), np.zeros((nm, order + 1, nr))
    for i, spec in enumerate(agents.members):
        a = risk_aversion(spec, grid, order)
        t = _reciprocal_derivatives(a, order)
        for r_idx, r in enumerate(radii):
            mask = np.abs(grid) <= r + step / 2
            a_sup[i, :, r_idx] = np.abs(a[1:, mask]).max(axis=1)
            t_sup[i, :, r_idx] = np.abs(t[:, mask]).max(axis=1)
    growing = np.array([any(np.any(s[1:] > s[:-1] * (1.0 + SMOOTHNESS_RTOL)
                                   + 1e-12) for s in member)
                        for member in a_sup])
    declared = np.array([getattr(m.aversion, "bounded", True) is False
                         for m in agents.members])
    return a_sup, t_sup, growing, declared


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_smoothness_suprema_match_masked_windows(order):
    sq = build_from_risk_aversion(SinSquareAversion(2.0, 0.5), c_bound=2.5)
    agents = agent_set(EXP2, CONST2, TANH, TANH_WIDE, sq)
    rep = check_smoothness(agents, order)
    want = _masked_smoothness(agents, order)
    got = (rep.aversion_sup, rep.tolerance_sup, rep.growing,
           rep.declared_unbounded)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    # the constant members' suprema in closed form: 0 for every aversion
    # derivative, 1/a for the tolerance and 0 for its derivatives
    for i in (0, 1):
        assert np.all(rep.aversion_sup[i] == 0.0)
        assert np.all(rep.tolerance_sup[i, 0] == 0.5)
        assert np.all(rep.tolerance_sup[i, 1:] == 0.0)


# ---------------------------------------------------------------------------
# table edges: the grid ends at +-halfwidth, the linear continuation
# beyond them, cell boundaries, and the asymptotic tail beyond tail_cutoff

TABLED = (CONST2, TANH, TANH_WIDE)
N_NODES = TANH.tables.x_nodes.size
K_ZERO = int(np.flatnonzero(TANH.tables.x_nodes == 0.0)[0])
HALFWIDTH = TANH.tables.x_nodes[-1]
REAL_LINE = st.one_of(
    st.floats(-1e4, 1e4),
    st.floats(-HALFWIDTH - 10.0, HALFWIDTH + 10.0),
    st.floats(-2.0, 2.0),
    st.sampled_from([-HALFWIDTH, HALFWIDTH]).flatmap(
        lambda e: st.floats(e - 1e-6, e + 1e-6)),
)


@settings(max_examples=60, deadline=None)
@given(REAL_LINE)
@example(-HALFWIDTH)
@example(HALFWIDTH)
@example(0.0)
def test_table_inverse_round_trips_over_the_real_line(x):
    for spec in TABLED:
        tables = spec.tables
        back = tables.inverse_integrated(tables.integrated(x))
        assert abs(back - x) <= 1e-13 * max(1.0, abs(x))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, N_NODES - 1))
@example(0)
@example(K_ZERO)
@example(N_NODES - 1)
def test_table_integral_and_slope_continuous_across_cells(k):
    # node k joins two cells (or a cell and the linear continuation at the
    # grid ends); the interpolant and its slope a must not jump there
    for spec in TABLED:
        tables = spec.tables
        xk, a = tables.x_nodes[k], tables.a_nodes[k]
        eps = 2.0**-30
        xl, xr = xk - eps, xk + eps
        i_l, i_k, i_r = tables.integrated(np.array([xl, xk, xr]))
        assert abs((i_r - i_l) - a * (xr - xl)) <= 1e-13 * max(1.0, abs(i_k))
        # one-sided slopes agree with a to the curvature term |a'| d / 2
        d = tables.h / 16
        i_dl, i_dr = tables.integrated(np.array([xk - d, xk + d]))
        assert abs((i_k - i_dl) / d - a) <= d
        assert abs((i_dr - i_k) / d - a) <= d


@settings(max_examples=40, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(1e-9, 1.0))
@example(0.0, 1e-9)
@example(-1e-9, 1e-9)
def test_value_negative_increasing_across_tail_cutoff(dx, gap):
    for spec in TABLED:
        x = spec.tables.tail_cutoff + dx
        lo, hi = utility_value(spec, np.array([x, x + gap]))
        assert lo < hi < 0.0


def test_table_integral_has_no_jump_at_any_node():
    # the rounded nodes sit up to an ulp of the grid edge off x0 + k*h;
    # each cell is built over its own width, so I crosses every node of
    # the tanh table with slope a and no jump beyond a few ulp of the
    # neighbouring node values
    tables = TANH.tables
    k = np.arange(1, N_NODES - 1)
    xk = tables.x_nodes[k]
    xl, xr = xk - 2.0**-30, xk + 2.0**-30
    jump = (tables.integrated(xr) - tables.integrated(xl)
            - tables.a_nodes[k] * (xr - xl))
    near = np.maximum(np.abs(tables.i_nodes[k - 1]),
                      np.abs(tables.i_nodes[k + 1]))
    assert np.max(np.abs(jump) / np.spacing(near)) <= 4.0


def test_table_inverse_is_exact_at_nodes():
    # a target equal to a node value opens that node's cell at t = 0, and
    # x is rebuilt from the node itself, so the node comes back exactly
    rng = np.random.default_rng(11)
    k = np.concatenate([rng.integers(0, N_NODES, 400),
                        [0, K_ZERO, N_NODES - 1]])
    for spec in TABLED:
        tables = spec.tables
        back = tables.inverse_integrated(tables.i_nodes[k])
        assert np.array_equal(back, tables.x_nodes[k])


def test_table_round_trip_within_two_ulp():
    rng = np.random.default_rng(12)
    for spec in TABLED:
        tables = spec.tables
        x = np.concatenate([rng.uniform(-130.0, 130.0, 4000),
                            rng.uniform(-2.0, 2.0, 4000),
                            tables.x_nodes[rng.integers(0, N_NODES, 2000)]])
        back = tables.inverse_integrated(tables.integrated(x))
        ulp = np.spacing(np.maximum(np.abs(x), tables.h))
        assert np.max(np.abs(back - x) / ulp) <= 2.0


def test_tables_pass_non_finite_queries_through():
    # a failed row's NaN, or an overflowed target, comes back as a value
    # rather than as an invalid-cast RuntimeWarning
    for spec in TABLED:
        x = inverse_log_marginal(spec, np.array([np.nan, np.inf, -np.inf, 0.0]))
        assert np.isnan(x[0]) and x[1] == -np.inf and x[2] == np.inf
        assert x[3] == 0.0
        assert np.isnan(log_marginal(spec, np.nan))
        assert np.isnan(utility_value(spec, np.nan))


# ---------------------------------------------------------------------------
# the table build in cell blocks: bits and working set

TABLE_ARRAYS = ("x_nodes", "i_nodes", "a_nodes", "u_nodes", "i_cells",
                "u_cells")


@pytest.mark.parametrize("profile", [
    TanhAversion(2.0, 0.5), TanhAversion(2.0, 0.5, 3.0),
    SinSquareAversion(2.0, 0.5), ConstantAversion(2.0)],
    ids=["tanh", "tanh-steep", "sin2", "constant"])
def test_table_bits_do_not_depend_on_the_block(profile, monkeypatch):
    # 997 leaves a ragged last block in both passes; a block above the
    # cell count makes each pass one block
    want = utility._build_tables(profile)
    n_cells = want.x_nodes.size - 1
    for block in (997, n_cells + 1):
        monkeypatch.setattr(utility, "TABLE_BLOCK", block)
        got = utility._build_tables(profile)
        for name in TABLE_ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _peak_mb(fn):
    """Peak of what fn allocates, as numpy reports it to tracemalloc, in MB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_table_build_peak_memory():
    # blocks of cells keep the build near 11 MB; the whole grid's
    # 96,000 x 7 quadrature points at once need about 41 MB
    peak = _peak_mb(lambda: build_from_risk_aversion(TanhAversion(2.0, 0.5),
                                                     c_bound=2.5))
    assert peak < 16.0


def test_smoothness_sweep_peak_memory():
    # one annulus at a time keeps the sweep near 2 MB; all 80,001 grid
    # points at once need about 8.5 MB at order 2
    desk = agent_set(build_from_risk_aversion(TanhAversion(2.0, 0.5),
                                              c_bound=2.5))
    assert _peak_mb(lambda: check_smoothness(desk, 2)) < 4.0
