"""Payoff profiles, terminal wealth, and exponential-moment verdicts."""

import math

import numpy as np
import pytest

from impactdesk import market
from impactdesk.market import (
    CustomPayoff,
    IntegrabilityReport,
    LinearPayoff,
    NamedPayoff,
    TablePayoff,
    UnsupportedPayoffError,
    _log_moment_ladder,
    check_integrability,
    malliavin_derivative,
    market_model,
    terminal_wealth,
)
from impactdesk.quadrature import nested_orders
from impactdesk.utility import agent_set, exponential_utility

PAIR = agent_set(exponential_utility(2.0), exponential_utility(2.0))
SINGLE = agent_set(exponential_utility(2.0))


def test_terminal_wealth_substitution():
    m = market_model(dividends=[LinearPayoff(1.0)])
    assert terminal_wealth(m, 1.0, [2.0], 3.0) == pytest.approx(7.0)


def test_terminal_wealth_zero_position():
    m = market_model(endowment=NamedPayoff("sin"),
                     dividends=[LinearPayoff(2.0)])
    z = np.linspace(-2, 2, 9)
    assert np.allclose(terminal_wealth(m, 0.3, [0.0], z), 0.3 + np.sin(z))


def test_terminal_wealth_linear_aggregation():
    # endowment slope s0 plus position q on a unit-slope dividend
    m = market_model(endowment=LinearPayoff(0.5), dividends=[LinearPayoff(1.0)])
    z = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(terminal_wealth(m, 0.0, [0.7], z), (0.5 + 0.7) * z)


def test_terminal_wealth_affine_in_position():
    m = market_model(endowment=NamedPayoff("tanh"),
                     dividends=[NamedPayoff("sin"), LinearPayoff(1.0)])
    z = 0.37
    base = terminal_wealth(m, 0.0, [0.0, 0.0], z)
    qa = terminal_wealth(m, 0.0, [1.0, 0.0], z) - base
    qb = terminal_wealth(m, 0.0, [0.0, 1.0], z) - base
    got = terminal_wealth(m, 1.1, [2.0, -3.0], z)
    assert got == pytest.approx(1.1 + base + 2.0 * qa - 3.0 * qb, rel=1e-13)


def test_position_length_checked():
    m = market_model(dividends=[LinearPayoff(1.0)])
    with pytest.raises(ValueError):
        terminal_wealth(m, 0.0, [1.0, 2.0], 0.0)


def test_malliavin_linear_and_named():
    m = market_model(endowment=LinearPayoff(0.5),
                     dividends=[NamedPayoff("sin")])
    g_slope, f_slopes = malliavin_derivative(m, np.array([0.0, 1.0]))
    assert np.allclose(g_slope, 0.5)
    assert f_slopes.shape == (1, 2)
    assert np.allclose(f_slopes[0], np.cos([0.0, 1.0]))


@pytest.mark.parametrize("payoff", [
    NamedPayoff("sin"),
    NamedPayoff("tanh", scale=2.0),
    NamedPayoff("square", scale=-1.0),
    TablePayoff([-1.0, 0.0, 2.0], [0.0, 1.0, 0.0]),
], ids=["sin", "tanh", "square", "table"])
def test_slope_matches_finite_differences(payoff):
    # off-knot points only; table knots carry a one-sided convention
    z = np.array([-1.7, -0.51, 0.33, 1.49, 2.8])
    h = 1e-6
    fd = (payoff.value(z + h) - payoff.value(z - h)) / (2 * h)
    assert np.allclose(payoff.derivative(z), fd, rtol=1e-6, atol=1e-9)


def test_table_left_slope_at_knots_and_extrapolation():
    tp = TablePayoff([-1.0, 0.0, 2.0], [0.0, 1.0, 0.0])
    z = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
    assert np.allclose(tp.value(z), [-1.0, 0.5, 1.0, 0.5, -0.5])
    assert np.allclose(tp.derivative(z), [1.0, 1.0, 1.0, -0.5, -0.5])
    assert tp.derivative(np.array([2.0]))[0] == pytest.approx(-0.5)


def test_table_validation():
    with pytest.raises(ValueError):
        TablePayoff([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        TablePayoff([0.0], [1.0])


def test_custom_payoff_without_slope():
    m = market_model(endowment=CustomPayoff(lambda z: z**3))
    with pytest.raises(UnsupportedPayoffError):
        malliavin_derivative(m, 0.0)


def test_lipschitz_constants():
    assert LinearPayoff(-3.0, 1.0).lipschitz_constant() == pytest.approx(3.0)
    assert TablePayoff([0.0, 1.0, 2.0],
                       [0.0, 2.0, 1.0]).lipschitz_constant() == pytest.approx(2.0)
    assert NamedPayoff("sin").lipschitz_constant() == pytest.approx(1.0, abs=1e-6)
    assert CustomPayoff(np.sin, np.cos).lipschitz_constant() == \
        pytest.approx(1.0, abs=1e-6)


def test_gaussian_moment_oracle():
    # E[exp(p Z)] = exp(p^2 / 2), from the nested ladder of log moments
    for slope, p, log_exact in ((1.0, 1.0, 0.5), (2.0, 1.5, 4.5)):
        payoff = LinearPayoff(slope)
        log_est, _, stabilized = _log_moment_ladder(
            lambda z: p * payoff.value(z), 1e-6, nested_orders())
        assert stabilized
        assert math.exp(log_est) == pytest.approx(math.exp(log_exact),
                                                  rel=1e-8)


def test_bounded_payoffs_pass_every_mode_and_p(monkeypatch):
    monkeypatch.setattr(market, "MOMENT_POWERS", (0.5, 1.0, 8.0))
    m = market_model(endowment=NamedPayoff("tanh", scale=3.0),
                     dividends=[NamedPayoff("sin"), NamedPayoff("cos")])
    for mode in ("baseline", "exponential", "strong"):
        rep = check_integrability(m, PAIR, mode)
        assert rep.verdict == "PASS"
        assert rep.verdicts == ("PASS",) * 3


def test_linear_payoffs_pass(monkeypatch):
    monkeypatch.setattr(market, "MOMENT_POWERS", (1.0, 2.0))
    m = market_model(endowment=LinearPayoff(0.5),
                     dividends=[LinearPayoff(1.0)])
    for mode in ("baseline", "exponential", "strong"):
        assert check_integrability(m, PAIR, mode).verdict == "PASS"


def test_negative_square_endowment_diverges_strong(monkeypatch):
    # cap/members = 2 so the strong-mode tilt is 4 >= 1/2: the Gaussian
    # weight cannot absorb exp(4 z^2)
    monkeypatch.setattr(market, "MOMENT_POWERS", (1.0,))
    m = market_model(endowment=NamedPayoff("square", scale=-1.0))
    rep = check_integrability(m, SINGLE, "strong")
    assert rep.verdict == "DIVERGENT"
    assert rep.log_estimates[0] > 100.0


def test_report_shape_and_lines(monkeypatch):
    monkeypatch.setattr(market, "MOMENT_POWERS", (1.0, 2.0))
    m = market_model(dividends=[LinearPayoff(1.0)])
    rep = check_integrability(m, PAIR, "baseline")
    assert isinstance(rep, IntegrabilityReport)
    assert rep.n_terms == 4  # two dividend signs x endowment on/off
    assert len(rep.lines()) == 2
    assert "PASS" in rep.lines()[0]


def test_unknown_mode_and_name_rejected():
    m = market_model()
    with pytest.raises(ValueError):
        check_integrability(m, PAIR, "fancy")
    with pytest.raises(ValueError):
        check_integrability(m, PAIR, "value")
    with pytest.raises(UnsupportedPayoffError):
        NamedPayoff("sinh")


def test_terminal_wealth_batched_rows_are_single_states():
    # cash (B,), positions (B, J) and levels (B, n) give (B, n), each row
    # the bits of its own single-state call, a zero position included
    m = market_model(endowment=NamedPayoff("tanh"),
                     dividends=[NamedPayoff("sin"), LinearPayoff(1.0)])
    rng = np.random.default_rng(2)
    x = rng.normal(size=4)
    q = np.vstack([np.zeros(2), rng.uniform(-2.0, 2.0, size=(3, 2))])
    z = rng.normal(size=(4, 5))
    batch = terminal_wealth(m, x, q, z)
    assert batch.shape == (4, 5)
    for i in range(4):
        assert batch[i].tobytes() == terminal_wealth(m, x[i], q[i],
                                                     z[i]).tobytes()
