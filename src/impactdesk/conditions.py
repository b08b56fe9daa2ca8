"""Certify which existence regime a configuration falls into.

Three nested certificates, checked before any simulation is trusted:

  1 (local)       — the aversion profiles are smooth enough (derivative
                    index set by the problem dimensions) and a baseline
                    exponential moment of the terminal wealth envelope is
                    finite; buys a unique maximal local solution up to a
                    possible explosion time.
  2 (exponential) — every dealer has constant aversion and the family's
                    own moment condition holds; buys a global solution
                    (the closed-form geometric dynamics never reach the
                    boundary).
  3 (hedging)     — the aversion slope is uniformly bounded, the strong
                    moment condition holds, and every payoff has a
                    Lipschitz slope; buys the pathwise-derivative
                    representation of the diffusion coefficients.

Verdicts are honest about what grids can certify: PASS needs every
sub-check to pass; a declared-analytic defect (profile advertises
unbounded derivatives, payoff has no or unbounded slope, moment ladder
diverges) is a FAIL; a supremum that merely keeps growing through the
largest window is INCONCLUSIVE.

The module also samples the three diagnostic flow functionals — the
relative-coefficient load L on the utility side and the M/N loads on
the weight side — over user grids, with membership tests for the
admissible boxes they are quantified over and a trapezoidal aggregate
over the time axis standing in for the time-integrated conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import coefficient_rows, field_core
from .market import (IntegrabilityReport, MarketModel, UnsupportedPayoffError,
                     check_integrability)
from .quadrature import QuadratureRule
from .utility import AgentSet, SmoothnessReport, check_smoothness

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

REGIME_NAMES = {1: "local", 2: "exponential", 3: "hedging"}


def smoothness_index(n_members: int, n_dividends: int) -> int:
    """Smallest integer strictly above (members + stocks) / 2."""
    if n_members < 1 or n_dividends < 0:
        raise ValueError("need at least one member and no negative stocks")
    return (n_members + n_dividends) // 2 + 1


# --------------------------------------------------------------------------
# regime certificates


@dataclass(frozen=True)
class Check:
    """One sub-certificate with its margin."""

    name: str
    verdict: str
    detail: str
    value: Optional[float] = None


@dataclass(frozen=True)
class ConditionReport:
    regime: int
    regime_name: str
    checks: tuple
    smoothness: Optional[SmoothnessReport] = None
    integrability: Optional[IntegrabilityReport] = None
    smoothness_order: Optional[int] = None

    @property
    def verdict(self) -> str:
        verdicts = [c.verdict for c in self.checks]
        if any(v == FAIL for v in verdicts):
            return FAIL
        if any(v == INCONCLUSIVE for v in verdicts):
            return INCONCLUSIVE
        return PASS

    def lines(self) -> list[str]:
        out = [f"regime {self.regime} ({self.regime_name}): {self.verdict}"]
        for c in self.checks:
            val = "" if c.value is None else f" [{c.value:.6g}]"
            out.append(f"  {c.name}: {c.verdict}{val} — {c.detail}")
        if self.integrability is not None:
            out.extend("  " + line for line in self.integrability.lines())
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _smoothness_check(agents: AgentSet, order: int,
                      name: str) -> tuple[Check, Optional[SmoothnessReport]]:
    budgets = [m.max_derivative_order - 2 for m in agents.members]
    short = [i for i, b in enumerate(budgets) if b < order]
    if short:
        # a member that declares fewer aversion derivatives than the
        # regime needs cannot be certified, whatever its profile could give
        return Check(name, FAIL, (
            f"member(s) {short} declare aversion derivatives only up to "
            f"order(s) {[budgets[i] for i in short]}, below {order}")), None
    rep = check_smoothness(agents, order)
    worst = float(rep.aversion_sup.max()) if rep.aversion_sup.size else 0.0
    if rep.declared_unbounded.any():
        members = np.flatnonzero(rep.declared_unbounded)
        verdict, detail = FAIL, (
            f"member(s) {list(members)} declare unbounded aversion "
            f"derivatives")
    elif rep.growing.any():
        members = np.flatnonzero(rep.growing)
        verdict, detail = INCONCLUSIVE, (
            f"derivative suprema of member(s) {list(members)} keep growing "
            f"through radius {rep.radii[-1]:g}")
    else:
        verdict, detail = PASS, (
            f"sup of |a| derivatives up to order {order} stabilized over "
            f"radii {rep.radii}")
    return Check(name, verdict, detail, worst), rep


def _integrability_check(model: MarketModel, agents: AgentSet,
                         mode: str) -> tuple[Check, IntegrabilityReport]:
    rep = check_integrability(model, agents, mode=mode)
    margin = max(rep.log_estimates) if rep.log_estimates else 0.0
    if rep.verdict == PASS:
        check = Check(f"{mode} moment", PASS,
                      "exponential moments stabilized at every probe power",
                      margin)
    else:
        check = Check(f"{mode} moment", FAIL,
                      "moment ladder diverged for some probe power", margin)
    return check, rep


def _payoff_slope_check(model: MarketModel) -> Check:
    payoffs = (model.endowment,) + model.dividends
    missing, unbounded, unknown = [], [], []
    worst = 0.0
    for p in payoffs:
        try:
            p.derivative(0.0)
        except UnsupportedPayoffError:
            missing.append(p.label)
            continue
        worst = max(worst, p.lipschitz_constant())
        flag = getattr(p, "slope_bounded", None)
        if flag is False:
            unbounded.append(p.label)
        elif flag is None:
            unknown.append(p.label)
    if missing:
        return Check("payoff slopes", FAIL,
                     f"no slope available for {missing}", None)
    if unbounded:
        return Check("payoff slopes", FAIL,
                     f"slope unbounded for {unbounded}", worst)
    if unknown:
        return Check("payoff slopes", INCONCLUSIVE,
                     f"slope bound undeclared for {unknown}; grid "
                     f"Lipschitz estimate only", worst)
    return Check("payoff slopes", PASS,
                 "every payoff has a bounded (Lipschitz) slope", worst)


def check_regime(agents: AgentSet, model: MarketModel,
                 which: int) -> ConditionReport:
    """Evaluate the hypotheses of one existence regime; report-valued."""
    if which not in REGIME_NAMES:
        raise ValueError(f"regime must be one of {sorted(REGIME_NAMES)}")

    if which == 1:
        order = smoothness_index(agents.size, model.n_dividends)
        sm_check, sm = _smoothness_check(
            agents, order, f"aversion smoothness (order {order})")
        im_check, im = _integrability_check(model, agents, "baseline")
        return ConditionReport(
            regime=1, regime_name=REGIME_NAMES[1],
            checks=(sm_check, im_check), smoothness=sm, integrability=im,
            smoothness_order=order)

    if which == 2:
        if agents.all_exponential:
            fam = Check("constant aversion family", PASS,
                        "every member has constant absolute risk aversion")
        else:
            other = [i for i, s in enumerate(agents.members)
                     if s.family != "exponential"]
            fam = Check("constant aversion family", FAIL,
                        f"member(s) {other} are not constant-aversion")
        im_check, im = _integrability_check(model, agents, "exponential")
        return ConditionReport(
            regime=2, regime_name=REGIME_NAMES[2],
            checks=(fam, im_check), integrability=im)

    sm_check, sm = _smoothness_check(agents, 1, "aversion slope bound")
    slope_check = _payoff_slope_check(model)
    im_check, im = _integrability_check(model, agents, "strong")
    return ConditionReport(
        regime=3, regime_name=REGIME_NAMES[3],
        checks=(sm_check, slope_check, im_check), smoothness=sm,
        integrability=im, smoothness_order=1)


def check_all_regimes(agents: AgentSet, model: MarketModel) -> tuple:
    return tuple(check_regime(agents, model, k) for k in (1, 2, 3))


# --------------------------------------------------------------------------
# flow functionals


@dataclass(frozen=True)
class FunctionalSamples:
    """L/M/N samples on (time x grid) lattices; nan marks skipped points.

    The per-time supremum rows and their trapezoidal time aggregates
    witness the time-integrated versions of the conditions without
    claiming to prove them.
    """

    times: np.ndarray
    bound: float
    l_values: np.ndarray       # (T, G_dual)
    m_values: np.ndarray       # (T, G_primal)
    n_values: np.ndarray       # (T, G_primal)
    l_skipped: int
    m_skipped: int
    n_skipped: int

    def _sup(self, values: np.ndarray) -> np.ndarray:
        if values.shape[1] == 0:
            return np.zeros(values.shape[0])
        with np.errstate(all="ignore"):
            out = np.where(np.all(np.isnan(values), axis=1), np.nan,
                           np.nanmax(values, axis=1))
        return out

    @property
    def l_sup(self) -> np.ndarray:
        return self._sup(self.l_values)

    @property
    def m_sup(self) -> np.ndarray:
        return self._sup(self.m_values)

    @property
    def n_sup(self) -> np.ndarray:
        return self._sup(self.n_values)

    def _aggregate(self, sup: np.ndarray) -> float:
        good = ~np.isnan(sup)
        if good.sum() < 2:
            return float("nan")
        return float(np.trapezoid(sup[good], self.times[good]))

    @property
    def l_aggregate(self) -> float:
        return self._aggregate(self.l_sup)

    @property
    def m_aggregate(self) -> float:
        return self._aggregate(self.m_sup)

    @property
    def n_aggregate(self) -> float:
        return self._aggregate(self.n_sup)


def _dual_load(agents, model, rule, t, level, utilities, positions, bound):
    """L over a (utilities, positions) grid; nan outside the box or where
    the state is unreachable."""
    values = np.full(utilities.shape[0], np.nan)
    member = (np.all(utilities >= -bound, axis=1)
              & np.all(utilities < 0.0, axis=1)
              & np.all(np.abs(positions) <= bound, axis=1))
    idx = np.flatnonzero(member)
    if idx.size:
        u = utilities[idx]
        coef = coefficient_rows(
            agents, model, rule, t, np.broadcast_to(level, (idx.size,)), u,
            positions[idx]).coefficient
        load = np.sum((coef / u) ** 2, axis=1)
        values[idx] = load / (1.0 + np.sum(np.abs(np.log(-u)), axis=1))
    return values, int(np.isnan(values).sum())


def _primal_loads(agents, model, rule, t, level, weights, cash, positions,
                  bound):
    """M and N over a (weights, cash, positions) grid; nan outside the box
    or where the field leaves double precision."""
    g = weights.shape[0]
    m_values = np.full(g, np.nan)
    n_values = np.full(g, np.nan)
    if g == 0:
        return m_values, n_values, 0, 0
    out = field_core(agents, model, rule, t, np.broadcast_to(level, (g,)),
                     weights, cash, positions, order=2, with_integrand=True)
    value_v, value_x = out["value_v"], out["value_x"]
    h_v = out["integrand_v"]
    scale = 1.0 + np.abs(cash)
    keep = out["finite"] & np.all(np.abs(positions) <= bound, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = keep & np.all(value_v >= -bound, axis=1)
        m = np.sum((h_v / value_v) ** 2, axis=1) / scale
        m_values[ok] = m[ok]
        ok = keep & np.all(value_x[:, None] <= bound * weights, axis=1)
        n = np.sum((weights * h_v) ** 2, axis=1) / (scale * value_x**2)
        n_values[ok] = n[ok]
    return (m_values, n_values,
            int(np.isnan(m_values).sum()), int(np.isnan(n_values).sum()))


def eval_functionals(agents: AgentSet, model: MarketModel,
                     rule: QuadratureRule, times: Sequence[float],
                     dual_grid=None, primal_grid=None,
                     b: Optional[float] = None,
                     level: float = 0.0) -> FunctionalSamples:
    """Sample the three flow functionals over time x state lattices.

    dual_grid is (utilities (G1, M), positions (G1, J)) and feeds L;
    primal_grid is (weights (G2, M), cash (G2,), positions (G2, J)) and
    feeds M and N.  Points outside the admissible boxes — and dual
    points no conjugate state reaches — are skipped and counted.  The
    box half-width b defaults to the largest grid position plus the
    agents' aversion band constant.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("need a one-dimensional, non-empty time grid")

    if dual_grid is not None:
        du = np.atleast_2d(np.asarray(dual_grid[0], dtype=float))
        dq = np.atleast_2d(np.asarray(dual_grid[1], dtype=float))
    else:
        du = np.empty((0, agents.size))
        dq = np.empty((0, model.n_dividends))
    if primal_grid is not None:
        pv = np.atleast_2d(np.asarray(primal_grid[0], dtype=float))
        px = np.atleast_1d(np.asarray(primal_grid[1], dtype=float))
        pq = np.atleast_2d(np.asarray(primal_grid[2], dtype=float))
    else:
        pv = np.empty((0, agents.size))
        px = np.empty(0)
        pq = np.empty((0, model.n_dividends))

    if b is None:
        q_extent = max((float(np.abs(a).max()) for a in (dq, pq) if a.size),
                       default=0.0)
        b = q_extent + agents.c

    l_rows, m_rows, n_rows = [], [], []
    l_skip = m_skip = n_skip = 0
    for t in times:
        lv, ls = _dual_load(agents, model, rule, float(t), level, du, dq, b)
        mv, nv, ms, ns = _primal_loads(agents, model, rule, float(t), level,
                                       pv, px, pq, b)
        l_rows.append(lv)
        m_rows.append(mv)
        n_rows.append(nv)
        l_skip += ls
        m_skip += ms
        n_skip += ns
    return FunctionalSamples(
        times=times, bound=float(b),
        l_values=np.array(l_rows), m_values=np.array(m_rows),
        n_values=np.array(n_rows),
        l_skipped=l_skip, m_skipped=m_skip, n_skipped=n_skip)
