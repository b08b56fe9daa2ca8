"""Dealer utility functions with bounded absolute risk aversion.

Each market maker carries a utility u on the real line that is strictly
increasing, strictly concave, tends to 0 at +infinity, and whose absolute
risk aversion a(x) = -u''(x)/u'(x) stays inside [1/c, c] for a shared
constant c >= 1.  Two families are supported:

* ``exponential``: u(x) = -exp(-a*x)/a, constant risk aversion a.  All
  derivatives are closed form.
* ``risk_aversion``: the utility is reconstructed from a prescribed
  aversion profile a(.) by integrating
      u'(x) = exp(-int_0^x a(s) ds),   u(x) = -int_x^inf u'(s) ds,
  which pins the normalization u'(0) = 1.

For the reconstructed family the integrated aversion I(x) = int_0^x a is
cached on a dense uniform grid and interpolated with a monotone cubic
Hermite scheme whose node slopes are the analytic a(x); the improper
integral defining u is completed beyond a cutoff with the one-term
asymptotic -u'(x)/a(x).

Each cell's cubic (of I, and of u below the cutoff) is held in power form
in t = (x - x_nodes[k]) / h, built over the width the cell's rounded nodes
give it, so neighbouring cells meet at their node.  The inverse of I
searches the node values once (side="right": a node value returns its
node), runs Newton on t and returns x_nodes[k] + t*h, so x -> I(x) -> x
is good to an ulp of max(|x|, h).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import Polynomial


class UtilityError(ValueError):
    pass


class UnsupportedOrderError(UtilityError):
    """A derivative order beyond the member's declared budget was requested."""


class InvalidRiskAversionError(UtilityError):
    """The prescribed aversion profile leaves [1/c, c] on the probe grid."""


# ---------------------------------------------------------------------------
# risk-aversion profiles


class ConstantAversion:
    """a(x) = level."""

    order = 64
    bounded = True

    def __init__(self, level: float):
        if level <= 0:
            raise InvalidRiskAversionError("aversion level must be positive")
        self.level = float(level)

    def derivatives(self, x, order: int = 0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros((order + 1,) + x.shape)
        out[0] = self.level
        return out


class TanhAversion:
    """a(x) = base + amplitude * tanh(scale * x).

    Derivatives of every order are polynomials in tanh(scale*x), generated by
    the recursion P_{n+1} = P_n' * (1 - t^2); all of them are bounded.
    """

    order = 64
    bounded = True

    def __init__(self, base: float, amplitude: float, scale: float = 1.0):
        if base - abs(amplitude) <= 0:
            raise InvalidRiskAversionError("tanh aversion must stay positive")
        self.base = float(base)
        self.amplitude = float(amplitude)
        self.scale = float(scale)
        self._polys = [Polynomial([1.0, 0.0, -1.0])]  # d tanh = 1 - t^2

    def _poly(self, n: int) -> Polynomial:
        # polynomial P_n with d^n/dy^n tanh(y) = P_n(tanh y), n >= 1
        while len(self._polys) < n:
            p = self._polys[-1]
            self._polys.append(p.deriv() * Polynomial([1.0, 0.0, -1.0]))
        return self._polys[n - 1]

    def derivatives(self, x, order: int = 0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = np.tanh(self.scale * x)
        out = np.empty((order + 1,) + x.shape)
        out[0] = self.base + self.amplitude * t
        for k in range(1, order + 1):
            out[k] = self.amplitude * self.scale ** k * self._poly(k)(t)
        return out


class SinSquareAversion:
    """a(x) = base + amplitude * sin((scale*x)^2).

    The oscillation frequency grows with |x|, so every derivative of a is
    unbounded; the profile is used to exercise diagnostics that must flag
    non-stabilizing derivative bounds.
    """

    order = 16
    bounded = False

    def __init__(self, base: float, amplitude: float, scale: float = 1.0):
        if base - abs(amplitude) <= 0:
            raise InvalidRiskAversionError("sin-square aversion must stay positive")
        self.base = float(base)
        self.amplitude = float(amplitude)
        self.scale = float(scale)
        # d/dx [P sin(u) + Q cos(u)] with u = (scale*x)^2:
        #   P <- P' + 2 scale^2 x * ... maintained as polynomial pairs
        self._pairs = [(Polynomial([self.amplitude]), Polynomial([0.0]))]

    def _pair(self, n: int):
        s2 = self.scale ** 2
        du = Polynomial([0.0, 2.0 * s2])
        while len(self._pairs) <= n:
            p, q = self._pairs[-1]
            self._pairs.append((p.deriv() - q * du, q.deriv() + p * du))
        return self._pairs[n]

    def derivatives(self, x, order: int = 0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = (self.scale * x) ** 2
        su, cu = np.sin(u), np.cos(u)
        out = np.empty((order + 1,) + x.shape)
        for k in range(order + 1):
            p, q = self._pair(k)
            out[k] = p(x) * su + q(x) * cu
        out[0] += self.base
        return out


# ---------------------------------------------------------------------------
# dense-grid tables for reconstructed utilities

_GL_X, _GL_W = leggauss(7)

# the table grid spans [-TABLE_HALFWIDTH, TABLE_HALFWIDTH] in steps of
# TABLE_STEP; utility values are tabulated up to TABLE_TAIL_CUTOFF and
# continued by their asymptotic tail beyond it
TABLE_HALFWIDTH, TABLE_STEP, TABLE_TAIL_CUTOFF = 120.0, 0.0025, 40.0


def _power_cells(x_nodes, h, y, slope):
    """Cubic Hermite cells through (x_nodes, y) with slopes dy/dx, as a
    (4, n_cells) array whose row j is the coefficient of t**j in
    t = (x - x_nodes[k]) / h.

    The rounded nodes lie up to an ulp of the grid's edge off x0 + k*h,
    so cell k ends at t = w = (x_nodes[k+1] - x_nodes[k]) / h, not at 1,
    and is built over that width: neighbouring cells meet at their node.
    """
    w = np.diff(x_nodes) / h
    dy = np.diff(y)
    d0, d1 = h * slope[:-1], h * slope[1:]
    return np.stack([y[:-1], d0, (3.0 * dy - (2.0 * d0 + d1) * w) / w**2,
                     ((d0 + d1) * w - 2.0 * dy) / w**3])


@dataclass(eq=False)
class _Tables:
    x0: float
    h: float
    x_nodes: np.ndarray      # x0 + k*h rounded, the origin of cell k's t (not x0 + (k+t)*h)
    i_nodes: np.ndarray      # integrated aversion, I(0) = 0
    a_nodes: np.ndarray      # analytic aversion at the nodes (= I')
    u_nodes: np.ndarray      # utility values on nodes up to the tail cutoff
    n_tail: int              # node index of the tail cutoff
    tail_cutoff: float

    @cached_property
    def i_cells(self) -> np.ndarray:
        """(4, n_cells) power-form cubics of I on every cell."""
        return _power_cells(self.x_nodes, self.h, self.i_nodes, self.a_nodes)

    @cached_property
    def u_cells(self) -> np.ndarray:
        """(4, n_tail) power-form cubics of u below the tail cutoff."""
        top = self.n_tail + 1
        return _power_cells(self.x_nodes[:top], self.h, self.u_nodes,
                            np.exp(-self.i_nodes[:top]))

    def _interpolate(self, cells, xq):
        # end cells extend beyond the grid; fmax/fmin send NaN to cell 0
        idx = np.floor((xq - self.x0) / self.h)
        idx = np.fmin(np.fmax(idx, 0.0), cells.shape[1] - 1).astype(np.int64)
        t = (xq - self.x_nodes[idx]) / self.h
        c0, c1, c2, c3 = cells.take(idx, axis=1)
        return c0 + t * (c1 + t * (c2 + t * c3))

    def integrated(self, xq):
        """Interpolated I(x) with linear continuation outside the grid."""
        xq = np.asarray(xq, dtype=float)
        val = self._interpolate(self.i_cells, xq)
        lo = xq < self.x_nodes[0]
        hi = xq > self.x_nodes[-1]
        if lo.any():
            val = np.where(lo, self.i_nodes[0] + self.a_nodes[0] * (xq - self.x_nodes[0]), val)
        if hi.any():
            val = np.where(hi, self.i_nodes[-1] + self.a_nodes[-1] * (xq - self.x_nodes[-1]), val)
        return val

    def inverse_integrated(self, target):
        """Solve I(x) = target for x (I is strictly increasing)."""
        target = np.asarray(target, dtype=float)
        # a target beyond the grid is polished at the grid's end, then
        # continued linearly; the interior nodes give the cell directly
        r = np.clip(target, self.i_nodes[0], self.i_nodes[-1])
        idx = np.searchsorted(self.i_nodes[1:-1], r, side="right")
        c0, c1, c2, c3 = self.i_cells.take(idx, axis=1)
        r = r - c0
        t = r / (c1 + c2 + c3)      # cell-linear seed, error ~ |a'| h^2/8
        for _ in range(2):
            b2 = c2 + t * c3        # I = c0 + t*b1, dI/dt = b1 + t*(b2 + t*c3)
            b1 = c1 + t * b2
            t -= (t * b1 - r) / (b1 + t * (b2 + t * c3))
        x = self.x_nodes[idx] + t * self.h
        lo = target < self.i_nodes[0]
        hi = target >= self.i_nodes[-1]
        if lo.any():
            x = np.where(lo, self.x_nodes[0] + (target - self.i_nodes[0]) / self.a_nodes[0], x)
        if hi.any():
            x = np.where(hi, self.x_nodes[-1] + (target - self.i_nodes[-1]) / self.a_nodes[-1], x)
        return x

    def value(self, xq, aversion):
        """u(x): Hermite on the stored nodes, asymptotic tails outside."""
        xq = np.asarray(xq, dtype=float)
        val = self._interpolate(self.u_cells, xq)
        hi = xq >= self.tail_cutoff
        if hi.any():
            a_hi = aversion.derivatives(xq, 0)[0]
            val = np.where(hi, -np.exp(-self.integrated(xq)) / a_hi, val)
        lo = xq < self.x_nodes[0]
        if lo.any():
            a_lo = self.a_nodes[0]
            up_lo = np.exp(-self.i_nodes[0])
            grow = np.expm1(a_lo * (self.x_nodes[0] - np.where(lo, xq, self.x_nodes[0])))
            val = np.where(lo, self.u_nodes[0] - up_lo * grow / a_lo, val)
        return val


def _build_tables(aversion) -> _Tables:
    step = TABLE_STEP
    n_cells = int(round(2 * TABLE_HALFWIDTH / step))
    x_nodes = -TABLE_HALFWIDTH + step * np.arange(n_cells + 1)
    # composite 7-point Gauss-Legendre accumulation of I(x) = int_0^x a,
    # each cell over the width its rounded nodes give it
    mid = 0.5 * (x_nodes[:-1] + x_nodes[1:])
    half = 0.5 * np.diff(x_nodes)
    pts = mid[:, None] + half[:, None] * _GL_X[None, :]
    a_pts = aversion.derivatives(pts.ravel(), 0)[0].reshape(pts.shape)
    cell = half * (a_pts @ _GL_W)
    i_nodes = np.concatenate(([0.0], np.cumsum(cell)))
    i_zero = int(round((0.0 - x_nodes[0]) / step))
    i_nodes = i_nodes - i_nodes[i_zero]
    a_nodes = aversion.derivatives(x_nodes, 0)[0]

    # utility values: integrate u' = exp(-I) downward from the tail cutoff
    n_tail = int(round((TABLE_TAIL_CUTOFF - x_nodes[0]) / step))
    tbl = _Tables(x0=x_nodes[0], h=step, x_nodes=x_nodes, i_nodes=i_nodes,
                  a_nodes=a_nodes, u_nodes=np.empty(0), n_tail=n_tail,
                  tail_cutoff=x_nodes[n_tail])
    pts_u = pts[:n_tail]
    up_pts = np.exp(-tbl.integrated(pts_u.ravel()).reshape(pts_u.shape))
    cell_u = half[:n_tail] * (up_pts @ _GL_W)
    rev = np.concatenate(([0.0], np.cumsum(cell_u[::-1])))[::-1]
    tail = np.exp(-i_nodes[n_tail]) / a_nodes[n_tail]
    tbl.u_nodes = -(rev + tail)
    return tbl


# ---------------------------------------------------------------------------
# specs and agent sets


@dataclass(frozen=True, eq=False)
class UtilitySpec:
    """One dealer's utility: family, validity bound, derivative budget."""

    family: str
    c_bound: float
    max_derivative_order: int
    coefficient: float | None = None
    aversion: object | None = None
    tables: _Tables | None = field(default=None, repr=False)


def exponential_utility(a: float, c_bound: float | None = None,
                        max_order: int = 64) -> UtilitySpec:
    """Constant-aversion utility u(x) = -exp(-a*x)/a."""
    if a <= 0:
        raise InvalidRiskAversionError("exponential coefficient must be positive")
    c = float(c_bound) if c_bound is not None else max(a, 1.0 / a)
    if not (1.0 / c <= a <= c):
        raise InvalidRiskAversionError(
            f"coefficient {a:g} outside [1/c, c] for c={c:g}")
    return UtilitySpec(family="exponential", c_bound=c,
                       max_derivative_order=max_order, coefficient=float(a))


def build_from_risk_aversion(aversion, c_bound: float,
                             max_order: int | None = None) -> UtilitySpec:
    """Reconstruct a utility from its absolute risk aversion profile.

    The profile is validated against [1/c_bound, c_bound] on the table grid;
    leaving the band raises InvalidRiskAversionError.  u'(0) = 1.  The
    derivative budget defaults to all the profile supports, its order + 2.
    """
    c = float(c_bound)
    if c < 1.0:
        raise InvalidRiskAversionError("aversion band requires c >= 1")
    avail = getattr(aversion, "order", 0) + 2
    if max_order is None:
        max_order = avail
    if max_order > avail:
        raise UnsupportedOrderError(
            f"profile supports utility derivatives up to order {avail}")
    tables = _build_tables(aversion)
    slack = 1e-9 * c
    if tables.a_nodes.min() < 1.0 / c - slack or tables.a_nodes.max() > c + slack:
        raise InvalidRiskAversionError(
            f"aversion leaves [{1.0/c:g}, {c:g}] on the probe grid "
            f"(range [{tables.a_nodes.min():g}, {tables.a_nodes.max():g}])")
    if not (np.all(tables.u_nodes < 0.0) and np.all(np.diff(tables.u_nodes) > 0.0)):
        raise InvalidRiskAversionError("reconstructed utility is not negative increasing")
    return UtilitySpec(family="risk_aversion", c_bound=c,
                       max_derivative_order=max_order, aversion=aversion,
                       tables=tables)


@dataclass(frozen=True, eq=False)
class AgentSet:
    """The dealers jointly serving the order flow."""

    members: tuple[UtilitySpec, ...]

    def __post_init__(self):
        if not self.members:
            raise UtilityError("agent set needs at least one member")

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def c(self) -> float:
        """Shared aversion band constant: the widest member bound."""
        return max(m.c_bound for m in self.members)

    @cached_property
    def aversion_at_zero(self) -> np.ndarray:
        return np.array([float(risk_aversion(m, 0.0)[0]) for m in self.members])

    @cached_property
    def all_exponential(self) -> bool:
        return all(m.family == "exponential" for m in self.members)


def agent_set(*specs: UtilitySpec) -> AgentSet:
    return AgentSet(members=tuple(specs))


# ---------------------------------------------------------------------------
# evaluation


def _check_order(spec: UtilitySpec, order: int):
    if order < 0:
        raise UnsupportedOrderError("derivative order must be nonnegative")
    if order > spec.max_derivative_order:
        raise UnsupportedOrderError(
            f"order {order} exceeds declared budget {spec.max_derivative_order}")


def log_marginal(spec: UtilitySpec, x) -> np.ndarray:
    """log u'(x); the reconstruction makes this exactly -I(x)."""
    x = np.asarray(x, dtype=float)
    if spec.family == "exponential":
        return -spec.coefficient * x
    return -spec.tables.integrated(x)


def inverse_log_marginal(spec: UtilitySpec, w) -> np.ndarray:
    """Solve log u'(x) = w for x; u' is a decreasing bijection onto (0, inf)."""
    w = np.asarray(w, dtype=float)
    if spec.family == "exponential":
        return -w / spec.coefficient
    return spec.tables.inverse_integrated(-w)


def utility_value(spec: UtilitySpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if spec.family == "exponential":
        a = spec.coefficient
        return -np.exp(-a * x) / a
    return spec.tables.value(x, spec.aversion)


def eval_utility(spec: UtilitySpec, x, order: int = 0) -> np.ndarray:
    """u and derivatives up to ``order``; shape (order+1,) + shape(x).

    Derivatives of the reconstructed family follow from u' = exp(w) with
    w = -I(x): the k-th derivative of u' is u' times the complete Bell
    polynomial in (w', ..., w^(k)), and w^(j) = -a^(j-1).
    """
    _check_order(spec, order)
    x = np.asarray(x, dtype=float)
    out = np.empty((order + 1,) + x.shape)
    out[0] = utility_value(spec, x)
    if order == 0:
        return out
    if spec.family == "exponential":
        a = spec.coefficient
        up = np.exp(-a * x)
        for k in range(1, order + 1):
            out[k] = (-a) ** (k - 1) * up
        return out
    up = np.exp(-spec.tables.integrated(x))
    if order >= 1:
        out[1] = up
    if order >= 2:
        a_der = spec.aversion.derivatives(x, order - 2)
        bell = [np.ones_like(x)]
        for j in range(1, order):
            acc = np.zeros_like(x)
            for i in range(j):
                acc += comb(j - 1, i) * (-a_der[i]) * bell[j - 1 - i]
            bell.append(acc)
            out[j + 1] = up * acc
    return out


def risk_aversion(spec: UtilitySpec, x, order: int = 0) -> np.ndarray:
    """a(x) = -u''/u' and derivatives up to ``order``."""
    if order > spec.max_derivative_order - 2:
        raise UnsupportedOrderError(
            f"aversion order {order} exceeds budget "
            f"{spec.max_derivative_order - 2}")
    x = np.asarray(x, dtype=float)
    if spec.family == "exponential":
        out = np.zeros((order + 1,) + x.shape)
        out[0] = spec.coefficient
        return out
    return spec.aversion.derivatives(x, order)


def _reciprocal_derivatives(a: np.ndarray, order: int) -> np.ndarray:
    out = np.empty_like(a)
    out[0] = 1.0 / a[0]
    for k in range(1, order + 1):
        acc = np.zeros_like(a[0])
        for j in range(k):
            acc += comb(k, j) * out[j] * a[k - j]
        out[k] = -acc / a[0]
    return out


# ---------------------------------------------------------------------------
# smoothness diagnostics


SMOOTHNESS_RADII = (10.0, 20.0, 40.0)
SMOOTHNESS_STEP = 1e-3
SMOOTHNESS_RTOL = 1e-3


@dataclass(eq=False)
class SmoothnessReport:
    """Suprema of aversion (and risk-tolerance) derivatives on nested radii."""

    order: int
    radii: tuple[float, ...]
    aversion_sup: np.ndarray    # (members, order, radii), orders 1..order
    tolerance_sup: np.ndarray   # (members, order+1, radii), orders 0..order
    growing: np.ndarray         # (members,) non-stabilizing supremum flag
    declared_unbounded: np.ndarray  # (members,) profile declares unbounded derivs

    @property
    def any_growing(self) -> bool:
        return bool(self.growing.any() or self.declared_unbounded.any())

    def sup(self, member: int, k: int) -> float:
        """Largest-radius supremum of |a^(k)| for one member."""
        return float(self.aversion_sup[member, k - 1, -1])


def check_smoothness(agents: AgentSet, order: int) -> SmoothnessReport:
    """Grid suprema of |a^(k)|, k = 1..order, over nested symmetric windows.

    The windows have the SMOOTHNESS_RADII, on a grid of SMOOTHNESS_STEP.  A
    member is flagged as growing when the suprema keep increasing from one
    radius to the next by more than SMOOTHNESS_RTOL, i.e. the windowed
    bounds fail to stabilize.
    """
    radii, step = SMOOTHNESS_RADII, SMOOTHNESS_STEP
    big = radii[-1]
    grid = np.arange(-big, big + step / 2, step)
    nm = agents.size
    a_sup = np.zeros((nm, order, len(radii)))
    t_sup = np.zeros((nm, order + 1, len(radii)))
    growing = np.zeros(nm, dtype=bool)
    declared = np.zeros(nm, dtype=bool)
    for i, spec in enumerate(agents.members):
        a = risk_aversion(spec, grid, order)
        t = _reciprocal_derivatives(a, order)
        for r_idx, r in enumerate(radii):
            mask = np.abs(grid) <= r + step / 2
            a_sup[i, :, r_idx] = np.abs(a[1:, mask]).max(axis=1)
            t_sup[i, :, r_idx] = np.abs(t[:, mask]).max(axis=1)
        for k in range(order):
            s = a_sup[i, k]
            if np.any(s[1:] > s[:-1] * (1.0 + SMOOTHNESS_RTOL) + 1e-12):
                growing[i] = True
        if spec.family != "exponential" and getattr(spec.aversion, "bounded", None) is False:
            declared[i] = True
    return SmoothnessReport(order=order, radii=radii, aversion_sup=a_sup,
                            tolerance_sup=t_sup, growing=growing,
                            declared_unbounded=declared)
