"""Gaussian quadrature for one-dimensional normal expectations.

Everything downstream reduces conditional expectations of terminal
functionals to integrals against a standard normal density.  A
``QuadratureRule`` holds nodes and weights normalized so that the rule
integrates f against N(0, 1): sum_i w_i f(xi_i) ~ E[f(Z)].
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

# hermegauss builds rules by Newton refinement of the recurrence; the
# un-normalized polynomial values overflow somewhere past n = 256 and the
# nodes come back NaN.  Rules above this order are refused rather than
# silently wrong.
MAX_STABLE_ORDER = 256
NESTED_START = 32


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for E[f(Z)], Z standard normal.

    Attributes
    ----------
    n : int
        Number of nodes.
    nodes : np.ndarray
        Quadrature nodes on the real line, shape (n,).
    weights : np.ndarray
        Positive weights summing to one, shape (n,).
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss_hermite(cls, n: int) -> "QuadratureRule":
        """Probabilists' Gauss-Hermite rule with n nodes."""
        if n < 1:
            raise ValueError("quadrature rule needs at least one node")
        if n > MAX_STABLE_ORDER:
            raise ValueError(
                f"quadrature order {n} exceeds the stable construction "
                f"limit {MAX_STABLE_ORDER}")
        return _cached_gauss_hermite(int(n))


@functools.lru_cache(maxsize=64)
def _cached_gauss_hermite(n: int) -> QuadratureRule:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, w = hermegauss(n)
    w = w / w.sum()  # exact normalization beats the analytic sqrt(2*pi)
    x.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(n=n, nodes=x, weights=w)


_DEGENERATE = QuadratureRule(n=1, nodes=np.zeros(1), weights=np.ones(1))


def degenerate_rule() -> QuadratureRule:
    """Single-node rule used when the conditioning time equals the horizon."""
    return _DEGENERATE


def nested_orders() -> list[int]:
    """Doubling ladder of node counts for stabilization checks, from
    NESTED_START up to MAX_STABLE_ORDER."""
    orders = []
    n = NESTED_START
    while n <= MAX_STABLE_ORDER:
        orders.append(n)
        n *= 2
    return orders
