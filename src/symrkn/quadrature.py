"""Gauss-Legendre and Gauss-Lobatto quadrature rules on [0, 1]."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedStageCountError

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITERS = 100

GAUSS_MIN_S, GAUSS_MAX_S = 1, 10
LOBATTO_MIN_S, LOBATTO_MAX_S = 2, 10


@dataclass(frozen=True)
class QuadratureRule:
    """An interpolatory quadrature rule on [0, 1].

    c holds the nodes in ascending order, b the matching weights with
    sum(b) = 1, and order is the largest p with exact moments
    sum b_i c_i^(kappa-1) = 1/kappa for all kappa <= p.
    """

    kind: str
    s: int
    c: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    order: int = 0

    def __post_init__(self):
        self.c.flags.writeable = False
        self.b.flags.writeable = False


def _legendre_pair(n: int, t: float) -> tuple[float, float]:
    """Value of the degree-n Legendre polynomial on [-1, 1] and its predecessor."""
    p_prev, p = 1.0, t
    for m in range(1, n):
        p_prev, p = p, ((2 * m + 1) * t * p - m * p_prev) / (m + 1)
    return p, p_prev


def _newton_root(func, start: float) -> float:
    t = start
    for _ in range(_NEWTON_MAX_ITERS):
        value, slope = func(t)
        dt = value / slope
        t -= dt
        if abs(dt) <= _NEWTON_TOL:
            return t
    return t


def _symmetrize(c: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average each node/weight with its mirror, then renormalize sum(b) = 1."""
    c = 0.5 * (c + (1.0 - c[::-1]))
    b = 0.5 * (b + b[::-1])
    b = b / b.sum()
    excess = b.sum() - 1.0
    if excess != 0.0:
        s = len(b)
        if s % 2 == 1:
            b[s // 2] -= excess
        else:
            b[s // 2 - 1] -= excess / 2.0
            b[s // 2] -= excess / 2.0
    return c, b


def gauss_rule(s: int) -> QuadratureRule:
    """Gauss-Legendre rule with s nodes, order 2s.

    Nodes are the roots of the degree-s Legendre polynomial, found by
    Newton iteration from Chebyshev initial guesses and mapped to [0, 1].
    """
    if not (GAUSS_MIN_S <= s <= GAUSS_MAX_S):
        raise UnsupportedStageCountError(
            f"gauss rule needs {GAUSS_MIN_S} <= s <= {GAUSS_MAX_S}, got {s}"
        )

    def poly(t):
        p, p_prev = _legendre_pair(s, t)
        slope = s * (t * p - p_prev) / (t * t - 1.0)
        return p, slope

    roots = np.empty(s)
    weights = np.empty(s)
    for i in range(1, s + 1):
        t = _newton_root(poly, math.cos(math.pi * (4 * i - 1) / (4 * s + 2)))
        _, slope = poly(t)
        roots[i - 1] = t
        weights[i - 1] = 2.0 / ((1.0 - t * t) * slope * slope)
    order = np.argsort(roots)
    c = 0.5 * (roots[order] + 1.0)
    b = 0.5 * weights[order]
    c, b = _symmetrize(c, b)
    return QuadratureRule("gauss", s, c, b, 2 * s)


def lobatto_rule(s: int) -> QuadratureRule:
    """Gauss-Lobatto rule with s nodes including both endpoints, order 2s - 2."""
    if not (LOBATTO_MIN_S <= s <= LOBATTO_MAX_S):
        raise UnsupportedStageCountError(
            f"lobatto rule needs {LOBATTO_MIN_S} <= s <= {LOBATTO_MAX_S}, got {s}"
        )
    n = s - 1

    def dpoly(t):
        p, p_prev = _legendre_pair(n, t)
        first = n * (t * p - p_prev) / (t * t - 1.0)
        second = (2.0 * t * first - n * (n + 1) * p) / (1.0 - t * t)
        return first, second

    roots = np.empty(s)
    roots[0], roots[-1] = -1.0, 1.0
    for i in range(1, s - 1):
        # interior nodes are the critical points of the degree-n polynomial
        roots[i] = _newton_root(dpoly, math.cos(math.pi * i / n))
    roots[1 : s - 1] = np.sort(roots[1 : s - 1])
    weights = np.empty(s)
    for i, t in enumerate(roots):
        p, _ = _legendre_pair(n, t)
        weights[i] = 2.0 / (s * n * p * p)
    c = 0.5 * (roots + 1.0)
    b = 0.5 * weights
    c, b = _symmetrize(c, b)
    return QuadratureRule("lobatto", s, c, b, 2 * s - 2)
