"""Shifted Legendre polynomials on [0, 1] in their orthonormal normalization.

The basis is P_0 = 1, P_1(x) = sqrt(3)(2x - 1), P_2(x) = sqrt(5)(6x^2 - 6x + 1),
..., with integral of P_j * P_k over [0, 1] equal to delta_jk.  Everything here
rests on the factorization P_k = sqrt(2k+1) * L_k where L_k has integer
monomial coefficients, so inner products and basis changes have an exact
integer/rational backbone and only pick up rounding on the final conversion
to float.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DegreeOverflowError

#: Largest degree the public helpers accept.
MAX_DEGREE = 12

#: Internal headroom: moment checks expand monomials slightly past MAX_DEGREE.
INTERNAL_DEGREE = 14


def eval_legendre(k: int, x):
    """Evaluate the orthonormal shifted Legendre polynomial P_k at x.

    Parameters
    ----------
    k : int
        Degree, 0 <= k <= MAX_DEGREE.
    x : float or ndarray
        Evaluation point(s); values in [0, 1] are the intended domain but
        the recurrence is valid everywhere.

    Returns
    -------
    float or ndarray
        P_k(x), matching the shape of x.
    """
    if k < 0 or k > MAX_DEGREE:
        raise DegreeOverflowError(f"degree {k} outside [0, {MAX_DEGREE}]")
    u = 2.0 * x - 1.0
    prev = x * 0.0 + 1.0
    if k == 0:
        return prev
    cur = math.sqrt(3.0) * u
    for m in range(1, k):
        # three-term recurrence, stable for the orthonormal normalization
        nxt = (math.sqrt(2 * m + 3) / (m + 1)) * (
            math.sqrt(2 * m + 1) * u * cur - (m / math.sqrt(2 * m - 1)) * prev
        )
        prev, cur = cur, nxt
    return cur


def eval_legendre_all(k_max: int, x):
    """Evaluate P_0(x), ..., P_kmax(x) in one recurrence sweep.

    x is a float or an ndarray of points; the result is a list of k_max + 1
    floats or of arrays shaped like x.  Every point goes through the same
    IEEE operations in the same order, so an array entry has the bits of
    the float result at that point.
    """
    if k_max < 0 or k_max > MAX_DEGREE:
        raise DegreeOverflowError(f"degree {k_max} outside [0, {MAX_DEGREE}]")
    u = 2.0 * x - 1.0
    out = [np.ones_like(u) if isinstance(u, np.ndarray) else 1.0]
    if k_max == 0:
        return out
    out.append(math.sqrt(3.0) * u)
    for m in range(1, k_max):
        out.append(
            (math.sqrt(2 * m + 3) / (m + 1))
            * (math.sqrt(2 * m + 1) * u * out[m] - (m / math.sqrt(2 * m - 1)) * out[m - 1])
        )
    return out


def _integer_coefficients(n: int) -> list[list[int]]:
    """Monomial coefficients of L_k = P_k / sqrt(2k+1), exact integers.

    Returns C with C[m][k] = coefficient of x^m in L_k, namely
    (-1)^(k-m) * C(k, m) * C(k+m, m).
    """
    c = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        for m in range(k + 1):
            c[m][k] = (-1) ** (k - m) * math.comb(k, m) * math.comb(k + m, m)
    return c


class MonomialLegendreTransform:
    """Basis change between monomial and orthonormal Legendre coefficients.

    Attributes
    ----------
    max_degree : int
        Highest polynomial degree covered (at least 12).
    to_legendre : ndarray
        (max_degree+1)^2 matrix; column n holds the Legendre coefficients
        of x^n.  Lower triangular.
    to_monomial : ndarray
        Inverse map; column k holds the monomial coefficients of P_k.
        Upper triangular.

    The two matrices are nearest-float images of exact rational matrices
    whose product is verified to be the identity during construction.
    """

    def __init__(self, max_degree: int = MAX_DEGREE):
        if max_degree < MAX_DEGREE:
            raise DegreeOverflowError(f"max_degree must be >= {MAX_DEGREE}")
        self.max_degree = max_degree
        n = max_degree
        c = _integer_coefficients(n)
        # r[k][n] = (2k+1) * integral of x^n * L_k, exact rationals
        r = [
            [
                (2 * k + 1) * sum(Fraction(c[m][k], nn + m + 1) for m in range(k + 1))
                for nn in range(n + 1)
            ]
            for k in range(n + 1)
        ]
        for m in range(n + 1):
            for nn in range(n + 1):
                prod = sum(c[m][k] * r[k][nn] for k in range(min(m, nn), n + 1))
                if prod != (1 if m == nn else 0):
                    raise ArithmeticError("exact basis-change inverse check failed")
        scale = [math.sqrt(2 * k + 1) for k in range(n + 1)]
        self._c = c
        to_mon = np.zeros((n + 1, n + 1))
        to_leg = np.zeros((n + 1, n + 1))
        for k in range(n + 1):
            for m in range(n + 1):
                to_mon[m, k] = scale[k] * c[m][k]
                to_leg[k, m] = float(r[k][m]) / scale[k]
        to_mon.flags.writeable = False
        to_leg.flags.writeable = False
        self.to_monomial = to_mon
        self.to_legendre = to_leg

    def inner_product(self, j: int, k: int) -> float:
        """Integral of P_j * P_k over [0, 1], computed on the exact path."""
        if not (0 <= j <= self.max_degree and 0 <= k <= self.max_degree):
            raise DegreeOverflowError(f"degrees ({j}, {k}) outside [0, {self.max_degree}]")
        c = self._c
        acc = Fraction(0)
        for m in range(j + 1):
            cm = c[m][j]
            if cm == 0:
                continue
            for nn in range(k + 1):
                acc += Fraction(cm * c[nn][k], m + nn + 1)
        return math.sqrt(2 * j + 1) * math.sqrt(2 * k + 1) * float(acc)

    def monomial_column(self, power: int) -> np.ndarray:
        """Legendre coefficients of x^power (read-only view of one column)."""
        if not (0 <= power <= self.max_degree):
            raise DegreeOverflowError(f"power {power} outside [0, {self.max_degree}]")
        return self.to_legendre[:, power]


_default: MonomialLegendreTransform | None = None


def default_transform() -> MonomialLegendreTransform:
    """Shared transform instance with INTERNAL_DEGREE headroom."""
    global _default
    if _default is None:
        _default = MonomialLegendreTransform(INTERNAL_DEGREE)
    return _default


def legendre_inner_product(j: int, k: int) -> float:
    """Integral of P_j * P_k over [0, 1]."""
    if not (0 <= j <= MAX_DEGREE and 0 <= k <= MAX_DEGREE):
        raise DegreeOverflowError(f"degrees ({j}, {k}) outside [0, {MAX_DEGREE}]")
    return default_transform().inner_product(j, k)


def monomial_in_legendre(kappa: int) -> np.ndarray:
    """Legendre coefficients of x^(kappa-1), as a (MAX_DEGREE+1)-vector.

    kappa is the moment index: kappa = 1 expands the constant 1, kappa = 2
    expands x, and so on up to x^MAX_DEGREE.
    """
    if kappa < 1 or kappa - 1 > MAX_DEGREE:
        raise DegreeOverflowError(f"moment index {kappa} outside [1, {MAX_DEGREE + 1}]")
    return default_transform().monomial_column(kappa - 1)[: MAX_DEGREE + 1].copy()
