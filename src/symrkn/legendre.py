"""Shifted Legendre polynomials on [0, 1] in their orthonormal normalization.

The basis is P_0 = 1, P_1(x) = sqrt(3)(2x - 1), P_2(x) = sqrt(5)(6x^2 - 6x + 1),
..., with integral of P_j * P_k over [0, 1] equal to delta_jk.  P_k =
sqrt(2k+1) * L_k where L_k has integer monomial coefficients.  The
Legendre coefficients of x^n come from the closed form

    integral of x^n L_k over [0, 1] = n!^2 / ((n-k)! (n+k+1)!),  k <= n,

and 0 for k > n, so they are rounded only where that exact rational becomes
a float and where it is divided by sqrt(2k+1).  The tests rebuild the table
from the integer coefficients of L_k in exact rationals, check that it
inverts them exactly, and compare every entry bit for bit.
"""

from __future__ import annotations

import functools
import math

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
        P_k(x), matching the shape of x.  P_0 is 1 at every x, non-finite
        ones included.
    """
    return eval_legendre_all(k, x)[k]


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


@functools.cache
def default_transform() -> np.ndarray:
    """Legendre coefficients of the monomials: a read-only
    (INTERNAL_DEGREE+1)^2 table whose column n holds those of x^n.

    Entry [k, n] is (2k+1) times the integral of x^n L_k over [0, 1],
    divided by sqrt(2k+1).  By Rodrigues' formula and k integrations by
    parts that integral is n!^2 / ((n-k)! (n+k+1)!) for k <= n and 0 for
    k > n, so the table is upper triangular.  The rational factor is one
    int true division, which Python rounds correctly to the nearest float.
    """
    f = math.factorial
    n_max = INTERNAL_DEGREE
    table = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for k in range(n + 1):
            exact = (2 * k + 1) * f(n) ** 2 / (f(n - k) * f(n + k + 1))
            table[k, n] = exact / math.sqrt(2 * k + 1)
    table.flags.writeable = False
    return table
