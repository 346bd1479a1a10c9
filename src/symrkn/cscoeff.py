"""Continuous-stage coefficient functions Abar(tau, sigma) as Legendre double series.

An AlphaMatrix holds the coefficients of
Abar(tau, sigma) = sum alpha[i, j] * P_i(tau) * P_j(sigma)
under the canonical companion choices B = 1, C = tau, Bbar = 1 - tau.
Builders produce the symmetric order-2/4/6 families and the general
moment-condition expansion; checkers verify the moment conditions and the
symmetry structure in Legendre coefficient space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegreeOverflowError,
    ExpansionConstraintError,
    SymmetryViolationError,
)
from .legendre import MAX_DEGREE, default_transform, eval_legendre_all

SQRT5 = math.sqrt(5.0)

#: Residual threshold for a definite pass of a single condition.
CHECK_TOL = 1e-12


def xi(iota: int) -> float:
    """The recurring constant xi_iota = 1 / (2 sqrt(4 iota^2 - 1))."""
    return 0.5 / math.sqrt(4.0 * iota * iota - 1.0)


@dataclass(frozen=True)
class AlphaMatrix:
    """Coefficient matrix of a continuous-stage RKN family.

    alpha[i, j] multiplies P_i(tau) * P_j(sigma); deg_tau and deg_sigma are
    the polynomial degrees of Abar in each argument.
    """

    alpha: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        arr = np.array(self.alpha, dtype=float)
        if arr.ndim != 2:
            raise ValueError("alpha must be a 2-d matrix")
        if arr.shape[0] - 1 > MAX_DEGREE or arr.shape[1] - 1 > MAX_DEGREE:
            raise DegreeOverflowError(
                f"alpha of shape {arr.shape} exceeds degree {MAX_DEGREE}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("alpha entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "alpha", arr)

    @property
    def deg_tau(self) -> int:
        return self.alpha.shape[0] - 1

    @property
    def deg_sigma(self) -> int:
        return self.alpha.shape[1] - 1


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a moment-condition check; truthy iff it passed."""

    ok: bool
    max_residual: float
    residuals: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.ok


def _symmetric_base() -> dict[tuple[int, int], float]:
    # tau - sigma = xi_1 (P_1(tau) - P_1(sigma)) fixes this antisymmetric pair
    q = 0.5 * xi(1)
    return {(0, 1): -q, (1, 0): q}


def _materialize(entries: dict[tuple[int, int], float], label: str) -> AlphaMatrix:
    m = max(i for i, _ in entries)
    n = max(j for _, j in entries)
    alpha = np.zeros((m + 1, n + 1))
    for (i, j), value in entries.items():
        alpha[i, j] += value
    return AlphaMatrix(alpha, label)


def build_order2(alpha: float) -> AlphaMatrix:
    """One-parameter symmetric family of order 2."""
    entries = _symmetric_base()
    entries[(0, 0)] = alpha
    entries.setdefault((1, 1), 0.0)
    return _materialize(entries, f"order2(alpha={alpha!r})")


def build_order4(alpha: float, beta: float, gamma: float) -> AlphaMatrix:
    """Three-parameter symmetric family of order 4."""
    entries = _symmetric_base()
    entries[(0, 0)] = 1.0 / 6.0
    entries[(1, 1)] = alpha
    entries[(0, 2)] = beta
    entries[(2, 0)] = gamma
    entries.setdefault((2, 2), 0.0)
    return _materialize(
        entries, f"order4(alpha={alpha!r}, beta={beta!r}, gamma={gamma!r})"
    )


def build_order6(alpha: float) -> AlphaMatrix:
    """One-parameter symmetric family of order 6."""
    entries = _symmetric_base()
    entries[(0, 0)] = 1.0 / 6.0
    entries[(1, 1)] = -0.1
    entries[(0, 2)] = SQRT5 / 60.0
    entries[(2, 0)] = SQRT5 / 60.0
    entries[(2, 2)] = alpha
    return _materialize(entries, f"order6(alpha={alpha!r})")


def build_symmetric_general(
    extra: dict[tuple[int, int], float], label: str = ""
) -> AlphaMatrix:
    """Symmetric family with arbitrary even-index entries.

    extra maps (i, j) with i + j even and i + j > 1 to coefficient values;
    a (0, 0) entry may be supplied and defaults to 1/6.  The antisymmetric
    (0,1)/(1,0) pair is fixed by the symmetry condition and cannot be set.
    """
    entries = _symmetric_base()
    entries[(0, 0)] = 1.0 / 6.0
    for (i, j), value in extra.items():
        if i < 0 or j < 0:
            raise SymmetryViolationError(f"negative index ({i}, {j})")
        if i > MAX_DEGREE or j > MAX_DEGREE:
            raise DegreeOverflowError(f"index ({i}, {j}) exceeds degree {MAX_DEGREE}")
        if (i, j) == (0, 0):
            entries[(0, 0)] = value
            continue
        if (i + j) % 2 == 1 or i + j <= 1:
            raise SymmetryViolationError(
                f"index ({i}, {j}) is not free in a symmetric family"
            )
        entries[(i, j)] = value
    entries.setdefault((1, 1), 0.0)
    return _materialize(entries, label or f"symmetric_general({len(extra)} entries)")


def build_expansion(
    eta: int, zeta: int, omega: dict[tuple[int, int], float] | None = None
) -> AlphaMatrix:
    """Family satisfying the CN(eta) and DN(zeta) moment conditions.

    Assembles the structured Legendre expansion whose three coupled sums run
    to N1 = max(eta-3, zeta-1), N2 = max(eta-2, zeta-2), N3 = max(eta-1, zeta-3),
    plus free omega[(i, j)] terms restricted to i >= zeta-1 and j >= eta-1.
    """
    if eta < 1 or zeta < 1:
        raise ValueError("eta and zeta must be >= 1")
    omega = omega or {}
    entries = _symmetric_base()
    entries[(0, 0)] = 1.0 / 6.0
    n1 = max(eta - 3, zeta - 1)
    n2 = max(eta - 2, zeta - 2)
    n3 = max(eta - 1, zeta - 3)
    for iota in range(1, n1 + 1):
        entries[(iota - 1, iota + 1)] = entries.get((iota - 1, iota + 1), 0.0) + xi(
            iota
        ) * xi(iota + 1)
    for iota in range(1, n2 + 1):
        entries[(iota, iota)] = entries.get((iota, iota), 0.0) - (
            xi(iota) ** 2 + xi(iota + 1) ** 2
        )
    for iota in range(1, n3 + 1):
        entries[(iota + 1, iota - 1)] = entries.get((iota + 1, iota - 1), 0.0) + xi(
            iota
        ) * xi(iota + 1)
    for (i, j), value in omega.items():
        if i < zeta - 1 or j < eta - 1:
            raise ExpansionConstraintError(
                f"omega index ({i}, {j}) inside the constrained block "
                f"(needs i >= {zeta - 1}, j >= {eta - 1})"
            )
        if i > MAX_DEGREE or j > MAX_DEGREE:
            raise DegreeOverflowError(f"index ({i}, {j}) exceeds degree {MAX_DEGREE}")
        entries[(i, j)] = entries.get((i, j), 0.0) + value
    mat = _materialize(entries, f"expansion(eta={eta}, zeta={zeta})")
    if mat.deg_tau > MAX_DEGREE or mat.deg_sigma > MAX_DEGREE:
        raise DegreeOverflowError("expansion exceeds the supported degree")
    return mat


def eval_Abar_grid(m: AlphaMatrix, tau, sigma) -> np.ndarray:
    """Abar on the grid tau x sigma: entry [k, l] is Abar(tau[k], sigma[l]).

    This is the one evaluator of Abar; eval_Abar is its 1 x 1 case.  The
    summation order is fixed: for each tau-degree i, the inner sum over the
    sigma-degree j runs in ascending j from 0.0, and the outer sum over i
    runs in ascending i from 0.0.  Only elementwise operations are used (no
    matrix product, which may reorder or fuse the sums), so every grid
    entry has the bits of the pointwise double loop at that point.  When
    tau is sigma (discretize's node grid) one recurrence serves both sides.
    """
    if tau is sigma:
        p = eval_legendre_all(max(m.deg_tau, m.deg_sigma), np.asarray(tau, dtype=float))
        pt, ps = p[: m.deg_tau + 1], p[: m.deg_sigma + 1]
    else:
        pt = eval_legendre_all(m.deg_tau, np.asarray(tau, dtype=float))
        ps = eval_legendre_all(m.deg_sigma, np.asarray(sigma, dtype=float))
    acc = 0.0  # acc[i, l] = sum over j of alpha[i, j] * P_j(sigma[l])
    for j, p in enumerate(ps):
        acc = acc + m.alpha[:, j, None] * p
    total = 0.0
    for i, p in enumerate(pt):
        total = total + p[:, None] * acc[i]
    return total


def eval_Abar(m: AlphaMatrix, tau: float, sigma: float) -> float:
    """Pointwise value of Abar(tau, sigma): the 1 x 1 case of eval_Abar_grid,
    with its fixed summation order."""
    return float(eval_Abar_grid(m, [tau], [sigma])[0, 0])


@functools.cache
def _moment_rhs(kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """Legendre coefficients of the right-hand sides of the kappa-th CN and
    DN conditions, built once per kappa."""
    table = default_transform()
    cn = table[:, kappa + 1] / (kappa * (kappa + 1.0))
    return cn, cn - table[:, 1] / kappa + table[:, 0] / (kappa + 1.0)


def _cn_residual(m: AlphaMatrix, kappa: int) -> float:
    """Max Legendre-coefficient residual of the kappa-th CN condition."""
    table = default_transform()
    lhs = np.zeros(table.shape[0])
    lhs[: m.deg_tau + 1] = m.alpha @ table[: m.deg_sigma + 1, kappa - 1]
    return float(np.maximum.reduce(np.abs(lhs - _moment_rhs(kappa)[0])))


def _dn_residual(m: AlphaMatrix, kappa: int) -> float:
    """Max Legendre-coefficient residual of the kappa-th DN condition."""
    table = default_transform()
    lhs = np.zeros(table.shape[0])
    lhs[: m.deg_sigma + 1] = m.alpha.T @ table[: m.deg_tau + 1, kappa - 1]
    return float(np.maximum.reduce(np.abs(lhs - _moment_rhs(kappa)[1])))


def _report(residuals: list[float]) -> ConditionReport:
    worst = max(residuals) if residuals else 0.0
    return ConditionReport(worst < CHECK_TOL, worst, tuple(residuals))


def check_CN(m: AlphaMatrix, eta: int) -> ConditionReport:
    """Check the CN(eta) moment conditions (kappa = 1, ..., eta-1)."""
    if eta - 1 > MAX_DEGREE:
        raise DegreeOverflowError(f"eta {eta} exceeds the supported range")
    return _report([_cn_residual(m, kappa) for kappa in range(1, eta)])


def check_DN(m: AlphaMatrix, zeta: int) -> ConditionReport:
    """Check the DN(zeta) moment conditions (kappa = 1, ..., zeta-1)."""
    if zeta - 1 > MAX_DEGREE:
        raise DegreeOverflowError(f"zeta {zeta} exceeds the supported range")
    return _report([_dn_residual(m, kappa) for kappa in range(1, zeta)])


def check_symmetry_cs(m: AlphaMatrix, tol: float = 1e-13) -> bool:
    """True iff the coefficients satisfy the symmetric-family conditions.

    Symmetry of the induced method is equivalent to
    Abar(tau, sigma) - Abar(1-tau, 1-sigma) = tau - sigma, which in
    coefficients reads alpha[0,1] = -sqrt(3)/12, alpha[1,0] = +sqrt(3)/12,
    and alpha[i,j] = 0 whenever i + j is odd and > 1.
    """
    q = 0.5 * xi(1)
    a = m.alpha
    if m.deg_sigma < 1 or m.deg_tau < 1:
        return False
    if abs(a[0, 1] + q) > tol or abs(a[1, 0] - q) > tol:
        return False
    for i in range(m.deg_tau + 1):
        for j in range(m.deg_sigma + 1):
            if (i + j) % 2 == 1 and i + j > 1 and abs(a[i, j]) > tol:
                return False
    return True


def order_estimate(m: AlphaMatrix, eta: int, zeta: int, p: int) -> int:
    """Order lower bound min(p, 2a+2, a+b) for a discretization of order p.

    a = min(eta, p - deg_sigma + 1) and b = min(zeta, p - deg_tau + 1)
    account for the quadrature resolving the polynomial degrees of Abar.
    """
    a = min(eta, p - m.deg_sigma + 1)
    b = min(zeta, p - m.deg_tau + 1)
    return min(p, 2 * a + 2, a + b)
