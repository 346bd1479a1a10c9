import math
from fractions import Fraction

import numpy as np
import pytest

from symrkn.errors import DegreeOverflowError
from symrkn.legendre import (
    INTERNAL_DEGREE,
    MAX_DEGREE,
    default_transform,
    eval_legendre,
    eval_legendre_all,
)


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


def monomial_in_legendre(kappa: int) -> np.ndarray:
    """Legendre coefficients of x^(kappa-1), as a (MAX_DEGREE+1)-vector.

    kappa is the moment index: kappa = 1 expands the constant 1, kappa = 2
    expands x, and so on up to x^MAX_DEGREE.
    """
    if kappa < 1 or kappa - 1 > MAX_DEGREE:
        raise DegreeOverflowError(f"moment index {kappa} outside [1, {MAX_DEGREE + 1}]")
    return default_transform()[: MAX_DEGREE + 1, kappa - 1].copy()


def legendre_inner_product(j: int, k: int) -> float:
    """Integral of P_j * P_k over [0, 1], summed exactly over the integer
    monomial coefficients of L_j and L_k, P_k = sqrt(2k+1) L_k."""
    if not (0 <= j <= MAX_DEGREE and 0 <= k <= MAX_DEGREE):
        raise DegreeOverflowError(f"degrees ({j}, {k}) outside [0, {MAX_DEGREE}]")
    c = _integer_coefficients(max(j, k))
    acc = Fraction(0)
    for m in range(j + 1):
        for n in range(k + 1):
            acc += Fraction(c[m][j] * c[n][k], m + n + 1)
    return math.sqrt(2 * j + 1) * math.sqrt(2 * k + 1) * float(acc)


def reflect_parity_check(k: int, x):
    """Return (P_k(1-x), (-1)^k * P_k(x)); the pair agrees identically."""
    return eval_legendre(k, 1.0 - x), (-1.0) ** k * eval_legendre(k, x)


def test_low_degree_closed_forms():
    xs = np.linspace(0.0, 1.0, 9)
    np.testing.assert_allclose(eval_legendre(0, xs), np.ones_like(xs), atol=0.0)
    np.testing.assert_allclose(
        eval_legendre(1, xs), math.sqrt(3.0) * (2 * xs - 1), atol=1e-14
    )
    np.testing.assert_allclose(
        eval_legendre(2, xs), math.sqrt(5.0) * (6 * xs**2 - 6 * xs + 1), atol=1e-13
    )
    np.testing.assert_allclose(
        eval_legendre(3, xs),
        math.sqrt(7.0) * (20 * xs**3 - 30 * xs**2 + 12 * xs - 1),
        atol=1e-13,
    )


def test_matches_classical_basis_under_affine_map():
    # orthonormal shifted polynomial = sqrt(2k+1) * classical P_k at 2x-1
    xs = np.linspace(0.0, 1.0, 11)
    for k in range(MAX_DEGREE + 1):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        ref = math.sqrt(2 * k + 1) * np.polynomial.legendre.legval(2 * xs - 1, coeffs)
        np.testing.assert_allclose(eval_legendre(k, xs), ref, rtol=0, atol=1e-12)


def test_orthonormality_on_unit_interval():
    for j in range(MAX_DEGREE + 1):
        for k in range(MAX_DEGREE + 1):
            want = 1.0 if j == k else 0.0
            assert abs(legendre_inner_product(j, k) - want) < 1e-13


def _x_grid():
    xs = np.random.default_rng(3).uniform(-0.5, 1.5, 200)
    return np.concatenate([xs, [0.0, 0.5, 1.0]])


def test_eval_all_matches_single_eval():
    xs = _x_grid()
    vals = eval_legendre_all(MAX_DEGREE, xs)
    assert len(vals) == MAX_DEGREE + 1
    for k, v in enumerate(vals):
        assert v.tobytes() == eval_legendre(k, xs).tobytes()
        for idx, x in enumerate(xs.tolist()):
            single = eval_legendre(k, x)
            assert type(single) is float
            assert np.float64(single).tobytes() == v[idx].tobytes()


def test_non_finite_points():
    # P_0 is the constant 1; P_2 grows like x^2, so it is +inf at both ends
    for x in (math.inf, -math.inf, math.nan):
        assert eval_legendre(0, x) == 1.0
    assert eval_legendre(1, math.inf) == -eval_legendre(1, -math.inf) == math.inf
    assert eval_legendre(2, math.inf) == eval_legendre(2, -math.inf) == math.inf
    assert math.isnan(eval_legendre(1, math.nan))
    assert math.isnan(eval_legendre(2, math.nan))
    arr = eval_legendre(0, np.array([math.inf, math.nan]))
    assert arr.tolist() == [1.0, 1.0]


def test_eval_all_on_an_array_has_the_pointwise_bits():
    xs = _x_grid()
    for k_max in (0, 1, 2, MAX_DEGREE):
        vals = eval_legendre_all(k_max, xs)
        assert len(vals) == k_max + 1
        for idx, x in enumerate(xs):
            point = eval_legendre_all(k_max, float(x))
            assert all(type(v) is float for v in point)
            at_idx = np.array([v[idx] for v in vals])
            assert at_idx.tobytes() == np.array(point).tobytes()


def test_reflection_parity():
    for k in range(MAX_DEGREE + 1):
        for x in (0.0, 0.123, 0.5, 0.987, 1.0):
            lhs, rhs = reflect_parity_check(k, x)
            assert abs(lhs - rhs) < 1e-11


def test_monomial_expansion_reproduces_powers_pointwise():
    for kappa in range(1, MAX_DEGREE + 2):
        coeffs = monomial_in_legendre(kappa)
        for x in (0.0, 0.25, 0.631, 1.0):
            basis = eval_legendre_all(MAX_DEGREE, x)
            val = float(np.dot(coeffs, basis))
            assert val == pytest.approx(x ** (kappa - 1), abs=5e-13)


def test_transform_is_the_exact_inverse_of_the_integer_coefficients():
    # R[k][n] = (2k+1) * integral of x^n L_k, summed in exact rationals over
    # the monomial coefficients of L_k; C R = I exactly, and the table is the
    # nearest float of R[k][n] divided by sqrt(2k+1), bit for bit
    n = INTERNAL_DEGREE
    c = _integer_coefficients(n)
    r = [
        [
            (2 * k + 1) * sum(Fraction(c[m][k], nn + m + 1) for m in range(k + 1))
            for nn in range(n + 1)
        ]
        for k in range(n + 1)
    ]
    for m in range(n + 1):
        for nn in range(n + 1):
            prod = sum(c[m][k] * r[k][nn] for k in range(n + 1))
            assert prod == (1 if m == nn else 0)
    table = default_transform()
    assert table.shape == (n + 1, n + 1)
    for k in range(n + 1):
        for nn in range(n + 1):
            want = float(r[k][nn]) / math.sqrt(2 * k + 1)
            assert np.float64(want).tobytes() == table[k, nn].tobytes()


def test_monomial_column_is_triangular():
    # x^n only needs degrees <= n
    table = default_transform()
    for n in range(INTERNAL_DEGREE + 1):
        col = table[:, n]
        assert np.all(col[n + 1 :] == 0.0)
        assert col[n] != 0.0


def test_transform_table_is_read_only():
    table = default_transform()
    assert default_transform() is table
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


def test_degree_limits_enforced():
    with pytest.raises(DegreeOverflowError):
        eval_legendre(MAX_DEGREE + 1, 0.5)
    with pytest.raises(DegreeOverflowError):
        eval_legendre(-1, 0.5)
    with pytest.raises(DegreeOverflowError):
        eval_legendre_all(MAX_DEGREE + 1, 0.5)
    with pytest.raises(DegreeOverflowError):
        legendre_inner_product(0, MAX_DEGREE + 1)
    with pytest.raises(DegreeOverflowError):
        monomial_in_legendre(0)
    with pytest.raises(DegreeOverflowError):
        monomial_in_legendre(MAX_DEGREE + 2)
