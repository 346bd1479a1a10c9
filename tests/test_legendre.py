import math

import numpy as np
import pytest

from symrkn.errors import DegreeOverflowError
from symrkn.legendre import (
    MAX_DEGREE,
    default_transform,
    eval_legendre,
    eval_legendre_all,
    legendre_inner_product,
    monomial_in_legendre,
)


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


def test_eval_all_matches_single_eval():
    vals = eval_legendre_all(MAX_DEGREE, 0.37)
    assert len(vals) == MAX_DEGREE + 1
    for k, v in enumerate(vals):
        assert v == pytest.approx(eval_legendre(k, 0.37), abs=1e-13)


def test_eval_all_on_an_array_has_the_pointwise_bits():
    xs = np.random.default_rng(3).uniform(-0.5, 1.5, 200)
    xs = np.concatenate([xs, [0.0, 0.5, 1.0]])
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


def test_monomial_column_is_triangular():
    # x^n only needs degrees <= n
    t = default_transform()
    for n in range(MAX_DEGREE + 1):
        col = t.monomial_column(n)
        assert np.all(col[n + 1 :] == 0.0)
        assert col[n] != 0.0


def test_transform_matrices_are_read_only():
    t = default_transform()
    with pytest.raises(ValueError):
        t.to_legendre[0, 0] = 1.0
    with pytest.raises(ValueError):
        t.to_monomial[0, 0] = 1.0


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
