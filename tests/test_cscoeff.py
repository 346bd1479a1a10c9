import hashlib
import math
import random

import numpy as np
import pytest

from symrkn.cscoeff import (
    AlphaMatrix,
    build_expansion,
    build_order2,
    build_order4,
    build_order6,
    build_symmetric_general,
    check_CN,
    check_DN,
    check_symmetry_cs,
    eval_Abar,
    order_estimate,
    xi,
)
from symrkn.errors import (
    DegreeOverflowError,
    ExpansionConstraintError,
    SymmetryViolationError,
)
from symrkn.integrator import global_error_study
from symrkn.legendre import MAX_DEGREE
from symrkn.problems import kepler_2d
from symrkn.quadrature import gauss_rule
from symrkn.tableau import SEARCH_CAP, SEARCH_TOL, classical_order_bound, discretize


def largest_eta(m: AlphaMatrix) -> int:
    """Largest eta (capped) whose CN conditions all hold at search tolerance."""
    eta = 1
    while eta < SEARCH_CAP and check_CN(m, eta + 1).residuals[-1] < SEARCH_TOL:
        eta += 1
    return eta


def largest_zeta(m: AlphaMatrix) -> int:
    """Largest zeta (capped) whose DN conditions all hold at search tolerance."""
    zeta = 1
    while zeta < SEARCH_CAP and check_DN(m, zeta + 1).residuals[-1] < SEARCH_TOL:
        zeta += 1
    return zeta

S3 = math.sqrt(3.0)
S5 = math.sqrt(5.0)
S7 = math.sqrt(7.0)

# the canonical antisymmetric pair and the level-one moment targets
A01 = -S3 / 12
GAMMA_STAR = S5 / 60


def test_xi_closed_form():
    for iota in (1, 2, 3, 5):
        assert xi(iota) == pytest.approx(
            1.0 / (2.0 * math.sqrt(4.0 * iota**2 - 1.0)), abs=1e-16
        )


def test_builders_place_coefficients():
    m2 = build_order2(0.25)
    assert m2.alpha[0, 0] == 0.25
    assert m2.alpha[0, 1] == pytest.approx(A01, abs=1e-16)
    assert m2.alpha[1, 0] == pytest.approx(-A01, abs=1e-16)

    m4 = build_order4(-1 / 12, 0.2, 0.3)
    assert m4.alpha[0, 0] == pytest.approx(1 / 6)
    assert m4.alpha[1, 1] == pytest.approx(-1 / 12)
    assert m4.alpha[0, 2] == 0.2
    assert m4.alpha[2, 0] == 0.3

    m6 = build_order6(0.7)
    assert m6.alpha[0, 0] == pytest.approx(1 / 6)
    assert m6.alpha[1, 1] == pytest.approx(-0.1)
    assert m6.alpha[0, 2] == pytest.approx(GAMMA_STAR)
    assert m6.alpha[2, 0] == pytest.approx(GAMMA_STAR)
    assert m6.alpha[2, 2] == 0.7


def test_symmetry_identity_pointwise():
    # Abar(tau,sigma) - Abar(1-tau,1-sigma) = tau - sigma for every member
    rng = random.Random(7)
    members = [
        build_order2(0.4),
        build_order4(0.11, -0.2, 0.35),
        build_order6(-0.05),
        build_expansion(3, 3),
        build_symmetric_general({(2, 2): 0.5, (1, 3): -0.25, (3, 1): -0.25}),
    ]
    for m in members:
        for _ in range(20):
            tau, sigma = rng.random(), rng.random()
            lhs = eval_Abar(m, tau, sigma) - eval_Abar(m, 1 - tau, 1 - sigma)
            assert lhs == pytest.approx(tau - sigma, abs=1e-13)
        assert check_symmetry_cs(m)


def test_symmetry_check_rejects_odd_terms():
    m = build_order4(0.0, 0.1, 0.1)
    a = np.array(m.alpha)
    a[1, 2] = 1e-6  # odd-sum index breaks the reflection identity
    assert not check_symmetry_cs(AlphaMatrix(a))
    a = np.array(m.alpha)
    a[0, 1] = 0.0
    assert not check_symmetry_cs(AlphaMatrix(a))
    # a constant Abar has no antisymmetric pair to carry tau - sigma
    assert not check_symmetry_cs(AlphaMatrix(np.array([[0.5]])))


def test_cn_level_one_depends_only_on_gamma():
    rng = random.Random(21)
    for _ in range(8):
        alpha = rng.uniform(-1, 1)
        beta = rng.uniform(-1, 1)
        rep = check_CN(build_order4(alpha, beta, GAMMA_STAR), 2)
        assert rep.ok and rep.max_residual < 1e-15
        gamma = GAMMA_STAR + rng.uniform(0.01, 0.5)
        rep = check_CN(build_order4(alpha, beta, gamma), 2)
        assert not rep.ok
        assert rep.max_residual == pytest.approx(abs(gamma - GAMMA_STAR), rel=1e-12)


def test_dn_level_one_depends_only_on_beta():
    rng = random.Random(22)
    for _ in range(8):
        alpha = rng.uniform(-1, 1)
        gamma = rng.uniform(-1, 1)
        rep = check_DN(build_order4(alpha, GAMMA_STAR, gamma), 2)
        assert rep.ok and rep.max_residual < 1e-15
        beta = GAMMA_STAR - rng.uniform(0.01, 0.5)
        rep = check_DN(build_order4(alpha, beta, gamma), 2)
        assert not rep.ok
        assert rep.max_residual == pytest.approx(abs(beta - GAMMA_STAR), rel=1e-12)


def test_order2_dn_residual_value():
    # the level-one target has a degree-2 component the order-2 family lacks
    rep = check_DN(build_order2(1 / 6), 2)
    assert not rep.ok
    assert rep.max_residual == pytest.approx(GAMMA_STAR, abs=1e-15)


def test_second_level_needs_cubic_term():
    # kappa = 2 targets carry a degree-3 component; two-degree families
    # always miss it by sqrt(7)/840, so level 2 cannot close
    for m in (build_order4(-0.1, GAMMA_STAR, GAMMA_STAR), build_order6(0.0)):
        rep = check_CN(m, 3)
        assert not rep.ok
        assert rep.residuals[0] < 1e-15
        assert rep.residuals[1] == pytest.approx(S7 / 840, abs=1e-15)
        rep = check_DN(m, 3)
        assert not rep.ok
        assert rep.residuals[1] == pytest.approx(S7 / 840, abs=1e-15)


@pytest.mark.parametrize("eta", [1, 2, 3])
@pytest.mark.parametrize("zeta", [1, 2, 3])
def test_expansion_satisfies_requested_levels(eta, zeta):
    m = build_expansion(eta, zeta)
    rep_cn = check_CN(m, eta)
    rep_dn = check_DN(m, zeta)
    assert rep_cn.ok and rep_cn.max_residual < 1e-12
    assert rep_dn.ok and rep_dn.max_residual < 1e-12
    assert check_symmetry_cs(m)
    assert largest_eta(m) >= eta
    assert largest_zeta(m) >= zeta


def test_expansion_known_low_cases():
    # (1,1) adds nothing beyond the canonical base
    m11 = build_expansion(1, 1)
    m2 = build_order2(1 / 6)
    assert m11.alpha.shape == m2.alpha.shape
    np.testing.assert_allclose(m11.alpha, m2.alpha, atol=1e-16)
    # (2,2) is the beta = gamma = sqrt(5)/60 member with no diagonal term
    m22 = build_expansion(2, 2)
    ref = build_order4(0.0, GAMMA_STAR, GAMMA_STAR)
    np.testing.assert_allclose(m22.alpha, ref.alpha, atol=1e-15)


def test_expansion_levels_are_sharp():
    m = build_expansion(3, 3)
    assert largest_eta(m) == 3
    assert largest_zeta(m) == 3
    m = build_expansion(3, 1)
    assert largest_eta(m) == 3
    assert largest_zeta(m) == 1


def test_expansion_omega_block_constraint():
    with pytest.raises(ExpansionConstraintError):
        build_expansion(2, 2, {(0, 0): 0.5})
    with pytest.raises(ExpansionConstraintError):
        build_expansion(3, 3, {(1, 2): 0.1})
    # allowed corner: adds a term without disturbing the requested levels
    m = build_expansion(2, 2, {(2, 2): 0.4})
    assert m.alpha[2, 2] == pytest.approx(0.4)
    assert check_CN(m, 2).ok and check_DN(m, 2).ok


def test_alpha_matrix_rejections():
    with pytest.raises(ValueError, match="2-d matrix"):
        AlphaMatrix(np.zeros(3))
    with pytest.raises(DegreeOverflowError, match=r"shape \(14, 2\)"):
        AlphaMatrix(np.zeros((MAX_DEGREE + 2, 2)))
    with pytest.raises(ValueError, match="finite"):
        AlphaMatrix(np.array([[0.5, math.nan]]))


def test_degrees_past_the_legendre_table_are_rejected():
    for index in ((MAX_DEGREE + 1, 5), (5, MAX_DEGREE + 1)):
        with pytest.raises(DegreeOverflowError, match=f"exceeds degree {MAX_DEGREE}"):
            build_expansion(2, 2, {index: 0.1})
    m = build_order4(0.0, 0.0, 0.0)
    # level MAX_DEGREE + 1 checks kappa up to MAX_DEGREE, the last the table holds
    assert check_CN(m, MAX_DEGREE + 1).residuals
    for level in (MAX_DEGREE + 2, 15):
        with pytest.raises(DegreeOverflowError, match=f"eta {level} exceeds"):
            check_CN(m, level)
        with pytest.raises(DegreeOverflowError, match=f"zeta {level} exceeds"):
            check_DN(m, level)


def test_expansion_rejects_bad_levels():
    with pytest.raises(ValueError):
        build_expansion(0, 1)
    with pytest.raises(ValueError):
        build_expansion(1, -2)


def test_symmetric_general_rejections():
    with pytest.raises(SymmetryViolationError):
        build_symmetric_general({(1, 2): 0.1})
    with pytest.raises(SymmetryViolationError):
        build_symmetric_general({(0, 1): 0.1})
    with pytest.raises(SymmetryViolationError):
        build_symmetric_general({(-1, 1): 0.1})
    with pytest.raises(DegreeOverflowError):
        build_symmetric_general({(14, 0): 0.1})


def test_builder_and_checker_agree_on_every_index():
    # build_symmetric_general takes a value at exactly the indices where
    # check_symmetry_cs lets the base's entry move
    for i in range(MAX_DEGREE + 1):
        for j in range(MAX_DEGREE + 1):
            a = np.zeros((max(i, 1) + 1, max(j, 1) + 1))
            a[0, 0], a[0, 1], a[1, 0] = 1 / 6, A01, -A01
            a[i, j] += 0.1
            try:
                m = build_symmetric_general({(i, j): 0.1})
            except SymmetryViolationError:
                m = None
            assert (m is not None) == check_symmetry_cs(AlphaMatrix(a)), (i, j)
            assert m is None or check_symmetry_cs(m), (i, j)


def test_eval_abar_against_direct_sum():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, size=(4, 3))
    m = AlphaMatrix(a)
    from symrkn.legendre import eval_legendre

    for tau, sigma in [(0.0, 1.0), (0.3, 0.7), (0.5, 0.5), (0.9, 0.1)]:
        direct = sum(
            a[i, j] * eval_legendre(i, tau) * eval_legendre(j, sigma)
            for i in range(4)
            for j in range(3)
        )
        assert eval_Abar(m, tau, sigma) == pytest.approx(direct, abs=1e-14)


def test_order_estimate_examples():
    m4 = build_order4(-1 / 12, GAMMA_STAR, GAMMA_STAR)
    assert m4.deg_tau == 2 and m4.deg_sigma == 2
    # full resolution: min(4, 6, 4)
    assert order_estimate(m4, 2, 2, 4) == 4
    # a degree-2 function under a degree-1-exact rule loses resolution
    assert order_estimate(m4, 2, 2, 2) == 2
    m6 = build_order6(0.0)
    assert order_estimate(m6, 3, 3, 6) == 6
    assert order_estimate(m6, 3, 3, 4) == 4
    # one-sided levels cap the sum term
    assert order_estimate(m4, 2, 1, 4) == 3
    assert order_estimate(m4, 1, 1, 4) == 2


# step counts per period by the even order a family must reach: finer for
# order 2, whose slope on 16-128 steps is still 1.85, coarser for orders 6
# and 8, which reach rounding on finer grids
ORDER_GRIDS = {2: (32, 64, 128, 256), 4: (16, 32, 64, 128), 6: (8, 16, 32, 64), 8: (8, 16, 32, 64)}
# measured slopes on those grids: 1.990 (order 2), 3.970-4.362 (4),
# 5.917-6.018 (6), 8.021 (8); the largest shortfall, 0.083, sets the margin
ORDER_MARGIN = 0.25


@pytest.mark.parametrize("zeta", [1, 2, 3, 4])
@pytest.mark.parametrize("eta", [1, 2, 3, 4])
def test_expansion_families_converge_at_the_next_even_order(eta, zeta):
    # the smallest Gauss rule whose order_estimate reaches min(2 eta + 2,
    # eta + zeta); the discretized family is symmetric, so its order is
    # even (Hairer, Lubich and Wanner, Geometric Numerical Integration,
    # II.3) and an odd estimate converges at the next even order, which
    # classical_order_bound reports
    m = build_expansion(eta, zeta)
    target = min(2 * eta + 2, eta + zeta)
    s = next(s for s in range(1, 11) if order_estimate(m, eta, zeta, 2 * s) >= target)
    estimate = order_estimate(m, eta, zeta, 2 * s)
    even = 2 * math.ceil(estimate / 2)
    tab = discretize(m, gauss_rule(s))
    assert classical_order_bound(tab).bound == even
    period = 2 * math.pi
    study = global_error_study(
        tab, kepler_2d(0.3), period, [period / n for n in ORDER_GRIDS[even]]
    )
    assert np.isfinite(study.error).all()
    assert study.slope >= even - ORDER_MARGIN, (estimate, study.slope)


def test_condition_report_is_truthy():
    rep = check_CN(build_order4(0.0, 0.0, GAMMA_STAR), 2)
    assert bool(rep) is True
    rep = check_CN(build_order4(0.0, 0.0, 0.0), 2)
    assert bool(rep) is False


# sha256 over the float64 bytes of every check_CN/check_DN report below,
# residuals then max_residual; it pins the moment-check bits against any
# change in how the monomial-to-Legendre table is built
MOMENT_CHECK_DIGEST = "f299c8690408ff0cef42f7189034489a553412591a606cda8b8ce8fe4695df8b"


def _pinned_families():
    families = [build_order2(a) for a in (-0.5, 0.0, 1 / 6, 0.25, 1.0)]
    families += [build_order6(a) for a in (-0.1, 0.0, 0.05, 0.7)]
    rng = random.Random(13)
    families += [
        build_order4(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        for _ in range(24)
    ]
    families += [build_order4(-1 / 12, GAMMA_STAR, GAMMA_STAR)]
    families += [build_expansion(e, z) for e in range(1, 9) for z in range(1, 9)]
    return families


def _moment_check_digest():
    h = hashlib.sha256()
    for m in _pinned_families():
        for level in range(1, MAX_DEGREE + 2):
            for rep in (check_CN(m, level), check_DN(m, level)):
                h.update(np.array(rep.residuals + (rep.max_residual,)).tobytes())
    return h.hexdigest()


def test_moment_check_bits_are_pinned():
    assert _moment_check_digest() == MOMENT_CHECK_DIGEST
