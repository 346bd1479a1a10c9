"""Bit identity of the derive-and-verify path.

One sha256 covers a fixed set of families discretized on the 19 Gauss
(s = 1..10) and Lobatto (s = 2..10) rules.  Per (family, rule) pair it
hashes the rkn-tableau/1 text, the reprs of the symmetry deviation and the
symplecticity residual, the OrderBound fields and the CN/DN residual
tuples.  A change to discretize, the verifiers or the interchange format
that is meant to keep the numbers must reproduce the digest; one that
alters them on purpose re-records it with

    PYTHONPATH=src python tests/test_derive_bits.py

and says why.

The one-pass search of check_simplifying_discrete is also checked against
the per-kappa loop it replaced, kept here as an oracle.
"""

import hashlib

import numpy as np

from symrkn.cscoeff import (
    build_expansion,
    build_order2,
    build_order4,
    build_order6,
    check_CN,
    check_DN,
)
from symrkn.legendre import eval_legendre
from symrkn.quadrature import gauss_rule, lobatto_rule
from symrkn.tableau import (
    NAMED_METHODS,
    SEARCH_CAP,
    SEARCH_TOL,
    RknTableau,
    check_simplifying_discrete,
    classical_order_bound,
    discretize,
    dumps_tableau,
    is_symmetric,
    is_symplectic,
    named_tableau,
)

# (family, eta, zeta): the CN/DN levels checked for it
FAMILIES = (
    (build_order2(0.1), 3, 3),
    (build_order4(-0.1, 0.02, 0.03), 3, 3),
    (build_order4(0.2, -0.15, -0.15), 3, 3),  # beta = gamma: symplectic
    (build_order6(0.0), 3, 3),
    (build_expansion(6, 6), 6, 6),
    (build_expansion(2, 4), 2, 4),
)

RULES = tuple(gauss_rule(s) for s in range(1, 11)) + tuple(
    lobatto_rule(s) for s in range(2, 11)
)

DERIVE_DIGEST = "207ca75a51979c9542b6239f2f63314b905340bb263767d31d202373ed7f5b47"


def derive_digest() -> str:
    h = hashlib.sha256()
    for m, eta, zeta in FAMILIES:
        cn, dn = check_CN(m, eta), check_DN(m, zeta)
        for rule in RULES:
            t = discretize(m, rule)
            ob = classical_order_bound(t)
            h.update(dumps_tableau(t).encode())
            h.update(repr(is_symmetric(t)[1]).encode())
            h.update(repr(is_symplectic(t)[1]).encode())
            h.update(repr((ob.bound, ob.weights_consistent, ob.xi, ob.eta, ob.zeta)).encode())
            h.update(repr((cn.residuals, dn.residuals)).encode())
    return h.hexdigest()


def test_derivation_bits_are_pinned():
    assert derive_digest() == DERIVE_DIGEST


def _b_residual(t, kappa):
    return abs(float(t.b @ t.c ** (kappa - 1)) - 1.0 / kappa)


def _cn_residual(t, kappa):
    lhs = t.a_bar @ t.c ** (kappa - 1)
    rhs = t.c ** (kappa + 1) / (kappa * (kappa + 1.0))
    return float(np.abs(lhs - rhs).max())


def _dn_residual(t, kappa):
    lhs = (t.b * t.c ** (kappa - 1)) @ t.a_bar
    rhs = t.b * (
        t.c ** (kappa + 1) / (kappa * (kappa + 1.0))
        - t.c / kappa
        + 1.0 / (kappa + 1.0)
    )
    return float(np.abs(lhs - rhs).max())


def per_kappa_search(t, tol=SEARCH_TOL):
    """(xi, eta, zeta, max_residual) one kappa at a time, each search
    stopping at its first failing kappa."""
    worst = 0.0

    def degree(residual, start):
        nonlocal worst
        for kappa in range(1, SEARCH_CAP - start + 1):
            r = residual(t, kappa)
            if r >= tol:
                return start + kappa - 1
            worst = max(worst, r)
        return SEARCH_CAP

    xi = degree(_b_residual, 0)
    eta = degree(_cn_residual, 1)
    zeta = degree(_dn_residual, 1)
    return xi, eta, zeta, worst


def _search_cases():
    cases = [discretize(m, rule) for m, _, _ in FAMILIES for rule in RULES]
    cases += [named_tableau(name) for name in NAMED_METHODS]
    # here the largest residual that holds depends on c^2, which numpy's
    # square and pow round differently
    cases.append(discretize(build_order6(0.25), gauss_rule(4)))
    # (13, 6, 6); a 1e-6 multiple of P_3 on the nodes is orthogonal to the
    # powers c^0..c^2 under the rule, so each search below first fails at
    # kappa = 4, and a constant offset makes it fail at kappa = 1
    t = discretize(build_expansion(6, 6), gauss_rule(8))
    bump = 1e-6 * eval_legendre(3, t.c)
    ones = np.ones(t.s)
    for a_bar, b in (
        (t.a_bar, t.b * (1.0 + bump)),  # B
        (t.a_bar, t.b * (1.0 + 1e-6)),
        (t.a_bar + np.outer(ones, t.b * bump), t.b),  # CN; DN fails at 1
        (t.a_bar + np.outer(bump, ones), t.b),  # DN; CN fails at 1
    ):
        cases.append(RknTableau(t.s, t.c, a_bar, t.b_bar, b))
    # one stage at c = 0 (or 1) with a_bar = 0 meets every CN (or DN)
    # condition, so that search never fails; also at the tolerated endpoints
    for c0 in (0.0, -1e-12):
        cases.append(RknTableau(1, [c0], [[0.0]], [0.5], [1.0]))
    for c1 in (1.0, 1.0 + 1e-12):
        cases.append(RknTableau(1, [c1], [[0.0]], [0.0], [1.0]))
    d = named_tableau("diagsymp")
    c = [-1e-12, 0.5, 1.0 + 1e-12]
    cases.append(RknTableau(3, c, d.a_bar, d.b_bar, d.b))
    return cases


def test_one_pass_search_matches_the_per_kappa_oracle():
    seen = set()
    for t in _search_cases():
        xi, eta, zeta, worst = per_kappa_search(t)
        got = check_simplifying_discrete(t)
        assert (got.xi, got.eta, got.zeta) == (xi, eta, zeta), t.label
        assert abs(got.max_residual - worst) <= 4 * np.spacing(worst), t.label
        seen |= {("xi", xi), ("eta", eta), ("zeta", zeta)}
    # every search failed first at kappa = 1, at kappa = 4, and never
    for name, first_fail in (("xi", 0), ("eta", 1), ("zeta", 1)):
        for kappa in (1, 4):
            assert (name, first_fail + kappa - 1) in seen, (name, kappa)
        assert (name, SEARCH_CAP) in seen, name


if __name__ == "__main__":
    print(f'DERIVE_DIGEST = "{derive_digest()}"')
