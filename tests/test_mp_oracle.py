"""Quadrature rules and discretize against a 50-digit mpmath oracle.

The oracle shares no arithmetic with the library.  Its nodes are all roots
of the classical Legendre polynomial (Gauss) or of its derivative (Lobatto
interior), found by mpmath.polyroots from the exact integer coefficients,
so they do not depend on any starting guess.  Its weights come from the
closed forms, and its Legendre values from mpmath.legendre.

Tolerances are fixed from float64 (eps = 2**-52):
- nodes and weights lie in [0, 1] and the weights sum to 1, so both are
  compared on the scale of 1, within 2 eps (measured against itself, an
  end weight of Gauss-9, about 0.04, is 17 ulp off);
- a_bar[i, j] = b_j Abar(c_i, c_j) is compared with the 50-digit value at
  the same float nodes, within 4 eps times b_j sum |alpha_pq P_p(c_i) P_q(c_j)|,
  the size of the terms the float sum adds up.
"""

import math

import mpmath
import pytest
from family_params import FAMILY_PARAMS
from mpmath import mp, mpf

from symrkn.cscoeff import build_expansion, build_order2, build_order4, build_order6
from symrkn.quadrature import gauss_rule, lobatto_rule
from symrkn.tableau import discretize

EPS = 2.0**-52
DPS = 50


def _legendre_coefficients(n):
    """Classical Legendre P_n on [-1, 1], highest power first, as mpf."""
    coeffs = [mpf(0)] * (n + 1)
    for k in range(n // 2 + 1):
        num = (-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n)
        coeffs[2 * k] = mpf(num) / mpf(2) ** n
    return coeffs


def _derivative(coeffs):
    n = len(coeffs) - 1
    return [a * (n - i) for i, a in enumerate(coeffs[:-1])]


def _real_roots(coeffs):
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
    assert all(abs(mpmath.im(r)) < mpf(10) ** (-DPS + 5) for r in roots)
    return sorted(mpmath.re(r) for r in roots)


def _gauss_oracle(s):
    p = _legendre_coefficients(s)
    dp = _derivative(p)
    x = _real_roots(p)
    w = [2 / ((1 - t * t) * mpmath.polyval(dp, t) ** 2) for t in x]
    return [(t + 1) / 2 for t in x], [v / 2 for v in w]


def _lobatto_oracle(s):
    n = s - 1
    p = _legendre_coefficients(n)
    interior = _real_roots(_derivative(p)) if n > 1 else []
    x = [mpf(-1)] + interior + [mpf(1)]
    w = [mpf(2) / (n * (n + 1) * mpmath.polyval(p, t) ** 2) for t in x]
    return [(t + 1) / 2 for t in x], [v / 2 for v in w]


CASES = [("gauss", s) for s in range(1, 11)] + [("lobatto", s) for s in range(2, 11)]
RULE = {"gauss": (gauss_rule, _gauss_oracle), "lobatto": (lobatto_rule, _lobatto_oracle)}


@pytest.mark.parametrize("kind,s", CASES, ids=[f"{k}-{s}" for k, s in CASES])
def test_rule_matches_50_digit_nodes_and_weights(kind, s):
    build, oracle = RULE[kind]
    rule = build(s)
    with mp.workdps(DPS):
        c, b = oracle(s)
        assert len(c) == s and all(u < v for u, v in zip(c, c[1:]))
        for got, want in zip(rule.c, c):
            assert abs(mpf(float(got)) - want) <= 2 * EPS
        for got, want in zip(rule.b, b):
            assert abs(mpf(float(got)) - want) <= 2 * EPS


FAMILIES = [
    build_order2(0.3),
    build_order4(*FAMILY_PARAMS["rkn-a"]),
    build_order6(0.123),
    build_expansion(3, 6),
    build_expansion(6, 2),
    build_expansion(7, 7),
]


@pytest.mark.parametrize("kind,s", CASES, ids=[f"{k}-{s}" for k, s in CASES])
def test_discretize_matches_50_digit_abar_at_the_float_nodes(kind, s):
    rule = RULE[kind][0](s)
    deg = max(max(m.alpha.shape) for m in FAMILIES)
    with mp.workdps(DPS):
        nodes = [mpf(float(x)) for x in rule.c]
        weights = [mpf(float(w)) for w in rule.b]
        # orthonormal shifted Legendre P_k(x) = sqrt(2k+1) * classical P_k(2x - 1)
        P = [[mp.sqrt(2 * k + 1) * mpmath.legendre(k, 2 * x - 1) for k in range(deg)]
             for x in nodes]
        for m in FAMILIES:
            a_bar = discretize(m, rule).a_bar
            alpha = [[mpf(float(v)) for v in row] for row in m.alpha]
            for i in range(s):
                for j in range(s):
                    terms = [
                        a * P[i][p] * P[j][q]
                        for p, row in enumerate(alpha)
                        for q, a in enumerate(row)
                    ]
                    want = weights[j] * mp.fsum(terms)
                    size = weights[j] * mp.fsum(abs(t) for t in terms)
                    err = abs(mpf(float(a_bar[i, j])) - want)
                    assert err <= 4 * EPS * size, (m.label, i, j)
