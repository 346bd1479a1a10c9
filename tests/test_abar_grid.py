"""The grid evaluator of Abar against the pointwise double loop, bit for bit.

discretize evaluates Abar once on the whole c x c node grid.  The reference
below is the pointwise evaluator it replaced: one Legendre recurrence per
point and a Python double loop over the degrees, inner sum over the
sigma-degree j, outer sum over the tau-degree i, both ascending from 0.0.
The grid evaluator promises the same IEEE operations in the same order, so
the bytes must be equal, not merely close.
"""

import random

import numpy as np
import pytest

from symrkn.cscoeff import (
    build_expansion,
    build_order2,
    build_order4,
    build_order6,
    eval_Abar,
    eval_Abar_grid,
)
from symrkn.legendre import eval_legendre_all
from symrkn.quadrature import gauss_rule, lobatto_rule
from symrkn.tableau import discretize


def _abar_pointwise(m, tau, sigma):
    pt = eval_legendre_all(m.deg_tau, tau)
    ps = eval_legendre_all(m.deg_sigma, sigma)
    total = 0.0
    for i in range(m.deg_tau + 1):
        row = m.alpha[i]
        acc = 0.0
        for j in range(m.deg_sigma + 1):
            acc += row[j] * ps[j]
        total += pt[i] * acc
    return total


def _a_bar_pointwise(m, rule):
    s = rule.s
    a_bar = np.zeros((s, s))
    for i in range(s):
        for j in range(s):
            a_bar[i, j] = rule.b[j] * _abar_pointwise(m, rule.c[i], rule.c[j])
    return a_bar


def _families():
    rng = random.Random(20190)
    draw = lambda: rng.uniform(-0.5, 0.5)
    fams = [build_order2(draw()) for _ in range(3)]
    for k in range(4):
        alpha, beta, gamma = draw(), draw(), draw()
        fams.append(build_order4(alpha, beta, beta if k < 2 else gamma))
    fams += [build_order6(draw()) for _ in range(3)]
    fams += [build_expansion(eta, zeta) for eta in range(1, 8) for zeta in range(1, 8)]
    return fams


FAMILIES = _families()
RULES = [gauss_rule(s) for s in range(1, 11)] + [lobatto_rule(s) for s in range(2, 11)]


@pytest.mark.parametrize("rule", RULES, ids=lambda r: f"{r.kind}-{r.s}")
def test_discretize_has_the_bits_of_the_pointwise_loop(rule):
    for m in FAMILIES:
        got = discretize(m, rule).a_bar
        assert got.tobytes() == _a_bar_pointwise(m, rule).tobytes(), m.label


def test_eval_abar_has_the_bits_of_the_pointwise_loop():
    rng = random.Random(7)
    corners = [(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)]
    for m in FAMILIES:
        points = [(rng.random(), rng.random()) for _ in range(40)]
        points += [(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)) for _ in range(10)]
        for tau, sigma in points + corners:
            got = eval_Abar(m, tau, sigma)
            assert type(got) is float
            want = _abar_pointwise(m, tau, sigma)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_grid_rows_follow_tau_and_columns_follow_sigma():
    rng = np.random.default_rng(11)
    tau, sigma = rng.random(7), rng.random(4)
    for m in (FAMILIES[4], build_expansion(6, 3), build_expansion(2, 7)):
        grid = eval_Abar_grid(m, tau, sigma)
        assert grid.shape == (7, 4)
        want = [[_abar_pointwise(m, t, s) for s in sigma] for t in tau]
        assert grid.tobytes() == np.array(want).tobytes()
