"""Properties of the tableau interchange format and of adjoint, over
random tableaus drawn by hypothesis, and the reversibility of random
members of the symmetric order-4 family.

Each property draws a fixed number of examples from a derandomized
source, so every run checks the same tableaus and keeps no example
database.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrkn.cscoeff import build_order4
from symrkn.integrator import reversibility_test
from symrkn.problems import perturbed_pendulum
from symrkn.quadrature import gauss_rule, lobatto_rule
from symrkn.tableau import (
    RknTableau,
    adjoint,
    discretize,
    dumps_tableau,
    loads_tableau,
    named_tableau,
)

# a failing property makes the hypothesis plugin import libcst to print a
# patch, and libcst's import of mypy_extensions warns of a deprecation
# that pyproject.toml's filters would turn into an internal error
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

EXAMPLES = settings(derandomize=True, database=None, max_examples=100, deadline=None)

# signed zeros, the least and largest subnormals and the least normal, beside
# any finite float: hypothesis draws those too, but not in every run
_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308]


def _entries(low=None, high=None):
    finite = st.floats(low, high, allow_nan=False, allow_infinity=False)
    return st.one_of(st.sampled_from([x for x in _SPECIAL if low is None or low <= x <= high]),
                     finite)


@st.composite
def _tableaus(draw, entries=_entries()):
    """A tableau of 1 to 4 stages: nodes in [0, 1], other entries from
    entries, any label."""
    s = draw(st.integers(1, 4))
    nodes = st.lists(_entries(0.0, 1.0), min_size=s, max_size=s)
    vector = st.lists(entries, min_size=s, max_size=s)
    return RknTableau(
        s,
        np.array(draw(nodes)),
        np.array(draw(st.lists(vector, min_size=s, max_size=s))),
        np.array(draw(vector)),
        np.array(draw(vector)),
        draw(st.text(max_size=8)),
    )


def _fields(t):
    return (t.s, t.label, *(np.asarray(x).tobytes() for x in (t.c, t.a_bar, t.b_bar, t.b)))


@EXAMPLES
@given(_tableaus())
def test_the_interchange_text_keeps_every_bit(t):
    # 17 significant digits round-trip every finite float, -0.0 and the
    # subnormals included
    assert _fields(loads_tableau(dumps_tableau(t))) == _fields(t)


# the largest |adjoint(adjoint(t)) - t| was 2 eps over 20 000 uniform
# random tableaus with entries in [-1, 1], and 1.5 eps over 2 000 examples
# of this strategy; the bound leaves a factor of 2
ADJOINT_BOUND = 4 * np.finfo(float).eps


@EXAMPLES
@given(_tableaus(_entries(-1.0, 1.0)))
def test_adjoint_is_an_involution(t):
    twice = adjoint(adjoint(t))
    for x, y in zip((twice.c, twice.a_bar, twice.b_bar, twice.b), (t.c, t.a_bar, t.b_bar, t.b)):
        assert np.abs(x - y).max() <= ADJOINT_BOUND


# one reversibility_test of a symmetric method is rounding only: the worst
# over 300 random draws of this strategy was 4.4e-16 (2 eps), while rkn-a
# with a_bar[1, 0] += 1e-3, no longer symmetric, gave 4.9e-7 at h = 0.16
# and 1.6e-11 at h = 0.01; the bound leaves a factor of 4 over the draws
REVERSIBILITY_BOUND = 8 * np.finfo(float).eps


def _asymmetric_control():
    t = named_tableau("rkn-a")
    a_bar = t.a_bar.copy()
    a_bar[1, 0] += 1e-3
    return RknTableau(t.s, t.c, a_bar, t.b_bar, t.b)


@EXAMPLES
@given(
    st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    st.sampled_from([gauss_rule, lobatto_rule]),
    st.integers(2, 6),
    st.floats(0.01, 0.3),
)
def test_random_symmetric_families_are_reversible(params, rule, s, h):
    # the paper's claim: every member of the symmetric family, discretized
    # by a symmetric rule, gives a reversible map on a reversible problem
    prob = perturbed_pendulum()
    t = discretize(build_order4(*params), rule(s))
    assert reversibility_test(t, prob, h) <= REVERSIBILITY_BOUND
    assert reversibility_test(_asymmetric_control(), prob, h) > REVERSIBILITY_BOUND
