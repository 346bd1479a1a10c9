"""The CSV writer's numpy formatter, cli._e16, against "%.16e" % v.

Every value's text must be the bytes % writes, whether _e16 formats it
itself or falls back to %: random bit patterns and every decimal exponent
in a seeded sweep, hypothesis-drawn floats from a derandomized source, and
hand-picked edges (exact ties, powers of ten and their neighbours, the ends
of the two-digit exponents, zeros, infinities and nan).
"""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrkn import cli

# a failing property makes the hypothesis plugin import libcst to print a
# patch, and libcst's import of mypy_extensions warns of a deprecation
# that pyproject.toml's filters would turn into an internal error
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


def _mismatches(values):
    """(value, _e16's text) of the first five values whose text is not
    "%.16e" % value."""
    values = np.asarray(values, dtype=float)
    texts = cli._e16(values)
    assert texts.shape == (len(values), 24)
    got = [b.lstrip(cli._PAD) for b in texts.view("S24").ravel().tolist()]
    return [(v, g) for v, g in zip(values.tolist(), got) if g != b"%.16e" % v][:5]


def _ties(rng, count):
    """Floats whose exact decimal value has 18 significant digits, the last
    a 5: halfway between two 17-digit texts."""
    j = 2 * rng.integers(0, 2**16, count) + 1
    values = (2.0**17 + j) * 2.0 ** (rng.integers(-17, 4, count) - 17)
    ties = [v for v in values.tolist() if len(Decimal(v).as_tuple().digits) == 18]
    assert ties and all(Decimal(v).as_tuple().digits[-1] == 5 for v in ties)
    return ties


def test_random_bit_patterns_format_as_percent_does():
    rng = np.random.default_rng(20_240_101)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    assert _mismatches(bits.view(np.float64)) == []


def test_every_decimal_exponent_formats_as_percent_does():
    rng = np.random.default_rng(7)
    digits = rng.integers(10**16, 10**17, (633, 40)).tolist()
    values = np.array([float(f"{m}e{k - 16}")
                       for k, row in zip(range(-324, 309), digits) for m in row])
    assert _mismatches(values) == [] and _mismatches(-values) == []


def test_edges_format_as_percent_does():
    rng = np.random.default_rng(3)
    ties = _ties(rng, 2000)
    # % rounds a tie half to even: 1.00000762939453125 down, and
    # 1.00002288818359375 up
    assert b"%.16e" % (1 + 2**-17) == b"1.0000076293945312e+00"
    assert b"%.16e" % (1 + 3 * 2**-17) == b"1.0000228881835938e+00"
    # the doubles nearest the powers of ten, and the products 10.0**k,
    # some a few ulps off; 1e-14, below 10**-14, rounds up to its text
    powers = np.array([float(f"1e{k}") for k in range(-110, 110)]
                      + [10.0**k for k in range(-110, 110)])
    assert b"%.16e" % 1e-14 == b"1.0000000000000000e-14"
    edges = np.concatenate([
        [1 + 2**-17, -(1 + 3 * 2**-17)], ties, np.negative(ties),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        -powers, -np.nextafter(powers, 0.0),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308],
    ])
    assert _mismatches(edges) == []
    # every kind of value in one array, in mixed order
    assert _mismatches(rng.permutation(np.concatenate([edges, rng.uniform(-1, 1, 500)]))) == []


def test_drift_shaped_columns_format_as_percent_does():
    rng = np.random.default_rng(11)
    grid = np.arange(75_001) * 0.16
    assert _mismatches(grid) == []
    assert _mismatches(rng.uniform(-1e-3, 1e-3, 20_000)) == []
    assert _mismatches(np.array([], dtype=float)) == []


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats_format_as_percent_does(values):
    assert _mismatches(values) == []
