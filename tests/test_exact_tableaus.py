"""The named tableaus in exact rational arithmetic.

Each float entry of the five named Lobatto-3 tableaus is the correctly
rounded value of a small rational.  Rebuilt from those rationals with
fractions.Fraction, the symmetry and symplecticity conditions hold or fail
exactly, with no float tolerance between the verdict and the claim.
"""

from fractions import Fraction

import pytest

from symrkn.tableau import NAMED_METHODS, named_tableau

# the largest denominator among the named tableaus' entries (rkn-a's 49/720)
MAX_DENOMINATOR = 720


def _rational(name):
    """(c, a_bar, b_bar, b) of the named tableau as Fractions, each the
    nearest rational with denominator <= MAX_DENOMINATOR to the float."""
    t = named_tableau(name)
    fields = t.c.tolist(), t.a_bar.tolist(), t.b_bar.tolist(), t.b.tolist()

    def near(x):
        return Fraction(x).limit_denominator(MAX_DENOMINATOR)

    return (
        [near(x) for x in fields[0]],
        [[near(x) for x in row] for row in fields[1]],
        [near(x) for x in fields[2]],
        [near(x) for x in fields[3]],
    ), fields


def _adjoint(c, a_bar, b_bar, b):
    """The adjoint tableau, with r = s - 1 - i (0-based):
    c*_i = 1 - c_r, b*_i = b_r, bbar*_i = b_r - bbar_r,
    abar*_ij = b*_j c*_i - bbar_{s-1-j} + abar_{r, s-1-j}."""
    s = len(c)
    c_star = [1 - c[s - 1 - i] for i in range(s)]
    b_star = b[::-1]
    a_star = [
        [b_star[j] * c_star[i] - b_bar[s - 1 - j] + a_bar[s - 1 - i][s - 1 - j]
         for j in range(s)]
        for i in range(s)
    ]
    return c_star, a_star, [b_star[i] - b_bar[s - 1 - i] for i in range(s)], b_star


def _symplectic(c, a_bar, b_bar, b):
    """Both classical RKN symplecticity conditions, exactly:
    bbar_i = b_i (1 - c_i) and b_i (bbar_j - abar_ij) = b_j (bbar_i - abar_ji)."""
    s = len(c)
    weights = all(b_bar[i] == b[i] * (1 - c[i]) for i in range(s))
    pairs = all(
        b[i] * (b_bar[j] - a_bar[i][j]) == b[j] * (b_bar[i] - a_bar[j][i])
        for i in range(s) for j in range(s)
    )
    return weights and pairs


def test_every_entry_is_a_correctly_rounded_small_rational():
    entries = 0
    for name in NAMED_METHODS:
        (c, a_bar, b_bar, b), (fc, fa, fbb, fb) = _rational(name)
        pairs = [*zip(c, fc), *zip(b_bar, fbb), *zip(b, fb)]
        pairs += [pair for row, frow in zip(a_bar, fa) for pair in zip(row, frow)]
        for exact, x in pairs:
            # float(Fraction) rounds correctly, so x is the rational's float
            assert float(exact) == x, (name, exact, x)
        entries += len(pairs)
    assert entries == 90


@pytest.mark.parametrize("name", NAMED_METHODS)
def test_every_rational_tableau_equals_its_adjoint_exactly(name):
    tableau, _ = _rational(name)
    assert _adjoint(*tableau) == tableau
    # one explicit stage, whose adjoint is another method
    explicit = [Fraction(0)], [[Fraction(0)]], [Fraction(1)], [Fraction(1)]
    assert _adjoint(*explicit) != explicit


@pytest.mark.parametrize("name", NAMED_METHODS)
def test_only_diagsymp_is_exactly_symplectic(name):
    tableau, _ = _rational(name)
    assert _symplectic(*tableau) == (name == "diagsymp")
