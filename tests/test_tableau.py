import json
import math
import random

import numpy as np
import pytest

from symrkn.cscoeff import build_order2, build_order4, build_order6
from symrkn.errors import TableauFormatError, TableauValidationError
from symrkn.quadrature import gauss_rule, lobatto_rule
from symrkn.tableau import (
    FORMAT_TAG,
    RknTableau,
    adjoint,
    check_simplifying_discrete,
    classical_order_bound,
    discretize,
    dumps_tableau,
    is_symmetric,
    is_symplectic,
    load_tableau,
    loads_tableau,
    named_tableau,
    save_tableau,
)

S5 = math.sqrt(5.0)

NAMES = ("rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b")

# (alpha, beta, gamma) regenerating each reference method from the
# one-parameter-per-slot symmetric family on the 3-point Lobatto nodes
PARAMS = {
    "rkn-iiia": (-1 / 12, 0.0, S5 / 60),
    "rkn-iiib": (-1 / 12, S5 / 60, 0.0),
    "diagsymp": (0.0, S5 / 30, S5 / 30),
    "rkn-a": (-1 / 10, S5 / 150, S5 / 60),
    "rkn-b": (-1 / 10, S5 / 60, S5 / 150),
}


def _asymmetric_control() -> RknTableau:
    # one explicit stage; its adjoint is a different method
    return RknTableau(
        1,
        np.array([0.0]),
        np.array([[0.0]]),
        np.array([1.0]),
        np.array([1.0]),
        "control",
    )


def test_common_weights_and_nodes():
    for name in NAMES:
        t = named_tableau(name)
        assert t.s == 3
        np.testing.assert_allclose(t.c, [0.0, 0.5, 1.0], atol=0.0)
        np.testing.assert_allclose(t.b_bar, [1 / 6, 1 / 3, 0.0], atol=1e-16)
        np.testing.assert_allclose(t.b, [1 / 6, 2 / 3, 1 / 6], atol=1e-16)
        assert t.label == name


def test_reference_rows_exact_values():
    a = named_tableau("rkn-a").a_bar
    np.testing.assert_allclose(
        a,
        [
            [-1 / 360, -1 / 90, 1 / 72],
            [49 / 720, 13 / 180, -11 / 720],
            [13 / 72, 29 / 90, -1 / 360],
        ],
        atol=1e-16,
    )
    b = named_tableau("rkn-b").a_bar
    np.testing.assert_allclose(
        b,
        [
            [-1 / 360, -11 / 180, 1 / 72],
            [29 / 360, 13 / 180, -1 / 360],
            [13 / 72, 49 / 180, -1 / 360],
        ],
        atol=1e-16,
    )
    # spot values for the remaining three
    assert named_tableau("rkn-iiib").a_bar[0, 1] == pytest.approx(-1 / 12, abs=1e-16)
    assert named_tableau("diagsymp").a_bar[0, 0] == pytest.approx(1 / 12, abs=1e-16)
    np.testing.assert_allclose(named_tableau("rkn-iiia").a_bar[0], 0.0, atol=1e-16)


def test_named_recovered_from_family_parameters():
    rule = lobatto_rule(3)
    for name in NAMES:
        t = named_tableau(name)
        ref = discretize(build_order4(*PARAMS[name]), rule)
        assert np.abs(t.a_bar - ref.a_bar).max() < 1e-14
        assert np.abs(t.b_bar - ref.b_bar).max() < 1e-14
        assert np.abs(t.b - ref.b).max() < 1e-14
        assert np.abs(t.c - ref.c).max() < 1e-14


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        named_tableau("rkn-iiic")


def test_triangular_structure():
    assert named_tableau("diagsymp").lower_triangular
    assert not named_tableau("rkn-iiib").lower_triangular
    assert not named_tableau("rkn-iiia").lower_triangular


def test_lower_triangular_is_computed_once_and_stays_exact(monkeypatch):
    calls = []
    triu = np.triu

    def counting_triu(*args, **kwargs):
        calls.append(args)
        return triu(*args, **kwargs)

    monkeypatch.setattr(np, "triu", counting_triu)
    c, b_bar, b = np.array([0.2, 0.5, 0.8]), np.ones(3) / 6.0, np.ones(3) / 3.0
    a_bar = np.tril(np.full((3, 3), 0.1))
    t = RknTableau(3, c, a_bar, b_bar, b)
    assert calls == []  # nothing at construction
    assert all(t.lower_triangular for _ in range(5))
    assert len(calls) == 1
    # the test is exact: no tolerance above the diagonal
    for tiny in (1e-17, -1e-17, 5e-324):
        above = a_bar.copy()
        above[0, 2] = tiny
        assert not RknTableau(3, c, above, b_bar, b).lower_triangular
    signed = a_bar.copy()
    signed[0, 1] = -0.0
    assert RknTableau(3, c, signed, b_bar, b).lower_triangular
    rebuilt = discretize(build_order4(*PARAMS["diagsymp"]), lobatto_rule(3))
    assert 0.0 < np.abs(np.triu(rebuilt.a_bar, k=1)).max() < 1e-15
    assert not rebuilt.lower_triangular


def test_named_tableau_is_built_and_checked_once_per_name(monkeypatch):
    from symrkn import tableau as tb

    tb._checked_named.cache_clear()
    built = []
    discretize_ = tb.discretize

    def counting_discretize(*args, **kwargs):
        built.append(args)
        return discretize_(*args, **kwargs)

    monkeypatch.setattr(tb, "discretize", counting_discretize)
    first = named_tableau("rkn-a")
    assert len(built) == 1  # the cross-check's reconstruction
    assert named_tableau("rkn-a") is first
    assert named_tableau(" RKN-A ") is first
    assert len(built) == 1
    assert named_tableau("diagsymp") is not first
    assert len(built) == 2
    # a failed check is not cached: the next call checks again
    tb._checked_named.cache_clear()
    monkeypatch.setattr(tb, "CROSSCHECK_TOL", -1.0)
    with pytest.raises(TableauValidationError):
        named_tableau("rkn-b")
    with pytest.raises(TableauValidationError):
        named_tableau("rkn-b")
    assert len(built) == 4
    monkeypatch.undo()
    assert named_tableau("rkn-b").label == "rkn-b"
    tb._checked_named.cache_clear()


def test_discretize_weights_relation():
    t = discretize(build_order6(0.0), gauss_rule(3))
    np.testing.assert_allclose(t.b_bar, t.b * (1.0 - t.c), atol=1e-16)
    assert t.label == "order6(alpha=0.0) @ gauss-3"
    assert t.a_bar.shape == (3, 3)


def test_adjoint_is_an_involution():
    rng = np.random.default_rng(11)
    tabs = [named_tableau(n) for n in NAMES]
    tabs.append(
        RknTableau(
            2,
            np.sort(rng.uniform(0, 1, 2)),
            rng.uniform(-1, 1, (2, 2)),
            rng.uniform(-1, 1, 2),
            rng.uniform(-1, 1, 2),
            "random",
        )
    )
    for t in tabs:
        tt = adjoint(adjoint(t))
        assert np.abs(tt.c - t.c).max() < 1e-15
        assert np.abs(tt.a_bar - t.a_bar).max() < 1e-15
        assert np.abs(tt.b_bar - t.b_bar).max() < 1e-15
        assert np.abs(tt.b - t.b).max() < 1e-15


def test_adjoint_of_explicit_control():
    adj = adjoint(_asymmetric_control())
    np.testing.assert_allclose(adj.c, [1.0], atol=0.0)
    np.testing.assert_allclose(adj.b, [1.0], atol=0.0)
    np.testing.assert_allclose(adj.b_bar, [0.0], atol=0.0)
    np.testing.assert_allclose(adj.a_bar, [[0.0]], atol=0.0)


def test_adjoint_inverts_the_negated_step():
    # defining property: running the adjoint forward then the original
    # method with step -h returns to the start (autonomous force)
    from symrkn.integrator import StepConfig, _stepper, step

    f = lambda t, q: -math.sin(q) - 0.4 * math.cos(2.0 * q)
    h, q0, p0 = 0.21, 0.3, 1.1
    rng = np.random.default_rng(2)
    tabs = [
        _asymmetric_control(),
        named_tableau("rkn-a"),
        RknTableau(
            2,
            np.sort(rng.uniform(0, 1, 2)),
            rng.uniform(-0.4, 0.4, (2, 2)),
            rng.uniform(-0.4, 0.4, 2),
            rng.uniform(0.1, 0.9, 2),
            "random",
        ),
    ]
    for t in tabs:
        q1, p1 = step(adjoint(t), f, 0.0, q0, p0, StepConfig(h=h))
        q2, p2, _, _ = _stepper(t, f, q1, 1e-14, 200, False)[1](f, 0.0, q1, p1, -h)
        assert abs(q2 - q0) < 1e-12, t.label
        assert abs(p2 - p0) < 1e-12, t.label


def test_symmetry_verdicts():
    for name in NAMES:
        ok, dev = is_symmetric(named_tableau(name))
        assert ok and dev < 1e-15
    ok, dev = is_symmetric(_asymmetric_control())
    assert not ok and dev == pytest.approx(1.0, abs=1e-15)


def test_symmetry_deviation_tracks_perturbation():
    t = named_tableau("diagsymp")
    a = np.array(t.a_bar)
    a[0, 1] += 1e-6
    bent = RknTableau(3, t.c, a, t.b_bar, t.b, "bent")
    ok, dev = is_symmetric(bent)
    assert not ok
    assert 1e-7 < dev < 1e-5


def test_symplecticity_iff_beta_equals_gamma():
    rng = random.Random(3)
    rule = lobatto_rule(3)
    for _ in range(10):
        alpha = rng.uniform(-0.5, 0.5)
        beta = rng.uniform(-0.5, 0.5)
        t = discretize(build_order4(alpha, beta, beta), rule)
        ok, res = is_symplectic(t)
        assert ok and res < 1e-14
        gamma = beta + rng.uniform(0.01, 0.4)
        t = discretize(build_order4(alpha, beta, gamma), rule)
        ok, res = is_symplectic(t)
        assert not ok and res > 1e-8


def test_symplecticity_residuals_of_references():
    ok, res = is_symplectic(named_tableau("diagsymp"))
    assert ok and res < 1e-15
    for name in ("rkn-iiia", "rkn-iiib"):
        ok, res = is_symplectic(named_tableau(name))
        assert not ok
        assert res == pytest.approx(1 / 72, abs=1e-15)
    for name in ("rkn-a", "rkn-b"):
        ok, res = is_symplectic(named_tableau(name))
        assert not ok
        assert res == pytest.approx(1 / 120, abs=1e-15)


def test_simplifying_degrees_table():
    expected = {
        "rkn-iiia": (4, 3, 1),
        "rkn-iiib": (4, 1, 3),
        "diagsymp": (4, 1, 1),
        "rkn-a": (4, 2, 1),
        "rkn-b": (4, 1, 2),
    }
    for name, (x, e, z) in expected.items():
        d = check_simplifying_discrete(named_tableau(name))
        assert (d.xi, d.eta, d.zeta) == (x, e, z), name
        assert d.max_residual < 1e-13
    d = check_simplifying_discrete(discretize(build_order6(0.0), gauss_rule(3)))
    assert (d.xi, d.eta, d.zeta) == (6, 3, 3)
    d = check_simplifying_discrete(discretize(build_order6(0.0), lobatto_rule(4)))
    assert (d.xi, d.eta, d.zeta) == (6, 2, 2)


def test_order_bounds_table():
    expected = {
        "rkn-iiia": 4,
        "rkn-iiib": 4,
        "diagsymp": 2,
        "rkn-a": 3,
        "rkn-b": 3,
    }
    for name, bound in expected.items():
        ob = classical_order_bound(named_tableau(name))
        assert ob.weights_consistent
        assert ob.bound == bound, name
    assert classical_order_bound(discretize(build_order6(0.0), gauss_rule(3))).bound == 6
    assert classical_order_bound(discretize(build_order6(0.0), lobatto_rule(4))).bound == 4
    assert classical_order_bound(discretize(build_order2(1 / 6), gauss_rule(1))).bound == 2


def test_order_bound_requires_weight_consistency():
    t = RknTableau(
        1, np.array([0.0]), np.array([[0.0]]), np.array([0.5]), np.array([1.0])
    )
    ob = classical_order_bound(t)
    assert not ob.weights_consistent
    assert ob.bound == 0


def test_roundtrip_is_bitwise():
    for name in NAMES:
        t = named_tableau(name)
        back = loads_tableau(dumps_tableau(t))
        assert back.s == t.s
        assert back.label == t.label
        assert np.all(back.c == t.c)
        assert np.all(back.a_bar == t.a_bar)
        assert np.all(back.b_bar == t.b_bar)
        assert np.all(back.b == t.b)


def test_save_load_file(tmp_path):
    t = discretize(build_order6(0.25), gauss_rule(3))
    path = tmp_path / "method.json"
    save_tableau(t, path)
    back = load_tableau(path)
    assert np.all(back.a_bar == t.a_bar)
    assert back.label == t.label


def test_dump_has_17_digit_literals():
    text = dumps_tableau(named_tableau("rkn-a"))
    doc = json.loads(text)
    assert doc["format"] == FORMAT_TAG
    # every float literal uses full %.16e precision
    assert "6.6666666666666663e-01" in text  # nearest float64 to 2/3
    assert float("6.6666666666666663e-01") == 2 / 3
    assert doc["a_bar"][1][0] == 49 / 720


def test_loader_rejects_bad_documents():
    good = dumps_tableau(named_tableau("diagsymp"))
    with pytest.raises(TableauFormatError):
        loads_tableau("not json at all {")
    with pytest.raises(TableauFormatError):
        loads_tableau("[1, 2, 3]")
    with pytest.raises(TableauFormatError):
        loads_tableau(good.replace("rkn-tableau/1", "rkn-tableau/2"))
    doc = json.loads(good)
    del doc["b_bar"]
    with pytest.raises(TableauFormatError):
        loads_tableau(json.dumps(doc))
    doc = json.loads(good)
    doc["a_bar"] = doc["a_bar"][:2]  # wrong row count
    with pytest.raises(TableauFormatError):
        loads_tableau(json.dumps(doc))
    doc = json.loads(good)
    doc["c"] = [0.0, 0.5, 7.0]  # abscissa outside the unit interval
    with pytest.raises(TableauFormatError):
        loads_tableau(json.dumps(doc))
    for s in (3.7, 1.7, True):  # a stage count that is not an integer
        doc = json.loads(good)
        doc["s"] = s
        with pytest.raises(TableauFormatError):
            loads_tableau(json.dumps(doc))
    not_numbers = [  # entries np.array(..., dtype=float) would coerce
        ("c", ["0.0", "0.5", "1.0"]),
        ("b", [True, 2 / 3, 1 / 6]),
        ("b_bar", [1 / 6, 1 / 3, False]),
        ("a_bar", [[1 / 12, 0.0, 0.0], [1 / 12, "0", 0.0], [1 / 6, 1 / 3, 1 / 12]]),
        ("a_bar", [[1 / 12, 0.0, 0.0], [1 / 12, None, 0.0], [1 / 6, 1 / 3, 1 / 12]]),
        ("c", [0, 0.5, 10**400]),  # an integer no float can hold
    ]
    for key, value in not_numbers:
        doc = json.loads(good)
        doc[key] = value
        with pytest.raises(TableauFormatError):
            loads_tableau(json.dumps(doc))
    for label in (None, 3, {"x": 1}, ["diagsymp"]):  # labels that are not strings
        doc = json.loads(good)
        doc["label"] = label
        with pytest.raises(TableauFormatError):
            loads_tableau(json.dumps(doc))
    doc = json.loads(good)
    del doc["label"]
    assert loads_tableau(json.dumps(doc)).label == ""
    doc = json.loads(good)
    doc["c"] = [0, 0.5, 1]  # JSON integers are numbers
    assert loads_tableau(json.dumps(doc)).c.tolist() == [0.0, 0.5, 1.0]


def test_tableau_shape_validation():
    with pytest.raises(ValueError):
        RknTableau(
            2, np.array([0.0, 1.0]), np.zeros((3, 3)), np.zeros(2), np.zeros(2)
        )
    with pytest.raises(ValueError):
        RknTableau(
            2, np.array([0.0, np.nan]), np.zeros((2, 2)), np.zeros(2), np.zeros(2)
        )
    t = named_tableau("diagsymp")
    with pytest.raises(ValueError):
        t.a_bar[0, 0] = 99.0


def test_stage_count_must_be_an_int_not_a_bool():
    # True passes isinstance(s, int) and equals 1
    with pytest.raises(ValueError, match="positive integer"):
        RknTableau(True, [0.5], [[0.25]], [0.5], [1.0])
    assert RknTableau(1, [0.5], [[0.25]], [0.5], [1.0]).s == 1
