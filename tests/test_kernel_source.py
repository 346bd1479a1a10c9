"""The generated kernel sources, pinned by sha256.

Each digest covers the source of one method, state kind and force form
(per point, or a built-in force's template written inline): the kernel
with the method's start matrix, which every call on the method runs
(integrate, step, solve_stages, reversibility_test).  A change to
kernel._kernel_source or to a template that moves a digest changes
generated code; when that is meant, record the new digest here and say
why.  The inline kernels run the benchmark: the scalar pendulum kernels
pendulum-drift, the d = 2 Kepler kernels kepler-converge.

All 30 digests were last re-recorded when every sum of the kernel came
to be written by one rule: the terms of its nonzero coefficients alone,
left to right, and a sum with none not written (no 0.0 start, no
0.0 * F2 in the q update, no h2 * (0.0) base, no hc0 * p0 for c_0 = 0).
Every digest moved, as every kernel had a 0.0 start.  The per-point
kernels also gained the test that a block's start, or an explicit
stage's value, is finite before the force sees it.  Trajectory bits
moved only where a sum of zeros alone is now -0.0, or where a force
that is not finite was read through a zero coefficient; no workload
output moved.
"""

import hashlib
import linecache
import math
import re
from pathlib import Path

import numpy as np
import pytest

import symrkn
from symrkn.cscoeff import build_order4
from symrkn.integrator import (
    StepConfig,
    integrate,
    reference_tableau,
    reversibility_test,
    solve_stages,
    step,
)
from symrkn.kernel import (
    _SCALAR,
    _blocks,
    _first_same_as_last,
    _Floats,
    _kernel_source,
    _kernels,
    _kind,
    _start_matrix,
    _stepper,
)
from symrkn.problems import _TEMPLATES, kepler_2d, perturbed_pendulum
from symrkn.quadrature import lobatto_rule
from symrkn.tableau import RknTableau, discretize, named_tableau
from test_array_kernel import _driven as _driven_array
from test_array_kernel import _runs as _array_runs
from test_scalar_kernel import _driven, _pendulum, _sign_of_zero
from test_scalar_kernel import _runs as _scalar_runs

METHODS = ("rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b", "order6-gauss3")

SCALAR = {
    "rkn-iiia": "efd498ecd411aa9dab578191f886447597e1eca24b4541fb607a814bf6acdd2c",
    "rkn-iiib": "c89bdb80416c09c0ffb2de34592dad2802478182750f0d81b2cd21895c848300",
    "diagsymp": "3a5d6f6fe2b189a10958595f426e9fd030d93ae7bcba4bc1fee7d40ab82fae18",
    "rkn-a": "0134af7a2396b3ef5254f9afb18ef0df35862020787e99bc3b39d593d69cb2e2",
    "rkn-b": "1404700ee82c8c684162040cc80485d0bc526a16330c849d8ba1554d5b8bd140",
    "order6-gauss3": "c738ac49c85002bd2948dcfc99fd25df241cf2d1a7e509aca7d007dbb84c8da1",
}

ARRAY = {
    ("rkn-iiia", 1, "point"): "a32a5d7f646e962b3d65c7568c17e6e4562eadee233bd5827ec9cffc9913c1e9",
    ("rkn-iiia", 2, "point"): "10526ced280a34bca94d74d3f23935df42f876ae9ab861ba9f5b855afcb5a46e",
    ("rkn-iiib", 1, "point"): "d199fa1f63d669a6a6298437f07881c060086d23b5900306522d425a25ab32d5",
    ("rkn-iiib", 2, "point"): "3ea1ae0a8c2029ac32678e685bf0308b49020f094d6fb44e36f1502194f19323",
    ("diagsymp", 1, "point"): "f8d708958eb8de5b021e893b6dc4239284761916a19a10b277f4375364084a24",
    ("diagsymp", 2, "point"): "281a330e70fa49bb438fec781b27af8a2859b5f1603ad29c694f59cde71170e5",
    ("rkn-a", 1, "point"): "f4acf6d5239438ee780987591abcf0593d5fc03bf6592a11b5ff7d548e67d207",
    ("rkn-a", 2, "point"): "625b37a14d16485d25fe8f5bca8ee650261e9748af09596c527aea58f384a4ff",
    ("rkn-b", 1, "point"): "0f8314058d1bd739c09c886116843b189293faaf78f62226e1004afcffa0a51a",
    ("rkn-b", 2, "point"): "2fa21cb41845f1bb330c15bcb370e8b3f11b4e6a9b7de685c8b97c2e7f3f365a",
    ("order6-gauss3", 1, "point"): "f3cba123dc14a604debdca1de76fa6215aec1f9c20086b0dd6993853fec7cc5c",
    ("order6-gauss3", 2, "point"): "bf839243cbddd5c3b15cf3d3e13de3449966afe2db153fdd4b1168c319eb4a31",
}

# the scalar pendulum and d = 2 Kepler forces, written inline
INLINE = {
    ("rkn-iiia", "pendulum"): "46ee54b83d7d2c58885784102f7667884bf4513e6e6566f9fdefdfa3e578772c",
    ("rkn-iiib", "pendulum"): "9366fd4634e48ac9965d18b04c3c162ce9d49ccd5e65d1220da9ebd23b61c084",
    ("diagsymp", "pendulum"): "54a797ac194a40d5809ce75cf67230adcc09f620d3b6f70c893bad5f07febca8",
    ("rkn-a", "pendulum"): "0f4df17b462281360b866169744cf11b44fdcd4f053ee19a478e68444acc251c",
    ("rkn-b", "pendulum"): "c4b6a2e3a2c4ac3418b758478babe7f8583bc48eb7027456753937ed72d7ecdb",
    ("order6-gauss3", "pendulum"): "357ceaad4bfe5ad79b4c5948db7f9cb8e9e05590016054c5dbb28ba0a24b4896",
    ("rkn-iiia", "kepler"): "75f8fe8972031dd632be33f09e5c2094838b3d15a9f21bbc3d4382f9f3f3b418",
    ("rkn-iiib", "kepler"): "46816104fefe76e3f1bb89b07ba9008bff2e5fc87e739a14acd3f55df72728d9",
    ("diagsymp", "kepler"): "b5b4fc09530e4d69c2ff766e35f417629ea3e053d62f8301abe4e8f460fb96e7",
    ("rkn-a", "kepler"): "cbfed50c5139a208f94e157baf13eb50e157cbdbe8774a2628d2b428f3d4f061",
    ("rkn-b", "kepler"): "8380a5dd3ccac1880b365c304572169c4e74d617562885b1c4ae35b57395c8be",
    ("order6-gauss3", "kepler"): "89545ef738f011648f3e80b27f11068d5f0f0644000512f5594dc47ed5a880d5",
}


def _tableau(name):
    return reference_tableau() if name == "order6-gauss3" else named_tableau(name)


def _source(name, kind=_SCALAR, form="point"):
    """The method's kernel source, with its start matrix."""
    return _tableau_source(_tableau(name), kind, form)


def _tableau_source(t, kind=_SCALAR, form="point"):
    blocks = _blocks(t.a_bar)
    M = _start_matrix(t.c, t.a_bar, blocks).tolist()
    coeffs = (t.c.tolist(), t.a_bar.tolist(), t.b_bar.tolist(), t.b.tolist())
    return _kernel_source(*coeffs, M, blocks, kind, form)


def _digest(name, kind=_SCALAR, form="point"):
    return hashlib.sha256(_source(name, kind, form).encode()).hexdigest()


@pytest.mark.parametrize("name", METHODS)
def test_scalar_kernel_sources_are_pinned(name):
    assert _digest(name) == SCALAR[name]


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("form", ["point"])
def test_array_kernel_sources_are_pinned(name, d, form):
    assert _digest(name, _Floats(d), form) == ARRAY[name, d, form]


def _problems():
    """Scalar and d = 2 state, each with a built-in force that has a template."""
    return perturbed_pendulum(), kepler_2d(0.5)


def _inline(prob):
    """(kind, template) of the kernel that prob's force runs inline."""
    return _kind(prob.q0), _TEMPLATES[type(prob.force)]


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("index", [0, 1], ids=["pendulum", "kepler"])
def test_inline_kernel_sources_are_pinned(name, index):
    kind, template = _inline(_problems()[index])
    assert _digest(name, kind, template) == INLINE[name, template.name]


@pytest.mark.parametrize("name", METHODS)
def test_integrate_runs_the_pinned_source(name):
    # the runtime kernel builds its start matrix from the key's bytes; its
    # source is the pinned inline text built from the tableau's arrays
    t = _tableau(name)
    for prob in _problems():
        kind, template = _inline(prob)
        assert integrate(t, prob, 0.16, StepConfig(h=0.16)).times.shape == (2,)
        kernel = _stepper(t, prob.force, prob.q0, 1e-14, 100)[1].func
        filename = kernel.__code__.co_filename
        assert f" {template.name} " in filename
        assert "".join(linecache.getlines(filename)) == _source(name, kind, template)


def test_every_call_on_a_tableau_shares_one_kernel():
    # a family member no other test derives, so its kernels are not cached
    t = discretize(build_order4(0.0123, 0.0, 0.0), lobatto_rule(3), "one kernel")
    cfg = StepConfig(h=0.16)
    for prob in _problems():
        held = set(_kernels)
        integrate(t, prob, 1.6, cfg)
        step(t, prob.force, prob.t0, prob.q0, prob.p0, cfg)
        solve_stages(t, prob.force, prob.t0, prob.q0, prob.p0, cfg)
        assert np.isfinite(reversibility_test(t, prob, cfg.h))
        assert len(set(_kernels) - held) == 1


# each method's stage blocks, in the order its kernel solves them
PARTITIONS = {
    "rkn-iiia": [[0], [1, 2]],
    "rkn-iiib": [[0, 1], [2]],
    "diagsymp": [[0], [1], [2]],
    "rkn-a": [[0, 1, 2]],
    "rkn-b": [[0, 1, 2]],
    "order6-gauss3": [[0, 1, 2]],
}


@pytest.mark.parametrize("name", METHODS)
def test_named_methods_solve_their_stage_blocks_in_order(name):
    t = _tableau(name)
    assert _blocks(t.a_bar) == PARTITIONS[name]
    # the kernel's file name shows the blocks
    shown = "".join(f"({','.join(map(str, block))})" for block in PARTITIONS[name])
    kernel = _stepper(t, lambda t, q: -q, 0.0, 1e-14, 100)[1].func
    assert re.fullmatch(f"<symrkn kernel s=3 {re.escape(shown)} [0-9a-f]{{8}}>",
                        kernel.__code__.co_filename)


def test_blocks_follow_the_stages_they_read():
    # an upper-triangular a_bar is solved last stage first
    assert _blocks(np.triu(np.full((4, 4), 0.1))) == [[3], [2], [1], [0]]
    # stages that read nothing come in index order
    assert _blocks(np.zeros((3, 3))) == [[0], [1], [2]]
    # stage 4 reads nothing, 1 and 3 read each other and 4, 0 reads 1, 2 reads 0
    a_bar = np.zeros((5, 5))
    for i, j in ((1, 3), (3, 1), (1, 4), (3, 4), (0, 1), (2, 0)):
        a_bar[i, j] = 0.1
    assert _blocks(a_bar) == [[4], [1, 3], [0], [2]]


def test_blocks_are_exact():
    # -0.0 is a zero and the least subnormal is not (diagsymp rebuilt from
    # its parameters is one block: test_structure_selection)
    a_bar = np.tril(np.full((3, 3), 0.1))
    a_bar[0, 2] = -0.0
    assert _blocks(a_bar) == [[0], [1], [2]]
    a_bar[0, 2] = 5e-324
    assert _blocks(a_bar) == [[0, 1, 2]]


def test_only_the_kernel_module_compiles_source():
    # generated code comes from one module, which writes only library
    # floats and templates into it
    for path in sorted(Path(symrkn.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert ("exec(" in text or "compile(" in text) == (path.name == "kernel.py"), path.name


# scalar and d = 1, 2 state, per point and with each template written inline
FORMS = {
    "scalar-point": (_SCALAR, "point"),
    "d=1-point": (_Floats(1), "point"),
    "d=2-point": (_Floats(2), "point"),
    "pendulum": _inline(_problems()[0]),
    "kepler": _inline(_problems()[1]),
}


def _takes_the_last_stage_over(source):
    """Whether the source has stage 0's guard, which sets F0 from the
    previous step's last stage (kernel._first_same_as_last)."""
    return re.search(r"^ +F0(_0)? = P\d+(_0)?$", source, re.M) is not None


@pytest.mark.parametrize("form", sorted(FORMS))
def test_diagsymp_takes_its_last_stage_over_at_the_next_step(form):
    source = _source("diagsymp", *FORMS[form])
    assert _takes_the_last_stage_over(source)
    # only a force called per point gets the stage time
    assert ("and T0 == T2 and" in source) == form.endswith("point")


@pytest.mark.parametrize("name", [x for x in METHODS if x != "diagsymp"])
def test_no_other_method_takes_a_stage_over(name):
    t = _tableau(name)
    coeffs = (t.c.tolist(), t.a_bar.tolist(), t.b_bar.tolist())
    assert not _first_same_as_last(*coeffs, _blocks(t.a_bar))
    for form in FORMS.values():
        assert not _takes_the_last_stage_over(_source(name, *form))


def _one_bit_off_diagsymp(entry):
    """diagsymp with one entry moved off what _first_same_as_last needs."""
    t = named_tableau("diagsymp")
    c, a_bar, b_bar = t.c.copy(), t.a_bar.copy(), t.b_bar.copy()
    if entry == "a_22":
        a_bar[2, 2] = np.nextafter(a_bar[2, 2], 1.0)  # one ulp off a_00
    elif entry == "c_2":
        c[2] = np.nextafter(1.0, 0.0)
    else:
        b_bar[2] = 1e-300
    return RknTableau(3, c, a_bar, b_bar, t.b, f"diagsymp, {entry} off")


@pytest.mark.parametrize("entry", ["a_22", "c_2", "b_bar_2"])
def test_a_tableau_one_bit_off_diagsymp_solves_stage_0_in_full(entry):
    t = _one_bit_off_diagsymp(entry)
    coeffs = (t.c.tolist(), t.a_bar.tolist(), t.b_bar.tolist())
    assert not _first_same_as_last(*coeffs, _blocks(t.a_bar))
    for form in FORMS.values():
        assert not _takes_the_last_stage_over(_tableau_source(t, *form))
    # and its kernels keep the bits of the reference loops
    for f in (_pendulum, _driven):
        _scalar_runs(t, f, 0.16)
    kepler = kepler_2d(0.5)
    for f in (kepler.force, _driven_array):
        _array_runs(t, f, 0.05, kepler.q0, kepler.p0, steps=20)


# a term of a sum with a zero coefficient, or a sum of no term: the
# finiteness tests, sums of 0.0 * x in if lines, are no sums of the rule
_ZERO_TERM = re.compile(r"(?<![\w.])0\.0 [*+]|\(-0\.0\) \*|\(0\.0\)")


def _assert_no_zero_term(t, source):
    """No sum of source has a term whose coefficient in t is a zero."""
    for line in source.splitlines():
        if not line.lstrip().startswith("if "):
            assert not _ZERO_TERM.search(line), line
    # nor a w_ij for a zero a_ij, nor h c_i p0 for a zero c_i
    for i, j in re.findall(r"\bw(\d+)_(\d+) = ", source):
        assert t.a_bar[int(i), int(j)] != 0.0
    for i in np.flatnonzero(t.c == 0.0):
        assert f"hc{i} * " not in source


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("form", sorted(FORMS))
def test_no_kernel_writes_a_term_with_a_zero_coefficient(name, form):
    _assert_no_zero_term(_tableau(name), _source(name, *FORMS[form]))


def _signed_zero_tableau(b_bar, b):
    """Three stages whose nodes repeat (-0.0 == 0.0), so the start matrix
    is zero, with signed zeros in c and a_bar: stage 1 is explicit and
    reads stage 0, stage 2 reads stage 1 and itself."""
    a_bar = np.array([[0.1, -0.0, 0.0], [0.2, -0.0, 0.0], [-0.0, 0.3, 0.05]])
    return RknTableau(3, np.array([-0.0, 0.0, 1.0]), a_bar, np.array(b_bar),
                      np.array(b), "signed zeros")


def _inf_late(t, q):
    return math.inf if t > 0.5 else _pendulum(t, q)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("weights", ["signed", "all-zero"])
def test_signed_zero_coefficients_keep_the_bits_of_the_reference_loops(weights):
    b_bar, b = {
        "signed": ([0.2, -0.0, 0.0], [0.25, 0.0, -0.0]),
        # no q update sum and no p update at all
        "all-zero": ([0.0, -0.0, 0.0], [-0.0, 0.0, 0.0]),
    }[weights]
    t = _signed_zero_tableau(b_bar, b)
    assert _blocks(t.a_bar) == [[0], [1], [2]]
    assert not _start_matrix(t.c, t.a_bar, _blocks(t.a_bar)).any()
    for form in FORMS.values():
        _assert_no_zero_term(t, _tableau_source(t, *form))
    for f in (_pendulum, _driven, _sign_of_zero, _inf_late):
        for q0, p0 in ((0.3, 2.5), (-0.0, -0.0), (0.0, -0.0)):
            for h in (0.16, -0.16, 1e-170):
                _scalar_runs(t, f, h, steps=8, q0=q0, p0=p0)
    kepler = kepler_2d(0.5)
    zeros = np.array([-0.0, -0.0])
    for f in (kepler.force, _driven_array):
        for q0, p0 in ((kepler.q0, kepler.p0), (zeros, zeros)):
            _array_runs(t, f, 0.05, q0, p0, steps=8)
