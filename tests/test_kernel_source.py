"""The generated kernel sources, pinned by sha256.

Each digest covers the source of one method, state kind and force form
(per point, or a built-in force's template written inline): the kernel
with the method's start matrix, which every call on the method runs
(integrate, step, solve_stages, reversibility_test).  A change to
kernel._kernel_source or to a template that moves a digest changes
generated code; when that is meant, record the new digest here and say
why.  The inline kernels run the benchmark: the scalar pendulum kernels
pendulum-drift, the d = 2 Kepler kernels kepler-converge.

All 30 digests were last re-recorded when the kernel lost two pieces of
dead text: the e... = inf lines before each iterated block, which no
sweep reads as iters >= 1, and the NaN test (or x != x) of the largest
|q0_k|, since a NaN q0_k fails the first sweep whatever the tolerance
scale.  The arithmetic, messages, residuals and step indices did not
move.  The five diagsymp digests were re-recorded after that, when its
kernels gained the guard that lets stage 0 take over the previous step's
last stage (kernel._first_same_as_last); no other digest moved, and
neither did any trajectory bit.
"""

import hashlib
import linecache
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
from test_scalar_kernel import _driven, _pendulum
from test_scalar_kernel import _runs as _scalar_runs

METHODS = ("rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b", "order6-gauss3")

SCALAR = {
    "rkn-iiia": "861f55422808e48964ed8e60dce86e505513f11083bf37aacfaf84213dc53daf",
    "rkn-iiib": "f1b131c81142e218175c88029c343f75c6d9b54fc24facf7cad2c5325e351477",
    "diagsymp": "ec3da66a1b0e7c589ab0a44d4409183221ce1c4df70bef6ae78875399a26696d",
    "rkn-a": "485d31a4511de19c53be25e0f597f8ef31f9ad3ca5fccd54abe8cd89fbeaead7",
    "rkn-b": "48caa864e87ad98193afbec8f3d251bb38e7c5274a25f63003b6c95a7f561349",
    "order6-gauss3": "3f70fbb9ea1b427f3150acfef50f672b6725861f5f31f9c1df47e6caed2f6ce7",
}

ARRAY = {
    ("rkn-iiia", 1, "point"): "6f7cbf652c94fa1d65736bae1acda04fac767be4d69f66de38febc316ad65553",
    ("rkn-iiia", 2, "point"): "d19b90bd2ede0817a3f764d66c197420c32e55aa8410d5952f5d5857280146d6",
    ("rkn-iiib", 1, "point"): "1d96104f37281f47d7fd8da180d897a8ec58adda50101a2003ea159c56499c5a",
    ("rkn-iiib", 2, "point"): "34fb4b1218b30dccb99cb36ed39bb48c5ec8e8e5ad50a4f896fd2c153ffb4540",
    ("diagsymp", 1, "point"): "b2d8c6fd41292880a91f264a534c44c11f6e38fd90d900a1cfc323230f0242e8",
    ("diagsymp", 2, "point"): "7dce762f1c2437fb4fbce94073f884963bc6ff6ead6791e7974a90ff47049633",
    ("rkn-a", 1, "point"): "fbbc3f0025dda5ac3e501f2e036f36f710a086274a16807a213fcb902cd4ac9b",
    ("rkn-a", 2, "point"): "a77c6998bb0d6700519984d32310182622018d62433120c99e30750788f7ffe4",
    ("rkn-b", 1, "point"): "97bfa2fda4233f218bbb78e21e49a601986e7e779681a2a327de458627b14190",
    ("rkn-b", 2, "point"): "24af2e7d4c834538ae469695338d69ac566331a49ed25335cfd335867c2248ad",
    ("order6-gauss3", 1, "point"): "72c917322467640774da393f47c4f3378be8dace218eede795186409d8e55887",
    ("order6-gauss3", 2, "point"): "ade56a670cf50775a17d1af2d6fbd1d7b1119a081ab9deae89620eb3b059f98a",
}

# the scalar pendulum and d = 2 Kepler forces, written inline
INLINE = {
    ("rkn-iiia", "pendulum"): "b515c37a780596d14289269165945ef936271ffc6d6080e8e3c3ef07e359e3c0",
    ("rkn-iiib", "pendulum"): "28553d935f1bf1bcda171d847716ad573a27ea451fec8f3a068e326e7c610df1",
    ("diagsymp", "pendulum"): "ef65c35bd09aa5a943673a7911d5d3cad17698b36debfe96b42c60dcb6bcb127",
    ("rkn-a", "pendulum"): "f5307ea3aa6b42a01b55b2b5913422b45bb345729b2b7270ace79a1e403486e9",
    ("rkn-b", "pendulum"): "f1c22919c23a2788bfcd6cbae34a708557116f69cec2c8bc56942923439cdf70",
    ("order6-gauss3", "pendulum"): "556be600131d8208cfc96b1008d6bf7ea3909a540f907fe97c1dae950c1ff0ea",
    ("rkn-iiia", "kepler"): "9db143ac11d3726d0d1c66af351795b83fca9308efab610ba0b82abadc0af3a1",
    ("rkn-iiib", "kepler"): "aa94874c13373b7f4a5c9dd442d87a8d4eed2032fa7d6cde1bfcfe2d721b51ff",
    ("diagsymp", "kepler"): "ce5877d0e78dc2b55b19a7eb17951eb50264d48aa1edc9557fd1e0d3f062ade5",
    ("rkn-a", "kepler"): "8806ceecfe716530f21aa7634c14ffa930d033dca8d431a3e78237ed17d4aa49",
    ("rkn-b", "kepler"): "ee918da0d6e1a3f3a7d50079195cc52f29bc0726ea6ce3cd8e6fa4441194f2bc",
    ("order6-gauss3", "kepler"): "27b0045783d2963dc55afc16f6da8675cf4b88f5438cd57f60add58916b313ee",
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
