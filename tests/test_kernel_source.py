"""The generated kernel sources, pinned by sha256.

Each digest covers the source of one method, state kind and force form
(per point, or a built-in force's template written inline): the kernel
with the method's start matrix, which every call on the method runs
(integrate, step, solve_stages, reversibility_test).  A change to
kernel._kernel_source or to a template that moves a digest changes
generated code; when that is meant, record the new digest here and say
why.  The inline kernels run the benchmark: the scalar pendulum kernels
pendulum-drift, the d = 2 Kepler kernels kepler-converge.

All 30 digests were last re-recorded when the kernel stopped taking
sample times: advance lost its ts sink and its ts(t) line, as integrate
takes the times from the step indices.  Only the per-point kernels keep
the step's time t = t0 + k h, for their stage times; Kepler's unsafe
fallback takes t0 + (k - 1) h + hc{i}, and the pendulum kernels, whose
template has no unsafe test, end a ValueError from math as a divergence
at its step.  Every digest moved; no trajectory bit or workload output
did.  The five pendulum digests of the methods with c_0 = 0 moved again
when those kernels stopped writing hc0 = h * 0.0, which nothing read.
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
from test_scalar_kernel import METHODS, _driven, _pendulum, _sign_of_zero, _tableau
from test_scalar_kernel import _runs as _scalar_runs

SCALAR = {
    "rkn-iiia": "8c3594398f7a2d9400af0e04bd8964c1ba3ad4fd0454bc578d711471a9c306e7",
    "rkn-iiib": "048fad2a292c91c0a671149206020c905532e1fc63d25da359560e372a25b1aa",
    "diagsymp": "2a411402a10d2ec6f0b8f033e7ac9e882bba29f8c9e812c26aa87f32ae03e626",
    "rkn-a": "e5c648953eda25f7e287e9d1f9724ee45ac40c5f9db78a1d3674ca8164c521dc",
    "rkn-b": "8bd04445472335396a416ee3ca809ec57e890c0b7e482d7b32db55c969e980a4",
    "order6-gauss3": "437f0003d9af8adc8aa289f8c83b1516fe66570283c746c3f1969a7282b8c7c7",
}

ARRAY = {
    ("rkn-iiia", 1, "point"): "90df5ff3e976176dd0828ccf248d6a9255b5ea434791f68b2ed1dc305694c410",
    ("rkn-iiia", 2, "point"): "b454dbca7db1c6972a24c21869c0acf48c0392307c35d837d960aebe834cd490",
    ("rkn-iiib", 1, "point"): "0e7645f889072e0b188d9afb695db659919b6eff30200e079a90ba3bda455397",
    ("rkn-iiib", 2, "point"): "c8a946ec9ff1b33ad3aeb1f2d3ce597cde3994819086394834f359b1f1ec0714",
    ("diagsymp", 1, "point"): "4a4c1f7ef400289d4bfa6affe48cbe6408e23b3ff7abab4a384025c8222b14e9",
    ("diagsymp", 2, "point"): "0e72e7d65d6e250c6bd423dca0a146bd1887fed46a19f28f164becb19ebf9a41",
    ("rkn-a", 1, "point"): "325a9162d499ca9edce4d2705e34229137d87075ef0f37f7497cb4e238b1e50b",
    ("rkn-a", 2, "point"): "4129c06ee780bbec7dc05334fe2ff058d8e2fe954622595fb8a75e9e628fafd1",
    ("rkn-b", 1, "point"): "7b6779b95d2bbf22ddcee61af2772ebe5d8b81c94bb01816dff9640452c7a5fd",
    ("rkn-b", 2, "point"): "32948143985fceb21cb685a41a3f160d80b87961d426573b969a721d6e81cbcd",
    ("order6-gauss3", 1, "point"): "8f685cae3d1676220cdb6038daf7085560814020877a4751ae4451d3c68ae51b",
    ("order6-gauss3", 2, "point"): "5ce510b810b55bd326230e41323b30b04037a6066bbb0af6f309c46e219ec08d",
}

# the scalar pendulum and d = 2 Kepler forces, written inline
INLINE = {
    ("rkn-iiia", "pendulum"): "64f0e658e7b50158d72c92be2d8a8333f7dc039f6e103b9ff64190149ee1ba91",
    ("rkn-iiib", "pendulum"): "b2c67283b25dc60cf790ec48c7575207318404cdc198c39ea58c5e478c8fc280",
    ("diagsymp", "pendulum"): "6cb16e63966972529e11ef721181e8ac8f910bf02ab5ec21b5171d2c0dbc29ed",
    ("rkn-a", "pendulum"): "743c1cef3a11d1b1e014c1a74b8ee0e89680624129d0a35b08765ea5a45219aa",
    ("rkn-b", "pendulum"): "a5aca6322fb1ff683158dd3011ac90dc211f22693d393a98aff6659d14cc118e",
    ("order6-gauss3", "pendulum"): "db0b78bd26f71f1dd2d9f53b6a128ce699133fa4232eb4606b8efa06b0c3d693",
    ("rkn-iiia", "kepler"): "f3ecdfa338e4f472bb0388874c7ccd21a9f64fcbebc716a6e01c197cf5d706ad",
    ("rkn-iiib", "kepler"): "2a8202e0526c048cc33440084fc97b0d015d522b1a84ec8b6a3efca026b52a30",
    ("diagsymp", "kepler"): "d7f05cfb630c17689f8d30a1c7c5b86bbf250b1ac00fa4063248adbec64591eb",
    ("rkn-a", "kepler"): "75b6d8b031aab74d6aa5199396870094bcc5d6625f7d30d938cf51da7dcee0a0",
    ("rkn-b", "kepler"): "82ef8ac3f43590ac14cd930d85dd3c63a4bcfd2171310e989c8eccc003d9f127",
    ("order6-gauss3", "kepler"): "ec73cd5f008fab76563b0d3c5faa2b07bc38ef040236e862c2cfd579931a734d",
}


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
    # and its kernels keep the bits of the reference loop
    for f in (_pendulum, _driven):
        _scalar_runs(t, f, 0.16)
    kepler = kepler_2d(0.5)
    for f in (kepler.force, _driven_array):
        _array_runs(t, f, 0.05, kepler.q0, kepler.p0, steps=20)


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize(
    "form", [*FORMS.values(), (_Floats(1), FORMS["pendulum"][1])], ids=[*FORMS, "d=1-pendulum"]
)
def test_every_hc_a_kernel_writes_is_read(name, form):
    # in every form, and the pendulum's template inline on (1,) state, h c_i
    # is written only for a base, a stage time or an unsafe fallback
    source = _source(name, *form)
    written = re.findall(r"^ +hc(\d+) = ", source, re.M)
    assert written
    for i in written:
        assert len(re.findall(rf"\bhc{i}\b", source)) > 1, f"hc{i}"


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
