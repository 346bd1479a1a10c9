"""The generated kernel sources, pinned by sha256.

Each digest covers the source of one method, state kind and force form
(per point, or a built-in force's template written inline): the kernel
with the method's start matrix, which every call on the method runs
(integrate, step, solve_stages, reversibility_test).  A change to
kernel._kernel_source or to a template that moves a digest changes
generated code; when that is meant, record the new digest here and say
why.  The inline kernels run the benchmark: the scalar pendulum kernels
pendulum-drift, the d = 2 Kepler kernels kepler-converge.

All 30 digests were last re-recorded when every stage solve got one
start rule: the previous forces P{i} are set to 0.0 once before the
first step, every iterated block starts at its base plus h^2 (its start
matrix rows times P) on every step, and the run-time warm test, the
free-motion start, the F_prev argument and the returned forces went.
Each digest now covers one source, not the start and free-motion pair.
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
    _Floats,
    _kernel_source,
    _kernels,
    _kind,
    _start_matrix,
    _stepper,
)
from symrkn.problems import _TEMPLATES, kepler_2d, perturbed_pendulum
from symrkn.quadrature import lobatto_rule
from symrkn.tableau import discretize, named_tableau

METHODS = ("rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b", "order6-gauss3")

SCALAR = {
    "rkn-iiia": "6464275c361499fccdea866bd4e36f16333adb38789a33a75127179761ccc522",
    "rkn-iiib": "254797495ee3a9fe355ba255084e85cdb7732582b7548a6f3356714dfff4d82c",
    "diagsymp": "7399c0dcf059ea5c1973723b7b115e3d47576c473a9f4b439e2b4ad7308e28f1",
    "rkn-a": "982c2c02a9c83f1c9c3dc3367d5bc6cff8de893719e51c8785a7b3bbc5a3a9fb",
    "rkn-b": "b4d31ed672736570823611de87afec31424cae80432ea73f7598791306e5d538",
    "order6-gauss3": "bff1ef35842f82ed3d32bc3cf7ade29aa2981755d2a7587c5111b6b8113ffd68",
}

ARRAY = {
    ("rkn-iiia", 1, "point"): "2fcb94119cbd7980cdf057c3ce3a8791f7dad53d0f7b163b12be2d5c74025e3b",
    ("rkn-iiia", 2, "point"): "4598ff690acee1550aef8651843bbe3723780ab72a06037abaa5e2be426d9510",
    ("rkn-iiib", 1, "point"): "453b4b4777681cbe54c71cf65dd1506d630664751fc6ee501d40811ee2d50242",
    ("rkn-iiib", 2, "point"): "9914b6346129d2a05b533d8d75cf588d35fa93737babafa1076766c351b7bc26",
    ("diagsymp", 1, "point"): "c1ccb3973c3443fab419d3e45999400624aa76a9ced330405b37b583828a85c3",
    ("diagsymp", 2, "point"): "3577c69953147183d9bc0cd40f4791b4c7706d9c3ac6dca61aacc84373f2b4bb",
    ("rkn-a", 1, "point"): "68050e5b2fd2d1855535b508d03ce7d5db82b4ca58e010e323e837bae4c01e68",
    ("rkn-a", 2, "point"): "582aad879bd91de69d030486f760f8b076e1b1b4aad9ca3e9fc9df814343ae65",
    ("rkn-b", 1, "point"): "d500976a2af015737707ec5aded74b9eab19abd7dc8b04599b9d976a75dcd3ed",
    ("rkn-b", 2, "point"): "1926e414578afd989edc8f0f0e9f68f752e730e18e9da15034bf908f9ff29e3c",
    ("order6-gauss3", 1, "point"): "4c2e9ce44183f3664b879b93a77f98ce9fc301a16fa919b324d3c85622b918be",
    ("order6-gauss3", 2, "point"): "7e8b87dddeeb78a51cc9b0f6e5a3cf318205fc915f9a7c90b631196f6ccd2b93",
}

# the scalar pendulum and d = 2 Kepler forces, written inline
INLINE = {
    ("rkn-iiia", "pendulum"): "e6a1e74053275d088dc9393e4aa135a4c78a4bf0e55a7a19b2b1ecdbbe68fcac",
    ("rkn-iiib", "pendulum"): "a2edf09fd8a7e35977954c831e4819c5b953745e80eb5bd6bcfe3989d15172e4",
    ("diagsymp", "pendulum"): "513f99bc882f2365957186353988a76b305491905f79b98b149fabb561c52ee3",
    ("rkn-a", "pendulum"): "83f99281fe20878f98797895729138ce9cd597159c48ad2f1cc45c3fba0a6869",
    ("rkn-b", "pendulum"): "1ff9242e2ae6b87cc9c3846d2b738c2eb46c6abbf2c1c57cf7671976e89a4f2c",
    ("order6-gauss3", "pendulum"): "92a1b49bb7782402d46606e1ffc6d3a86e17a4e95d014dce0cc40242d563594b",
    ("rkn-iiia", "kepler"): "08ae258adb6d5bd5299b5e0ef235d32948b97106aa712bb63a9fbeb9b3ac30c1",
    ("rkn-iiib", "kepler"): "fb159f7bc1dd425d66acfef11a8a17f8c5a028e470e0e3b9de79c65a9034ba7d",
    ("diagsymp", "kepler"): "ffe5998d65602aa9b75cbf983beb3d4cd5cdcacfcb1ab5e18d28a147b3e084ad",
    ("rkn-a", "kepler"): "f6ca4d6f6d6ec78315703d0fe713f3a51af88f082fbcd071058d0165b6dc4686",
    ("rkn-b", "kepler"): "d4b677634652a21b6dba90d6e5c3f84d6363cffaf6e2f5280f7295eb5cae76b1",
    ("order6-gauss3", "kepler"): "b54e27bc878689ff0833571b3367f9d484e1ce50078a6b903b98e94b216025a8",
}


def _tableau(name):
    return reference_tableau() if name == "order6-gauss3" else named_tableau(name)


def _source(name, kind=_SCALAR, form="point"):
    """The method's kernel source, with its start matrix."""
    t = _tableau(name)
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
