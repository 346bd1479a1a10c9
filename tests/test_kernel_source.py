"""The generated kernel sources, pinned by sha256.

Each digest covers the source of one method, state kind and force form
(per point, or a built-in force's template written inline): the kernel
with the method's start matrix, which every call on the method runs
(integrate, step, solve_stages, reversibility_test).  A change to
kernel._kernel_source or to a template that moves a digest changes
generated code; when that is meant, record the new digest here and say
why.  The inline kernels run the benchmark: the scalar pendulum kernels
pendulum-drift, the d = 2 Kepler kernels kepler-converge.

All 30 digests were last re-recorded when every failed stage solve got
one failure path: each of a solve's two failure sites is one line,
raise _diverged(message, increments...), in place of the residual code
written out inline, and the kernel tests finiteness one way, a sum of
0.0 * x that is not 0.0, in the solve as in the sample check.  The
arithmetic, messages, residuals and step indices did not move.
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
    "rkn-iiia": "4a5c2a7b5de94c40f3b68c4cfffffa6f2636c5c0f246d40f116197fead4815e0",
    "rkn-iiib": "e5c3fce93dd897bc2759406f724d3c9f2e57b9b3216bfad3ca815b7215f92d4c",
    "diagsymp": "23ad44edd6f13abd491cb151b6253ee1fd427aa6c0caf13c815df23962df5a45",
    "rkn-a": "a314017c6402076d50d64b2b5825974be7ef294e5dcdcfd0383d6f67c24ed333",
    "rkn-b": "6a8233cbb644910e027c7158ee0a65671c00033b526970ce7b27c4fe9a4f0c78",
    "order6-gauss3": "659467b36953d0228a7cfb6ca282258f97884f9bf1ab4fdf23e9442976576b00",
}

ARRAY = {
    ("rkn-iiia", 1, "point"): "c2c1928189850e9f49afa5192c21ea5a46e16f938949537258dc9a99b6175670",
    ("rkn-iiia", 2, "point"): "1bdd3a34824125ba527ee91f3b024c2d309f7167279e0148b6622ee203b69790",
    ("rkn-iiib", 1, "point"): "47a030f2f576e24629be1b961a271d3e86c5fb7f31b002abebed8710ceff5ea2",
    ("rkn-iiib", 2, "point"): "307c0cd80a9b50177cabe792635997a2d84a96ff0ba1e130cfadd642e6d28744",
    ("diagsymp", 1, "point"): "876b3a434c8e2516ec06d608b2cf37511fa42b60db59e7623e342c575bec405c",
    ("diagsymp", 2, "point"): "bae2fa7a328038e4545edebceb999c12fe12400b6dbe8839107171de893915f0",
    ("rkn-a", 1, "point"): "a2d4f9e56c273eee45563be0ad6c86e6edf71be8900cf68c5fb90381263c9f8a",
    ("rkn-a", 2, "point"): "d3755ac615cb8421082d68e536fd34c798d76f313c3835660fa187e3f41be233",
    ("rkn-b", 1, "point"): "b38ac9a5da23593f562e7d01a6cd0c5ab23ec49737e1fc3bf52ac59f1cf49a54",
    ("rkn-b", 2, "point"): "6eb64b8601f6a23ea04d6102bef0394d9a86487b7991c3843f87a8c36d843c9e",
    ("order6-gauss3", 1, "point"): "a39f22c90e604ec81e887c202ae4411e1d22c2d15fbbdd9e64a4f52b5f9132fe",
    ("order6-gauss3", 2, "point"): "541b76ec6fb1cb2c3ed4779dd952d7797c31f7c248770c31384a0ba7c2c5c9d3",
}

# the scalar pendulum and d = 2 Kepler forces, written inline
INLINE = {
    ("rkn-iiia", "pendulum"): "72f27d6d7e80c57c5c786837384265213c6d437eaef02cbe9bfd16bc1a86e9c1",
    ("rkn-iiib", "pendulum"): "8127856059c018b82e87a68f0cf400687944f51092a63914f800eeb2c1e843d2",
    ("diagsymp", "pendulum"): "12aa13fedf00e16844c6b5b66fa7edf7d5610673fc2c4d081959071966907ea4",
    ("rkn-a", "pendulum"): "27430183656e0624ede31bf7cf8a6a921de7f41fe77db80a559b2833b6e54f05",
    ("rkn-b", "pendulum"): "3d7ee5ec4946245f6fff6027777d929bbb831d2d635ab503caba60a692aff38d",
    ("order6-gauss3", "pendulum"): "622f2c0bae3712b1ba8159d15079460ddeaf541e297cdf823d37fe1ceb27cd90",
    ("rkn-iiia", "kepler"): "ce7f97fee365773d068b69a5e3f7fb37b641ff2ebadfce41e41f81a5de98430f",
    ("rkn-iiib", "kepler"): "60fc2ab0bb1b621d6f1e4dba3f14dba5885370e3cba5cd4e52efabb40d47328f",
    ("diagsymp", "kepler"): "ef5d467ed99203eb6f2b0ba166990bb0ad36ebf203c68536d2480cf084475d1f",
    ("rkn-a", "kepler"): "797f91715134abdfdb64adffd8aa2422358cb68a5bad780ea4def4c23ca3a452",
    ("rkn-b", "kepler"): "c9cb6648af0df39dc80a034cba57094860d76de8218776923037001879749c33",
    ("order6-gauss3", "kepler"): "73c44e002fa3a75966f8b5bbcc16d2e3b7324619a2e097e1ce668419f69f716f",
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
