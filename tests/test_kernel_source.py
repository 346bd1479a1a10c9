"""The generated kernel sources, pinned by sha256.

Each digest covers two sources of one method, state kind and force form
(per point, or a built-in force's template written inline), joined in
this order: the kernel with the
method's start matrix, which every call on the method runs (integrate,
step, solve_stages, reversibility_test), and the same kernel with the
free-motion start, which a tableau with no start matrix runs.  A change to
kernel._kernel_source or to a template that moves a digest changes
generated code; when that is meant, record the new digest here and say
why.  The inline kernels run the benchmark: the scalar pendulum kernels
pendulum-drift, the d = 2 Kepler kernels kepler-converge.

The rkn-iiia and rkn-iiib digests were last re-recorded when the kernel
began solving the stage blocks of a_bar (kernel._blocks) one after
another: each has a stage that reads none of the others' iterations, now
solved on its own instead of in every Jacobi sweep.  The other methods'
sources did not move.
"""

import hashlib
import linecache
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
    "rkn-iiia": "6a2830eb0a23b4483a1f6682ee443c537b6596cd19821a052f2f838df98381c3",
    "rkn-iiib": "27f309f5e7d8fd77f061c90e11b29f45ccb0169348c6a5c9315f9be71a86dce1",
    "diagsymp": "4c3a3dfc28cc61224b8d8c86e39407daf0d6c9b9fc843bfc1434cc77ccbabd3e",
    "rkn-a": "1d309f5a7922c0b6a1ca9e9374f896c93afe10cf26f0076bc1021b4e7d3b54ee",
    "rkn-b": "284bd2628e279af0ef4dda18acf122a65d9be8288a1180b754f81cfb0a561a71",
    "order6-gauss3": "390589fe66ad82cf3c17617518f458caf347b99397e64553d28d6ce9230091da",
}

ARRAY = {
    ("rkn-iiia", 1, "point"): "ccf4e687a69fd09f680866395d1341a6170b17f3934a0cf7adb87acd90c26741",
    ("rkn-iiia", 2, "point"): "631bd693d9592c1ade14839dc419653f1a7c666ce2f381558fb43ce3e3fd4761",
    ("rkn-iiib", 1, "point"): "2c33611aa8bbc98c32c5f2aa98c3e22d787f50b4da9daec284f31eb96d791204",
    ("rkn-iiib", 2, "point"): "d48c284af267d533391f75be72e12de9170ef71482f94abbd7d6a33078065cf1",
    ("diagsymp", 1, "point"): "526219f3610380ad4e0227fa0923b1ae5ff2fa4f9ee59e23798f96b00bc5b59f",
    ("diagsymp", 2, "point"): "8e976de99fff4252360a89b92df2585d013b1a345d5c4494cd93f4fe793f7bf4",
    ("rkn-a", 1, "point"): "d710065b43f20f5f361fbba24a72e26c5d5c4ab8599c86cdb8065a4ba495237c",
    ("rkn-a", 2, "point"): "5ed1c203a3c30d81cc3ca4e1b0adbe7881dee9e0907a05d335eb56f37e5c3e33",
    ("rkn-b", 1, "point"): "dff1be72fc24c8b4eb316295752e9747e23bfb3cf30dc71621dd63bf4468240d",
    ("rkn-b", 2, "point"): "45b2f1d702f779898b1cd95051fa7c02f4cdeb22542308b9532c30c46bcfb86a",
    ("order6-gauss3", 1, "point"): "693834d1630601fe0eb5d38f4bc7c0a405e54afca3649c8b55a57c8d0f1507a0",
    ("order6-gauss3", 2, "point"): "8bb0ebbc504e449d8a919889bacce5517fd2ca53425694d608e52ffd09b0f301",
}

# the scalar pendulum and d = 2 Kepler forces, written inline
INLINE = {
    ("rkn-iiia", "pendulum"): "00d89370489ff535e6bd5e91feb7bca010cd2e6c9d3f2566c67499a8042a7afc",
    ("rkn-iiib", "pendulum"): "bc1fc09e7ab9dc0544009ec61276b22bcc988ac034784a59880aded0a81025e4",
    ("diagsymp", "pendulum"): "b8cbdb4cc0711e50f2133114c4d8e0501082f31fe25b6989dcadc8c9f5141f0b",
    ("rkn-a", "pendulum"): "e482f5e53c25ddf9765934580fbf00864aef76ee96c7d745ea0e7f43d371728e",
    ("rkn-b", "pendulum"): "a710acfbf4dd509ecc7427bf486a431b6994c40cc2f0f269502c5dbd88c62a83",
    ("order6-gauss3", "pendulum"): "64baa644bf8ac2379ad64e1695ff8c6b2186d009fb3c0b4a3baa456877ab5dc6",
    ("rkn-iiia", "kepler"): "3175dc10fd77a061cb2acc0164e7c5b1ebf5d6aa9236aa95acc4c9adc7a4a1c2",
    ("rkn-iiib", "kepler"): "cb9a7cdb78e7f182bfccf83019cdbfbbc01acbde18dfae3290289bea8e0e1682",
    ("diagsymp", "kepler"): "a68481018888e2266e9b2ebf4d8d2ab0b5db328eeb9d0e563a3a062b8a79894e",
    ("rkn-a", "kepler"): "a10e4eadbf8327a32b79e9f2c69b65a6f0d11e56e544284535535bddbcff9b1b",
    ("rkn-b", "kepler"): "f0571d01c57394b1b75889fa35dfd233a46321884cddd9d7106c977020ac83ec",
    ("order6-gauss3", "kepler"): "4d1b95ff92dddb65a71ded55eaab4d3a530008f31295932a6cbdf9eb091b7efb",
}


def _tableau(name):
    return reference_tableau() if name == "order6-gauss3" else named_tableau(name)


def _sources(name, kind=_SCALAR, form="point"):
    """The method's kernel sources with its start matrix, then free."""
    t = _tableau(name)
    blocks = _blocks(t.a_bar)
    coeffs = (t.c.tolist(), t.a_bar.tolist(), t.b_bar.tolist(), t.b.tolist())
    sources = []
    for M in (_start_matrix(t.c, t.a_bar, blocks), None):
        M = None if M is None else M.tolist()
        sources.append(_kernel_source(*coeffs, M, blocks, kind, form))
    return sources


def _digest(name, kind=_SCALAR, form="point"):
    return hashlib.sha256("".join(_sources(name, kind, form)).encode()).hexdigest()


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
        assert f" start {template.name} " in filename
        assert "".join(linecache.getlines(filename)) == _sources(name, kind, template)[0]


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
    assert f" s=3 {shown} start " in kernel.__code__.co_filename


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
