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

All 30 digests were last re-recorded when one text began to solve every
stage block of a_bar (kernel._blocks): every base sums the stages solved
before its block, an explicit stage is decided by the generator instead
of a run-time test of h^2 a_ii, and every sweep adds w_ij F_j over the
block's own stages, with w_ij = h^2 a_ij taken once per run.
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
    "rkn-iiia": "77a156ceede9985883c7e7d261068e4f8ee502dc4ba24ae1eaab8cdd29c4369e",
    "rkn-iiib": "ae877e6fbb830c6379f644ab58553971348dd5ff210fa95af8db5eb6df0e7e8f",
    "diagsymp": "0258063f171da005b6769ca79c2e5fa0d67b1e7862985fd5f95c50770b4fbd72",
    "rkn-a": "7cbffeae95686766328217cd7ffaf4203c0bf9ef4032c673bf22b2f05ef3233c",
    "rkn-b": "2d31816193acec0ebc40e3cb49de262e3b4c5f6de1f5ea786b85680391909a76",
    "order6-gauss3": "92e84cd1a234e1162113c774c423ff2838a01e271aabcd90c7bafbeacb6b4aee",
}

ARRAY = {
    ("rkn-iiia", 1, "point"): "f35137f19a04c773ad28b13f50ac019708891476cd064a762fee49ad50e733a4",
    ("rkn-iiia", 2, "point"): "554ff4e544524ca59f9d2de200a5bf131fcc6510192a1384a35f4c9cd09bfcbf",
    ("rkn-iiib", 1, "point"): "aa35ac597ad7feb1a2a5956bf57555ebf537ebe4a76498895117d0b2a7f20197",
    ("rkn-iiib", 2, "point"): "b89f260dfcf5f644ba852c1a188de2ba4f801ccc1bb594e63a26741c96ea1481",
    ("diagsymp", 1, "point"): "08ade126f5b8c983402d0deeae53306ba7cba6a43dd29ab49498548af3e08faa",
    ("diagsymp", 2, "point"): "7fc261f3aa2f6c93ec354d03f92b6728629ba21457bc008fb60e8bae2b870a26",
    ("rkn-a", 1, "point"): "135ca1a15e491916cad3d3405a370810586441d4b973645638cf0f4c4139d688",
    ("rkn-a", 2, "point"): "068687406c2b2c0ee53c8be15054ef70b2090b468c2f5790d7bde3f20c64a637",
    ("rkn-b", 1, "point"): "5f7151c97e90c9a8876cbfda3907ebd014120080ab38adf8f59786c59614ccb9",
    ("rkn-b", 2, "point"): "d57e20cb97954e4eb060aad636ef3f1dae19524a40b4b070f206b44542bbb20b",
    ("order6-gauss3", 1, "point"): "0db81610995dab26051bc18640292dfc6a3a56aca7e9d2d3c31c7f0602151cf2",
    ("order6-gauss3", 2, "point"): "03bfe79a62b8781a3f6b8479b7104ca232bd7d4560bddbf929aaae155c382035",
}

# the scalar pendulum and d = 2 Kepler forces, written inline
INLINE = {
    ("rkn-iiia", "pendulum"): "51d543f3079032a1e1dccc87a402d64d6a30ffc978c9d9b612eb74ec632435e9",
    ("rkn-iiib", "pendulum"): "b016e46ebf28384d7df009aa6f85e37111a10f4bb95f01120536c1cf9809ecf2",
    ("diagsymp", "pendulum"): "1dfb2e124c3555b0bfc9150184d638769098bf0c51b779c6f8267291f06b9a40",
    ("rkn-a", "pendulum"): "bd7dcea7882a7d2f94bc013624b8836cc5dcbb4aed1102fda36d24ae59df17d6",
    ("rkn-b", "pendulum"): "a8c8f43420d91f7552917ac5f5766ee784a5ab85b3c29a4e71289064d6502d9e",
    ("order6-gauss3", "pendulum"): "ba3b925a91a8c384fd1ae582f2241a21b85ef96173b8f274695d1dd0ed81a9fc",
    ("rkn-iiia", "kepler"): "0f8bf917af3cabb406b9b8231be9bf430bbe062cc0b2744a08e1a8cafc6e48c5",
    ("rkn-iiib", "kepler"): "15c3882d1941bd75402b8c02da99d5f172fb612ea733d117cdc7d035e59df6ac",
    ("diagsymp", "kepler"): "599a7553e3c917014d7ee066457980a3a4fecb5c8ddb21b162be7819e3c3690f",
    ("rkn-a", "kepler"): "fd7c1a7421532cc9ff1a83b55e1714eab50c8324396c9b89e549398b5ba57741",
    ("rkn-b", "kepler"): "9b79fc0762396d378d372108aace0ef857c3687b2eacf144294d0ebafce40154",
    ("order6-gauss3", "kepler"): "a1e740766061f8442c1dd47aaba90ae778811a7f6838eb83218ec1de97a00f75",
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
