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
    "rkn-iiia": "c53bd539711aa9a940cc5515c490ed6a1776500f05afd00409f2ff69e9bce0fb",
    "rkn-iiib": "45c7c9be2b089d3f9e613695018017f21531779c80b632d92ff7fd8b800eac20",
    "diagsymp": "7abfdb8c31f9a6b7c462ed4f048b9b6ce4c8ef9ae2d1d84862685f25d09dcbd9",
    "rkn-a": "7d29da5cf12d4634370803ab3602b25d17a00778a306711d0b60d7ebcfa09efc",
    "rkn-b": "932ec9ae28c1a33c5a032ba5a5694683212fe096a5d23cbe08abcb6cf79a8568",
    "order6-gauss3": "1157b5cd88de45dd3287c254b6f78ff327e48bdd6a4bb3975b93261bb4ea8550",
}

ARRAY = {
    ("rkn-iiia", 1, "point"): "4893ca9c865691b7202bd411453e74ca998df1c63d7438f079408ec6aed95d81",
    ("rkn-iiia", 2, "point"): "8cf9e44addead28b0034fee97431ba50ac49d4bf9a2d9aa62eec05263ddb6bcd",
    ("rkn-iiib", 1, "point"): "f36b911eac38fbcb54c908392667f229f06a750268af5840a6f1955d5affc67d",
    ("rkn-iiib", 2, "point"): "a7816f56152638abfb9b8efee46ce79038706033836b9b6f2cfd8e7ea9c08395",
    ("diagsymp", 1, "point"): "331ce1c6a6973ca04f4346a895d44c67b94f8b892d8ce79598f111b64fed77df",
    ("diagsymp", 2, "point"): "223b05f04f3b3f4679590f53a6af86ede32268f9a09bc484ca03bc48254e2615",
    ("rkn-a", 1, "point"): "c92af4eec42b58d291e0dfa88f125f56f9cbec3ca0d199b2e50621ebf6279d5c",
    ("rkn-a", 2, "point"): "355e85f5aca6471cd49390839f8eec35e16f40287db181fd37950c03ce9a8c37",
    ("rkn-b", 1, "point"): "457ab39a59affe1c790026fe23e4afd5e232a24ca1e76ffd2863f4def43c1647",
    ("rkn-b", 2, "point"): "f56a962e53fef40f611c4892cd562f5c71778a8df9bc9ec025de7cc449b4531f",
    ("order6-gauss3", 1, "point"): "dae7dc9ed60ab0b3d5bf98a853d9eba556363215d95741b8dd816b4bf15b9016",
    ("order6-gauss3", 2, "point"): "0c9eb071c2f4c3cfbddfa28d3381ce6c4f0684841431637723f01d08108dbe62",
}

# the scalar pendulum and d = 2 Kepler forces, written inline
INLINE = {
    ("rkn-iiia", "pendulum"): "35c51572266de9eea44099e0cca54abef16f8a819fc8e6814b85f9930f989c8e",
    ("rkn-iiib", "pendulum"): "d321b6c75c605cf9edafa3d597c67c8d578b80876fac06b2ae3c42a2543d06be",
    ("diagsymp", "pendulum"): "49df7b6a50cff97d7cd57721546c52a6e7ae8de1fa3e9bfc6b5b918ea3f06928",
    ("rkn-a", "pendulum"): "25785c29092f21a0f5c016e8c94e0f8db86081be6f373f9aaf21b9d58aea2fec",
    ("rkn-b", "pendulum"): "42800b7d67a7122f26aa1444a73e9a82c7710799f44c37e20798d160bc3cedee",
    ("order6-gauss3", "pendulum"): "2a36adf4d48d0bd293a0ee4f8459aa3ae0fbf0700c7105086aa9a17c705c7646",
    ("rkn-iiia", "kepler"): "499bce8e18afad43ef341292660a1c3c295c88a12602dcb0d3c63965e4034b7a",
    ("rkn-iiib", "kepler"): "a086f2b8ff2052166dfe51725500f5c88f9b2030fa946ea9442d808d76072334",
    ("diagsymp", "kepler"): "54fad0f62835bd1b40d1f2dd90e16dc368fd17a2da47614d6935e31d847a615a",
    ("rkn-a", "kepler"): "0c386b461570cd094f216b247d121ba48c247b1f5dd76d46a2b25ef49de186ec",
    ("rkn-b", "kepler"): "d4b97394f93d3b3bdc5a0b392774cd1a2a7338a207b3175d9d887016760fc473",
    ("order6-gauss3", "kepler"): "aa0aa12b87a97c34ccedab9f8713c58969f908b65f2d712eabdef95456ea7109",
}


def _tableau(name):
    return reference_tableau() if name == "order6-gauss3" else named_tableau(name)


def _sources(name, kind=_SCALAR, form="point"):
    """The method's kernel sources with its start matrix, then free."""
    t = _tableau(name)
    sequential = t.lower_triangular
    coeffs = (t.c.tolist(), t.a_bar.tolist(), t.b_bar.tolist(), t.b.tolist())
    sources = []
    for M in (_start_matrix(t.c, t.a_bar, sequential), None):
        M = None if M is None else M.tolist()
        sources.append(_kernel_source(*coeffs, M, sequential, kind, form))
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


def test_only_the_kernel_module_compiles_source():
    # generated code comes from one module, which writes only library
    # floats and templates into it
    for path in sorted(Path(symrkn.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert ("exec(" in text or "compile(" in text) == (path.name == "kernel.py"), path.name
