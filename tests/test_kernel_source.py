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
    "rkn-iiia": "97bb0dcbd468dac2a49361d4c2a1dceeb698f4c3a453391a44b411174c780de1",
    "rkn-iiib": "8cbe82f27353ef81e42ab2904b0cb8360158e55da2b1f65ec2d16eb22f2da239",
    "diagsymp": "c0a1cdae0bf8a08be630eb5c0f19ae821f304ca27f036e1b8c811c9851354411",
    "rkn-a": "ceacfab4f98100697105774ee0864f6c2278e4d2c9bc5fdf830b9a80d0da4796",
    "rkn-b": "07805705cfe27ca13ec33e6c35aa77b5aefaf238b77f57ec7d8643f122673852",
    "order6-gauss3": "127f64c18b37b607febaa67d05e85ba7bd32aa4c08415261e1a61490db1bccf1",
}

ARRAY = {
    ("rkn-iiia", 1, "point"): "90cf936b9041732af5851f1b55c4dd0736468ff691ed4529eb1e95d26f447495",
    ("rkn-iiia", 2, "point"): "d1225f158ee7b5feb7378b3ab6e95471b69f8c5e6e298d7deb0f36f1f4b122d7",
    ("rkn-iiib", 1, "point"): "6bb650be1673762c6b76cc9e900cbb88a958e6e68d84812d49380b9fdba4f4cc",
    ("rkn-iiib", 2, "point"): "024b79a8a778b8d523f59ba727f6384012357e116c9a5ce6cb2248eff035ac6b",
    ("diagsymp", 1, "point"): "f815e34004ef5ac7b4150513cc6db162001cd56aabd482a3e95327e89380345e",
    ("diagsymp", 2, "point"): "b067a641a9f3885d99101300051d6e157d251cbd77a379cfbe36bbd35cf1344d",
    ("rkn-a", 1, "point"): "40a4a003f49a2b75b2e253a116dc3df46118fc366f0f26c0ee33a93ea0c56709",
    ("rkn-a", 2, "point"): "dc24c23d9541fec43fcec66c054f32fe4af406bd09aac8a23617b47381bb46a7",
    ("rkn-b", 1, "point"): "d1cf9bcfd040c23dc242fb4d76ecde39ea30e3215ba5116c0ba9625077412b12",
    ("rkn-b", 2, "point"): "23b78a61f9925969741202793e8fa9cff26578f787b91d4ecc2a95b87c65d54e",
    ("order6-gauss3", 1, "point"): "de4888978fc584e377fc4b066e691eeb7385477c94a790e435c032dafeec685e",
    ("order6-gauss3", 2, "point"): "fee51564fb0b395dce65cfb7ba777a62a48a90a1e6b82676d8ce9ef44612fee1",
}

# the scalar pendulum and d = 2 Kepler forces, written inline
INLINE = {
    ("rkn-iiia", "pendulum"): "e7ee28dbfb327927e3377098342d509a519d907b4ec3eae61bbcaf208fb38432",
    ("rkn-iiib", "pendulum"): "8530689a6a8e79a0ee349982956353c03ae1ff104aa510039394d0bd7730a605",
    ("diagsymp", "pendulum"): "b8cbdb4cc0711e50f2133114c4d8e0501082f31fe25b6989dcadc8c9f5141f0b",
    ("rkn-a", "pendulum"): "2483ba6f030aa0d6d9686dc8a55d88c38284d00be2db4e84dd2b6a04084b2fe2",
    ("rkn-b", "pendulum"): "0734e1a0ee9e9da84860447750fcf1c18f6534ceccd006ebc186ea6972f5faae",
    ("order6-gauss3", "pendulum"): "6381de951df9692141bb6c59e3b5ba0057453d49a926eaf450c0e164325d0978",
    ("rkn-iiia", "kepler"): "a9a05c3b7f0d9daa23c31e6d1a681553524c924050e0885687c5b136aa6bb982",
    ("rkn-iiib", "kepler"): "05c95ba41b7d8dffc1dcc7f6325622ea868d526ffa079c5d688727ad014806f9",
    ("diagsymp", "kepler"): "445ba92157f5e0f39ac63d9d68fcb5fe598ec4fd21fafa2785acc0e0e03aee61",
    ("rkn-a", "kepler"): "703e02e9436d54c5c7f90934612137bf7ef5a44b9eea75230ea43f465eb1e6a8",
    ("rkn-b", "kepler"): "05c2ff738a42df890c3e913fb7979f5e8da48b8832fdbdfdcf688c2e9b26573b",
    ("order6-gauss3", "kepler"): "bd168813769683da15618df4968b2e3062732724bf7d3758257da875f3c9f378",
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
