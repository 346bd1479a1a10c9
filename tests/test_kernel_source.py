"""The generated kernel sources, pinned by sha256.

Each digest covers two sources of one method, state kind and force form
(per point, through force.stages on array state, or a built-in force's
template written inline), joined in this order: the kernel with the
method's start matrix, which every call on the method runs (integrate,
step, solve_stages, reversibility_test), and the same kernel with the
free-motion start, which a tableau with no start matrix runs.  A change to
integrator._kernel_source or to a template that moves a digest changes
generated code; when that is meant, record the new digest here and say
why.  The inline kernels run the benchmark: the scalar pendulum kernels
pendulum-drift, the d = 2 Kepler kernels kepler-converge.
"""

import hashlib
import linecache

import numpy as np
import pytest

from symrkn.cscoeff import build_order4
from symrkn.integrator import (
    StepConfig,
    _kernel_source,
    _kernels,
    _start_matrix,
    _stepper,
    integrate,
    reference_tableau,
    reversibility_test,
    solve_stages,
    step,
)
from symrkn.problems import _TEMPLATES, kepler_2d, perturbed_pendulum
from symrkn.quadrature import lobatto_rule
from symrkn.tableau import discretize, named_tableau

METHODS = ("rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b", "order6-gauss3")

SCALAR = {
    "rkn-iiia": "8e5b832473022a4bc856df59ce993b680f2328c360f52b6672ea39d0032a8591",
    "rkn-iiib": "f226d5233ddfd0d5f9b06db334d1508bc81a42e0fa224ad11e7818236a6b563c",
    "diagsymp": "b92aaf1163d153b7ba8fdbc97545c2f5e97e10b88854a30697fb3abfe09b9670",
    "rkn-a": "cbc23a81413e86ed0b3f3ce940b2454ccaba1a5678a53e94cec5cd59d3ad27a8",
    "rkn-b": "a75fdc895511dd389101b225b1fe88c941f52730d404f5d7da00bc8769ee2ffa",
    "order6-gauss3": "6699496b5ad808d3e7e99c90a5c5bb0b0027ce4d5756c0e982e6ee110dec5193",
}

ARRAY = {
    ("rkn-iiia", 1, "point"): "36e05ee41cd5a26b9928813270169f08646526da79827e6976d92f3e333d41b6",
    ("rkn-iiia", 1, "stages"): "00d283799ff504ffe29b54857a01038afeb64f8c273033bbdb7f6fb9c0e5edb9",
    ("rkn-iiia", 2, "point"): "a977f0bae70a1a6ac79945a4931f5c57735c2bac18f5bb10180abbd80800bd7a",
    ("rkn-iiia", 2, "stages"): "c6caead2687e55335ce971589566ed01bdedfd339240c085291ddc46157efbeb",
    ("rkn-iiib", 1, "point"): "9aa9b3216e88f402c250444aa46f3a6453606e8aa8d1baed715441461923ffab",
    ("rkn-iiib", 1, "stages"): "cd1b529b3d95a68d0a763017e496f8b09c50f76f3f1cc9f62fd468f5fdb40de4",
    ("rkn-iiib", 2, "point"): "9447aa9e24ef1527238c70e11f8ac89a0c5473587dc19f0571553ab397f3cb49",
    ("rkn-iiib", 2, "stages"): "3f17f044259c253ac959e6636ddba4b8565b00fc4e17a720fefdab38aa76bdb4",
    ("diagsymp", 1, "point"): "054df4015a2304b1dc2fab982563d265d7a036bd61fcc611bd0b9a64fa3b7121",
    ("diagsymp", 1, "stages"): "8a2b9f0e6f0fcb1ecf43b6525f42896b49c6d32202ae0e921a3813b5f52fae31",
    ("diagsymp", 2, "point"): "7121ff2dcd91a1af4410c79e17c76caace9ae0b75499f130105ed0006b64c7cd",
    ("diagsymp", 2, "stages"): "0b8ca7e775c9f00e51a5d53f2352d509f470d54e905dea6e10bcc87d7cb01f01",
    ("rkn-a", 1, "point"): "a1a14e0676c76a3d6eff4120d41cd06a3b9e8758c42e3d964d7f395d221d3f8c",
    ("rkn-a", 1, "stages"): "d047c6e241fd73d38c6466bb4aa61b531620dd73ca87ba0b79183c3d3a93706e",
    ("rkn-a", 2, "point"): "e0b00d493deaf2bbed6143c0d2efb22a1a214dd77193a44a7a7ec045baf57f9c",
    ("rkn-a", 2, "stages"): "e73b246cd6725c680ba5d2933c23601af26525be18dfd49409022996a59e7631",
    ("rkn-b", 1, "point"): "e519a3a560307cf0279dbdd0da15ae2b701daa84bd4a297106cc3829f65994cc",
    ("rkn-b", 1, "stages"): "669a11b854adf2785b1588a20216887432a1fc6724e445983778e300342bdde5",
    ("rkn-b", 2, "point"): "d65e50299a236374bda92b1ff6e19f6262e0c93cad5db071b83e00b90122df4c",
    ("rkn-b", 2, "stages"): "026d1944fd7f2612589a0f107fcbeb1dfccc1a1aa431fce7ec7ce5016b0df563",
    ("order6-gauss3", 1, "point"): "91a571c4ba8017f7e00203b51beb5f60b513bdf234a15d27cc5a4c8fcf927afb",
    ("order6-gauss3", 1, "stages"): "f1cb51454a3bfebb32465bb9fb7b0e37ca9d4320268591d2687ca3f3ad00ebff",
    ("order6-gauss3", 2, "point"): "19871d5371cf50c68d15aad897f8f6f44951af0aacf2f98de66c05e4335542ab",
    ("order6-gauss3", 2, "stages"): "04ab76e68adfd07eb5c66dfb56cbb4f6889dbdc33e47c891a72195aa5ce9aa9f",
}

# the scalar pendulum and d = 2 Kepler forces, written inline
INLINE = {
    ("rkn-iiia", "pendulum"): "188ba752d864e456aa2365475b28638e431f2cd977f65184c2cd14d9ebe79124",
    ("rkn-iiib", "pendulum"): "6dec8238acdf608cb9bd84d4c52902b4a0cf1cf7743302d45f3d30f640d33620",
    ("diagsymp", "pendulum"): "16c35521fd61fd0b632bb6e5963c781079609c25f401709f9f087c08061742b1",
    ("rkn-a", "pendulum"): "807c03870b2f92fb950248ae3005ae9ff15e79a34e3d5c67de7c807a13ba875b",
    ("rkn-b", "pendulum"): "95087adc810125077d3dea990fbe8e07dc616c72f92dc240476a985464a4e583",
    ("order6-gauss3", "pendulum"): "3ece45b09055717b030579a787ac8b2b1cfa4b62efac3b077d43bf835cc9d8f2",
    ("rkn-iiia", "kepler"): "fde84f3ad2287808f141ce60183f71dfc180fb49cb6dbf2da6fbdcbe64acc205",
    ("rkn-iiib", "kepler"): "415e690270c844b6e2db1d7d2091352eea7c75ee9262b53f4f0398162a6fa57d",
    ("diagsymp", "kepler"): "1a2f6e8f7e8958e6ef63e3582e1610d78fd0a494befc8940f02b863beccc9077",
    ("rkn-a", "kepler"): "b39c6a88e287ff6e3adcfd229043b215bac35d978f7e9398eead8f414cae4e89",
    ("rkn-b", "kepler"): "f3dbc8e74aef48f6ed897dabb1b01bcadcfdc61e409d40c334e7c0acfe2e294e",
    ("order6-gauss3", "kepler"): "1c44284a281f55a1f6dedf457049d4a96cb6683ea975c20e40b88014f82d5d23",
}


def _tableau(name):
    return reference_tableau() if name == "order6-gauss3" else named_tableau(name)


def _sources(name, d=None, form="point"):
    """The method's kernel sources with its start matrix, then free."""
    t = _tableau(name)
    sequential = t.lower_triangular
    coeffs = (t.c.tolist(), t.a_bar.tolist(), t.b_bar.tolist(), t.b.tolist())
    sources = []
    for M in (_start_matrix(t.c, t.a_bar, sequential), None):
        M = None if M is None else M.tolist()
        sources.append(_kernel_source(*coeffs, M, sequential, d, form))
    return sources


def _digest(name, d=None, form="point"):
    return hashlib.sha256("".join(_sources(name, d, form)).encode()).hexdigest()


@pytest.mark.parametrize("name", METHODS)
def test_scalar_kernel_sources_are_pinned(name):
    assert _digest(name) == SCALAR[name]


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("form", ["point", "stages"])
def test_array_kernel_sources_are_pinned(name, d, form):
    assert _digest(name, d, form) == ARRAY[name, d, form]


def _problems():
    """Scalar and d = 2 state, each with a built-in force that has a template."""
    return perturbed_pendulum(), kepler_2d(0.5)


def _inline(prob):
    """(d, template) of the kernel that prob's force runs inline."""
    return (None if np.ndim(prob.q0) == 0 else prob.dim), _TEMPLATES[type(prob.force)]


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("index", [0, 1], ids=["pendulum", "kepler"])
def test_inline_kernel_sources_are_pinned(name, index):
    d, template = _inline(_problems()[index])
    assert _digest(name, d, template) == INLINE[name, template.name]


@pytest.mark.parametrize("name", METHODS)
def test_integrate_runs_the_pinned_source(name):
    # the runtime kernel builds its start matrix from the key's bytes; its
    # source is the pinned inline text built from the tableau's arrays
    t = _tableau(name)
    for prob in _problems():
        d, template = _inline(prob)
        assert integrate(t, prob, 0.16, StepConfig(h=0.16)).times.shape == (2,)
        kernel = _stepper(t, prob.force, prob.q0, 1e-14, 100)[1].func
        filename = kernel.__code__.co_filename
        assert f" start {template.name} " in filename
        assert "".join(linecache.getlines(filename)) == _sources(name, d, template)[0]


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
