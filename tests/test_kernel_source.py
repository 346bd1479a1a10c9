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
    "rkn-iiia": "246c832721ecc4e6a497e7fd381987aa965498376905606165e5279a094814f3",
    "rkn-iiib": "22f98de98c8cef4463b350972ec10bde2de921952b8e05ba4c47e36e1e892de2",
    "diagsymp": "4c3a3dfc28cc61224b8d8c86e39407daf0d6c9b9fc843bfc1434cc77ccbabd3e",
    "rkn-a": "1d309f5a7922c0b6a1ca9e9374f896c93afe10cf26f0076bc1021b4e7d3b54ee",
    "rkn-b": "284bd2628e279af0ef4dda18acf122a65d9be8288a1180b754f81cfb0a561a71",
    "order6-gauss3": "390589fe66ad82cf3c17617518f458caf347b99397e64553d28d6ce9230091da",
}

ARRAY = {
    ("rkn-iiia", 1, "point"): "d50ac515e1432fa2343dd6d4266d73395d464c41975cd0956b74ec91c9a58858",
    ("rkn-iiia", 2, "point"): "585554b282fff9efc6eaec248f897fbf91fb7f5d3449dd7118a5195aa1a129dc",
    ("rkn-iiib", 1, "point"): "c6c7eefcff0248df181d3d5edbdd2ac99cc57c59b5e2b091e2f7d8acba014859",
    ("rkn-iiib", 2, "point"): "459b39c7044ad49903727a940c0ad96a448a89bd30923de1c994acc09f1c4b8d",
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
    ("rkn-iiia", "pendulum"): "2af60403948ad8c4e39c5450d2458e09fbbf009f5935127e11d0470930f5e2eb",
    ("rkn-iiib", "pendulum"): "43e4361ded240c9e472193a0271fab1cd6f797810268141941af902bbef72f66",
    ("diagsymp", "pendulum"): "b8cbdb4cc0711e50f2133114c4d8e0501082f31fe25b6989dcadc8c9f5141f0b",
    ("rkn-a", "pendulum"): "e482f5e53c25ddf9765934580fbf00864aef76ee96c7d745ea0e7f43d371728e",
    ("rkn-b", "pendulum"): "a710acfbf4dd509ecc7427bf486a431b6994c40cc2f0f269502c5dbd88c62a83",
    ("order6-gauss3", "pendulum"): "64baa644bf8ac2379ad64e1695ff8c6b2186d009fb3c0b4a3baa456877ab5dc6",
    ("rkn-iiia", "kepler"): "bba91a0a4462a84a4ac0784bc523738ab080e2c5d42eac3fb516b89871f95ab0",
    ("rkn-iiib", "kepler"): "547654aae0ab15b6cf91d40138f51154f725222044bbbb028e4ac61555231bb8",
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
