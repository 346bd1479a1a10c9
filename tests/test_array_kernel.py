"""The array-state advance against the stage solver it replaced, bit for bit.

Array state runs one of two closures chosen once per run (the sequential
sweep or the Jacobi sweeps), with the tableau bound and c h, (h c)[:, None]
and h h recomputed only when h changes.  The reference below is the code it
replaced: _stages_array, called once per step with the tableau's arrays,
plus the array advance that summed the update.  The closures promise the
same numpy operations on the same operands, so results, exception types,
messages and residuals must be equal byte for byte, not merely close.
"""

import math
import random

import numpy as np
import pytest

from symrkn.errors import StageDivergenceError
from symrkn.integrator import _start_matrix, _stepper, reference_tableau
from symrkn.problems import kepler_2d
from symrkn.tableau import RknTableau, named_tableau

_max = np.maximum.reduce


def _stages_array(t, f, t0, q0, p0, h, conv, iters, sequential, M, F_prev):
    s = t.s
    c = t.c
    a = t.a_bar
    h2 = h * h
    times = t0 + c * h
    base = q0[None, :] + (h * c)[:, None] * p0[None, :]
    if sequential:
        Q = np.zeros_like(base)
        F = np.zeros_like(base)
        for i in range(s):
            bi = base[i] + h2 * (a[i, :i] @ F[:i])
            w = h2 * a[i, i]
            if w == 0.0:
                qi = bi
            else:
                qi = base[i].copy() if F_prev is None else bi + w * (M[i] @ F_prev)
                diff = math.inf
                for _ in range(iters):
                    qn = bi + w * f(times[i], qi)
                    diff = float(_max(np.abs(qn - qi), axis=None))
                    qi = qn
                    if diff < conv:
                        break
                else:
                    raise StageDivergenceError(
                        f"stage {i} did not contract (last increment {diff:.3e})",
                        residual=diff,
                    )
            Q[i] = qi
            F[i] = f(times[i], qi)
        return Q, F
    stages = getattr(f, "stages", None)
    Q = base.copy() if F_prev is None else base + h2 * (M @ F_prev)
    if stages is None:
        F = np.array([f(times[i], Q[i]) for i in range(s)])
    else:
        F = stages(times, Q)
        if np.shape(F) != Q.shape:
            raise ValueError(
                f"force.stages returned shape {np.shape(F)}, expected {Q.shape}"
            )
    diff = math.inf
    for _ in range(iters):
        Qn = base + h2 * (a @ F)
        diff = float(_max(np.abs(Qn - Q), axis=None))
        Q = Qn
        if stages is None:
            F = np.array([f(times[i], Q[i]) for i in range(s)])
        else:
            F = stages(times, Q)
        if diff < conv:
            return Q, F
    raise StageDivergenceError(
        f"stages did not contract in {iters} sweeps (last increment {diff:.3e})",
        residual=diff,
    )


def _reference_advance(t, stage_tol, max_iters, sequential, start):
    def advance(f, t0, q0, p0, h, F_prev=None):
        conv = stage_tol * (1.0 + float(_max(np.abs(q0), axis=None)))
        Q, F = _stages_array(
            t, f, t0, q0, p0, h, conv, max_iters, sequential,
            start, None if start is None else F_prev,
        )
        return q0 + h * p0 + h * h * (t.b_bar @ F), p0 + h * (t.b @ F), Q, F

    return advance


def _outcome(advance, *args):
    """Bytes, shape and dtype of (q1, p1, Q, F), or the exception's type,
    message and residual."""
    try:
        out = advance(*args)
    except (StageDivergenceError, ValueError) as exc:
        residual = getattr(exc, "residual", None)
        if residual is not None:
            residual = np.float64(residual).tobytes()
        return ("raised", type(exc), str(exc), residual)
    return tuple((v.shape, v.dtype.str, v.tobytes()) for v in out)


def _driven(t, q):
    return -np.sin(q) + 0.3 * np.cos(1.7 * t)


class _DrivenStages:
    """_driven with a batched form."""

    def __call__(self, t, q):
        return _driven(t, q)

    def stages(self, times, Q):
        return -np.sin(Q) + 0.3 * np.cos(1.7 * times)[:, None]


class _WrongShape(_DrivenStages):
    def stages(self, times, Q):
        return np.zeros((Q.shape[0], Q.shape[1] + 1))


_FORCES = [_driven, _DrivenStages()]


def _pair(t, sequential, start, stage_tol=1e-14, max_iters=100):
    _, advance = _stepper(t, np.zeros(1), stage_tol, max_iters, sequential, start)
    return advance, _reference_advance(t, stage_tol, max_iters, sequential, start)


def _assert_same(advance, reference, *args):
    got = _outcome(advance, *args)
    assert got == _outcome(reference, *args)
    return got


def _runs(t, f, h, q0, p0, steps=12, stage_tol=1e-14, max_iters=100):
    """Step both along one trajectory, from free motion and then from each
    previous step's stage forces, for both structures; one advance per
    structure serves the whole run, as in integrate."""
    outcomes = []
    for sequential in (False, True):
        start = _start_matrix(t, sequential)
        advance, reference = _pair(t, sequential, start, stage_tol, max_iters)
        q, p, F_prev = q0, p0, None
        for k in range(steps):
            got = _assert_same(advance, reference, f, k * h, q, p, h, F_prev)
            outcomes.append(got[0])
            if got[0] == "raised":
                break
            q, p, _, F_prev = reference(f, k * h, q, p, h, F_prev)
    return outcomes


def _random_tableau(rng, s, lower):
    c = sorted(rng.uniform(0.0, 1.0) for _ in range(s))
    a_bar = np.array([[rng.uniform(-0.3, 0.3) / s for _ in range(s)] for _ in range(s)])
    if lower:
        a_bar = np.tril(a_bar)
    b_bar = [rng.uniform(-1.0, 1.0) for _ in range(s)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(s)]
    return RknTableau(s, np.array(c), a_bar, np.array(b_bar), np.array(b), "random")


def _state(rng, d):
    return (np.array([rng.uniform(-1.0, 1.0) for _ in range(d)]),
            np.array([rng.uniform(-2.5, 2.5) for _ in range(d)]))


@pytest.mark.parametrize("s", range(1, 11))
@pytest.mark.parametrize("lower", [True, False], ids=["lower", "full"])
def test_random_tableaus_have_the_bits_of_the_stage_solver(s, lower):
    rng = random.Random(2000 * s + lower)
    t = _random_tableau(rng, s, lower)
    for d in (1, 2, 3, 5):
        q0, p0 = _state(rng, d)
        for f in _FORCES:
            for h in (0.2, -0.2):
                _runs(t, f, h, q0, p0, steps=6)
        # one or two sweeps leave the extrapolated start's bits in the result
        for sequential in (False, True):
            F_prev = np.array([[rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(s)])
            for max_iters in (1, 2):
                advance, reference = _pair(
                    t, sequential, _start_matrix(t, sequential), max_iters=max_iters
                )
                for f in _FORCES:
                    _assert_same(advance, reference, f, 0.2, q0, p0, 0.2, F_prev)


@pytest.mark.parametrize(
    "name", ["rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b", "order6-gauss3"]
)
def test_named_methods_on_kepler_have_the_bits_of_the_stage_solver(name):
    t = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    prob = kepler_2d(0.5)
    for h in (0.05, -0.05, 0.3):
        _runs(t, prob.force, h, prob.q0, prob.p0, steps=20)
    # the per-point form alone, as a force without stages is called
    _runs(t, lambda t, q: prob.force(t, q), 0.05, prob.q0, prob.p0, steps=10)


def test_one_advance_follows_every_change_of_h():
    t = named_tableau("rkn-a")
    rng = random.Random(5)
    q0, p0 = _state(rng, 3)
    q0[1] = -0.0
    hs = [0.2, 0.2, -0.2, 0.1, 0.2, 0.0, -0.0, -0.0, 0.0, math.nan, 0.2, 1]
    for sequential in (False, True):
        advance, reference = _pair(t, sequential, _start_matrix(t, sequential))
        for f in (*_FORCES, lambda t, q: np.full_like(q, t)):
            for h in hs:
                # t0 = -0.0: the stage times t0 + c h carry the sign of h
                _assert_same(advance, reference, f, -0.0, q0, p0, h)


def test_a_start_matrix_of_none_ignores_previous_forces():
    t = named_tableau("rkn-iiib")
    q0, p0 = _state(random.Random(9), 2)
    F_prev = np.ones((3, 2))
    for sequential in (False, True):
        advance, reference = _pair(t, sequential, None)
        for f in _FORCES:
            free = _assert_same(advance, reference, f, 0.0, q0, p0, 0.2)
            assert _assert_same(advance, reference, f, 0.0, q0, p0, 0.2, F_prev) == free


def test_wrong_shape_from_stages_raises_the_same_error():
    for s in (1, 3):
        t = _random_tableau(random.Random(s), s, False)
        for d in (1, 2, 3):
            q0, p0 = _state(random.Random(d), d)
            advance, reference = _pair(t, False, _start_matrix(t, False))
            got = _assert_same(advance, reference, _WrongShape(), 0.0, q0, p0, 0.2)
            assert got[:2] == ("raised", ValueError)
            assert "force.stages returned shape" in got[2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_forces_and_states(bad):
    t = named_tableau("rkn-a")
    q0, p0 = np.array([0.3, -0.2]), np.array([2.5, 0.1])

    def everywhere(t, q):
        return np.full_like(q, bad)

    def late(t, q):
        return np.full_like(q, bad) if t > 0.5 else _driven(t, q)

    for f in (everywhere, late):
        _runs(t, f, 0.16, q0, p0, steps=8)
    _runs(t, _driven, 0.16, np.array([bad, 0.3]), p0, steps=3)
    _runs(t, _driven, 0.16, q0, np.array([0.3, bad]), steps=3)


@pytest.mark.parametrize("name", ["diagsymp", "rkn-a", "order6-gauss3"])
def test_divergence_has_the_message_and_residual_of_the_stage_solver(name):
    t = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    q0, p0 = np.array([0.4, -0.3, 0.1]), np.array([2.4, 0.5, -1.0])
    for f in _FORCES:
        assert "raised" in _runs(t, f, 10.0, q0, p0, steps=3)
        for max_iters in (1, 2, 3):
            assert "raised" in _runs(t, f, 0.16, q0, p0, steps=3, max_iters=max_iters)
            # cut short, the residual shows the extrapolated start's bits
            for sequential in (False, True):
                advance, reference = _pair(
                    t, sequential, _start_matrix(t, sequential), max_iters=max_iters
                )
                F_prev = np.linspace(-0.9, 0.9, 3 * t.s).reshape(t.s, 3)
                got = _assert_same(advance, reference, f, 0.16, q0, p0, 0.16, F_prev)
                assert got[0] == "raised"
