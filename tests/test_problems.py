import dataclasses
import math
import random
import re
import warnings

import mpmath
import numpy as np
import pytest

from symrkn import problems
from symrkn.errors import StageDivergenceError
from symrkn.integrator import (
    StepConfig,
    integrate,
    reference_tableau,
    solve_stages,
    step,
)
from symrkn.kernel import _stepper
from symrkn.problems import harmonic_oscillator, kepler_2d, perturbed_pendulum
from symrkn.tableau import named_tableau


def test_pendulum_definition():
    prob = perturbed_pendulum()
    assert prob.dim == 1
    assert prob.q0 == 0.0 and prob.p0 == 2.5
    # force at rest and initial energy have simple closed values
    assert prob.force(0.0, 0.0) == pytest.approx(-0.4, abs=1e-16)
    assert prob.energy(2.5, 0.0) == pytest.approx(2.125, abs=1e-16)
    # d(energy)/dq = -force pointwise
    for q in (-1.2, 0.3, 2.0):
        eps = 1e-6
        dHdq = (prob.energy(1.0, q + eps) - prob.energy(1.0, q - eps)) / (2 * eps)
        assert dHdq == pytest.approx(-prob.force(0.0, q), abs=1e-8)


def test_pendulum_energy_is_even_in_momentum():
    prob = perturbed_pendulum()
    rng = random.Random(17)
    for _ in range(20):
        p, q = rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)
        assert prob.energy(p, q) == prob.energy(-p, q)


def test_harmonic_exact_solution():
    prob = harmonic_oscillator()
    q, p = prob.exact(0.0)
    assert q == pytest.approx(prob.q0, abs=1e-16)
    assert p == pytest.approx(prob.p0, abs=1e-16)
    q, p = prob.exact(10.0)
    assert q == pytest.approx(math.cos(10.0), abs=1e-15)
    assert p == pytest.approx(-math.sin(10.0), abs=1e-15)
    w = 2.0
    prob2 = harmonic_oscillator(w)
    q, p = prob2.exact(0.7)
    assert q == pytest.approx(math.cos(w * 0.7), abs=1e-15)
    assert p == pytest.approx(-w * math.sin(w * 0.7), abs=1e-15)
    assert prob2.force(0.0, 0.3) == pytest.approx(-w * w * 0.3, abs=1e-16)


def test_harmonic_rejects_bad_frequency():
    with pytest.raises(ValueError):
        harmonic_oscillator(0.0)
    with pytest.raises(ValueError):
        harmonic_oscillator(-1.0)


def test_kepler_circular_setup():
    prob = kepler_2d()
    assert prob.dim == 2
    np.testing.assert_allclose(prob.q0, [1.0, 0.0], atol=0.0)
    np.testing.assert_allclose(prob.p0, [0.0, 1.0], atol=0.0)
    assert prob.energy(prob.p0, prob.q0) == pytest.approx(-0.5, abs=1e-15)
    np.testing.assert_allclose(prob.force(0.0, prob.q0), [-1.0, 0.0], atol=1e-15)


def test_kepler_eccentric_energy():
    e = 0.3
    prob = kepler_2d(e)
    np.testing.assert_allclose(prob.q0, [1 - e, 0.0], atol=1e-16)
    # H = -1/2 on this normalized orbit regardless of eccentricity
    assert prob.energy(prob.p0, prob.q0) == pytest.approx(-0.5, abs=1e-14)
    with pytest.raises(ValueError):
        kepler_2d(1.0)
    with pytest.raises(ValueError):
        kepler_2d(-0.1)


EPS = np.finfo(float).eps
KEPLER_E = (0.0, 0.1, 0.5, 0.79, 0.8, 0.9, 0.95, 0.99)
_draws = random.Random(2024)
KEPLER_T = (
    [0.0, 1e-3, -1e-3, math.pi, -math.pi, 2.0 * math.pi, 5.0, -3.0, 20.0,
     1600.0, 1e4]
    + [_draws.uniform(-100.0, 100.0) for _ in range(16)]
    # within 1e-3 of perihelion, where 1 - e cos E is smallest
    + [2.0 * math.pi * k + d for k in (-3, -1, 1, 2, 250)
       for d in (-1e-3, -1e-9, 1e-9, 1e-3)]
)


def _mp_kepler_state(e, t):
    """(q, p) at t from Kepler's equation solved at 50 digits, bracketing
    the root by |E - t| = e |sin E| <= 1."""
    with mpmath.workdps(50):
        e, t = mpmath.mpf(e), mpmath.mpf(t)
        E = mpmath.findroot(
            lambda E: E - e * mpmath.sin(E) - t, (t - 1, t + 1), solver="anderson"
        )
        b = mpmath.sqrt((1 - e) * (1 + e))
        c, s = mpmath.cos(E), mpmath.sin(E)
        w = 1 - e * c
        return [c - e, b * s, -s / w, b * c / w]


@pytest.mark.parametrize("e", KEPLER_E)
def test_kepler_exact_matches_a_50_digit_solution(e, monkeypatch):
    # no point of this grid needs more than 12 Newton iterations
    monkeypatch.setattr(problems, "_KEPLER_NEWTON_CAP", 12)
    prob = kepler_2d(e)
    for t in KEPLER_T:
        q, p = prob.exact(t)
        assert q.shape == p.shape == (2,)
        with mpmath.workdps(50):
            err = max(
                abs(mpmath.mpf(float(x)) - y)
                for x, y in zip([*q, *p], _mp_kepler_state(e, t))
            )
        assert float(err) <= 4.0 * EPS * max(1.0, abs(t)) / (1.0 - e) ** 2, t


@pytest.mark.parametrize("e", KEPLER_E)
def test_kepler_exact_keeps_energy_and_angular_momentum(e):
    prob = kepler_2d(e)
    b = math.sqrt((1.0 - e) * (1.0 + e))
    for t in np.linspace(-20.0, 20.0, 801).tolist() + KEPLER_T:
        q, p = prob.exact(t)
        assert abs(prob.energy(p, q) + 0.5) <= 64.0 * EPS / (1.0 - e), t
        assert abs(q[0] * p[1] - q[1] * p[0] - b) <= 64.0 * EPS / (1.0 - e), t


@pytest.mark.parametrize("e", [0.0, 0.5, 0.9])
def test_kepler_exact_agrees_with_the_order6_run(e):
    # the reference grid of converge at min(h) = 0.00625: h = 3.125e-4,
    # sampled at t = 5, 10, 15, 20
    prob = kepler_2d(e)
    traj = integrate(
        reference_tableau(), prob, 20.0, StepConfig(h=20.0 / 64000), 16000
    )
    assert not traj.diverged
    for i in (1, 4):
        q, p = prob.exact(traj.times[i])
        err = max(np.abs(traj.q[i] - q).max(), np.abs(traj.p[i] - p).max())
        assert err < 1e-12, traj.times[i]


def test_kepler_exact_at_t0_is_the_initial_state():
    for k in range(1000):
        prob = kepler_2d(k / 1000)
        q, p = prob.exact(prob.t0)
        assert q.tobytes() == prob.q0.tobytes()
        assert p.tobytes() == prob.p0.tobytes()


def test_kepler_exact_rejects_non_finite_times_and_caps_newton(monkeypatch):
    prob = kepler_2d(0.9)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            prob.exact(t)
    monkeypatch.setattr(problems, "_KEPLER_NEWTON_CAP", 2)
    with pytest.raises(RuntimeError, match="did not converge"):
        prob.exact(5.0)


def test_problem_arrays_are_frozen():
    prob = kepler_2d()
    with pytest.raises(ValueError):
        prob.q0[0] = 2.0


@pytest.mark.parametrize(
    "make, changes, message",
    [
        (kepler_2d, {"dim": 3}, r"q0 has shape \(2,\), expected \(3,\) for dim 3"),
        (kepler_2d, {"q0": np.zeros(3)}, r"q0 has shape \(3,\), expected \(2,\)"),
        (kepler_2d, {"p0": np.zeros(3)}, r"p0 has shape \(3,\), expected \(2,\)"),
        (kepler_2d, {"p0": np.zeros((1, 2))}, r"p0 has shape \(1, 2\)"),
        (kepler_2d, {"q0": 1.0}, r"q0 has shape \(\), expected \(2,\)"),
        (perturbed_pendulum, {"q0": np.zeros(2)},
         r"q0 has shape \(2,\), expected \(\) or \(1,\) for dim 1"),
        (perturbed_pendulum, {"p0": np.zeros((1, 1))}, r"p0 has shape \(1, 1\)"),
        (perturbed_pendulum, {"dim": 2}, r"q0 has shape \(\), expected \(2,\)"),
    ],
    ids=["dim", "q0", "p0", "p0-2d", "q0-scalar", "dim1-q0", "dim1-p0", "dim1-dim"],
)
def test_state_shapes_must_match_dim(make, changes, message):
    # at construction and under dataclasses.replace, before any step runs
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(make(), **changes)
    with pytest.raises(ValueError, match=message):
        problems.OdeProblem(**{**dataclasses.asdict(make()), **changes})


def test_dim_one_takes_float_or_one_element_state():
    pend = perturbed_pendulum()
    for state in (0.3, np.float64(0.3), np.array(0.3), np.array([0.3]), [0.3]):
        assert dataclasses.replace(pend, q0=state, p0=state).dim == 1


def test_energy_nearly_conserved_along_symmetric_flow():
    # drift-free baseline: symplectic method, modest window
    prob = perturbed_pendulum()
    traj = integrate(named_tableau("diagsymp"), prob, 10.0, StepConfig(h=0.01))
    assert float(np.abs(traj.energy_error).max()) < 1e-8


def test_kepler_energy_under_array_path():
    prob = kepler_2d(0.2)
    traj = integrate(named_tableau("rkn-iiib"), prob, 5.0, StepConfig(h=0.01))
    assert float(np.abs(traj.energy_error).max()) < 1e-7


def _numpy_kepler_rows(t, q):
    """The Kepler force as a numpy formula over (n, 2) rows of points, here
    one row, whose every operation is an array operation."""
    Q = q.reshape(-1, 2)
    x, y = Q[:, 0], Q[:, 1]
    r = np.sqrt(x * x + y * y)
    return (-Q / (r * r * r)[:, None]).reshape(q.shape)


_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max
# zeros, subnormals, the float-path bounds and their neighbours, entries whose
# squares or r^3 underflow or overflow, and non-finite values
_EDGE_ENTRIES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, _TINY, -_TINY, 1e-300, 1e-160, 1e-155,
    np.nextafter(2.0**-500, 0.0), 2.0**-500, -(2.0**-500), 1e-120, 1e-100,
    1e-170, 0.5, -1.0, 3.0, 1e100, 1e103, 1e154, -1e155, 1e200, 1e300, _HUGE, -_HUGE,
    math.inf, -math.inf, math.nan,
]


def _kepler_outcome(fn, *args, err):
    """Bytes, shape and dtype of fn(*args), or the FloatingPointError or
    stage divergence it raised, with the warnings emitted, under
    np.errstate(err)."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(**err):
        warnings.simplefilter("always")
        try:
            out = fn(*args)
            result = (out.shape, out.dtype.str, out.tobytes())
        except (FloatingPointError, StageDivergenceError) as exc:
            result = (type(exc).__name__, str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


_ERRSTATES = [{}, {"all": "warn"}, {"all": "raise"}, {"all": "ignore"}]


@pytest.mark.parametrize("err", _ERRSTATES, ids=["default", "warn", "raise", "ignore"])
def test_kepler_float_rows_keep_the_bits_and_warnings_of_numpy(err):
    # r and r^3 are numpy scalars, so their overflow and underflow set
    # numpy's flags as the array formula's do; numpy names a scalar
    # operation "scalar multiply" where it names an array one "multiply"
    force = kepler_2d().force

    def plain(outcome):
        result, caught = outcome
        if len(result) == 2:  # an exception's name and message
            result = (result[0], result[1].replace(" scalar ", " "))
        return result, [(c, m.replace(" scalar ", " ")) for c, m in caught]

    for q in np.array([(x, y) for x in _EDGE_ENTRIES for y in _EDGE_ENTRIES]):
        got = _kepler_outcome(force, 0.0, q, err=err)
        want = _kepler_outcome(_numpy_kepler_rows, 0.0, q, err=err)
        assert plain(got) == want
        if all(x == 0.0 or not math.isfinite(x) for x in q.tolist()):
            # the r = 0 collision, inf and NaN warn only in the division
            assert got == want


class _PointKepler:
    """The Kepler force under a type of its own, so the kernel calls it per
    point instead of writing the force inline."""

    def __init__(self):
        self.force = kepler_2d().force

    def __call__(self, t, q):
        return self.force(t, q)


@pytest.mark.parametrize("err", _ERRSTATES, ids=["default", "warn", "raise", "ignore"])
def test_kepler_edge_states_inline_match_the_point_kernel(err):
    # r = 0, subnormal entries, r^3 out of range, huge and non-finite
    # entries reach the inline force from the first stage values (p0 = 0:
    # every stage starts at q0); a call with such a point calls the force
    # at every point of the call
    inline, wrapped = kepler_2d().force, _PointKepler()
    cfg = StepConfig(h=0.1)
    p0 = np.zeros(2)
    for name in ("diagsymp", "rkn-a"):
        tab = named_tableau(name)
        for force, form in ((inline, " kepler "), (wrapped, " ")):
            kernel = _stepper(tab, force, p0, 1e-14, 100)[1].func
            assert re.fullmatch(
                rf"<symrkn kernel s=3 d=2 \w+ start{form}[0-9a-f]{{8}}>",
                kernel.__code__.co_filename,
            )
        for row in [(x, y) for x in _EDGE_ENTRIES for y in _EDGE_ENTRIES]:
            q0 = np.array(row)
            for run in (solve_stages, lambda *a: np.concatenate(step(*a))):
                assert _kepler_outcome(run, tab, inline, 0.0, q0, p0, cfg, err=err) == (
                    _kepler_outcome(run, tab, wrapped, 0.0, q0, p0, cfg, err=err)
                )
