import math
import random

import numpy as np
import pytest

from symrkn.integrator import StepConfig, integrate
from symrkn.problems import harmonic_oscillator, kepler_2d, perturbed_pendulum
from symrkn.tableau import named_tableau


def test_pendulum_definition():
    prob = perturbed_pendulum()
    assert prob.dim == 1
    assert prob.q0 == 0.0 and prob.p0 == 2.5
    assert prob.reversible
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


def test_problem_arrays_are_frozen():
    prob = kepler_2d()
    with pytest.raises(ValueError):
        prob.q0[0] = 2.0


def test_energy_nearly_conserved_along_symmetric_flow():
    # drift-free baseline: symplectic method, modest window
    prob = perturbed_pendulum()
    traj = integrate(named_tableau("diagsymp"), prob, 10.0, StepConfig(h=0.01))
    assert float(np.abs(traj.energy_error).max()) < 1e-8


def test_kepler_energy_under_array_path():
    prob = kepler_2d(0.2)
    traj = integrate(named_tableau("rkn-iiib"), prob, 5.0, StepConfig(h=0.01))
    assert float(np.abs(traj.energy_error).max()) < 1e-7


@pytest.mark.parametrize("e", [0.0, 0.5])
def test_kepler_batched_force_matches_per_point_bits(e):
    force = kepler_2d(e).force
    rng = np.random.default_rng(3)
    for s in (1, 3, 5, 257):
        times = rng.uniform(0.0, 10.0, s)
        Q = rng.uniform(-2.0, 2.0, (s, 2))
        per_point = np.array([force(times[i], Q[i]) for i in range(s)])
        batched = force.stages(times, Q)
        assert batched.shape == per_point.shape == (s, 2)
        assert batched.tobytes() == per_point.tobytes()
