import dataclasses
import hashlib
import math

import numpy as np
import pytest

from symrkn.cscoeff import build_order2, build_order4
from symrkn.errors import (
    DegenerateFitError,
    InvalidGridError,
    StageDivergenceError,
)
from symrkn.integrator import (
    StepConfig,
    _advance,
    final_state_error,
    fit_loglog_slope,
    global_error_study,
    integrate,
    linear_drift_slope,
    reference_state,
    reference_tableau,
    reversibility_test,
    solve_stages,
    step,
)
from symrkn.problems import harmonic_oscillator, kepler_2d, perturbed_pendulum
from symrkn.quadrature import gauss_rule, lobatto_rule
from symrkn.tableau import RknTableau, discretize, named_tableau

CFG = StepConfig(h=0.16)

FIVE = ("rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b")


def _control() -> RknTableau:
    return RknTableau(
        1, np.array([0.0]), np.array([[0.0]]), np.array([1.0]), np.array([1.0]),
        "control",
    )


def test_zero_force_is_linear_drift():
    f = lambda t, q: 0.0 * q
    for name in ("rkn-iiib", "diagsymp"):
        tab = named_tableau(name)
        Q = solve_stages(tab, f, 0.0, 1.5, -0.25, CFG)
        np.testing.assert_allclose(Q, 1.5 + CFG.h * tab.c * (-0.25), atol=1e-16)
        q1, p1 = step(tab, f, 0.0, 1.5, -0.25, CFG)
        assert q1 == pytest.approx(1.5 + CFG.h * (-0.25), abs=1e-16)
        assert p1 == pytest.approx(-0.25, abs=1e-16)


def test_constant_force_is_exact():
    a = -0.8
    f = lambda t, q: a + 0.0 * q
    h = 0.3
    cfg = StepConfig(h=h)
    for name in FIVE:
        q1, p1 = step(named_tableau(name), f, 0.0, 0.2, 0.5, cfg)
        assert q1 == pytest.approx(0.2 + h * 0.5 + a * h * h / 2, abs=1e-15)
        assert p1 == pytest.approx(0.5 + a * h, abs=1e-15)


def test_polynomial_time_forcing_is_exact():
    # q'' = t and q'' = t^2 are integrated without truncation error by any
    # tableau whose weights integrate cubics exactly
    h, t0, q0, p0 = 0.3, 0.5, 0.7, -0.4
    cfg = StepConfig(h=h)
    tabs = [named_tableau(n) for n in FIVE]
    tabs.append(discretize(build_order4(0.2, 0.1, -0.3), gauss_rule(2)))
    for tab in tabs:
        q1, p1 = step(tab, lambda t, q: t + 0.0 * q, t0, q0, p0, cfg)
        assert q1 == pytest.approx(
            q0 + h * p0 + t0 * h**2 / 2 + h**3 / 6, abs=1e-14
        )
        assert p1 == pytest.approx(p0 + t0 * h + h**2 / 2, abs=1e-14)
        q1, p1 = step(tab, lambda t, q: t * t + 0.0 * q, t0, q0, p0, cfg)
        exact_q = q0 + h * p0 + t0**2 * h**2 / 2 + t0 * h**3 / 3 + h**4 / 12
        exact_p = p0 + t0**2 * h + t0 * h**2 + h**3 / 3
        assert q1 == pytest.approx(exact_q, abs=1e-14)
        assert p1 == pytest.approx(exact_p, abs=1e-14)


def test_stage_residual_invariant():
    prob = perturbed_pendulum()
    for name in FIVE:
        tab = named_tableau(name)
        Q = solve_stages(tab, prob.force, prob.t0, prob.q0, prob.p0, CFG)
        F = np.array(
            [prob.force(prob.t0 + tab.c[i] * CFG.h, Q[i]) for i in range(tab.s)]
        )
        rhs = prob.q0 + CFG.h * tab.c * prob.p0 + CFG.h**2 * (tab.a_bar @ F)
        assert np.abs(Q - rhs).max() < 10 * CFG.stage_tol, name


def test_forward_backward_composition_returns():
    # symmetric methods invert exactly under h -> -h
    prob = perturbed_pendulum()
    h = 0.1
    for name, sequential in (("rkn-iiia", False), ("rkn-iiib", False), ("diagsymp", True)):
        tab = named_tableau(name)
        q1, p1 = _advance(tab, prob.force, 0.0, prob.q0, prob.p0, h, 1e-14, 100, sequential)
        q2, p2 = _advance(tab, prob.force, h, q1, p1, -h, 1e-14, 100, sequential)
        assert abs(q2 - prob.q0) < 100 * 1e-14
        assert abs(p2 - prob.p0) < 100 * 1e-14


def test_scalar_and_array_paths_agree():
    pend = perturbed_pendulum()
    f_arr = lambda t, q: np.array([pend.force(t, float(q[0]))])
    for name in FIVE:
        tab = named_tableau(name)
        q_s, p_s = step(tab, pend.force, 0.0, 0.0, 2.5, CFG)
        q_a, p_a = step(
            tab, f_arr, 0.0, np.array([0.0]), np.array([2.5]), CFG
        )
        assert abs(q_s - q_a[0]) < 1e-15, name
        assert abs(p_s - p_a[0]) < 1e-15, name
    # whole runs, where each step starts from the previous step's stages
    calls = {"scalar": 0, "array": 0}

    def counted(kind, force):
        def f(t, q):
            calls[kind] += 1
            return force(t, q)
        return f

    scalar = dataclasses.replace(pend, force=counted("scalar", pend.force))
    array = dataclasses.replace(
        pend,
        force=counted("array", f_arr),
        energy=lambda p, q: pend.energy(float(p[0]), float(q[0])),
        q0=np.array([pend.q0]),
        p0=np.array([pend.p0]),
    )
    for name in FIVE + ("order6-gauss3",):
        tab = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
        calls.update(scalar=0, array=0)
        run_s = integrate(tab, scalar, 160.0, CFG, sample_every=1000)
        run_a = integrate(tab, array, 160.0, CFG, sample_every=1000)
        assert run_s.times.shape == run_a.times.shape == (2,), name
        assert np.abs(run_s.q - run_a.q).max() < 1e-10, name
        assert np.abs(run_s.p - run_a.p).max() < 1e-10, name
        assert abs(calls["scalar"] - calls["array"]) <= 1e-3 * calls["scalar"], name


def test_structure_selection():
    prob = perturbed_pendulum()
    calls = []

    def f(t, q):
        calls.append(t)
        return prob.force(t, q)

    def run(advance, *args):
        calls.clear()
        return advance(named_tableau("diagsymp"), f, 0.0, 0.0, 2.5, *args), len(calls)

    # on a triangular tableau the sweep and Jacobi answers coincide
    (q1, p1), n_sweep = run(_advance, 0.16, 1e-14, 100, True)
    (q2, p2), n_jacobi = run(_advance, 0.16, 1e-14, 100, False)
    assert abs(q1 - q2) < 1e-12 and abs(p1 - p2) < 1e-12
    # the tableau picks the sweep, which needs fewer force evaluations
    (q3, p3), n_step = run(step, CFG)
    assert q3 == q1 and p3 == p1
    assert n_step == n_sweep < n_jacobi


def test_nan_force_fails_the_step_on_both_paths():
    # a NaN increment leaves the stage sweep unconverged: the run stops at
    # the first step whose stages see it, with no NaN sample recorded
    pend = perturbed_pendulum()

    def force(t, q):
        return math.nan if t > 0.5 else pend.force(t, q)

    scalar = dataclasses.replace(pend, force=force)
    array = dataclasses.replace(
        pend,
        force=lambda t, q: np.array([force(t, float(q[0]))]),
        energy=lambda p, q: pend.energy(float(p[0]), float(q[0])),
        q0=np.array([pend.q0]),
        p0=np.array([pend.p0]),
    )
    for prob in (scalar, array):
        traj = integrate(named_tableau("rkn-a"), prob, 1.6, CFG)
        assert traj.diverged and traj.failure_step == 4
        for values in (traj.q, traj.p, traj.energy_error):
            assert np.all(np.isfinite(values))


def test_zero_span_trajectory():
    prob = perturbed_pendulum()
    traj = integrate(named_tableau("diagsymp"), prob, 0.0, CFG)
    assert traj.times.shape == (1,)
    assert traj.q.shape == (1, 1) and traj.p.shape == (1, 1)
    np.testing.assert_allclose(traj.energy_error, [0.0], atol=0.0)
    assert not traj.diverged


def test_grid_validation():
    prob = perturbed_pendulum()
    with pytest.raises(InvalidGridError):
        integrate(named_tableau("diagsymp"), prob, 0.35, StepConfig(h=0.1))
    with pytest.raises(InvalidGridError):
        integrate(named_tableau("diagsymp"), prob, -1.0, StepConfig(h=0.1))
    with pytest.raises(ValueError):
        integrate(named_tableau("diagsymp"), prob, 1.6, CFG, sample_every=0)


def test_sampling_pattern_keeps_endpoints():
    prob = perturbed_pendulum()
    traj = integrate(named_tableau("diagsymp"), prob, 1.6, CFG, sample_every=3)
    np.testing.assert_allclose(traj.times, [0.0, 0.48, 0.96, 1.44, 1.6], atol=1e-12)
    traj = integrate(named_tableau("diagsymp"), prob, 1.6, CFG, sample_every=100)
    np.testing.assert_allclose(traj.times, [0.0, 1.6], atol=1e-12)


def test_divergence_yields_partial_trajectory():
    prob = perturbed_pendulum()
    traj = integrate(named_tableau("rkn-iiib"), prob, 20.0, StepConfig(h=10.0))
    assert traj.diverged
    assert traj.failure_step == 1
    assert traj.times.shape == (1,)
    assert traj.energy_error.shape == (1,)
    # starved iteration budget fails the same way
    traj = integrate(
        named_tableau("rkn-iiib"), prob, 1.6, StepConfig(h=0.16, max_iters=1)
    )
    assert traj.diverged and traj.failure_step == 1


def test_solver_error_carries_context():
    prob = perturbed_pendulum()
    with pytest.raises(StageDivergenceError) as info:
        step(named_tableau("rkn-iiib"), prob.force, 0.0, 0.0, 2.5, StepConfig(h=10.0))
    assert info.value.residual is not None


def test_sixth_order_accuracy_on_harmonic():
    prob = harmonic_oscillator()
    traj = integrate(reference_tableau(), prob, 10.0, StepConfig(h=0.1))
    assert abs(float(traj.q[-1, 0]) - math.cos(10.0)) < 1e-8
    assert abs(float(traj.p[-1, 0]) + math.sin(10.0)) < 1e-8


def test_second_order_member_converges_at_order_two():
    tab = discretize(build_order2(1 / 6), gauss_rule(1))
    study = global_error_study(
        tab, harmonic_oscillator(), 2.0, [0.2, 0.1, 0.05, 0.025]
    )
    assert study.reference == "exact"
    assert 1.8 < study.slope < 2.2


def test_error_study_sorting_and_reference_labels():
    prob = perturbed_pendulum()
    study = global_error_study(
        named_tableau("rkn-iiib"), prob, 10.0, [0.05, 0.2, 0.1]
    )
    np.testing.assert_allclose(study.h, [0.2, 0.1, 0.05], atol=0.0)
    assert np.all(np.diff(study.error) < 0)
    assert study.reference == "order6-gauss3"
    assert 3.7 < study.slope < 4.3
    assert study.rows()[0][0] == 0.2

    pinned = global_error_study(
        named_tableau("rkn-iiib"), prob, 10.0, [0.2, 0.1],
        reference=(19.794750977098701, 2.245311627198823),
    )
    assert pinned.reference == "supplied"
    assert pinned.error[0] == pytest.approx(study.error[0], rel=1e-6)


def test_error_study_needs_two_steps():
    with pytest.raises(DegenerateFitError):
        global_error_study(
            named_tableau("rkn-iiib"), perturbed_pendulum(), 10.0, [0.1, 0.1]
        )


def test_divergence_propagates_from_study():
    with pytest.raises(StageDivergenceError):
        global_error_study(
            named_tableau("rkn-iiib"), perturbed_pendulum(), 20.0, [10.0, 5.0]
        )


def test_slope_fits():
    hs = [0.4, 0.2, 0.1]
    assert fit_loglog_slope(hs, [h**3 for h in hs]) == pytest.approx(3.0, abs=1e-12)
    # zero rows are dropped, not logged
    assert fit_loglog_slope([0.4, 0.2, 0.1], [0.0, 0.04, 0.01]) == pytest.approx(
        2.0, abs=1e-12
    )
    with pytest.raises(DegenerateFitError):
        fit_loglog_slope([0.1, 0.1], [1e-3, 1e-3])
    with pytest.raises(DegenerateFitError):
        fit_loglog_slope([0.2, 0.1], [0.0, 0.0])

    t = np.arange(10.0)
    v = 2.5 - 3e-4 * t
    assert linear_drift_slope(t, v) == pytest.approx(-3e-4, abs=1e-12)
    with pytest.raises(DegenerateFitError):
        linear_drift_slope([1.0, 1.0], [0.0, 1.0])


def test_reversibility_of_symmetric_methods():
    prob = perturbed_pendulum()
    for name in ("rkn-iiib", "diagsymp"):
        assert reversibility_test(named_tableau(name), prob, 0.16) < 1e-10
    assert reversibility_test(_control(), prob, 0.16) > 1e-4


def test_reference_state_paths():
    harm = harmonic_oscillator()
    q, p = reference_state(harm, 10.0, 0.01)
    assert q == pytest.approx(math.cos(10.0), abs=1e-15)
    assert p == pytest.approx(-math.sin(10.0), abs=1e-15)
    pend = perturbed_pendulum()
    qa, pa = reference_state(pend, 1.6, 0.0123)
    qb, pb = reference_state(pend, 1.6, 0.004)
    assert isinstance(qa, float)
    assert qa == pytest.approx(qb, abs=1e-10)
    assert pa == pytest.approx(pb, abs=1e-10)
    q0, p0 = reference_state(pend, 0.0, 0.01)
    assert (q0, p0) == (pend.q0, pend.p0)


def test_step_config_validation():
    with pytest.raises(ValueError):
        StepConfig(h=0.0)
    with pytest.raises(ValueError):
        StepConfig(h=-0.1)
    with pytest.raises(ValueError):
        StepConfig(h=math.inf)
    with pytest.raises(ValueError):
        StepConfig(h=0.1, stage_tol=0.0)
    with pytest.raises(ValueError):
        StepConfig(h=0.1, max_iters=0)


def test_array_problem_round_trip():
    prob = kepler_2d()
    traj = integrate(named_tableau("rkn-iiia"), prob, 2.0, StepConfig(h=0.02))
    assert traj.q.shape == (101, 2)
    Q = solve_stages(
        named_tableau("rkn-iiia"), prob.force, 0.0, prob.q0, prob.p0,
        StepConfig(h=0.02),
    )
    assert Q.shape == (3, 2)


class _CountingForce:
    """Kepler force that counts per-point and batched calls."""

    def __init__(self, force, stages=None):
        self.force = force
        self.stages_of = stages or force.stages
        self.points = 0
        self.batches = 0

    def __call__(self, t, q):
        self.points += 1
        return self.force(t, q)

    def stages(self, times, Q):
        self.batches += 1
        return self.stages_of(times, Q)


@pytest.mark.parametrize("name", FIVE + ("order6-gauss3",))
def test_batched_force_gives_the_same_bytes(name):
    tab = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    prob = kepler_2d(0.5)
    plain = dataclasses.replace(prob, force=lambda t, q: prob.force(t, q))
    cfg = StepConfig(h=0.05)
    batched_run = integrate(tab, prob, 5.0, cfg, sample_every=3)
    plain_run = integrate(tab, plain, 5.0, cfg, sample_every=3)
    for field in ("times", "q", "p", "energy_error"):
        a, b = getattr(batched_run, field), getattr(plain_run, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


def test_jacobi_array_sweep_calls_stages_once_per_sweep():
    tab = named_tableau("rkn-a")
    assert not tab.lower_triangular
    prob = kepler_2d(0.5)
    cfg = StepConfig(h=0.1)
    points = []

    def plain(t, q):
        points.append(t)
        return prob.force(t, q)

    counting = _CountingForce(prob.force)
    q1, p1 = step(tab, counting, 0.0, prob.q0, prob.p0, cfg)
    q2, p2 = step(tab, plain, 0.0, prob.q0, prob.p0, cfg)
    assert q1.tobytes() == q2.tobytes() and p1.tobytes() == p2.tobytes()
    # the per-point run makes s calls per evaluation: the initial one and
    # one per sweep, so the batched run makes sweeps + 1 stages calls
    assert counting.points == 0
    assert len(points) % tab.s == 0 and len(points) > 2 * tab.s
    assert counting.batches == len(points) // tab.s


@pytest.mark.parametrize(
    "bad",
    [
        lambda times, Q: np.zeros(len(times)),
        lambda times, Q: np.zeros((len(times), 1)),
        lambda times, Q: np.zeros((2, len(times))),
    ],
    ids=["(s,)", "(s,1)", "(d,s)"],
)
def test_stages_of_the_wrong_shape_is_rejected(bad):
    prob = kepler_2d(0.5)
    tab = named_tableau("rkn-iiia")  # s = 3, d = 2
    force = _CountingForce(prob.force, stages=bad)
    with pytest.raises(ValueError, match="stages"):
        step(tab, force, 0.0, prob.q0, prob.p0, StepConfig(h=0.1))
    with pytest.raises(ValueError, match="stages"):
        integrate(tab, dataclasses.replace(prob, force=force), 1.0, StepConfig(h=0.1))


def test_final_state_error_reads_the_full_run_endpoint():
    prob = kepler_2d(0.5)
    tab = named_tableau("rkn-iiib")
    cfg = StepConfig(h=0.05)
    reference = reference_state(prob, 2.0, 0.01)
    full = integrate(tab, prob, 2.0, cfg)
    expected = max(
        np.abs(full.q[-1] - reference[0]).max(),
        np.abs(full.p[-1] - reference[1]).max(),
    )
    assert final_state_error(tab, prob, 2.0, cfg, reference) == expected
    zero = final_state_error(tab, prob, 0.0, cfg, (prob.q0, prob.p0))
    assert zero == 0.0


def _counted_force_evaluations(force, s):
    """(force, count) where count() is the evaluations made so far,
    counting one stages call on s points as s evaluations."""
    if hasattr(force, "stages"):
        counting = _CountingForce(force)
        return counting, lambda: counting.points + s * counting.batches
    calls = []

    def f(t, q):
        calls.append(t)
        return force(t, q)

    return f, lambda: len(calls)


@pytest.mark.parametrize(
    "name, make, h, n",
    [
        ("rkn-a", perturbed_pendulum, 0.16, 100),
        ("diagsymp", perturbed_pendulum, 0.16, 100),
        ("order6-gauss3", lambda: kepler_2d(0.5), 3.125e-4, 200),
    ],
    ids=["rkn-a-pendulum", "diagsymp-pendulum", "order6-gauss3-kepler"],
)
def test_integrate_starts_stages_from_the_previous_step(name, make, h, n):
    # integrate extrapolates the previous step's stage forces; single
    # steps start from free motion.  Both solve the same stage equations.
    tab = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    prob = make()
    cfg = StepConfig(h=h)
    f, warm = _counted_force_evaluations(prob.force, tab.s)
    run = integrate(tab, dataclasses.replace(prob, force=f), n * h, cfg, sample_every=n)
    g, cold = _counted_force_evaluations(prob.force, tab.s)
    q, p = prob.q0, prob.p0
    for k in range(n):
        q, p = step(tab, g, prob.t0 + k * h, q, p, cfg)
    assert warm() < cold()
    assert np.abs(run.q[-1] - q).max() < 1e-13
    assert np.abs(run.p[-1] - p).max() < 1e-13


@pytest.mark.parametrize(
    "name, make, h, failure_step",
    [
        ("rkn-iiia", lambda: kepler_2d(0.5), 0.8, 12),
        ("rkn-a", lambda: kepler_2d(0.5), 0.8, 11),
        ("rkn-b", lambda: kepler_2d(0.5), 1.25, 5),
        ("rkn-iiib", lambda: kepler_2d(0.9), 0.1, 62),
        ("rkn-iiib", perturbed_pendulum, 2.0, 2),
    ],
    ids=["rkn-iiia-kepler0.5", "rkn-a-kepler0.5", "rkn-b-kepler0.5",
         "rkn-iiib-kepler0.9", "rkn-iiib-pendulum"],
)
def test_later_step_divergence_keeps_its_failure_step(name, make, h, failure_step):
    # these runs diverge after their first step, where the extrapolated
    # start is in use; they stop at the step they stopped at with the
    # free-motion start
    traj = integrate(named_tableau(name), make(), h * round(20.0 / h), StepConfig(h=h))
    assert traj.diverged and traj.failure_step == failure_step
    assert traj.times.shape == (failure_step,)


def _twin_nodes(a_bar) -> RknTableau:
    return RknTableau(
        2, np.array([0.5, 0.5]), np.array(a_bar), np.array([0.25, 0.25]),
        np.array([0.5, 0.5]), "twin",
    )


# sha256 of integrate's times, q, p, energy_error bytes (pendulum, then
# Kepler e=0.5; h=0.16 to t=16, sample_every=7), recorded with the
# free-motion start of every step
TWIN_DIGESTS = {
    "jacobi": (
        "48f492bd62a2aa0c1fa67bb0a8b4c38b15c86865be493a795016667ef0f3c36a",
        "97f273a3dd33fd45fbd007e9641993c33135457c93d83b71f98e77ecefc273e0",
    ),
    "sequential": (
        "e72769746fb609c736a3683d1b90ab6b546d86416519324307e074fae8cee6c0",
        "d6d74273bbbc09461cabc2762aea905d5c0e16fc823c7e1e615e401b0f93ccc6",
    ),
}


@pytest.mark.parametrize(
    "structure, a_bar",
    [
        ("jacobi", [[0.0625, 0.0625], [0.0625, 0.0625]]),
        ("sequential", [[0.125, 0.0], [0.0625, 0.0625]]),
    ],
)
def test_repeated_nodes_keep_the_free_motion_start(structure, a_bar):
    # no polynomial passes through repeated nodes, so every step of such a
    # tableau starts from free motion, exactly as single steps do
    tab = _twin_nodes(a_bar)
    assert tab.lower_triangular == (structure == "sequential")
    cfg = StepConfig(h=0.16)
    for prob, digest in zip((perturbed_pendulum(), kepler_2d(0.5)), TWIN_DIGESTS[structure]):
        traj = integrate(tab, prob, 16.0, cfg, sample_every=7)
        sha = hashlib.sha256()
        for v in (traj.times, traj.q, traj.p, traj.energy_error):
            sha.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
        assert sha.hexdigest() == digest
        q, p = prob.q0, prob.p0
        for k in range(100):
            q, p = step(tab, prob.force, prob.t0 + k * cfg.h, q, p, cfg)
        assert traj.q[-1].tobytes() == np.reshape(q, -1).tobytes()
        assert traj.p[-1].tobytes() == np.reshape(p, -1).tobytes()
