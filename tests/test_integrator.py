import dataclasses
import hashlib
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from family_params import FAMILY_PARAMS

from symrkn.cli import DEFAULT_H_LIST
from symrkn.cscoeff import build_order2, build_order4
from symrkn.errors import (
    DegenerateFitError,
    InvalidGridError,
    StageDivergenceError,
)
from symrkn.integrator import (
    StepConfig,
    Trajectory,
    _final_state,
    _step_count,
    _study_reference,
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
from symrkn.kernel import _blocks, _start_matrix, _stepper
from symrkn.problems import (
    OdeProblem,
    _KeplerForce,
    harmonic_oscillator,
    kepler_2d,
    perturbed_pendulum,
)
from symrkn.quadrature import gauss_rule, lobatto_rule
from symrkn.tableau import RknTableau, discretize, named_tableau

CFG = StepConfig(h=0.16)

FIVE = ("rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b")


def _advance(t, f, t0, q0, p0, h):
    """One step of signed size h."""
    _, advance = _stepper(t, f, q0, 1e-14, 100)
    return advance(t0, q0, p0, h)[:2]


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
    for name in ("rkn-iiia", "rkn-iiib", "diagsymp"):
        tab = named_tableau(name)
        q1, p1 = _advance(tab, prob.force, 0.0, prob.q0, prob.p0, h)
        q2, p2 = _advance(tab, prob.force, h, q1, p1, -h)
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

    def run(advance, tab, *args):
        calls.clear()
        return advance(tab, f, 0.0, 0.0, 2.5, *args), len(calls)

    # diagsymp rebuilt from its parameters has entries of ~1e-17 above the
    # diagonal, so its stages form one block, solved by Jacobi sweeps; the
    # named tableau's are exactly zero, so each stage is a block of its own
    tab = named_tableau("diagsymp")
    rebuilt = discretize(build_order4(*FAMILY_PARAMS["diagsymp"]), lobatto_rule(3))
    assert _blocks(tab.a_bar) == [[0], [1], [2]]
    assert 0.0 < np.abs(np.triu(rebuilt.a_bar, k=1)).max() < 1e-15
    assert _blocks(rebuilt.a_bar) == [[0, 1, 2]]
    (q1, p1), n_sweep = run(_advance, tab, 0.16)
    (q2, p2), n_jacobi = run(_advance, rebuilt, 0.16)
    assert abs(q1 - q2) < 1e-12 and abs(p1 - p2) < 1e-12
    # one-stage blocks need fewer force evaluations
    (q3, p3), n_step = run(step, tab, CFG)
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


def _explicit_last_stage() -> RknTableau:
    # diagsymp without its last diagonal entry: the last stage's force
    # enters only the update, never a stage iteration
    t = named_tableau("diagsymp")
    a_bar = np.array(t.a_bar)
    a_bar[2, 2] = 0.0
    return RknTableau(3, t.c, a_bar, t.b_bar, t.b, "explicit last stage")


def _as_scalar_and_array(prob):
    f = prob.force
    return prob, dataclasses.replace(
        prob,
        force=lambda t, q: np.array([f(t, float(q[0]))]),
        energy=lambda p, q: prob.energy(float(p[0]), float(q[0])),
        q0=np.array([prob.q0]),
        p0=np.array([prob.p0]),
    )


def _run_outcome(tab, prob, sample_every):
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            traj = integrate(tab, prob, 1.6, CFG, sample_every=sample_every)
    except ValueError as exc:
        return type(exc), str(exc)
    for values in (traj.q, traj.p, traj.energy_error):
        assert np.all(np.isfinite(values))
    return traj.diverged, traj.failure_step, traj.times.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["diagsymp", "rkn-a", "rkn-iiib", "explicit-last-stage"])
def test_non_finite_runs_agree_on_both_paths(name, bad):
    # scalar and (1,)-array pendulum runs give the same exception or stop
    # at the same step, and record no inf or NaN
    tab = _explicit_last_stage() if name == "explicit-last-stage" else named_tableau(name)
    pend = perturbed_pendulum()
    forces = (
        lambda t, q: bad,
        lambda t, q: bad if t > 0.5 else pend.force(t, q),
        lambda t, q: bad if t > 0.45 else pend.force(t, q),
        lambda t, q: bad if q > 0.7 else pend.force(t, q),
    )
    runs = [dataclasses.replace(pend, force=f) for f in forces]
    runs += [dataclasses.replace(pend, q0=bad), dataclasses.replace(pend, p0=bad)]
    for prob in runs:
        for sample_every in (1, 3):
            scalar, array = (
                _run_outcome(tab, kind, sample_every) for kind in _as_scalar_and_array(prob)
            )
            assert scalar == array


@pytest.mark.parametrize("name", ["rkn-a", "rkn-iiia", "rkn-b"])
def test_an_infinite_force_ends_the_run_as_a_divergence(name):
    # math.sin(inf) raises ValueError; the stage iterate that turns inf
    # ends the step before the force sees it, on both state kinds
    pend = perturbed_pendulum()
    prob = dataclasses.replace(
        pend, force=lambda t, q: math.inf if t > 0.45 else pend.force(t, q)
    )
    for kind in _as_scalar_and_array(prob):
        traj = integrate(named_tableau(name), kind, 1.6, CFG)
        assert traj.diverged and traj.failure_step == 3
        assert traj.times.shape == (3,) and traj.q.shape == (3, 1)
        for values in (traj.q, traj.p, traj.energy_error):
            assert np.all(np.isfinite(values))


@pytest.mark.parametrize("sample_every", [1, 5])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_force_called_per_point_never_gets_a_stage_value_that_is_not_finite(
    bad, sample_every
):
    # step 4 spans [0.48, 0.64]: diagsymp's explicit stage 1, at 0.56, gets
    # the bad force, which makes stage 2's start not finite.  The step ends
    # there, before the force sees that start: math.sin(inf) would raise
    # ValueError out of integrate
    seen = []

    def force(t, q):
        seen.append(q)
        return bad if 0.5 < t < 0.6 else -math.sin(q) - 0.4 * math.cos(2 * q)

    prob = dataclasses.replace(perturbed_pendulum(), force=force)
    for kind in _as_scalar_and_array(prob):
        traj = integrate(named_tableau("diagsymp"), kind, 1.6, CFG, sample_every)
        assert traj.diverged and traj.failure_step == 4
        assert traj.failure_residual is None
        want = [k * 0.16 for k in range(0, 4, sample_every)]
        assert traj.times.tobytes() == np.array(want).tobytes()
        assert all(map(math.isfinite, seen))


@pytest.mark.parametrize("name", FIVE + ("order6-gauss3",))
def test_scalar_and_one_component_runs_have_the_same_bits(name):
    # both state kinds run kernels from one generator, with the same sums
    tab = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    scalar, array = (
        integrate(tab, kind, 160.0, CFG, sample_every=7)
        for kind in _as_scalar_and_array(perturbed_pendulum())
    )
    for field in ("times", "q", "p", "energy_error"):
        a, b = getattr(scalar, field), getattr(array, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


def test_explicit_stage_force_cannot_record_a_non_finite_sample():
    # the last stage's NaN force first appears at step 3 (t = 0.48); the
    # update takes it in and no stage iteration can fail on it
    pend = perturbed_pendulum()
    prob = dataclasses.replace(
        pend, force=lambda t, q: math.nan if t > 0.45 else pend.force(t, q)
    )
    for kind in _as_scalar_and_array(prob):
        with np.errstate(invalid="ignore"):
            traj = integrate(_explicit_last_stage(), kind, 1.6, CFG)
            skipped = integrate(_explicit_last_stage(), kind, 1.6, CFG, sample_every=2)
        assert traj.diverged and traj.failure_step == 3
        assert traj.times.shape == (3,)
        # a non-finite sample ended the run, not the stage solver
        assert traj.failure_residual is None
        # unsampled, the NaN state reaches step 4, whose first stage start
        # ends it before the force sees it: no sweep, so no residual
        assert skipped.diverged and skipped.failure_step == 4
        assert skipped.failure_residual is None
        assert skipped.times.shape == (2,)
    for q0, p0 in ((math.nan, 2.5), (0.0, math.inf)):
        for kind in _as_scalar_and_array(dataclasses.replace(pend, q0=q0, p0=p0)):
            with pytest.raises(ValueError, match="initial state must be finite"):
                integrate(named_tableau("rkn-a"), kind, 1.6, CFG)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", [(), (1,), (2,)])
@pytest.mark.parametrize("field", ["q0", "p0"])
def test_every_call_refuses_a_non_finite_start_before_any_force_call(bad, shape, field):
    # checked before the kernel runs, so neither an explicit stage (the
    # control) nor a stage solve (rkn-a) sees the start
    calls = []

    def force(t, q):
        calls.append(t)
        return -q

    state = {"q0": np.full(shape, 0.5), "p0": np.full(shape, -0.25)}
    state[field] = np.append(state[field].ravel()[:-1], bad).reshape(shape)
    if shape == ():
        state = {k: float(v) for k, v in state.items()}
    prob = OdeProblem(max(1, np.size(state["q0"])), force, 0.0, **state)
    for tab in (_control(), named_tableau("rkn-a")):
        runs = (
            lambda: step(tab, force, 0.0, prob.q0, prob.p0, CFG),
            lambda: solve_stages(tab, force, 0.0, prob.q0, prob.p0, CFG),
            lambda: reversibility_test(tab, prob, CFG.h),
            lambda: integrate(tab, prob, 0.16, CFG),
        )
        for run in runs:
            with pytest.raises(ValueError, match="^initial state must be finite$"):
                run()
    assert calls == []


def test_trajectory_checks_its_fields():
    times, rows = np.array([0.0, 0.5]), np.zeros((2, 1))
    for q, p in ((rows[:1], rows), (rows, rows[:1])):
        with pytest.raises(ValueError, match="^times, q, p must have equal lengths$"):
            Trajectory(times, q, p)
    with pytest.raises(ValueError, match="^energy_error length mismatch$"):
        Trajectory(times, rows, rows, np.zeros(3))
    for bad in (times[::-1], np.zeros(2)):
        with pytest.raises(ValueError, match="^times must be strictly increasing$"):
            Trajectory(bad, rows, rows)
    assert not Trajectory(times, rows, rows, np.zeros(2)).diverged


def test_zero_span_trajectory():
    for prob in _state_kinds(perturbed_pendulum()):
        traj = integrate(named_tableau("diagsymp"), prob, 0.0, CFG)
        assert traj.times.shape == (1,)
        assert traj.q.shape == (1, prob.dim) and traj.p.shape == (1, prob.dim)
        np.testing.assert_allclose(traj.energy_error, [0.0], atol=0.0)
        assert not traj.diverged and traj.failure_residual is None


def test_grid_validation():
    prob = perturbed_pendulum()
    with pytest.raises(InvalidGridError):
        integrate(named_tableau("diagsymp"), prob, 0.35, StepConfig(h=0.1))
    with pytest.raises(InvalidGridError):
        integrate(named_tableau("diagsymp"), prob, -1.0, StepConfig(h=0.1))
    # a non-integer never equals the kernel's step count, so it would drop
    # samples silently, the final state included
    for bad in (0, 2.5, math.nan, math.inf, True, 2.0):
        with pytest.raises(ValueError, match="sample_every"):
            integrate(named_tableau("diagsymp"), prob, 1.6, CFG, sample_every=bad)


def test_sampling_pattern_keeps_endpoints():
    prob = perturbed_pendulum()
    for every in (3, np.int64(3)):
        traj = integrate(named_tableau("diagsymp"), prob, 1.6, CFG, sample_every=every)
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


@pytest.mark.parametrize(
    "name, low, high",
    [("rkn-iiia", 3.85, 4.15), ("rkn-iiib", 3.85, 4.15), ("diagsymp", 3.85, 4.15),
     ("rkn-a", 5.8, 6.2), ("rkn-b", 5.8, 6.2)],
)
def test_linear_order_of_the_named_methods(name, low, high):
    # on a linear force rkn-a and rkn-b reach order 6, beyond their
    # general order 4 (fitted slopes 3.999, 3.999, 4.001, 6.002, 6.01)
    study = global_error_study(
        named_tableau(name), harmonic_oscillator(), 10.0, [0.2, 0.1, 0.05, 0.025]
    )
    assert study.reference == "exact"
    assert low <= study.slope <= high


def test_error_study_sorting_and_reference_labels():
    prob = perturbed_pendulum()
    study = global_error_study(
        named_tableau("rkn-iiib"), prob, 10.0, [0.05, 0.2, 0.1]
    )
    np.testing.assert_allclose(study.h, [0.2, 0.1, 0.05], atol=0.0)
    assert np.all(np.diff(study.error) < 0)
    assert study.reference == "order6-gauss3"
    assert 3.7 < study.slope < 4.3
    assert study.h[0] == 0.2

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
    # no step size at all fails before the reference runs
    with pytest.raises(DegenerateFitError, match="at least 2 distinct step sizes"):
        global_error_study(named_tableau("rkn-iiib"), perturbed_pendulum(), 10.0, [])


def test_diverged_rows_are_nan_in_a_study():
    # every run diverges: nan rows and a nan slope, nothing raised
    study = global_error_study(
        named_tableau("rkn-iiib"), perturbed_pendulum(), 20.0, [10.0, 5.0]
    )
    assert np.isnan(study.error).all()
    assert math.isnan(study.slope)


def test_the_studies_take_step_sizes_only():
    # a StepConfig after the step sizes is a TypeError, and never lands in
    # global_error_study's keyword-only reference
    tab, prob = named_tableau("rkn-a"), kepler_2d()
    with pytest.raises(TypeError):
        global_error_study(tab, prob, 1.0, [0.1, 0.05], StepConfig(h=0.1))
    with pytest.raises(TypeError):
        reference_state(prob, 1.0, 0.1, StepConfig(h=0.1))
    with pytest.raises(TypeError):
        reversibility_test(tab, prob, 0.1, StepConfig(h=0.1))


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


def test_the_pendulum_reference_meets_an_independent_oracle():
    # the state at t = 10 from mpmath's Taylor-series solver, ~4 s to
    # recompute:
    #   mp.dps = 20
    #   y = mpmath.odefun(lambda t, y: [y[1], -mpmath.sin(y[0])
    #       - mpf(2) / 5 * mpmath.cos(2 * y[0])], 0, [mpf(0), mpf("2.5")])
    #   y(10)
    # The default converge's reference misses it by 2.8e-13 in q and 5e-15
    # in p: roundoff, as |q| grows to ~20 in rotation
    hs = [float(h) for h in DEFAULT_H_LIST.split(",")]
    label, (q, p) = _study_reference(perturbed_pendulum(), 10.0, hs)
    assert label == "order6-gauss3"
    assert abs(q - 19.79475097709899979054) < 1e-12
    assert abs(p - 2.24531162719881558961) < 1e-12


@pytest.mark.parametrize("t_end", [math.inf, -math.inf, math.nan, -1.0])
@pytest.mark.parametrize("make", [perturbed_pendulum, harmonic_oscillator, kepler_2d])
def test_a_non_finite_or_negative_span_is_a_grid_error(make, t_end):
    # checked before the exact solution or the order-6 run is evaluated
    prob = make()
    with pytest.raises(InvalidGridError):
        reference_state(prob, t_end, 0.01)
    with pytest.raises(InvalidGridError):
        integrate(named_tableau("rkn-a"), prob, t_end, StepConfig(h=0.1))


def test_a_negative_reference_step_is_a_grid_error():
    # and not one order-6 step over the whole span, a state 1e-3 off
    with pytest.raises(InvalidGridError, match="reference step size -0.001 must be positive"):
        reference_state(perturbed_pendulum(), 1.0, -0.001)
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidGridError, match=f"^reference step size {bad!r} must be"):
            reference_state(perturbed_pendulum(), 1.0, bad)


@pytest.mark.parametrize(
    "make, bad",
    [(perturbed_pendulum, -0.1), (perturbed_pendulum, 0.0), (kepler_2d, -0.1),
     (kepler_2d, math.nan)],
)
def test_a_study_names_its_bad_step_size(make, bad, monkeypatch):
    # every step size is checked before the reference step is taken from
    # them, so the error names the step size and no reference runs
    def no_reference(*args):
        raise AssertionError("the reference ran")

    monkeypatch.setattr("symrkn.integrator.reference_state", no_reference)
    message = f"^step size {re.escape(repr(bad))} must be positive and finite$"
    with pytest.raises(InvalidGridError, match=message):
        global_error_study(named_tableau("rkn-a"), make(), 1.0, [0.1, bad])


@pytest.mark.parametrize("make", [perturbed_pendulum, harmonic_oscillator, kepler_2d])
def test_a_step_count_that_is_not_finite_is_a_grid_error(make):
    # span / h overflows: 1e308 / 0.16, 10 / 1e-320, and 10 / 0.0 for the
    # reference step min(h)/20 when min(h) is the least subnormal
    prob = make()
    for t_end, h in ((1e308, 0.16), (10.0, 1e-320)):
        with pytest.raises(InvalidGridError, match="step count is not finite"):
            integrate(named_tableau("rkn-a"), prob, t_end, StepConfig(h=h))
        with pytest.raises(InvalidGridError, match="step count is not finite"):
            global_error_study(
                named_tableau("rkn-a"), prob, t_end, [h], reference=(prob.q0, prob.p0)
            )
    if prob.exact is None:
        for h_ref in (1e-320, 5e-324 / 20.0):
            with pytest.raises(InvalidGridError, match="step count is not finite"):
                reference_state(prob, 10.0, h_ref)


def test_a_step_count_past_2_53_is_a_grid_error():
    # t0 + k h cannot tell every step apart once k passes 2**53
    assert _step_count(2.0**53, 1.0) == 2**53
    past = r"step count 1\.8014398509481984e\+16 passes 2\*\*53"
    with pytest.raises(InvalidGridError, match=past):
        _step_count(2.0**54, 1.0)
    pend = perturbed_pendulum()
    with pytest.raises(InvalidGridError, match=r"^step size 0\.16 .* passes 2\*\*53$"):
        integrate(named_tableau("rkn-a"), pend, 1e300, CFG, sample_every=10**6)
    with pytest.raises(InvalidGridError, match=r"^reference step size 5e-302 .* passes 2\*\*53$"):
        reference_state(pend, 10.0, 5e-302)


def test_a_reference_step_count_rounds_up_to_the_nearest_divisor():
    # the reference's nominal step need not divide the span: its count
    # rounds up, within GRID_RTOL of a whole count, and a row's must divide
    assert _step_count(10.0, 0.003, "reference step size", divides=False) == 3334
    assert _step_count(0.3, 0.1, divides=False) == 3 == _step_count(0.3, 0.1)
    assert _step_count(1e-12, 1.0, divides=False) == 1
    with pytest.raises(InvalidGridError, match="^step size 0.003 does not divide"):
        _step_count(10.0, 0.003)
    with pytest.raises(InvalidGridError, match="^t_end must not precede t0$"):
        _step_count(-1.0, -0.1, divides=False)
    assert _step_count(0.0, -0.1, divides=False) == 0


def test_step_config_validation():
    with pytest.raises(ValueError):
        StepConfig(h=0.0)
    with pytest.raises(ValueError):
        StepConfig(h=-0.1)
    with pytest.raises(ValueError):
        StepConfig(h=math.inf)
    # a tolerance is no grid: a plain ValueError naming the value
    for bad in (0.0, -1.0, math.inf, math.nan, 2.0**-53):
        message = f"^stage_tol {re.escape(repr(bad))} must be finite and at least 2\\*\\*-52$"
        with pytest.raises(ValueError, match=message) as info:
            StepConfig(h=0.1, stage_tol=bad)
        assert not isinstance(info.value, InvalidGridError)
    with pytest.raises(ValueError):
        StepConfig(h=0.1, max_iters=0)
    # range(max_iters) would fail every step with TypeError
    for bad in (2.5, True, False, "100", None, 100.0):
        with pytest.raises(ValueError):
            StepConfig(h=0.1, max_iters=bad)
    assert StepConfig(h=0.1, max_iters=np.int64(7)).max_iters == 7


def test_the_least_stage_tol_completes_the_pendulum_run():
    # below 2**-52 (refused: test_step_config_validation) the increments
    # stall at about an ulp of 1 + |q|, and runs that do not diverge end
    # "did not contract"; 2**-52 itself completes all five methods
    cfg = StepConfig(h=0.16, stage_tol=2.0**-52)
    for name in FIVE:
        traj = integrate(named_tableau(name), perturbed_pendulum(), 1600.0, cfg)
        assert not traj.diverged, name
        assert traj.times[-1] == 1600.0, name


def test_array_problem_round_trip():
    prob = kepler_2d()
    traj = integrate(named_tableau("rkn-iiia"), prob, 2.0, StepConfig(h=0.02))
    assert traj.q.shape == (101, 2)
    Q = solve_stages(
        named_tableau("rkn-iiia"), prob.force, 0.0, prob.q0, prob.p0,
        StepConfig(h=0.02),
    )
    assert Q.shape == (3, 2)


class _StagesKepler(_KeplerForce):
    """The Kepler force under a subclass, with a batched stages method
    that must never be called."""

    def stages(self, times, values):
        raise AssertionError("force.stages was called")


class _PlainStages:
    """A plain force class with the same stages method."""

    def __init__(self, force):
        self.force = force

    def __call__(self, t, q):
        return self.force(t, q)

    stages = _StagesKepler.stages


@pytest.mark.parametrize("name", FIVE + ("order6-gauss3",))
def test_batched_force_gives_the_same_bytes(name):
    # a force with a stages method is called per point, as any force
    # without a template is, so it runs with the plain wrapper's bits
    tab = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    prob = kepler_2d(0.5)
    cfg = StepConfig(h=0.05)
    plain_run = integrate(
        tab, dataclasses.replace(prob, force=lambda t, q: prob.force(t, q)), 5.0, cfg,
        sample_every=3,
    )
    for force in (prob.force, _StagesKepler(), _PlainStages(prob.force)):
        run = integrate(tab, dataclasses.replace(prob, force=force), 5.0, cfg, sample_every=3)
        for field in ("times", "q", "p", "energy_error"):
            a, b = getattr(run, field), getattr(plain_run, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


def _recorded_step(tab, prob, cfg):
    """The stage times of one step's per-point force calls, and the step's
    bits against the built-in force's."""
    points = []

    def plain(t, q):
        points.append(t)
        return prob.force(t, q)

    q1, p1 = step(tab, plain, 0.0, prob.q0, prob.p0, cfg)
    q2, p2 = step(tab, prob.force, 0.0, prob.q0, prob.p0, cfg)
    assert q1.tobytes() == q2.tobytes() and p1.tobytes() == p2.tobytes()
    return points, [0.0 + c * cfg.h for c in tab.c.tolist()]


def test_jacobi_array_sweep_calls_stages_once_per_sweep():
    # every evaluation calls the force at all s stages, in stage order:
    # one at the top of each sweep, and the settle after the last
    tab = named_tableau("rkn-a")
    assert _blocks(tab.a_bar) == [[0, 1, 2]]
    points, nodes = _recorded_step(tab, kepler_2d(0.5), StepConfig(h=0.1))
    sweeps = len(points) // tab.s
    assert sweeps > 2 and points == nodes * sweeps


def test_sequential_array_solve_calls_stages_once_per_evaluation():
    # each call is at the time of the stage being solved, stage by stage
    tab = named_tableau("diagsymp")
    assert _blocks(tab.a_bar) == [[0], [1], [2]]
    points, nodes = _recorded_step(tab, kepler_2d(0.5), StepConfig(h=0.1))
    assert len(points) > tab.s
    stages = [nodes.index(t) for t in points]
    assert stages == sorted(stages) and set(stages) == set(range(tab.s))


@pytest.mark.parametrize("name, stages", [("rkn-a", [0, 1, 2] * 3), ("diagsymp", [0] * 3)])
def test_a_solve_that_does_not_contract_evaluates_each_stage_once_per_sweep(name, stages):
    # 3 sweeps and no more: the Jacobi sweeps evaluate all 3 stages in each,
    # the sequential sweep fails on its first stage; no force is evaluated
    # after the last sweep and then discarded
    tab, prob = named_tableau(name), perturbed_pendulum()
    times = []

    def f(t, q):
        times.append(t)
        return prob.force(t, q)

    with pytest.raises(StageDivergenceError, match="did not contract"):
        step(tab, f, 0.0, 0.0, 2.5, StepConfig(h=0.16, max_iters=3))
    assert times == [0.0 + 0.16 * tab.c[i] for i in stages]


def _kernel_name(tab, force, q0):
    return _stepper(tab, force, q0, 1e-14, 100)[1].func.__code__.co_filename


class _RecordingKepler(_KeplerForce):
    """The Kepler force under a subclass, recording its call times."""

    def __init__(self):
        self.times = []

    def __call__(self, t, q):
        self.times.append(t)
        return super().__call__(t, q)


def test_only_the_exact_built_in_force_types_are_written_inline():
    # a template is found by the force's exact type, so a subclass and a
    # replaced force keep their per-point calls
    tab = named_tableau("rkn-a")
    prob = kepler_2d(0.5)
    assert "d=2 (0,1,2) kepler " in _kernel_name(tab, prob.force, prob.q0)
    force = _RecordingKepler()
    assert re.fullmatch(
        r"<symrkn kernel s=3 d=2 \(0,1,2\) [0-9a-f]{8}>",
        _kernel_name(tab, force, prob.q0),
    )
    q1, p1 = step(tab, force, 0.0, prob.q0, prob.p0, StepConfig(h=0.1))
    q2, p2 = step(tab, prob.force, 0.0, prob.q0, prob.p0, StepConfig(h=0.1))
    assert q1.tobytes() == q2.tobytes() and p1.tobytes() == p2.tobytes()
    assert len(force.times) > tab.s and len(force.times) % tab.s == 0
    pend = perturbed_pendulum()
    assert " (0,1,2) pendulum " in _kernel_name(tab, pend.force, pend.q0)
    plain = dataclasses.replace(pend, force=lambda t, q: pend.force(t, q))
    assert re.fullmatch(
        r"<symrkn kernel s=3 \(0,1,2\) [0-9a-f]{8}>",
        _kernel_name(tab, plain.force, plain.q0),
    )
    runs = [integrate(tab, kind, 1.6, CFG) for kind in (pend, plain)]
    assert runs[0].q.tobytes() == runs[1].q.tobytes()
    assert runs[0].p.tobytes() == runs[1].p.tobytes()


@pytest.mark.parametrize("name", FIVE + ("order6-gauss3",))
def test_an_inline_pendulum_stage_past_the_float_range_ends_the_run(name, caplog):
    # from q0 = p0 = 1e300 at h = 1e10 a stage value overflows to inf, and
    # math.sin(inf) raises ValueError in the inline pendulum kernel, which
    # ends the run as the per-point kernel ends it: a divergence at step 1
    # with no residual, logged once
    tab = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    pend = perturbed_pendulum()
    big = StepConfig(h=1e10)
    for prob in (dataclasses.replace(pend, q0=1e300, p0=1e300),
                 dataclasses.replace(pend, q0=np.array([1e300]), p0=np.array([1e300]))):
        plain = dataclasses.replace(prob, force=lambda t, q: pend.force(t, q))
        assert " pendulum " in _kernel_name(tab, prob.force, prob.q0)
        assert " pendulum " not in _kernel_name(tab, plain.force, plain.q0)
        for kind in (prob, plain):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="symrkn"):
                traj = integrate(tab, kind, 1e10, big)
            assert traj.diverged and traj.failure_step == 1
            assert traj.failure_residual is None
            assert traj.times.tobytes() == np.array([0.0]).tobytes()
            assert len(caplog.records) == 1
        with pytest.raises(StageDivergenceError, match="outside the force's domain") as info:
            step(tab, prob.force, 0.0, prob.q0, prob.p0, big)
        assert info.value.step_index == 1 and info.value.residual is None
        assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize(
    "make, name",
    [
        pytest.param(make, name, id=prefix + name)
        for make, prefix in ((perturbed_pendulum, ""), (harmonic_oscillator, "harmonic-"))
        for name in (*FIVE, "order6-gauss3")
    ],
)
def test_the_pendulum_on_a_one_element_array_has_the_bits_of_the_scalar_run(make, name):
    # the pendulum's one-component template serves (1,) state as it does
    # scalar state, and its energy takes the (1,) rows; wrapped, its force
    # takes a (1,) array and returns one, with the float's bits.  The
    # harmonic oscillator's force and energy, called per point, do the same
    tab = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    base = make()
    wide = dataclasses.replace(base, q0=np.array([base.q0]), p0=np.array([base.p0]))
    wrapped = dataclasses.replace(wide, force=lambda t, q: base.force(t, q))
    if make is perturbed_pendulum:
        assert " d=1 " in _kernel_name(tab, wide.force, wide.q0)
        assert " pendulum " in _kernel_name(tab, wide.force, wide.q0)
    want = integrate(tab, base, 16.0, CFG, sample_every=3)
    want_end = _final_state(tab, base, 16.0, CFG, "diverged")
    for prob in (wide, wrapped):
        got = integrate(tab, prob, 16.0, CFG, sample_every=3)
        assert not got.diverged and got.times.tobytes() == want.times.tobytes()
        for field in ("q", "p", "energy_error"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        got_end = _final_state(tab, prob, 16.0, CFG, "diverged")
        for x, y in zip(got_end, want_end):
            assert np.shape(x) == (1,) and x.tobytes() == np.asarray(y).tobytes()
    q1, p1 = step(tab, wide.force, 0.0, wide.q0, wide.p0, CFG)
    assert q1.shape == p1.shape == (1,)
    assert (q1[0], p1[0]) == step(tab, base.force, 0.0, base.q0, base.p0, CFG)
    Q = solve_stages(tab, wide.force, 0.0, wide.q0, wide.p0, CFG)
    assert Q.shape == (tab.s, 1)
    assert Q.tobytes() == solve_stages(tab, base.force, 0.0, base.q0, base.p0, CFG).tobytes()


@pytest.mark.parametrize("name", FIVE)
def test_a_float_beside_a_one_element_array_has_the_bits_of_the_float_run(name):
    # dim-1 state may mix a float and a (1,) array; either mix runs as the
    # unmixed runs do, and a value of another size is a ValueError
    tab = named_tableau(name)
    pend = perturbed_pendulum()
    want = integrate(tab, pend, 16.0, CFG, sample_every=3)
    want_step = step(tab, pend.force, 0.0, pend.q0, pend.p0, CFG)
    want_stages = solve_stages(tab, pend.force, 0.0, pend.q0, pend.p0, CFG)
    want_ref = reference_state(pend, 1.6, 0.16)
    for q0, p0 in ((0.0, np.array([2.5])), (np.array([0.0]), 2.5)):
        prob = dataclasses.replace(pend, q0=q0, p0=p0)
        got = integrate(tab, prob, 16.0, CFG, sample_every=3)
        assert not got.diverged
        for field in ("times", "q", "p", "energy_error"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        got_step = step(tab, prob.force, 0.0, q0, p0, CFG)
        got_ref = reference_state(prob, 1.6, 0.16)
        for x, y in (*zip(got_step, want_step), *zip(got_ref, want_ref)):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
        got_stages = solve_stages(tab, prob.force, 0.0, q0, p0, CFG)
        assert got_stages.ravel().tobytes() == want_stages.tobytes()
        assert reversibility_test(tab, prob, 0.16) == reversibility_test(tab, pend, 0.16)
    for q0, p0 in ((0.0, np.array([2.5, 1.0])), (np.array([0.0]), np.ones(2))):
        with pytest.raises(ValueError):
            step(tab, pend.force, 0.0, q0, p0, CFG)
        with pytest.raises(ValueError):
            solve_stages(tab, pend.force, 0.0, q0, p0, CFG)


def test_final_state_error_reads_the_full_run_endpoint():
    # a study row is the max-norm error of the full run's endpoint, bit for
    # bit, though the study's run records only the ends
    prob = kepler_2d(0.5)
    tab = named_tableau("rkn-iiib")
    reference = reference_state(prob, 2.0, 0.01)
    study = global_error_study(tab, prob, 2.0, [0.1, 0.05], reference=reference)
    for h, error in zip(study.h, study.error):
        full = integrate(tab, prob, 2.0, StepConfig(h=h))
        expected = max(
            np.abs(full.q[-1] - reference[0]).max(),
            np.abs(full.p[-1] - reference[1]).max(),
        )
        assert error.tobytes() == np.float64(expected).tobytes()
        end = _final_state(tab, prob, 2.0, StepConfig(h=h), "diverged")
        assert all(x.tobytes() == y[-1].tobytes() for x, y in zip(end, (full.q, full.p)))
    start = _final_state(tab, prob, 0.0, StepConfig(h=0.05), "diverged")
    assert all(x.tobytes() == y.tobytes() for x, y in zip(start, (prob.q0, prob.p0)))


def test_final_state_computes_no_energy():
    # a study row and the order-6 reference run read the end state alone,
    # with the bits of a run that computes the energy
    pend = perturbed_pendulum()
    calls = []
    prob = dataclasses.replace(
        pend, energy=lambda p, q: calls.append(q) or pend.energy(p, q)
    )
    tab = named_tableau("rkn-a")
    end = _final_state(tab, prob, 16.0, CFG, "diverged")
    ref = reference_state(prob, 1.6, 0.16)
    assert calls == []
    full = integrate(tab, prob, 16.0, CFG)
    assert end == (full.q[-1, 0], full.p[-1, 0]) and len(calls) == 101
    assert ref == reference_state(pend, 1.6, 0.16)


def _counted_force_evaluations(force):
    """(force, count) where count() is the calls made so far."""
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
    # integrate starts each step after the first from the previous step's
    # stage forces, extrapolated; a single step starts at its bases, as
    # the first step does.  Both solve the same stage equations.
    tab = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    prob = make()
    cfg = StepConfig(h=h)
    f, extrapolated = _counted_force_evaluations(prob.force)
    run = integrate(tab, dataclasses.replace(prob, force=f), n * h, cfg, sample_every=n)
    g, single = _counted_force_evaluations(prob.force)
    q, p = prob.q0, prob.p0
    for k in range(n):
        q, p = step(tab, g, prob.t0 + k * h, q, p, cfg)
    assert extrapolated() < single()
    assert np.abs(run.q[-1] - q).max() < 1e-13
    assert np.abs(run.p[-1] - p).max() < 1e-13


@pytest.mark.parametrize(
    "name, make, h, t_end, calls, before",
    [
        ("diagsymp", perturbed_pendulum, 0.16, 160.0, 6025, 8135),
        ("rkn-a", perturbed_pendulum, 0.16, 160.0, 13461, 14901),
        ("rkn-a", kepler_2d, 0.00625, 5.0, 4855, 7203),
        ("rkn-iiib", kepler_2d, 0.00625, 5.0, 4924, 7203),
        ("rkn-b", kepler_2d, 0.00625, 5.0, 6536, 7203),
    ],
    ids=["diagsymp-pendulum", "rkn-a-pendulum", "rkn-a-kepler", "rkn-iiib-kepler",
         "rkn-b-kepler"],
)
def test_an_unmoved_iterate_reuses_its_force(name, make, h, t_end, calls, before):
    # a per-point force, so every evaluation is one call; before is the
    # count when each stage solve evaluated its last iterate again, even
    # one with the bits of the iterate before it.  Each stage keeps its
    # force on its own: a Jacobi sweep that ends with one stage unmoved
    # evaluates only the stages that moved.  diagsymp's stage 0 also takes
    # over the previous step's last stage where its first sweep would
    # return that stage unmoved (6778 calls without that)
    prob = make()
    counted = []

    def f(t, q):
        counted.append(t)
        return prob.force(t, q)

    tab = named_tableau(name)
    run = integrate(tab, dataclasses.replace(prob, force=f), t_end, StepConfig(h=h))
    assert len(counted) == calls < before
    same = integrate(tab, prob, t_end, StepConfig(h=h))
    for field in ("times", "q", "p", "energy_error"):
        assert getattr(run, field).tobytes() == getattr(same, field).tobytes(), field


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
    # start is in use; they stop at the step they stopped at when the first
    # step's start was free motion, q0 + h c_i p0
    traj = integrate(named_tableau(name), make(), h * round(20.0 / h), StepConfig(h=h))
    assert traj.diverged and traj.failure_step == failure_step
    assert traj.times.shape == (failure_step,)


def _nystrom4() -> RknTableau:
    """The classical explicit 3-stage order-4 Nystrom method (Hairer,
    Norsett and Wanner, Solving ODEs I, II.14): neither symmetric nor
    symplectic."""
    return RknTableau(
        3, np.array([0.0, 0.5, 1.0]),
        np.array([[0.0, 0.0, 0.0], [0.125, 0.0, 0.0], [0.0, 0.5, 0.0]]),
        np.array([1 / 6, 1 / 3, 0.0]), np.array([1 / 6, 2 / 3, 1 / 6]), "nystrom4",
    )


@pytest.mark.parametrize("name", FIVE + ("order6-gauss3", "nystrom4"))
def test_long_time_kepler_error_growth(name):
    # Kepler e = 0.5 at 200 steps per period, against the exact orbit at
    # 5, 10, 20, 40 and 80 periods.  A symmetric method's global error
    # grows linearly in time and its energy error stays bounded; the
    # explicit control's error grows faster and its energy drifts (Hairer,
    # Lubich and Wanner, Geometric Numerical Integration, XI.3).  Measured:
    # slope 1.0000 and energy ratio 1.0000 (within 1.2e-5) for the six
    # symmetric methods, slope 1.774 and ratio 11.9 for the control.
    prob = kepler_2d(0.5)
    explicit = name == "nystrom4"
    if explicit:
        tab = _nystrom4()
        # every stage is explicit: the inline force runs in the w == 0 branch
        assert "d=2 (0)(1)(2) kepler " in _kernel_name(tab, prob.force, prob.q0)
    else:
        tab = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    periods = np.array([5, 10, 20, 40, 80])
    traj = integrate(tab, prob, 80 * 2 * math.pi, StepConfig(h=2 * math.pi / 200))
    assert not traj.diverged
    errors = []
    for k in 200 * periods:
        q, p = prob.exact(traj.times[k])
        errors.append(max(np.abs(traj.q[k] - q).max(), np.abs(traj.p[k] - p).max()))
    slope = np.polyfit(np.log(periods), np.log(errors), 1)[0]
    # the largest energy error over the last 5 periods against the first 5
    energy = np.abs(traj.energy_error)
    growth = energy[-1001:].max() / energy[:1001].max()
    if explicit:
        assert slope > 1.5 and growth > 2.0
    else:
        assert abs(slope - 1.0) < 0.1 and growth < 1.01


@pytest.mark.parametrize("p0", [1.0, 1.5])
def test_no_energy_drift_in_libration(p0):
    # From q0 = 0 every p0 < 2.034 librates, on a torus that meets p = 0, so
    # a symmetric method shows no energy drift there, symplectic or not
    # (Hairer, Lubich and Wanner, Geometric Numerical Integration, XI.3);
    # c02's p0 = 2.5 rotates, where rkn-iiib and rkn-b may drift.  Measured
    # |fitted slope| at h = 0.16 to t = 1600:
    #   p0 = 1.0: diagsymp 9.1e-13, rkn-iiia 3.1e-12, rkn-iiib 1.0e-11,
    #             rkn-a 3.1e-12, rkn-b 5.0e-12; control 5.7e-7
    #   p0 = 1.5: diagsymp 1.6e-11, rkn-iiia 1.5e-12, rkn-iiib 7.6e-12,
    #             rkn-a 1.5e-12, rkn-b 5.3e-12; control 1.3e-6
    # and peak |dH| to t = 160 falls by 16.01-16.49 per halving of h from
    # 0.16 to 0.04, as h^4, for all five
    prob = dataclasses.replace(perturbed_pendulum(), p0=p0)
    cfg = StepConfig(h=0.16)
    control = integrate(_nystrom4(), prob, 1600.0, cfg)
    bound = 1e-3 * abs(linear_drift_slope(control.times, control.energy_error))
    assert bound > 1e-10
    for name in FIVE:
        tab = named_tableau(name)
        traj = integrate(tab, prob, 1600.0, cfg)
        assert abs(linear_drift_slope(traj.times, traj.energy_error)) < bound, name
        peaks = [
            np.abs(integrate(tab, prob, 160.0, StepConfig(h=h)).energy_error).max()
            for h in (0.16, 0.08, 0.04)
        ]
        for coarse, fine in zip(peaks, peaks[1:]):
            assert 15.0 < coarse / fine < 17.5, name


def test_nodes_too_close_to_extrapolate_start_every_step_at_its_bases():
    # 1 / 5e-324 overflows, so the start matrix is zero; every step starts
    # at its bases, as single steps do, and the run completes
    tab = RknTableau(
        2, np.array([0.0, 5e-324]), np.array([[0.05, 0.0], [0.02, 0.05]]),
        np.array([0.25, 0.25]), np.array([0.5, 0.5]), "close nodes",
    )
    # the start matrix keeps each stage's own column of a_bar, so the
    # overflow shows whatever the blocks, explicit stages' zero rows included
    for a_bar in (tab.a_bar, np.tril(tab.a_bar, -1)):
        for blocks in ([[0], [1]], [[0, 1]]):
            assert not _start_matrix(tab.c, a_bar, blocks).any()
    for prob in _as_scalar_and_array(perturbed_pendulum()):
        traj = integrate(tab, prob, 1.6, CFG)
        assert not traj.diverged
        q, p = prob.q0, prob.p0
        for k in range(10):
            q, p = step(tab, prob.force, prob.t0 + k * CFG.h, q, p, CFG)
        assert traj.q[-1].tobytes() == np.reshape(q, -1).tobytes()
        assert traj.p[-1].tobytes() == np.reshape(p, -1).tobytes()


def _twin_nodes(a_bar) -> RknTableau:
    return RknTableau(
        2, np.array([0.5, 0.5]), np.array(a_bar), np.array([0.25, 0.25]),
        np.array([0.5, 0.5]), "twin",
    )


# sha256 of integrate's times, q, p, energy_error bytes (pendulum, then
# Kepler e=0.5; h=0.16 to t=16, sample_every=7), every step starting at
# its bases.  The sequential Kepler digest was re-recorded when that start
# replaced free motion: stage 1's start now holds stage 0's force, which
# moved q and p by at most 4.9e-14
TWIN_DIGESTS = {
    "jacobi": (
        "48f492bd62a2aa0c1fa67bb0a8b4c38b15c86865be493a795016667ef0f3c36a",
        "97f273a3dd33fd45fbd007e9641993c33135457c93d83b71f98e77ecefc273e0",
    ),
    "sequential": (
        "e72769746fb609c736a3683d1b90ab6b546d86416519324307e074fae8cee6c0",
        "ff51a1cdc83af1fa3b645eb0dad0bf182da703b460307fe41a939ee8409186de",
    ),
}


@pytest.mark.parametrize(
    "structure, a_bar",
    [
        ("jacobi", [[0.0625, 0.0625], [0.0625, 0.0625]]),
        ("sequential", [[0.125, 0.0], [0.0625, 0.0625]]),
    ],
)
def test_repeated_nodes_start_every_step_at_its_bases(structure, a_bar):
    # no polynomial passes through repeated nodes, so the start matrix is
    # zero and every step of such a tableau starts at its bases, exactly
    # as single steps do
    tab = _twin_nodes(a_bar)
    assert _blocks(tab.a_bar) == ([[0], [1]] if structure == "sequential" else [[0, 1]])
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


def _pendulum_pair():
    """Two uncoupled pendulums as one (2,)-state problem."""
    pend = perturbed_pendulum()
    return dataclasses.replace(
        pend,
        dim=2,
        force=lambda t, q: np.array([pend.force(t, x) for x in q.tolist()]),
        energy=lambda p, q: pend.energy(p[0], q[0]) + pend.energy(p[1], q[1]),
        q0=np.array([0.0, 0.3]),
        p0=np.array([2.5, 2.4]),
    )


def _state_kinds(prob):
    """prob on scalar, (1,) and (2,) state."""
    return (*_as_scalar_and_array(prob), _pendulum_pair())


def _nan_after(prob, t_bad):
    f = prob.force
    scalar = np.ndim(prob.q0) == 0
    bad = math.nan if scalar else np.full(prob.dim, math.nan)
    return dataclasses.replace(prob, force=lambda t, q: bad if t > t_bad else f(t, q))


def _scheduled_times(t0, h, n, every):
    """The sample times of a run of n steps, each as a step's t0 + k h:
    t0, then every every-th step below n, then step n."""
    return np.array([t0] + [t0 + k * h for k in [*range(every, n, every), n]])


@pytest.mark.parametrize("t0", [-0.0, 3.0, -2.5])
def test_sample_times_are_the_schedule_bit_for_bit(t0):
    # 13 steps of 0.1: k h rounds for most k, and so does t0 + k h.  The
    # pendulum's force is written inline, the harmonic one called per
    # point; the cut run's force turns NaN in step 9, [t0 + 0.8, t0 + 0.9]
    h, n = 0.1, 13
    tab = named_tableau("rkn-a")
    for base in (perturbed_pendulum(), harmonic_oscillator()):
        prob = dataclasses.replace(base, t0=t0)
        cut = _nan_after(prob, t0 + 0.85)
        for every in (1, 3, n, n + 5):
            want = _scheduled_times(t0, h, n, every)
            traj = integrate(tab, prob, t0 + n * h, StepConfig(h=h), every)
            assert not traj.diverged
            assert traj.times.tobytes() == want.tobytes()
            traj = integrate(tab, cut, t0 + n * h, StepConfig(h=h), every)
            assert traj.diverged and traj.failure_step == 9
            assert traj.times.tobytes() == want[want < t0 + 0.85].tobytes()


@pytest.mark.parametrize("name", ["diagsymp", "rkn-a"], ids=["sequential", "jacobi"])
def test_samples_and_failure_step_of_a_run_cut_short(name):
    # step 7 spans [0.96, 1.12]; its stages after the first see NaN forces,
    # so the stage solve fails there: samples at steps 0, 3 and 6 only.
    # diagsymp's explicit stage 1 takes in a NaN force, and the start of
    # stage 2 ends the step before the force sees it, with no residual
    tab = named_tableau(name)
    assert len(_blocks(tab.a_bar)) == (3 if name == "diagsymp" else 1)
    for kind in _state_kinds(perturbed_pendulum()):
        whole = integrate(tab, kind, 1.6, CFG)
        prob = _nan_after(kind, 0.97)
        traj = integrate(tab, prob, 1.6, CFG, sample_every=3)
        assert traj.diverged and traj.failure_step == 7
        assert (traj.failure_residual is None) == (name == "diagsymp")
        assert traj.times.tobytes() == np.array([0.0, 3 * 0.16, 6 * 0.16]).tobytes()
        for field in ("q", "p", "energy_error"):
            got, want = getattr(traj, field), getattr(whole, field)[[0, 3, 6]]
            assert got.tobytes() == want.tobytes(), field


@pytest.mark.parametrize("name", ["diagsymp", "rkn-a"], ids=["sequential", "jacobi"])
def test_failure_residual_is_the_stage_solvers_last_increment(name):
    # the first step of a run is the single step from the initial state
    tab = named_tableau(name)
    big = StepConfig(h=10.0)
    for prob in _state_kinds(perturbed_pendulum()):
        with pytest.raises(StageDivergenceError) as info:
            step(tab, prob.force, prob.t0, prob.q0, prob.p0, big)
        traj = integrate(tab, prob, 20.0, big)
        assert traj.diverged and traj.failure_step == 1
        assert isinstance(traj.failure_residual, float)
        assert traj.failure_residual == info.value.residual
        done = integrate(tab, prob, 1.6, CFG)
        assert not done.diverged and done.failure_residual is None


def test_a_divergence_the_force_raises_ends_the_run_at_its_step():
    # step 4 spans [0.48, 0.64]: the first with a stage time past 0.5
    pend = perturbed_pendulum()

    def force(t, q):
        if t > 0.5:
            raise StageDivergenceError("inner solve failed")
        return pend.force(t, q)

    for kind in _as_scalar_and_array(dataclasses.replace(pend, force=force)):
        for name in ("diagsymp", "rkn-a"):
            traj = integrate(named_tableau(name), kind, 1.6, CFG, sample_every=2)
            assert traj.diverged and traj.failure_step == 4
            assert traj.failure_residual is None
            assert traj.times.shape == (2,)


def test_each_divergence_is_logged_once(caplog):
    assert logging.getLogger("symrkn").handlers == []
    tab = named_tableau("rkn-a")
    for kind in _state_kinds(perturbed_pendulum()):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="symrkn"):
            integrate(tab, kind, 1.6, CFG)
            assert caplog.records == []
            traj = integrate(tab, _nan_after(kind, 0.97), 1.6, CFG, sample_every=3)
        (record,) = caplog.records
        assert record.name == "symrkn" and record.levelno == logging.WARNING
        message = record.getMessage()
        assert "step 7 of 10" in message
        assert f"t={6 * 0.16!r}" in message and "h=0.16" in message
        assert f"residual={traj.failure_residual!r}" in message


def test_a_one_step_run_from_negative_zero_has_the_bits_of_step():
    # the first step starts at t0 itself, so -0.0 reaches the force as it
    # does in step: the stage time is -0.0 + (-0.0) h
    for lower in (True, False):
        a_bar = np.array([[0.01, 0.0], [0.02, 0.01]]) if lower else np.full((2, 2), 0.01)
        tab = RknTableau(
            2, np.array([-0.0, 1.0]), a_bar, np.array([0.25, 0.25]),
            np.array([0.5, 0.5]), "signed node",
        )
        assert len(_blocks(tab.a_bar)) == (2 if lower else 1)
        pend = perturbed_pendulum()
        signed = dataclasses.replace(
            pend, t0=-0.0, force=lambda t, q: math.copysign(1.0, t) - math.sin(q)
        )
        for prob in _as_scalar_and_array(signed):
            traj = integrate(tab, prob, CFG.h, CFG)
            q1, p1 = step(tab, prob.force, -0.0, prob.q0, prob.p0, CFG)
            assert traj.times.tobytes() == np.array([-0.0, 0.16]).tobytes()
            assert traj.q[-1].tobytes() == np.reshape(q1, -1).tobytes()
            assert traj.p[-1].tobytes() == np.reshape(p1, -1).tobytes()


@pytest.mark.parametrize(
    "make, h, n, bound",
    # Kepler runs 20 000 steps, not 100 000: the traced array kernel takes
    # ~0.3 ms a step, as every traced allocation costs about a microsecond
    [(perturbed_pendulum, 0.16, 100_000, 64.0), (lambda: kepler_2d(0.5), 0.001, 20_000, 96.0)],
    ids=["pendulum", "kepler0.5"],
)
def test_samples_are_stored_compactly(make, h, n, bound):
    # samples live in flat float64 buffers that the trajectory's arrays
    # view, and the energy is computed from them: about 8 bytes per stored
    # float at the traced peak (lists of Python floats took 153 B/sample on
    # the pendulum and 320 on Kepler)
    prob = make()
    tab = named_tableau("rkn-a")
    integrate(tab, prob, 10 * h, StepConfig(h=h))
    tracemalloc.start()
    try:
        traj = integrate(tab, prob, n * h, StepConfig(h=h))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not traj.diverged and traj.times.shape == (n + 1,)
    assert peak / (n + 1) <= bound
