"""Fixed-step RKN integration: the public stepping API, trajectory recording,
reversibility and convergence studies.

Every call runs the kernel that kernel._stepper picks for its tableau,
force and state kind; the kind converts the user's q and p in and out, so
nothing here tests for it.  integrate runs all its steps in one call, its
q and p samples in flat array('d') buffers that the trajectory's arrays
view, and logs each divergence once, at WARNING on the "symrkn" logger;
the library installs no handler.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cscoeff import build_order6
from .errors import DegenerateFitError, InvalidGridError, StageDivergenceError
from .kernel import _kind, _stepper
from .problems import _ENERGY_COLUMNS, OdeProblem
from .quadrature import gauss_rule
from .tableau import RknTableau, discretize

#: Relative slack when checking that h divides the integration span.
GRID_RTOL = 1e-9

_REFERENCE_REFINEMENT = 20.0


def _check_step(h, name: str = "step size") -> None:
    """A grid error naming h as name unless h is positive and finite."""
    if not (math.isfinite(h) and h > 0.0):
        raise InvalidGridError(f"{name} {h!r} must be positive and finite")


def _check_count(n, name: str) -> None:
    """A ValueError naming n as name unless n is an integer (a bool is
    not) of at least 1."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise ValueError(f"{name} must be an integer")
    if n < 1:
        raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class StepConfig:
    """Solver controls for one integration run; h is the step size."""

    h: float
    stage_tol: float = 1e-14
    max_iters: int = 100

    def __post_init__(self):
        _check_step(self.h)
        # below an ulp of 1.0 the stage increments stall at rounding, not contract
        if not (math.isfinite(self.stage_tol) and self.stage_tol >= 2.0**-52):
            raise ValueError(f"stage_tol {self.stage_tol!r} must be finite and at least 2**-52")
        _check_count(self.max_iters, "max_iters")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of one integration run.

    times has shape (n,), q and p have shape (n, dim).  energy_error is
    H(p_k, q_k) - H(p_0, q_0) per sample when the problem has an energy
    function, else None; a non-finite initial energy (Kepler from r = 0)
    gives an all-NaN series.  A run cut short by stage-solver failure or by a
    non-finite state has a failure_step, its 1-based step index, and is
    diverged; the recorded samples end at the last completed step and are
    finite.
    failure_residual is the last stage increment of a stage-solver failure,
    and None when the run completed or a non-finite sample, or a stage
    start that is not finite, ended it.
    """

    times: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    energy_error: Optional[np.ndarray] = field(repr=False, default=None)
    failure_step: Optional[int] = None
    failure_residual: Optional[float] = None

    def __post_init__(self):
        n = len(self.times)
        if self.q.shape[0] != n or self.p.shape[0] != n:
            raise ValueError("times, q, p must have equal lengths")
        if self.energy_error is not None and len(self.energy_error) != n:
            raise ValueError("energy_error length mismatch")
        if n > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")

    @property
    def diverged(self) -> bool:
        return self.failure_step is not None


def solve_stages(t: RknTableau, f, t0, q0, p0, cfg: StepConfig):
    """Stage values Q_i = q0 + h c_i p0 + h^2 sum_j a_bar[i,j] f(t_j, Q_j).

    Returns an (s,) array for scalar state, else an (s, dim) array.  Solved
    by fixed-point iteration, each block starting at its base plus the
    extrapolated previous forces, which are zero in a single-step call;
    non-contraction, or an iterate that is not finite, raises a
    stage-divergence error carrying the last increment.  A q0 or p0 that
    is not finite is a ValueError, as in step and integrate.
    """
    kind, advance = _stepper(t, f, q0, cfg.stage_tol, cfg.max_iters)
    return np.array(advance(t0, *_initial_state(kind, q0, p0), cfg.h)[2])


def step(t: RknTableau, f, t0, q0, p0, cfg: StepConfig):
    """One step of size cfg.h from (q0, p0), which must be finite (else
    ValueError, before any force call); returns (q1, p1)."""
    kind, advance = _stepper(t, f, q0, cfg.stage_tol, cfg.max_iters)
    q1, p1, _ = advance(t0, *_initial_state(kind, q0, p0), cfg.h)
    return kind.value(q1), kind.value(p1)


def _initial_state(kind, q0, p0):
    """q0 and p0 in kind's form (kind.state); ValueError unless every
    component is finite."""
    q, p = kind.state(q0), kind.state(p0)
    if not all(map(math.isfinite, kind.floats(q) + kind.floats(p))):
        raise ValueError("initial state must be finite")
    return q, p


def _check_span(span: float) -> None:
    if not math.isfinite(span):
        raise InvalidGridError(f"the span t_end - t0 must be finite, not {span!r}")
    if span < 0.0:
        raise InvalidGridError("t_end must not precede t0")


def _step_count(
    span: float, h: float, name: str = "step size", divides: bool = True
) -> int:
    """Steps of size h over span, 0 for span 0.0, after every grid check; a
    failed one is a grid error naming h as name.  span must be finite and
    >= 0, a nonzero h positive and finite, and span / h finite (h not too
    small for the span, nor 0.0) and at most 2**53, past which the step
    index k of t0 + k h stops being exact and distinct steps could get one
    time.  h must divide span to GRID_RTOL when divides is true; otherwise
    the count rounds up, shrinking h to the nearest divisor of span."""
    _check_span(span)
    if span == 0.0:
        return 0
    # 0.0, which min(h) / _REFERENCE_REFINEMENT can underflow to, is too small
    if h:
        _check_step(h, name)
    steps = span / h if h else math.inf
    if not steps <= 2.0**53:
        raise InvalidGridError(
            f"{name} {h!r} is too small for the span {span!r}: the step count "
            + (f"{steps!r} passes 2**53" if math.isfinite(steps) else "is not finite")
        )
    if not divides:
        return max(1, math.ceil(steps - GRID_RTOL))
    n = int(round(steps))
    if n < 1 or abs(n * h - span) > GRID_RTOL * max(1.0, abs(span)):
        raise InvalidGridError(
            f"{name} {h!r} does not divide the span {span!r} "
            "into an integer number of steps"
        )
    return n


def integrate(
    t: RknTableau,
    prob: OdeProblem,
    t_end: float,
    cfg: StepConfig,
    sample_every: int = 1,
) -> Trajectory:
    """March from prob.t0 to t_end in steps of cfg.h, sampling states.

    Records the initial state, every sample_every-th step, and the final
    step; sample_every is an integer >= 1, and a bool is not one.
    (t_end - t0)/h must be a nonnegative integer to grid tolerance, and the
    initial state must be finite.  On stage divergence mid-run the
    trajectory collected so far is returned with diverged=True, the
    1-based index of the failed step and the solver's last increment as
    failure_residual.  A sample that is not finite (a force that went
    non-finite where no stage iteration sees it: an explicit stage, or a
    jump within stage_tol of the converged stage) ends the run the same
    way: the kernel raises the stage divergence at its step, with no
    residual, and does not take the sample, so no recorded value is inf
    or NaN.  So does a stage start that is not finite where the force is
    called per point, before the force sees it, so a math-based force
    never gets inf or NaN from a stage value.  Either way one WARNING goes
    to the "symrkn" logger.  Step k starts at t0 + (k - 1) h, the first at
    t0 itself, as in step.

    The kernel records states alone.  The sample times are t0 + k h of the
    sampled step indices k (_sample_times), and the energy of a problem
    whose energy has a column form (problems._ENERGY_COLUMNS, by exact
    type) is computed by columns, any other sample by sample: both with
    the bits of the per-sample float arithmetic, overflow to inf included.

    Every step starts each stage block at its base plus the previous
    step's stage forces, extrapolated to the new nodes; those are zero
    before the first step, as in a single-step call.  Results differ from
    a run of single step calls at the level of stage_tol, with fewer force
    evaluations.
    """
    _check_count(sample_every, "sample_every")
    n = _step_count(t_end - prob.t0, cfg.h)
    kind, advance = _stepper(t, prob.force, prob.q0, cfg.stage_tol, cfg.max_iters)
    h, t0 = cfg.h, prob.t0
    q, p = _initial_state(kind, prob.q0, prob.p0)
    qs, ps = array("d", kind.floats(q)), array("d", kind.floats(p))
    failure_step = residual = None
    if n:
        try:
            advance(t0, q, p, h, n, sample_every, getattr(qs, kind.sink), getattr(ps, kind.sink))
        except StageDivergenceError as exc:
            failure_step, residual = exc.step_index, exc.residual
            # imported here: importing logging adds ~4 ms to every start-up,
            # 3 % of a worker's set-up time in the benchmark
            import logging

            logging.getLogger("symrkn").warning(
                "integration diverged at step %d of %d (t=%r, h=%r, residual=%r)",
                failure_step, n, t0 + (failure_step - 1) * h, h, residual,
            )
    m = len(qs) // kind.size
    q_arr = np.frombuffer(qs).reshape(m, prob.dim)
    p_arr = np.frombuffer(ps).reshape(m, prob.dim)
    energy_error = None
    if prob.energy is not None:
        columns = _ENERGY_COLUMNS.get(type(prob.energy))
        # a huge p overflows to inf as float arithmetic does, and inf - inf
        # (a non-finite initial energy) leaves nothing to compare
        with np.errstate(over="ignore", invalid="ignore"):
            if columns is not None:
                energy_error = np.empty(m)
                columns(np.frombuffer(ps), np.frombuffer(qs), energy_error)
            else:
                rows = kind.rows(ps, p_arr), kind.rows(qs, q_arr)
                energy_error = np.fromiter(map(prob.energy, *rows), float, m)
            energy_error -= energy_error[0]
    times = _sample_times(t0, h, n, sample_every, m)
    return Trajectory(times, q_arr, p_arr, energy_error, failure_step, residual)


def _sample_times(t0, h, n, every, m):
    """The times of the first m samples of a run of n steps of size h that
    samples every every-th step: t0, then t0 + k h for k = every,
    2 every, ... below n, then n, each with the bits of the float sum at
    the step index k.  Each k below n is exact as a float, since
    n <= 2**53 (_step_count), a product past n rounds to no less than n,
    and numpy's * and + are the same IEEE operations."""
    times = np.arange(m, dtype=float)
    times *= min(every, n)  # an every past n samples step n alone
    np.minimum(times, n, out=times)
    times *= h
    times += t0
    times[0] = t0  # t0 + 0 h is not t0 = -0.0
    return times


def reversibility_test(t: RknTableau, prob: OdeProblem, h: float) -> float:
    """Deviation of the map from rho-reversibility, rho: (p, q) -> (-p, q).

    Computes z1 = Phi_h(q0, p0), z2 = Phi_h(rho z1) and returns
    max-norm(rho z2 - (q0, p0)); zero exactly for reversible maps applied to
    a reversible problem.
    """
    cfg = StepConfig(h=h)
    f = prob.force
    q0, p0 = prob.q0, prob.p0
    q1, p1 = step(t, f, prob.t0, q0, p0, cfg)
    q2, p2 = step(t, f, prob.t0, q1, -p1, cfg)
    return float(max(np.abs(q2 - q0).max(), np.abs(-p2 - p0).max()))


def reference_tableau() -> RknTableau:
    """The order-6 Gauss-3 method used as the default study reference."""
    return discretize(build_order6(0.0), gauss_rule(3), label="order6-gauss3")


def reference_state(prob: OdeProblem, t_end: float, h_ref: float):
    """High-accuracy state at t_end: prob.exact(t_end) when present
    (harmonic, Kepler), else an order-6 Gauss-3 run (pendulum).

    A span t_end - t0 that is negative or not finite is a grid error, and
    so is an order-6 h_ref that is not positive and finite.  The nominal
    h_ref is shrunk to the nearest exact divisor of the span, so it need
    not divide the span.
    """
    span = t_end - prob.t0
    if prob.exact is not None:
        _check_span(span)
        return prob.exact(t_end)
    n = _step_count(span, h_ref, "reference step size", divides=False)
    if not n:
        return prob.q0, prob.p0
    return _final_state(
        reference_tableau(), prob, t_end, StepConfig(h=span / n),
        "reference integration diverged",
    )


def _final_state(t, prob, t_end, cfg, message):
    """The (q, p) state at t_end, as values like prob.q0, of a run that
    records only its ends and computes no energy; a diverged run raises
    message."""
    n = _step_count(t_end - prob.t0, cfg.h)
    traj = integrate(t, replace(prob, energy=None), t_end, cfg, sample_every=max(1, n))
    if traj.diverged:
        raise StageDivergenceError(
            message, residual=traj.failure_residual, step_index=traj.failure_step
        )
    kind = _kind(prob.q0)
    return tuple(kind.value(kind.state(x[-1])) for x in (traj.q, traj.p))


def _study_reference(prob: OdeProblem, t_end: float, hs, reference=None):
    """(label, (q_ref, p_ref)) of a convergence study over the step sizes
    hs: reference when given ("supplied"), else the exact solution when
    the problem has one ("exact"), else an order-6 Gauss-3 run at
    min(hs) / _REFERENCE_REFINEMENT ("order6-gauss3").

    Every grid of the study is checked first, so a bad one fails before
    any run: every step size is positive and finite, then the reference
    run's grid and each step size's, largest first, as the rows run.
    """
    for h in hs:
        _check_step(h)
    span, h_ref = t_end - prob.t0, min(hs) / _REFERENCE_REFINEMENT
    if reference is None and prob.exact is None:
        _step_count(span, h_ref, "reference step size", divides=False)
    for h in sorted(hs, reverse=True):
        _step_count(span, h)
    if reference is not None:
        return "supplied", reference
    label = "exact" if prob.exact is not None else "order6-gauss3"
    return label, reference_state(prob, t_end, h_ref)


@dataclass(frozen=True)
class ErrorStudy:
    """Global errors against a fixed reference, with log-log slope."""

    h: np.ndarray
    error: np.ndarray
    slope: float
    reference: str


def fit_loglog_slope(h_values, errors) -> float:
    """Least-squares slope of log(error) against log(h).

    Zero errors cannot be log-fitted and are dropped; fewer than two distinct
    usable step sizes is a degenerate fit.
    """
    pts = [
        (float(h), float(e))
        for h, e in zip(h_values, errors)
        if e > 0.0 and math.isfinite(e)
    ]
    if len({h for h, _ in pts}) < 2:
        raise DegenerateFitError(
            "slope fit needs at least 2 distinct step sizes with finite nonzero errors"
        )
    lh = np.log([h for h, _ in pts])
    le = np.log([e for _, e in pts])
    return float(np.polyfit(lh, le, 1)[0])


def linear_drift_slope(times, values) -> float:
    """Ordinary least-squares slope of values against times."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(np.unique(t)) < 2:
        raise DegenerateFitError("drift fit needs at least 2 distinct times")
    return float(np.polyfit(t, v, 1)[0])


def global_error_study(
    t: RknTableau,
    prob: OdeProblem,
    t_end: float,
    h_list,
    *,
    reference=None,
) -> ErrorStudy:
    """Global error at t_end per step size, with fitted convergence slope.

    reference overrides the (q_ref, p_ref) state (reference "supplied");
    otherwise it is the problem's exact solution when it has one (harmonic,
    Kepler: "exact"), else an order-6 Gauss-3 run (pendulum:
    "order6-gauss3"), as _study_reference decides, which also checks every
    grid before any run.  Errors are max-norm over the concatenated (q, p)
    deviation.  Results are sorted by decreasing h, with duplicates dropped.

    A step size whose run diverges records a nan error instead of raising.
    The slope is fitted on the finite rows.  Too few of them to fit (fewer
    than two distinct step sizes with nonzero error) raises a degenerate-fit
    error when no row diverged, and gives a nan slope when one did.
    """
    hs = sorted({float(h) for h in h_list}, reverse=True)
    if not hs:
        raise DegenerateFitError("study needs at least 2 distinct step sizes")
    label, reference = _study_reference(prob, t_end, hs, reference)
    q_ref, p_ref = reference
    errors = np.empty(len(hs))
    for i, h in enumerate(hs):
        try:
            q, p = _final_state(
                t, prob, t_end, StepConfig(h=h), f"integration at h={h!r} diverged"
            )
            errors[i] = max(np.abs(q - q_ref).max(), np.abs(p - p_ref).max())
        except StageDivergenceError:
            errors[i] = math.nan
    try:
        slope = fit_loglog_slope(hs, errors)
    except DegenerateFitError:
        if np.isfinite(errors).all():
            raise
        slope = math.nan
    return ErrorStudy(np.array(hs), errors, slope, label)
