"""Fixed-step RKN integration: implicit stage solving by fixed-point
iteration, trajectory recording, reversibility and convergence studies.

The tableau alone picks the stage solver: a sequential sweep when a_bar is
exactly lower triangular (each stage is a scalar fixed point, solved once in
index order), Jacobi sweeps over all stages otherwise.  Summation order over
stages is fixed ascending, so repeated runs are bit-identical.  Scalar
problems (dim 1) bypass numpy in the hot loop; the two paths implement the
same arithmetic.

Where the stage iteration starts: inside integrate, every step after the
first starts from the previous step's stage forces, extrapolated to the new
nodes by the polynomial through (c_j, F_j) (Hairer, Lubich and Wanner,
Geometric Numerical Integration, section VIII.6.1).  The first step of a
run, the single-step calls (step, solve_stages, reversibility_test) and
tableaus with repeated nodes start from free motion, Q_i = q0 + h c_i p0.
Nothing selects this: there is no option for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cscoeff import build_order6
from .errors import DegenerateFitError, InvalidGridError, StageDivergenceError
from .problems import OdeProblem
from .quadrature import gauss_rule
from .tableau import RknTableau, discretize

#: Relative slack when checking that h divides the integration span.
GRID_RTOL = 1e-9

# Array max-norms call the reduction directly: ndarray.max() reaches the
# same np.maximum.reduce through a Python-level wrapper, a measurable cost
# at several calls per step.
_max = np.maximum.reduce


@dataclass(frozen=True)
class StepConfig:
    """Solver controls for one integration run; h is the step size."""

    h: float
    stage_tol: float = 1e-14
    max_iters: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError("h must be positive and finite")
        if not (math.isfinite(self.stage_tol) and self.stage_tol > 0.0):
            raise ValueError("stage_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of one integration run.

    times has shape (n,), q and p have shape (n, dim).  energy_error is
    H(p_k, q_k) - H(p_0, q_0) per sample when the problem has an energy
    function, else None.  diverged marks a run cut short by stage-solver
    failure at step index failure_step (1-based); the recorded samples end at
    the last completed step.
    """

    times: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    energy_error: Optional[np.ndarray] = field(repr=False, default=None)
    diverged: bool = False
    failure_step: Optional[int] = None

    def __post_init__(self):
        n = len(self.times)
        if self.q.shape[0] != n or self.p.shape[0] != n:
            raise ValueError("times, q, p must have equal lengths")
        if self.energy_error is not None and len(self.energy_error) != n:
            raise ValueError("energy_error length mismatch")
        if n > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")


def _stages_scalar(c, a, s, f, t0, q0, p0, h, conv, iters, sequential, M, F_prev):
    """Scalar stage solve; returns (Q, F) as lists of floats.

    F_prev is None for the free-motion start.  Otherwise it holds the
    previous step's stage forces and M the start matrix (_start_matrix),
    and with g = M F_prev stage i starts at base_i + h^2 g_i in Jacobi
    sweeps, at b_i + w g_i in the sequential sweep.
    """
    h2 = h * h
    Q = [0.0] * s
    F = [0.0] * s
    if sequential:
        for i in range(s):
            ti = t0 + c[i] * h
            ai = a[i]
            base = q0 + h * c[i] * p0
            acc = 0.0
            for j in range(i):
                acc += ai[j] * F[j]
            base += h2 * acc
            w = h2 * ai[i]
            if w == 0.0:
                qi = base
            else:
                if F_prev is None:
                    qi = q0 + h * c[i] * p0
                else:
                    g = 0.0
                    for m, Fj in zip(M[i], F_prev):
                        g += m * Fj
                    qi = base + w * g
                diff = math.inf
                for _ in range(iters):
                    qn = base + w * f(ti, qi)
                    diff = abs(qn - qi)
                    qi = qn
                    if diff < conv:
                        break
                else:
                    raise StageDivergenceError(
                        f"stage {i} did not contract (last increment {diff:.3e})",
                        residual=diff,
                    )
            Q[i] = qi
            F[i] = f(ti, qi)
        return Q, F
    times = [t0 + c[i] * h for i in range(s)]
    base = [q0 + h * c[i] * p0 for i in range(s)]
    Q = base[:]
    if F_prev is not None:
        for i in range(s):
            g = 0.0
            for m, Fj in zip(M[i], F_prev):
                g += m * Fj
            Q[i] += h2 * g
    F = [f(times[i], Q[i]) for i in range(s)]
    diff = math.inf
    for _ in range(iters):
        diff = 0.0
        Qn = [0.0] * s
        for i in range(s):
            ai = a[i]
            acc = 0.0
            for j in range(s):
                acc += ai[j] * F[j]
            qn = base[i] + h2 * acc
            d = abs(qn - Q[i])
            if d > diff or d != d:  # a NaN increment keeps the sweep unconverged
                diff = d
            Qn[i] = qn
        Q = Qn
        for i in range(s):
            F[i] = f(times[i], Q[i])
        if diff < conv:
            return Q, F
    raise StageDivergenceError(
        f"stages did not contract in {iters} sweeps (last increment {diff:.3e})",
        residual=diff,
    )


def _stages_array(t, f, t0, q0, p0, h, conv, iters, sequential, M, F_prev):
    """Vector stage solve; returns (Q, F) as (s, d) arrays.

    M and F_prev pick the start as in _stages_scalar.  A Jacobi sweep
    evaluates all stages with one f.stages(times, Q) call when the force
    has that batched form, else with s per-point calls.
    """
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


def _start_matrix(t, sequential):
    """Matrix taking the previous step's stage forces to this step's start.

    E[i, j] = l_j(1 + c_i), the Lagrange basis on the nodes c evaluated at
    the next step's nodes, extrapolates stage forces by one step.  The
    sequential sweep starts from E F_prev, the Jacobi sweeps from
    A E F_prev with A = a_bar.  None when the nodes are not pairwise
    distinct: those tableaus keep the free-motion start.
    """
    c = t.c
    s = t.s
    if len(set(c.tolist())) < s:
        return None
    x = 1.0 + c
    E = np.ones((s, s))
    for j in range(s):
        for m in range(s):
            if m != j:
                E[:, j] *= (x - c[m]) / (c[j] - c[m])
    return E if sequential else t.a_bar @ E


def _stepper(t, q0, stage_tol, max_iters, sequential, start=None):
    """(state, advance) for a run from states of q0's kind.

    state puts a q or p value in the kind's form: float for scalar state, a
    float array otherwise.  advance(f, t0, q0, p0, h, F_prev=None) takes one
    step of signed size h from such states and returns (q1, p1, Q, F), F
    being the step's stage forces.  With start from _start_matrix, a step
    given the previous step's F_prev starts its stage iteration from their
    extrapolation; otherwise, and always when start is None, it starts from
    free motion.  State kind, solver structure and coefficient form
    (plain-float lists for scalar state, the tableau's arrays otherwise) are
    fixed here, once per run.
    """
    if np.ndim(q0) == 0:
        s = t.s
        c, a = t.c.tolist(), t.a_bar.tolist()
        b_bar, b = t.b_bar.tolist(), t.b.tolist()
        M = None if start is None else start.tolist()

        def advance(f, t0, q0, p0, h, F_prev=None):
            conv = stage_tol * (1.0 + abs(q0))
            Q, F = _stages_scalar(
                c, a, s, f, t0, q0, p0, h, conv, max_iters, sequential,
                M, None if M is None else F_prev,
            )
            accq = accp = 0.0
            for i in range(s):
                accq += b_bar[i] * F[i]
                accp += b[i] * F[i]
            return q0 + h * p0 + h * h * accq, p0 + h * accp, Q, F

        return float, advance

    def advance(f, t0, q0, p0, h, F_prev=None):
        conv = stage_tol * (1.0 + float(_max(np.abs(q0), axis=None)))
        Q, F = _stages_array(
            t, f, t0, q0, p0, h, conv, max_iters, sequential,
            start, None if start is None else F_prev,
        )
        return q0 + h * p0 + h * h * (t.b_bar @ F), p0 + h * (t.b @ F), Q, F

    return lambda x: np.asarray(x, dtype=float), advance


def _advance(t, f, t0, q0, p0, h, stage_tol, max_iters, sequential):
    """One step of signed size h with the given solver structure."""
    state, advance = _stepper(t, q0, stage_tol, max_iters, sequential)
    return advance(f, t0, state(q0), state(p0), h)[:2]


def solve_stages(t: RknTableau, f, t0, q0, p0, cfg: StepConfig):
    """Stage values Q_i = q0 + h c_i p0 + h^2 sum_j a_bar[i,j] f(t_j, Q_j).

    Returns an (s,) array for scalar state, else an (s, dim) array.  Solved
    by fixed-point iteration from the free-motion guess Q_i = q0 + h c_i p0,
    as every single-step call is (only integrate has a previous step to
    extrapolate from); non-contraction raises a stage-divergence error
    carrying the last increment.
    """
    state, advance = _stepper(t, q0, cfg.stage_tol, cfg.max_iters, t.lower_triangular)
    return np.asarray(advance(f, t0, state(q0), state(p0), cfg.h)[2])


def step(t: RknTableau, f, t0, q0, p0, cfg: StepConfig):
    """One step of size cfg.h from (q0, p0); returns (q1, p1)."""
    return _advance(
        t, f, t0, q0, p0, cfg.h, cfg.stage_tol, cfg.max_iters, t.lower_triangular
    )


def _step_count(span: float, h: float) -> int:
    if span < 0.0:
        raise InvalidGridError("t_end must not precede t0")
    if span == 0.0:
        return 0
    n = int(round(span / h))
    if n < 1 or abs(n * h - span) > GRID_RTOL * max(1.0, abs(span)):
        raise InvalidGridError(
            f"step size {h!r} does not divide the span {span!r} "
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
    step.  (t_end - t0)/h must be a nonnegative integer to grid tolerance.
    On stage divergence mid-run the trajectory collected so far is returned
    with diverged=True and the 1-based index of the failed step.

    Each step after the first starts its stage iteration from the previous
    step's stage forces, extrapolated to the new nodes; the first step, and
    every step of a tableau with repeated nodes, starts from free motion.
    Results therefore differ from a run of single step calls at the level
    of stage_tol, with fewer force evaluations.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    n = _step_count(t_end - prob.t0, cfg.h)
    sequential = t.lower_triangular
    state, advance = _stepper(
        t, prob.q0, cfg.stage_tol, cfg.max_iters, sequential,
        _start_matrix(t, sequential),
    )
    f, h, t0 = prob.force, cfg.h, prob.t0
    q, p = state(prob.q0), state(prob.p0)
    times, qs, ps = [t0], [q], [p]
    failure_step = None
    F = None
    for k in range(1, n + 1):
        try:
            q, p, _, F = advance(f, t0 + (k - 1) * h, q, p, h, F)
        except StageDivergenceError:
            failure_step = k
            break
        if k % sample_every == 0 or k == n:
            times.append(t0 + k * h)
            qs.append(q)
            ps.append(p)
    q_arr = np.array(qs, dtype=float).reshape(len(qs), prob.dim)
    p_arr = np.array(ps, dtype=float).reshape(len(ps), prob.dim)
    energy_error = None
    if prob.energy is not None:
        H = prob.energy
        e0 = H(ps[0], qs[0])
        energy_error = np.array([H(p, q) - e0 for p, q in zip(ps, qs)])
    diverged = failure_step is not None
    return Trajectory(
        np.array(times), q_arr, p_arr, energy_error, diverged, failure_step
    )


def reversibility_test(
    t: RknTableau, prob: OdeProblem, h: float, cfg: Optional[StepConfig] = None
) -> float:
    """Deviation of the map from rho-reversibility, rho: (p, q) -> (-p, q).

    Computes z1 = Phi_h(q0, p0), z2 = Phi_h(rho z1) and returns
    max-norm(rho z2 - (q0, p0)); zero exactly for reversible maps applied to
    a reversible problem.
    """
    run = replace(cfg or StepConfig(h=h), h=h)
    f = prob.force
    q0, p0 = prob.q0, prob.p0
    q1, p1 = step(t, f, prob.t0, q0, p0, run)
    q2, p2 = step(t, f, prob.t0, q1, -p1, run)
    return float(max(np.abs(q2 - q0).max(), np.abs(-p2 - p0).max()))


def reference_tableau() -> RknTableau:
    """The order-6 Gauss-3 method used as the default study reference."""
    return discretize(build_order6(0.0), gauss_rule(3), label="order6-gauss3")


def reference_state(
    prob: OdeProblem,
    t_end: float,
    h_ref: float,
    cfg: Optional[StepConfig] = None,
):
    """High-accuracy state at t_end: exact when available, else order-6 run.

    The nominal h_ref is shrunk to the nearest exact divisor of the span, so
    callers may pass min(h)/20 without worrying about grid alignment.
    """
    if prob.exact is not None:
        return prob.exact(t_end)
    span = t_end - prob.t0
    if span == 0.0:
        return prob.q0, prob.p0
    if span < 0.0:
        raise InvalidGridError("t_end must not precede t0")
    n = max(1, int(math.ceil(span / h_ref - GRID_RTOL)))
    run = replace(cfg or StepConfig(h=span / n), h=span / n)
    traj = integrate(reference_tableau(), prob, t_end, run, sample_every=n)
    if traj.diverged:
        raise StageDivergenceError(
            "reference integration diverged", step_index=traj.failure_step
        )
    if prob.dim == 1 and np.ndim(prob.q0) == 0:
        return float(traj.q[-1, 0]), float(traj.p[-1, 0])
    return traj.q[-1], traj.p[-1]


@dataclass(frozen=True)
class ErrorStudy:
    """Global errors against a fixed reference, with log-log slope."""

    h: np.ndarray
    error: np.ndarray
    slope: float
    reference: str

    def rows(self):
        return list(zip(self.h.tolist(), self.error.tolist()))


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


def final_state_error(
    t: RknTableau, prob: OdeProblem, t_end: float, cfg: StepConfig, reference
) -> float:
    """Max-norm deviation of the (q, p) state at t_end from reference.

    Only the initial and final states are recorded.  A run cut short by
    stage divergence raises a stage-divergence error.
    """
    n = _step_count(t_end - prob.t0, cfg.h)
    traj = integrate(t, prob, t_end, cfg, sample_every=max(1, n))
    if traj.diverged:
        raise StageDivergenceError(
            f"integration at h={cfg.h!r} diverged",
            step_index=traj.failure_step,
        )
    q_ref, p_ref = reference
    dq = np.abs(traj.q[-1] - q_ref).max()
    dp = np.abs(traj.p[-1] - p_ref).max()
    return float(max(dq, dp))


def global_error_study(
    t: RknTableau,
    prob: OdeProblem,
    t_end: float,
    h_list,
    cfg: Optional[StepConfig] = None,
    reference=None,
) -> ErrorStudy:
    """Global error at t_end per step size, with fitted convergence slope.

    reference overrides the (q_ref, p_ref) state; otherwise the problem's
    exact solution is used when present, else an order-6 Gauss-3 run at
    min(h)/20.  Errors are max-norm over the concatenated (q, p) deviation.
    Results are sorted by decreasing h.
    """
    hs = sorted({float(h) for h in h_list}, reverse=True)
    if len(hs) < 2:
        raise DegenerateFitError("study needs at least 2 distinct step sizes")
    if reference is None:
        label = "exact" if prob.exact is not None else "order6-gauss3"
        reference = reference_state(prob, t_end, min(hs) / 20.0, cfg)
    else:
        label = "supplied"
    errors = [
        final_state_error(
            t, prob, t_end, replace(cfg or StepConfig(h=h), h=h), reference
        )
        for h in hs
    ]
    slope = fit_loglog_slope(hs, errors)
    return ErrorStudy(np.array(hs), np.array(errors), slope, label)
