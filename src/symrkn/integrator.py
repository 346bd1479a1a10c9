"""Fixed-step RKN integration: implicit stage solving by fixed-point
iteration, trajectory recording, reversibility and convergence studies.

The tableau alone picks the stage solver, in _stepper, the one place that
decides a run: a sequential sweep when a_bar is exactly lower triangular
(each stage is a fixed point, solved once in index order), Jacobi sweeps
over all stages otherwise.  Summation order over stages is fixed
ascending, so repeated runs are bit-identical.

Each tableau runs one advance function per state kind and force form,
generated from source for its stage count, structure and start (see
_kernel_source) and shared by every call: floats for scalar state (dim 1
with float q0), d floats per value for array state of d components.
integrate runs all its steps in one call and binds the sample sinks to
flat array('d') buffers, which the trajectory's arrays view
(np.frombuffer); step, solve_stages and reversibility_test run one step.
The stage, sum and component loops are unrolled inside the step loop, and
every coefficient is written as a float literal (repr round-trips, so no
bit changes), so a run on (1,) arrays has the bits of the same run on
floats.  An array force gets a fresh (d,) array per call, read back as
floats; a batched form (force.stages) gets every evaluation in both
sweeps instead, as tuples of floats in and a list out.  The built-in
pendulum (scalar) and Kepler (d = 2) forces are not called: the kernel
writes their arithmetic in place of each call, from the template
problems.py keeps for the force's exact type, with the IEEE operations of
the force itself; Kepler's hands a call with an edge value (r = 0, a
subnormal, overflowing or non-finite entry) to force.stages.  Only floats
and those library templates enter that source, never a label or other
text from a tableau file.  Generating a kernel costs about a millisecond
for s = 3 with scalar or d = 2 state; the source grows as s^2 d, and
takes ~13 ms at s = 3, d = 32 and ~250 ms at s = 10, d = 100, once per
distinct tableau, d and force form: kernels are cached by the exact bytes
of the coefficients, with the structure, d and the force form, and the
least recently used leave once their sources pass _KERNEL_SOURCE_LIMIT
characters.  The source is registered in linecache,
so tracebacks and profiles show the generated lines.  A stage iterate
that is not finite ends the stage solve as a divergence before the force
sees it.  integrate logs each divergence once, at WARNING on the "symrkn"
logger; the library installs no handler.

The force is evaluated once per distinct iterate: when a stage iteration
ends on an iterate bitwise equal to the one before it (every increment
exactly 0.0 and no component a zero, since 0.0 == -0.0), the sequential
sweep takes the force it already has as F_i and a Jacobi sweep ends
without its force call, with the bits of evaluating again.  Convergence
is tested on each component's increment with chained comparisons; the
max-norm residual is taken only where a divergence is raised.

Where the stage iteration starts: inside integrate, every step after the
first starts from the previous step's stage forces, extrapolated to the new
nodes by the polynomial through (c_j, F_j) (Hairer, Lubich and Wanner,
Geometric Numerical Integration, section VIII.6.1); the kernel carries
those forces from step to step in locals.  The first step of a run and
the single-step calls have no previous forces, and a tableau with repeated
nodes has no start matrix: these start from free motion, Q_i = q0 + h c_i
p0.  Nothing selects this: there is no option for it.
"""

from __future__ import annotations

import linecache
import math
import numbers
import threading
import zlib
from array import array
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from .cscoeff import build_order6
from .errors import DegenerateFitError, InvalidGridError, StageDivergenceError
from .problems import _TEMPLATES, OdeProblem
from .quadrature import gauss_rule
from .tableau import RknTableau, discretize

#: Relative slack when checking that h divides the integration span.
GRID_RTOL = 1e-9

#: Most generated source, in characters, whose kernels are held at once
#: (see _kernel); 1.0 MB is one kernel at s = 10, d = 100.
_KERNEL_SOURCE_LIMIT = 8 * 2**20
_kernels = {}  # key: (advance, length of its source), least recent first
_kernels_lock = threading.Lock()


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
        if not isinstance(self.max_iters, numbers.Integral) or isinstance(
            self.max_iters, bool
        ):
            raise ValueError("max_iters must be an integer")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of one integration run.

    times has shape (n,), q and p have shape (n, dim).  energy_error is
    H(p_k, q_k) - H(p_0, q_0) per sample when the problem has an energy
    function, else None.  diverged marks a run cut short at step index
    failure_step (1-based), by stage-solver failure or by a non-finite state;
    the recorded samples end at the last completed step and are finite.
    failure_residual is the last stage increment of a stage-solver failure,
    and None when the run completed or a non-finite sample ended it.
    """

    times: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    energy_error: Optional[np.ndarray] = field(repr=False, default=None)
    diverged: bool = False
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


def _literal(x):
    """Source text of the finite float x, with its exact bits.

    repr round-trips every finite float, and a parenthesised negative
    literal compiles to one signed constant, so -0.0 stays -0.0.
    """
    r = repr(x)
    return f"({r})" if r[0] == "-" else r


def _kernel_source(c, a, b_bar, b, M, sequential, d=None, form="point"):
    """Source of advance(stage_tol, iters, f, t0, q0, p0, h, F_prev=None,
    steps=1, every=0, ts=None, qs=None, ps=None).

    steps steps of size h from q0, p0 at time t0, for scalar state (d None:
    q0, p0 and each stage value a float) or array state of d components
    (q0 and p0 tuples of d floats, each stage value d floats Q{i}_{k}).
    Step k starts at t0 + (k - 1) h, the first at t0 itself.  With M, the
    first step starts its stage iteration from F_prev when given, later
    steps from the previous step's forces, kept in the locals P{i}; else
    from free motion.  The time, q and p after every every-th step and the
    last go to the sinks ts, qs and ps (every 0: no samples); a sample that
    is not finite is not taken and ends the run.  Returns (q1, p1, Q, F) of
    the last step: states in the input form, stage values and forces as
    lists.

    Every sum starts at 0.0 and adds its terms in ascending index, zero
    coefficients included (0 * inf is NaN, and signed zeros must come out
    the same), component by component.  h c_i and h^2 a_ii are taken once
    per run.  Each stage component keeps its increment e = new - old,
    which starts at inf; a solve converges when -conv < e < conv for every
    component and diverges when some e is not finite (not -inf < e < inf),
    which ends it before the force sees the iterate.  A divergence raises
    StageDivergenceError with the max-norm of the last increments as
    residual (a NaN kept, as numpy's max does: the x > m or x != x
    pattern); it, and one the force raises without a step index, gets the
    1-based index of the step it ended.

    An iterate whose last increment is 0.0 in every component, and none of
    whose components is a zero, has the bits of the one before it, whose
    force is known: the sequential sweep takes that value as F_i, and a
    converged Jacobi sweep that moved no stage value ends before its force
    call.  A zero is evaluated again, since 0.0 == -0.0 but f may tell
    them apart.

    Array forces get a fresh (d,) array per point, read back as floats.
    Batched, every evaluation calls f.stages with a tuple of n stage times
    (all s in a Jacobi sweep, the one being solved in the sequential sweep)
    and one of their n*d values, stage by stage; a list of n*d floats is
    unpacked as it is, any other result read through a float array.  A
    per-point result not of shape (d,), or a stages result not of shape
    (n*d,), raises ValueError.

    form is "point", "stages" (the batched form above) or a force template
    of problems.py for state kind d: the template's text is written per
    point in place of each call, and where its unsafe test holds at any
    point of a call, the whole call goes to f.stages as in the batched
    form.  Every force evaluation is written by one helper, call.  Stage
    times are written only where a call takes them: in locals T{i} for
    the point and stages forms, in the stages fallback of a template.
    """
    s = len(c)

    def vec(name):
        return [name] if d is None else [f"{name}_{k}" for k in range(d)]

    def tup(names):
        return names[0] if d is None else f"({', '.join(names)},)"

    # bases, values, forces, previous forces and increments by component
    B, Q, F, P, E = ([vec(f"{x}{i}") for i in range(s)] for x in "BQFPe")
    q0, p0, n, g, e = (vec(x) for x in ("q0", "p0", "n", "g", "e"))
    K = range(len(q0))

    def dot(coeffs, names):
        terms = (f" + {_literal(x)} * {v}" for x, v in zip(coeffs, names))
        return "0.0" + "".join(terms)

    def free(i, k):
        return f"{q0[k]} + hc{i} * {p0[k]}"

    def col(rows, k):
        return [row[k] for row in rows]

    template = None if isinstance(form, str) else form
    timed = template is None

    def batched(ind, idx, args, outs):
        size = len(idx) * d
        times = [f"T{i}" if timed else f"t + hc{i}" for i in idx]
        return [
            f"{ind}r = stages({tup(times)}, {tup(sum(args, []))})",
            f"{ind}if type(r) is not list or len(r) != {size}:",
            f'{ind}    r = checked(r, ({size},), "force.stages").tolist()',
            f"{ind}{tup(sum(outs, []))} = r",
        ]

    def call(ind, idx, args, outs):
        # outs[j] = f(t_i, args[j]) by component for the stages i in idx,
        # the only place a force evaluation is written: one stages call for
        # all the points, the template's text per point (the whole call to
        # stages where its unsafe test holds at any point), else one call
        # per point
        if form == "stages":
            return batched(ind, idx, args, outs)
        if template is not None:
            points = [(v, f"R{j}") for j, v in enumerate(args)]
            lets = [ind + x.format(*v, r=r) for v, r in points for x in template.lets]
            inline = [
                f"{ind}{yk} = {x.format(*v, r=r)}"
                for (v, r), y in zip(points, outs)
                for yk, x in zip(y, template.values)
            ]
            if template.unsafe is None:
                return lets + inline
            unsafe = " or ".join(f"({template.unsafe.format(*v, r=r)})" for v, r in points)
            return [
                *lets,
                f"{ind}if {unsafe}:",
                *batched(ind + "    ", idx, args, outs),
                f"{ind}else:",
                *("    " + x for x in inline),
            ]
        if d is None:
            return [f"{ind}{y[0]} = f(T{i}, {v[0]})" for i, v, y in zip(idx, args, outs)]
        return [
            line
            for i, v, y in zip(idx, args, outs)
            for line in (
                f"{ind}r = f(T{i}, array({tup(v)}))",
                f"{ind}if type(r) is not ndarray or r.shape != ({d},):",
                f'{ind}    r = checked(r, ({d},), "force")',
                f"{ind}{tup(y)} = r.tolist()",
            )
        ]

    def all_of(test, names):
        return " and ".join(test.format(x) for x in names)

    def most(ind, var, terms):
        # var = the largest of terms, NaN kept; terms are nonnegative
        lines = [f"{ind}{var} = {terms[0]}"]
        for x in terms[1:]:
            lines += [f"{ind}x = {x}", f"{ind}if x > {var} or x != x:", f"{ind}    {var} = x"]
        return lines

    def diverged(ind, what, increments):
        return [
            *most(ind, "diff", [f"abs({x})" for x in increments]),
            f"{ind}raise StageDivergenceError(",
            f'{ind}    f"{what} (last increment {{diff:.3e}})",',
            f"{ind}    residual=diff,",
            f"{ind})",
        ]

    out = [
        "def advance(stage_tol, iters, f, t0, q0, p0, h, F_prev=None,",
        "            steps=1, every=0, ts=None, qs=None, ps=None):",
    ]
    emit = out.append
    if d is not None:
        emit(f"    {tup(q0)} = q0")
        emit(f"    {tup(p0)} = p0")
    emit("    h2 = h * h")
    out += [f"    hc{i} = h * {_literal(c[i])}" for i in range(s)]
    if sequential:
        out += [f"    w{i} = h2 * {_literal(a[i][i])}" for i in range(s)]
    if M is not None:
        emit("    warm = F_prev is not None")
        emit("    if warm:")
        emit(f"        ({', '.join(tup(x) for x in P)},) = F_prev")
    if form == "stages" or template is not None and template.unsafe is not None:
        emit("    stages = f.stages")
    emit("    mark = every if every < steps else steps")
    emit("    t = t0")
    emit("    for k in range(1, steps + 1):")
    body = len(out)
    out += most("        ", "m", [f"abs({x})" for x in q0])
    emit("        conv = stage_tol * (1.0 + m)")
    emit("        lo = -conv")
    if sequential:
        for i in range(s):
            if timed:
                emit(f"        T{i} = t + hc{i}")
            for k in K:
                emit(f"        {B[i][k]} = {free(i, k)} + h2 * ({dot(a[i][:i], col(F, k))})")
            out += [f"        {x} = inf" for x in e]
            emit(f"        if w{i} == 0.0:")
            out += [f"            {Q[i][k]} = {B[i][k]}" for k in K]
            emit("        else:")
            if M is None:
                out += [f"            {Q[i][k]} = {free(i, k)}" for k in K]
            else:
                emit("            if warm:")
                out += [
                    f"                {Q[i][k]} = {B[i][k]} + w{i} * ({dot(M[i], col(P, k))})"
                    for k in K
                ]
                emit("            else:")
                out += [f"                {Q[i][k]} = {free(i, k)}" for k in K]
            emit("            for _ in range(iters):")
            out += call("                ", [i], [Q[i]], [g])
            for k in K:
                emit(f"                {n[k]} = {B[i][k]} + w{i} * {g[k]}")
                emit(f"                {e[k]} = {n[k]} - {Q[i][k]}")
                emit(f"                {Q[i][k]} = {n[k]}")
            emit(f"                if {all_of('lo < {} < conv', e)}:")
            emit("                    break")
            emit(f"                if not ({all_of('-inf < {} < inf', e)}):")
            out += diverged("                    ", f"stage {i} iterate is not finite", e)
            emit("            else:")
            out += diverged("                ", f"stage {i} did not contract", e)
            # unmoved: g is the force at Q_i
            emit(f"        if {all_of('{} == 0.0', e)} and {all_of('{} != 0.0', Q[i])}:")
            out += [f"            {F[i][k]} = {g[k]}" for k in K]
            emit("        else:")
            out += call("            ", [i], [Q[i]], [F[i]])
    else:
        for i in range(s):
            if timed:
                emit(f"        T{i} = t + hc{i}")
            out += [f"        {B[i][k]} = {free(i, k)}" for k in K]
        start = [f"{Q[i][k]} = {B[i][k]}" for i in range(s) for k in K]
        if M is None:
            out += ["        " + x for x in start]
        else:
            emit("        if warm:")
            out += [
                f"            {Q[i][k]} = {B[i][k]} + h2 * ({dot(M[i], col(P, k))})"
                for i in range(s) for k in K
            ]
            emit("        else:")
            out += ["            " + x for x in start]
        S, Qs, Es = range(s), sum(Q, []), sum(E, [])
        out += call("        ", S, Q, F)
        out += [f"        {x} = inf" for x in Es]
        emit("        for _ in range(iters):")
        for i in S:
            for k in K:
                emit(f"            n = {B[i][k]} + h2 * ({dot(a[i], col(F, k))})")
                emit(f"            {E[i][k]} = n - {Q[i][k]}")
                emit(f"            {Q[i][k]} = n")
        emit(f"            if {all_of('lo < {} < conv', Es)}:")
        # unmoved: F holds the forces at Q
        emit(f"                if {all_of('{} == 0.0', Es)} and {all_of('{} != 0.0', Qs)}:")
        emit("                    break")
        out += call("                ", S, Q, F)
        emit("                break")
        emit(f"            if not ({all_of('-inf < {} < inf', Es)}):")
        out += diverged("                ", "stage iterates are not finite", Es)
        out += call("            ", S, Q, F)
        emit("        else:")
        out += diverged("            ", "stages did not contract in {iters} sweeps", Es)
    # the update: every q before any p, since each q reads the old p
    for k in K:
        emit(f"        {q0[k]} = {q0[k]} + h * {p0[k]} + h2 * ({dot(b_bar, col(F, k))})")
    for k in K:
        emit(f"        {p0[k]} = {p0[k]} + h * ({dot(b, col(F, k))})")
    emit("        t = t0 + k * h")
    if M is not None:
        out += [f"        {P[i][k]} = {F[i][k]}" for i in range(s) for k in K]
        emit("        warm = True")
    emit("        if k == mark:")
    # 0 * x is NaN exactly when x is not finite, and a sum of zeros is zero
    emit(f"            x = {' + '.join(f'0.0 * {v}' for v in q0 + p0)}")
    emit("            if x != x:")
    emit("                break")
    emit("            ts(t)")
    emit(f"            qs({tup(q0)})")
    emit(f"            ps({tup(p0)})")
    emit("            mark += every")
    emit("            if mark > steps:")
    emit("                mark = steps")
    # a divergence, the solver's or one the force raises itself, is
    # stamped with the step it ended
    out[body:] = [
        "        try:",
        *("    " + x for x in out[body:]),
        "        except StageDivergenceError as exc:",
        "            if exc.step_index is None:",
        "                exc.step_index = k",
        "            raise",
    ]
    emit("    return (")
    emit(f"        {tup(q0)},")
    emit(f"        {tup(p0)},")
    emit(f"        [{', '.join(tup(x) for x in Q)}],")
    emit(f"        [{', '.join(tup(x) for x in F)}],")
    emit("    )")
    return "\n".join(out) + "\n"


def _checked(r, shape, name):
    """r as a float array of the given shape, else ValueError."""
    r = np.asarray(r, dtype=float)
    if r.shape != shape:
        raise ValueError(f"{name} returned shape {r.shape}, expected {shape}")
    return r


def _generate_kernel(key):
    """Compile the advance for one _stepper cache key, with its start matrix."""
    c_bytes, a_bytes, b_bar_bytes, b_bytes, sequential, d, form = key
    template = None if isinstance(form, str) else form
    c = np.frombuffer(c_bytes)
    s = len(c)
    a_bar = np.frombuffer(a_bytes).reshape(s, s)
    M = _start_matrix(c, a_bar, sequential)
    source = _kernel_source(
        c.tolist(), a_bar.tolist(), np.frombuffer(b_bar_bytes).tolist(),
        np.frombuffer(b_bytes).tolist(), None if M is None else M.tolist(),
        sequential, d, form,
    )
    filename = "<symrkn kernel s={}{} {} {}{} {:08x}>".format(
        s,
        "" if d is None else f" d={d}",
        "sequential" if sequential else "jacobi",
        "free" if M is None else "start",
        "" if form == "point" else f" {form if template is None else template.name}",
        zlib.crc32(b"".join(key[:4])),
    )
    namespace = {
        "inf": math.inf,
        "array": np.array,
        "ndarray": np.ndarray,
        "checked": _checked,
        "StageDivergenceError": StageDivergenceError,
    }
    if template is not None:
        namespace.update(template.names)
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return namespace["advance"], len(source)


def _kernel(key):
    """The generated advance for key, compiled on first use.

    While the cached kernels' sources pass _KERNEL_SOURCE_LIMIT characters,
    the least recently used kernel leaves the cache, and its source leaves
    linecache.  The new kernel always stays, so one larger than the limit
    is held alone.
    """
    with _kernels_lock:
        entry = _kernels.pop(key, None)
        if entry is None:
            entry = _generate_kernel(key)
            held = entry[1] + sum(size for _, size in _kernels.values())
            while _kernels and held > _KERNEL_SOURCE_LIMIT:
                old, size = _kernels.pop(next(iter(_kernels)))
                linecache.cache.pop(old.__code__.co_filename, None)
                held -= size
        _kernels[key] = entry
    return entry[0]


def _start_matrix(c, a_bar, sequential):
    """Matrix taking the previous step's stage forces to this step's start.

    E[i, j] = l_j(1 + c_i), the Lagrange basis on the nodes c evaluated at
    the next step's nodes, extrapolates stage forces by one step.  The
    sequential sweep starts from E F_prev, the Jacobi sweeps from
    A E F_prev with A = a_bar.  None when the nodes are not pairwise
    distinct, or so close that the matrix overflows: those tableaus keep
    the free-motion start.  So a start matrix is always finite.  Built by
    _generate_kernel, once per kernel, from the bytes of the cache key.
    """
    s = len(c)
    if len(set(c.tolist())) < s:
        return None
    x = 1.0 + c
    E = np.ones((s, s))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j in range(s):
            for m in range(s):
                if m != j:
                    E[:, j] *= (x - c[m]) / (c[j] - c[m])
        M = E if sequential else a_bar @ E
    return M if np.all(np.isfinite(M)) else None


def _stepper(t, f, q0, stage_tol, max_iters):
    """(state, advance) for a run of the force f from states of q0's kind.

    The one place that decides a run: the solver structure (t's
    lower_triangular), the state kind and the force form: the template
    written inline when problems.py has one for f's exact type and this
    state kind (a subclass or any other force keeps its calls), else
    f.stages on array state when f has it, else per point.  state puts a
    q or p value in the kind's form: a float for scalar state, a tuple of
    d floats for array state of d components.  advance(t0, q0, p0, h,
    F_prev=None, steps=1, every=0, ts=None, qs=None, ps=None) is the
    kernel with stage_tol, max_iters and f bound (see _kernel_source):
    steps steps of signed size h from such states, returning (q1, p1, Q, F)
    of the last.

    Kernels are cached by the exact bytes of c, a_bar, b_bar and b, with
    the structure, d (None for scalar state) and the force form ("point",
    "stages" or the template itself), so 0.0 and -0.0 get different
    kernels; stage_tol and max_iters are arguments and stay out of the
    key.  The start matrix follows from c, a_bar and the structure, so
    _generate_kernel builds it with the kernel and every call on a
    tableau, state kind and force form shares one kernel.  integrate
    passes its whole run; step, solve_stages and reversibility_test pass
    one step and no previous forces (F_prev None), so their step starts
    from free motion, as a run's first step does.
    """
    d = None if np.ndim(q0) == 0 else len(q0)
    form = _TEMPLATES.get(type(f))
    if form is None or form.d != d:
        form = "point" if d is None or getattr(f, "stages", None) is None else "stages"
    key = (
        t.c.tobytes(), t.a_bar.tobytes(), t.b_bar.tobytes(), t.b.tobytes(),
        t.lower_triangular, d, form,
    )
    advance = partial(_kernel(key), stage_tol, max_iters, f)
    if d is None:
        return float, advance
    return lambda x: tuple(np.asarray(x, dtype=float).reshape(d).tolist()), advance


def solve_stages(t: RknTableau, f, t0, q0, p0, cfg: StepConfig):
    """Stage values Q_i = q0 + h c_i p0 + h^2 sum_j a_bar[i,j] f(t_j, Q_j).

    Returns an (s,) array for scalar state, else an (s, dim) array.  Solved
    by fixed-point iteration from the free-motion guess Q_i = q0 + h c_i p0,
    as every single-step call is (only integrate has a previous step to
    extrapolate from); non-contraction, or an iterate that is not finite,
    raises a stage-divergence error carrying the last increment.
    """
    state, advance = _stepper(t, f, q0, cfg.stage_tol, cfg.max_iters)
    return np.array(advance(t0, state(q0), state(p0), cfg.h)[2])


def step(t: RknTableau, f, t0, q0, p0, cfg: StepConfig):
    """One step of size cfg.h from (q0, p0); returns (q1, p1)."""
    state, advance = _stepper(t, f, q0, cfg.stage_tol, cfg.max_iters)
    q1, p1, _, _ = advance(t0, state(q0), state(p0), cfg.h)
    if np.ndim(q0) == 0:
        return q1, p1
    return np.array(q1), np.array(p1)


def _check_span(span: float) -> None:
    if not math.isfinite(span):
        raise InvalidGridError(f"the span t_end - t0 must be finite, not {span!r}")
    if span < 0.0:
        raise InvalidGridError("t_end must not precede t0")


def _step_ratio(span: float, h: float, name: str = "step size") -> float:
    """span / h for a finite span > 0; a quotient that is not finite (h
    too small for the span, or 0.0) is a grid error naming h as name."""
    steps = span / h if h else math.inf
    if not math.isfinite(steps):
        raise InvalidGridError(
            f"{name} {h!r} is too small for the span {span!r}: "
            "the step count is not finite"
        )
    return steps


def _step_count(span: float, h: float) -> int:
    _check_span(span)
    if span == 0.0:
        return 0
    n = int(round(_step_ratio(span, h)))
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
    step; sample_every is an integer >= 1, and a bool is not one.
    (t_end - t0)/h must be a nonnegative integer to grid tolerance, and the
    initial state must be finite.  On stage divergence mid-run the
    trajectory collected so far is returned with diverged=True, the
    1-based index of the failed step and the solver's last increment as
    failure_residual.  A sample that is not finite ends the run the same
    way, at its step and with no residual, so no recorded value is inf or
    NaN.  Either way one WARNING goes to the "symrkn" logger.  Step k
    starts at t0 + (k - 1) h, the first at t0 itself, as in step.

    Each step after the first starts its stage iteration from the previous
    step's stage forces, extrapolated to the new nodes; the first step, and
    every step of a tableau with repeated nodes, starts from free motion.
    Results therefore differ from a run of single step calls at the level
    of stage_tol, with fewer force evaluations.
    """
    if not isinstance(sample_every, numbers.Integral) or isinstance(sample_every, bool):
        raise ValueError("sample_every must be an integer")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    n = _step_count(t_end - prob.t0, cfg.h)
    state, advance = _stepper(t, prob.force, prob.q0, cfg.stage_tol, cfg.max_iters)
    h, t0 = cfg.h, prob.t0
    q, p = state(prob.q0), state(prob.p0)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise ValueError("initial state must be finite")
    ts, qs, ps = array("d", [t0]), array("d", np.ravel(q)), array("d", np.ravel(p))
    failure_step = residual = None
    if n:
        if np.ndim(q) == 0:
            sinks = ts.append, qs.append, ps.append
        else:
            sinks = ts.append, qs.extend, ps.extend
        try:
            q, p, _, _ = advance(t0, q, p, h, None, n, sample_every, *sinks)
        except StageDivergenceError as exc:
            failure_step, residual = exc.step_index, exc.residual
        else:
            if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
                # a force that went non-finite where no stage iteration sees
                # it (an explicit stage, or a jump within stage_tol of the
                # converged stage) passes the stage solve; the kernel stops
                # at the first such sample, which it does not take
                failure_step = min(len(ts) * sample_every, n)
        if failure_step is not None:
            # imported here: importing logging adds ~4 ms to every start-up,
            # 3 % of a worker's set-up time in the benchmark
            import logging

            logging.getLogger("symrkn").warning(
                "integration diverged at step %d of %d (t=%r, h=%r, residual=%r)",
                failure_step, n, t0 + (failure_step - 1) * h, h, residual,
            )
    m = len(ts)
    q_arr = np.frombuffer(qs).reshape(m, prob.dim)
    p_arr = np.frombuffer(ps).reshape(m, prob.dim)
    energy_error = None
    if prob.energy is not None:
        # floats for scalar state; array state's H takes (dim,) rows
        rows = (ps, qs) if np.ndim(q) == 0 else (p_arr, q_arr)
        energy_error = np.fromiter(map(prob.energy, *rows), float, m)
        energy_error -= energy_error[0]
    return Trajectory(
        np.frombuffer(ts), q_arr, p_arr, energy_error,
        failure_step is not None, failure_step, residual,
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
    """High-accuracy state at t_end: prob.exact(t_end) when present
    (harmonic, Kepler), else an order-6 Gauss-3 run (pendulum).

    A span t_end - t0 that is negative or not finite is a grid error.  The
    nominal h_ref is shrunk to the nearest exact divisor of the span, so
    callers may pass min(h)/20 without worrying about grid alignment.
    """
    span = t_end - prob.t0
    _check_span(span)
    if prob.exact is not None:
        return prob.exact(t_end)
    if span == 0.0:
        return prob.q0, prob.p0
    steps = _step_ratio(span, h_ref, "reference step size")
    n = max(1, int(math.ceil(steps - GRID_RTOL)))
    run = replace(cfg or StepConfig(h=span / n), h=span / n)
    traj = integrate(reference_tableau(), prob, t_end, run, sample_every=n)
    if traj.diverged:
        raise StageDivergenceError(
            "reference integration diverged",
            residual=traj.failure_residual,
            step_index=traj.failure_step,
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
            residual=traj.failure_residual,
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

    reference overrides the (q_ref, p_ref) state (reference "supplied");
    otherwise reference_state gives the problem's exact solution when it has
    one (harmonic, Kepler: "exact"), else an order-6 Gauss-3 run at
    min(h)/20 (pendulum: "order6-gauss3").  Errors are max-norm over the
    concatenated (q, p) deviation.
    Results are sorted by decreasing h, with duplicates dropped.

    A step size whose run diverges records a nan error instead of raising.
    The slope is fitted on the finite rows.  Too few of them to fit (fewer
    than two distinct step sizes with nonzero error) raises a degenerate-fit
    error when no row diverged, and gives a nan slope when one did.
    """
    hs = sorted({float(h) for h in h_list}, reverse=True)
    if not hs:
        raise DegenerateFitError("study needs at least 2 distinct step sizes")
    if reference is None:
        label = "exact" if prob.exact is not None else "order6-gauss3"
        reference = reference_state(prob, t_end, min(hs) / 20.0, cfg)
    else:
        label = "supplied"
    errors = np.empty(len(hs))
    for i, h in enumerate(hs):
        try:
            errors[i] = final_state_error(
                t, prob, t_end, replace(cfg or StepConfig(h=h), h=h), reference
            )
        except StageDivergenceError:
            errors[i] = math.nan
    try:
        slope = fit_loglog_slope(hs, errors)
    except DegenerateFitError:
        if np.isfinite(errors).all():
            raise
        slope = math.nan
    return ErrorStudy(np.array(hs), errors, slope, label)
