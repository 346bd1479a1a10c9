"""The one reference stage solver the generated kernels are held to, bit
for bit, on both state kinds; pytest collects no test from it.

_float_advance is the kernel's solve written as plain loops over stages
and components in float arithmetic: one loop over the stage blocks of
kernel._blocks, every block by one rule.  A base sums the stages solved
before the block; Q_i is its base taken once where the block has no
nonzero a_bar entry of its own, else Jacobi sweeps over its own stages
from the base and the previous step's forces, extrapolated.  Every sum
adds the terms of its nonzero coefficients alone, left to right, and a
sum with none is left out.  Where the force is called per point (its type
has no template of d components in problems._TEMPLATES), a stage start
that is not finite ends the step before the force sees it.  Scalar state
runs the same loop with d = 1, its force called on a float and its values
unwrapped to floats; array state calls the force on a (d,) array, whose
result must have that shape.

The kernel promises the same IEEE operations in the same order, so
samples, results, exception types, messages, residuals and step indices
must be equal byte for byte (_assert_same), not merely close.
"""

import math
from functools import partial

import numpy as np

from symrkn.errors import StageDivergenceError
from symrkn.kernel import _blocks, _start_matrix, _stepper
from symrkn.problems import _TEMPLATES


def _total(terms):
    """terms summed left to right, None for no term: every sum of the rule
    has only the terms of its nonzero coefficients."""
    acc = None
    for x in terms:
        acc = x if acc is None else acc + x
    return acc


def _plus(head, scale, acc):
    """head + scale * acc, head alone where the sum acc has no term."""
    return head if acc is None else head + scale * acc


def _most(values):
    """The largest |x|, or a NaN when there is one, as numpy's maximum."""
    m = 0.0
    for x in values:
        x = abs(x)
        if x > m or x != x:
            m = x
    return m


def _float_advance(t, stage_tol, iters):
    """advance(f, t0, q0, p0, h, steps, qs, ps, forces=None) -> (q1, p1, Q):
    plain float loops stepped steps times from a float q0 and p0 (scalar
    state) or from d floats each, sampled after every step as the kernel
    samples with every = 1.  Each step after the first starts from the
    forces of the step before, which go to forces when given."""
    s, c, a = t.s, t.c.tolist(), t.a_bar.tolist()
    b_bar, b = t.b_bar.tolist(), t.b.tolist()
    blocks = _blocks(t.a_bar)
    M = _start_matrix(t.c, t.a_bar, blocks).tolist()

    def step(f, t0, q0, p0, h, P):
        scalar = np.ndim(q0) == 0
        if scalar:
            q0, p0 = [q0], [p0]
        d = len(q0)
        K = range(d)
        # the kernel tests starts for finiteness where it calls f per point:
        # f's type has no template, or none of d components
        template = _TEMPLATES.get(type(f))
        point = template is None or len(template.values) != d
        h2 = h * h
        conv = stage_tol * (1.0 + _most(q0))
        times = [t0 + c[i] * h for i in range(s)]
        free = [[q0[k] if c[i] == 0.0 else q0[k] + h * c[i] * p0[k] for k in K]
                for i in range(s)]

        def dot(coeffs, rows, k):
            # over the nonzero coefficients alone, None for none
            return _total(x * row[k] for x, row in zip(coeffs, rows) if x != 0.0)

        def force(i, q):
            if scalar:
                return [f(times[i], q[0])]
            r = f(times[i], np.array(q))
            if np.shape(r) != (d,):
                raise ValueError(f"force returned shape {np.shape(r)}, expected {(d,)}")
            return np.asarray(r, dtype=float).tolist()

        def own(i, block, k):
            # h^2 a_ij F_j over the block's own stages, ascending
            return _total(h2 * a[i][j] * F[j][k] for j in block if a[i][j] != 0.0)

        Q, F = [None] * s, [None] * s
        done = []
        for block in blocks:
            if len(block) == 1:
                start, iterate = f"stage {block[0]} start is", f"stage {block[0]} iterate is"
                stuck = f"stage {block[0]} did not contract"
            else:
                start, iterate = "stage starts are", "stage iterates are"
                stuck = f"stages did not contract in {iters} sweeps"
            # each base sums the stages solved before the block
            base = {
                i: [_plus(free[i][k], h2, dot([a[i][j] for j in done], [F[j] for j in done], k))
                    for k in K]
                for i in block
            }
            # one stage with a zero a_ii is explicit
            iterated = any(a[i][j] != 0.0 for i in block for j in block)
            for i in block:
                # an explicit stage's value is its base; any other stage
                # starts at its base and the previous forces P, extrapolated
                Q[i] = [_plus(x, h2, dot(M[i], P, k)) if iterated else x
                        for k, x in enumerate(base[i])]
            if point and not all(math.isfinite(x) for i in block for x in Q[i]):
                raise StageDivergenceError(f"{start} not finite")
            if iterated:
                diff = math.inf
                for _ in range(iters):
                    for i in block:
                        F[i] = force(i, Q[i])
                    Qn = {i: [base[i][k] + own(i, block, k) for k in K] for i in block}
                    diff = _most([Qn[i][k] - Q[i][k] for i in block for k in K])
                    for i in block:
                        Q[i] = Qn[i]
                    if diff < conv:
                        break
                    if not diff < math.inf:
                        raise StageDivergenceError(
                            f"{iterate} not finite (last increment {diff:.3e})", residual=diff
                        )
                else:
                    raise StageDivergenceError(
                        f"{stuck} (last increment {diff:.3e})", residual=diff
                    )
            for i in block:
                F[i] = force(i, Q[i])
            done = sorted(done + block)
        q1 = tuple(_plus(q0[k] + h * p0[k], h2, dot(b_bar, F, k)) for k in K)
        p1 = tuple(_plus(p0[k], h, dot(b, F, k)) for k in K)
        if scalar:
            return q1[0], p1[0], [x for (x,) in Q], F
        return q1, p1, Q, F

    def advance(f, t0, q0, p0, h, steps, qs, ps, forces=None):
        t, P, Q = t0, [[0.0] * np.size(q0)] * s, None
        for k in range(1, steps + 1):
            try:
                q0, p0, Q, P = step(f, t, q0, p0, h, P)
            except StageDivergenceError as exc:
                if exc.step_index is None:
                    exc.step_index = k
                raise
            if forces is not None:
                forces.append(P)
            t = t0 + k * h
            if not (np.all(np.isfinite(q0)) and np.all(np.isfinite(p0))):
                raise StageDivergenceError("sample is not finite", step_index=k)
            qs(q0)
            ps(p0)
        return q0, p0, Q

    return advance


def _outcome(advance, *args):
    """Shape and bytes of (q1, p1, Q) as arrays, or the exception's type,
    message, residual and step index; then those of the samples.

    math.sin and math.cos raise ValueError on an infinite argument.  No
    stage start or iterate reaches a force called per point unless it is
    finite; the kernel must let any ValueError through from the same call.
    """
    qs, ps = [], []
    try:
        out = advance(*args, qs.append, ps.append)
    except (StageDivergenceError, ValueError) as exc:
        residual = getattr(exc, "residual", None)
        if residual is not None:
            residual = np.float64(residual).tobytes()
        end = ("raised", type(exc), str(exc), residual, getattr(exc, "step_index", None))
    else:
        end = tuple((v.shape, v.tobytes()) for v in map(np.asarray, out))
    samples = tuple(np.array(x, dtype=np.float64) for x in (qs, ps))
    return (*end, tuple((v.shape, v.tobytes()) for v in samples))


def _assert_same(t, f, t0, q0, p0, h, steps=1, stage_tol=1e-14, max_iters=100, forces=None):
    """One kernel run of steps steps, every one sampled, against the
    reference stepped as many times, whose forces of each step go to
    forces when given; returns the kernel's outcome."""
    kind, kernel = _stepper(t, f, q0, stage_tol, max_iters)
    q0, p0 = kind.state(q0), kind.state(p0)
    got = _outcome(partial(kernel, t0, q0, p0, h, steps, 1))
    reference = partial(_float_advance(t, stage_tol, max_iters), forces=forces)
    assert got == _outcome(reference, f, t0, q0, p0, h, steps)
    return got
