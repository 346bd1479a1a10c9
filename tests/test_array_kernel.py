"""The generated array-state kernel against two references.

Array state runs one advance generated from source per tableau and state
size d (kernel._kernel_source): stage, sum and component loops
unrolled, state and stage values as floats.

The bit reference, _float_advance, is the same solve written as plain
loops over stages and components in float arithmetic, one loop over the
blocks of kernel._blocks, every block by one rule.  Results, exception
types, messages and residuals must equal its own byte for byte.

The numpy stage solver (_stages_array and _numpy_advance below), the same
rule on (stages, d) arrays, is an independent oracle.  It sums the bases,
the warm start and the update with BLAS matrix products, in an order of
its own, so it must agree within a few ulps of each stage sum, not bit
for bit, and raise the same exception type.  Its sweep adds the block's
own columns in ascending order, as the rule does: a BLAS product there
rounds rkn-iiib's stage 1 one ulp off on Kepler at h = 0.3, and the force
carries that ulp into stage 0's second component, ~0.014, as 5 ulps of
its own sum, which the per-sum bound does not model.  Its message must be
the same for divergence within a few sweeps.  After many sweeps of a map
that does not contract, rounding differences grow until the residuals are
unrelated; and the kernel stops at an iterate that is not finite, where
the oracle sweeps on to max_iters.  There only the type must agree.  The
oracle never checked the shape of a per-point result (numpy broadcast it),
so that check is held to the bit reference alone.
"""

import math
import random
import re

import numpy as np
import pytest

from symrkn.errors import StageDivergenceError
from symrkn.integrator import reference_tableau
from symrkn.kernel import _blocks, _start_matrix, _stepper
from symrkn.problems import kepler_2d
from symrkn.tableau import RknTableau, named_tableau
from test_scalar_kernel import SHAPES, _pattern, _random_tableau

_max = np.maximum.reduce

# kernel and oracle agree within this many ulps of each stage sum's scale
ULPS = 4
# and give the same divergence message up to this many sweeps
FEW_SWEEPS = 3


def _most(values):
    """The largest |x|, or a NaN when there is one, as numpy's maximum."""
    m = 0.0
    for x in values:
        x = abs(x)
        if x > m or x != x:
            m = x
    return m


def _float_advance(t, stage_tol, iters, blocks, start):
    s, c, a = t.s, t.c.tolist(), t.a_bar.tolist()
    b_bar, b = t.b_bar.tolist(), t.b.tolist()
    M = None if start is None else start.tolist()

    def advance(f, t0, q0, p0, h, F_prev=None):
        d = len(q0)
        K = range(d)
        h2 = h * h
        conv = stage_tol * (1.0 + _most(q0))
        if M is None:
            F_prev = None
        times = [t0 + c[i] * h for i in range(s)]
        free = [[q0[k] + h * c[i] * p0[k] for k in K] for i in range(s)]

        def dot(coeffs, rows, k):
            acc = 0.0
            for x, row in zip(coeffs, rows):
                acc += x * row[k]
            return acc

        def force(i, q):
            r = f(times[i], np.array(q))
            if np.shape(r) != (d,):
                raise ValueError(f"force returned shape {np.shape(r)}, expected {(d,)}")
            return np.asarray(r, dtype=float).tolist()

        def own(i, block, k):
            # h^2 a_ij F_j over the block's own stages, ascending, with no 0.0 start
            acc = h2 * a[i][block[0]] * F[block[0]][k]
            for j in block[1:]:
                acc += h2 * a[i][j] * F[j][k]
            return acc

        Q, F = [None] * s, [None] * s
        done = []
        for block in blocks:
            # each base sums the stages solved before the block
            base = {
                i: [free[i][k] + h2 * dot([a[i][j] for j in done], [F[j] for j in done], k)
                    for k in K]
                for i in block
            }
            if not any(a[i][j] != 0.0 for i in block for j in block):
                # one stage with a zero a_ii: explicit
                Q[block[0]] = base[block[0]]
            else:
                for i in block:
                    Q[i] = free[i]
                    if F_prev is not None:
                        Q[i] = [base[i][k] + h2 * dot(M[i], F_prev, k) for k in K]
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
                        what = f"stage {block[0]} iterate is"
                        if len(block) > 1:
                            what = "stage iterates are"
                        raise StageDivergenceError(
                            f"{what} not finite (last increment {diff:.3e})", residual=diff
                        )
                else:
                    what = f"stage {block[0]} did not contract"
                    if len(block) > 1:
                        what = f"stages did not contract in {iters} sweeps"
                    raise StageDivergenceError(
                        f"{what} (last increment {diff:.3e})", residual=diff
                    )
            for i in block:
                F[i] = force(i, Q[i])
            done = sorted(done + block)
        q1 = [q0[k] + h * p0[k] + h2 * dot(b_bar, F, k) for k in K]
        p1 = [p0[k] + h * dot(b, F, k) for k in K]
        return q1, p1, Q, F

    return advance


def _stages_array(t, f, t0, q0, p0, h, conv, iters, blocks, M, F_prev):
    c = t.c
    a = t.a_bar
    h2 = h * h
    times = t0 + c * h
    free = q0[None, :] + (h * c)[:, None] * p0[None, :]
    Q = np.zeros_like(free)
    F = np.zeros_like(free)
    done = []
    for block in blocks:
        # the bases sum the stages solved before the block
        base = free[block] + h2 * (a[np.ix_(block, done)] @ F[done])
        own = a[np.ix_(block, block)]
        if not own.any():
            # one stage with a zero a_ii: explicit
            Q[block] = base
        else:
            Q[block] = free[block] if F_prev is None else base + h2 * (M[block] @ F_prev)
            w = h2 * own
            diff = math.inf
            for _ in range(iters):
                F[block] = [f(times[i], Q[i]) for i in block]
                # the block's own columns in ascending order, as the rule sums them
                acc = w[:, :1] * F[block[0]]
                for n in range(1, len(block)):
                    acc = acc + w[:, n : n + 1] * F[block[n]]
                Qn = base + acc
                diff = float(_max(np.abs(Qn - Q[block]), axis=None))
                Q[block] = Qn
                if diff < conv:
                    break
            else:
                what = (f"stages did not contract in {iters} sweeps" if len(block) > 1
                        else f"stage {block[0]} did not contract")
                raise StageDivergenceError(f"{what} (last increment {diff:.3e})", residual=diff)
        F[block] = [f(times[i], Q[i]) for i in block]
        done = sorted(done + block)
    return Q, F


def _numpy_advance(t, stage_tol, max_iters, blocks, start):
    def advance(f, t0, q0, p0, h, F_prev=None):
        conv = stage_tol * (1.0 + float(_max(np.abs(q0), axis=None)))
        Q, F = _stages_array(
            t, f, t0, q0, p0, h, conv, max_iters, blocks,
            start, None if start is None else F_prev,
        )
        return q0 + h * p0 + h * h * (t.b_bar @ F), p0 + h * (t.b @ F), Q, F

    return advance


def _outcome(advance, *args):
    """Shape and bytes of (q1, p1, Q, F) as float64 arrays, or the
    exception's type, message and residual."""
    try:
        out = advance(*args)
    except (StageDivergenceError, ValueError) as exc:
        residual = getattr(exc, "residual", None)
        if residual is not None:
            residual = np.float64(residual).tobytes()
        return ("raised", type(exc), str(exc), residual)
    return tuple((v.shape, v.tobytes()) for v in map(np.asarray, out))


def _values(outcome):
    return [np.frombuffer(data).reshape(shape) for shape, data in outcome]


def _assert_near_oracle(t, got, oracle, same_message, f, t0, q0, p0, h, F_prev):
    """got, the kernel's outcome, against the numpy solver's."""
    q0, p0 = np.array(q0), np.array(p0)
    args = (f, t0, q0, p0, h, None if F_prev is None else np.array(F_prev))
    with np.errstate(all="ignore"):
        want = _outcome(oracle, *args)
    if want[0] == "raised" or got[0] == "raised":
        assert got[:2] == want[:2]
        if same_message and "not finite" not in got[2]:
            assert got[2] == want[2]
        return
    q1, p1, Q, F = _values(want)
    # each entry's scale: the sum of the magnitudes of the terms it adds up
    with np.errstate(all="ignore"):
        aF = abs(h * h) * np.abs(F)
        scales = (
            np.abs(q0) + abs(h) * np.abs(p0) + np.abs(t.b_bar) @ aF,
            np.abs(p0) + abs(h) * (np.abs(t.b) @ np.abs(F)),
            np.abs(q0) + np.abs(h * t.c)[:, None] * np.abs(p0) + np.abs(t.a_bar) @ aF,
        )
    for x, y, scale in zip(_values(got), (q1, p1, Q), scales):
        finite = np.isfinite(y) & np.isfinite(scale)
        assert np.array_equal(x[~finite], y[~finite], equal_nan=True)
        assert np.all(np.abs(x - y)[finite] <= ULPS * np.spacing(scale[finite]))


class _Pair:
    """The kernel for one tableau, with its two references, all from the
    stage blocks and start matrix the library derives; check() runs the
    kernel and both references from one state."""

    def __init__(self, t, stage_tol=1e-14, max_iters=100, d=2):
        self.t = t
        self.run = (np.zeros(d), stage_tol, max_iters)
        blocks = _blocks(t.a_bar)
        start = _start_matrix(t.c, t.a_bar, blocks)
        self.reference = _float_advance(t, stage_tol, max_iters, blocks, start)
        self.oracle = _numpy_advance(t, stage_tol, max_iters, blocks, start)
        self.same_message = max_iters <= FEW_SWEEPS

    def kernel(self, f):
        """(kind, advance) for f, as integrate would choose them."""
        return _stepper(self.t, f, *self.run)

    def check(self, f, t0, q0, p0, h, F_prev=None):
        kind, kernel = self.kernel(f)
        q0, p0 = kind.state(q0), kind.state(p0)
        if F_prev is not None:
            F_prev = [tuple(row) for row in np.asarray(F_prev, dtype=float).tolist()]
        args = (t0, q0, p0, h, F_prev)
        got = _outcome(kernel, *args)
        assert got == _outcome(self.reference, f, *args)
        _assert_near_oracle(self.t, got, self.oracle, self.same_message, f, *args)
        return got


def _driven(t, q):
    return -np.sin(q) + 0.3 * np.cos(1.7 * t)


class _DrivenWithStages:
    """_driven, carrying a stages method that must never be called: the
    kernel calls every force without a template per point."""

    def __call__(self, t, q):
        return _driven(t, q)

    def stages(self, times, values):
        raise AssertionError("force.stages was called")


_FORCES = [_driven, _DrivenWithStages()]


def _runs(t, f, h, q0, p0, steps=12, stage_tol=1e-14, max_iters=100):
    """Step the kernel and both references along one trajectory, from free
    motion and then from each previous step's stage forces; one kernel
    serves the whole run, as in integrate."""
    outcomes = []
    pair = _Pair(t, stage_tol, max_iters, d=len(q0))
    q, p, F_prev = q0, p0, None
    for k in range(steps):
        got = pair.check(f, k * h, q, p, h, F_prev)
        outcomes.append(got[0])
        if got[0] == "raised":
            break
        q, p, _, F_prev = _values(got)
    return outcomes


def _state(rng, d):
    return (np.array([rng.uniform(-1.0, 1.0) for _ in range(d)]),
            np.array([rng.uniform(-2.5, 2.5) for _ in range(d)]))


@pytest.mark.parametrize("s", range(1, 11))
@pytest.mark.parametrize("shape", SHAPES)
def test_random_tableaus_have_the_bits_of_the_stage_solver(s, shape):
    rng = random.Random(2000 * s + SHAPES.index(shape))
    t = _random_tableau(rng, s, shape)
    assert _blocks(t.a_bar) == _pattern(shape, s)[1]
    for d in (1, 2, 3, 5):
        q0, p0 = _state(rng, d)
        for f in _FORCES:
            for h in (0.2, -0.2):
                _runs(t, f, h, q0, p0, steps=6)
        # one or two sweeps leave the extrapolated start's bits in the result
        F_prev = np.array([[rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(s)])
        for max_iters in (1, 2):
            pair = _Pair(t, max_iters=max_iters, d=d)
            for f in _FORCES:
                pair.check(f, 0.2, q0, p0, 0.2, F_prev)


@pytest.mark.parametrize(
    "name", ["rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b", "order6-gauss3"]
)
def test_named_methods_on_kepler_have_the_bits_of_the_stage_solver(name):
    t = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    prob = kepler_2d(0.5)
    for h in (0.05, -0.05, 0.3):
        _runs(t, prob.force, h, prob.q0, prob.p0, steps=20)
    # and wrapped, which turns the inline template off
    _runs(t, lambda t, q: prob.force(t, q), 0.05, prob.q0, prob.p0, steps=10)


def _sign_of_zero(t, q):
    # tells the two zeros apart: 0.0 at -0.0, 5.0 at 0.0, per component
    return np.where(np.signbit(q), 0.0, 5.0)


@pytest.mark.parametrize(
    "name", ["rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b", "order6-gauss3"]
)
def test_a_zero_iterate_is_evaluated_again(name):
    # from q0 = p0 = -0.0 the free-motion start is -0.0 and the first
    # iterate 0.0: an increment of 0.0 that changes the force, 0.0 to 5.0
    t = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    zeros = np.array([-0.0, -0.0])
    got = _Pair(t).check(_sign_of_zero, 0.0, zeros, zeros, 0.16)
    assert 5.0 in _values(got)[3]
    _runs(t, _sign_of_zero, 0.16, zeros, zeros, steps=5)


class _PointCounter:
    """A Kepler force counting its evaluations, called per point."""

    def __init__(self):
        self.force = kepler_2d().force
        self.evaluations = 0

    def __call__(self, t, q):
        self.evaluations += 1
        return self.force(t, q)


class _StagesCounter(_PointCounter):
    """The same carrying a stages method, which is never called."""

    def stages(self, times, values):
        raise AssertionError("force.stages was called")


@pytest.mark.parametrize(
    "name", ["rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b", "order6-gauss3"]
)
@pytest.mark.parametrize("counter", [_PointCounter, _StagesCounter], ids=["point", "stages"])
def test_no_more_force_calls_than_the_stage_solver(name, counter):
    # the bit reference evaluates every iterate, the kernel reuses the force
    # of an iterate that did not move
    t = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    prob = kepler_2d(0.5)
    h = 0.05
    pair = _Pair(t)
    counts = []
    for run in ("kernel", "reference"):
        force = counter()
        kind, kernel = pair.kernel(force)
        q, p, F_prev = kind.state(prob.q0), kind.state(prob.p0), None
        for k in range(40):
            args = (k * h, q, p, h, F_prev)
            q, p, _, F_prev = (
                kernel(*args) if run == "kernel" else pair.reference(force, *args)
            )
            q, p = kind.state(q), kind.state(p)
            F_prev = [tuple(row) for row in F_prev]
        counts.append(force.evaluations)
    assert counts[0] <= counts[1]


def test_a_large_state_has_the_bits_of_the_stage_solver():
    rng = random.Random(64)
    t = _random_tableau(rng, 3, "full")
    q0, p0 = _state(rng, 64)
    for t in (t, _random_tableau(rng, 3, "explicit-last")):
        for f in _FORCES:
            outcomes = _runs(t, f, 0.2, q0, p0, steps=4)
            assert len(outcomes) == 4 and "raised" not in outcomes


def test_each_state_size_gets_its_own_kernel():
    t = named_tableau("rkn-a")
    kernels = {}
    for d in (None, 1, 2, 3):
        q0 = 0.0 if d is None else np.zeros(d)
        for f in _FORCES:
            kernels[d, f] = _stepper(t, f, q0, 1e-14, 100)[1].func
            assert _stepper(t, f, q0, 1e-10, 7)[1].func is kernels[d, f]
        # a stages method makes no kernel of its own
        assert kernels[d, _FORCES[0]] is kernels[d, _FORCES[1]]
    assert len(set(kernels.values())) == 4
    assert re.fullmatch(
        r"<symrkn kernel s=3 d=3 \(0,1,2\) start [0-9a-f]{8}>",
        kernels[3, _FORCES[1]].__code__.co_filename,
    )


def test_one_advance_follows_every_change_of_h():
    t = named_tableau("rkn-a")
    rng = random.Random(5)
    q0, p0 = _state(rng, 3)
    q0[1] = -0.0
    hs = [0.2, 0.2, -0.2, 0.1, 0.2, 0.0, -0.0, -0.0, 0.0, math.nan, 0.2, 1]
    pair = _Pair(t, d=3)
    for f in (*_FORCES, lambda t, q: np.full_like(q, t)):
        for h in hs:
            # t0 = -0.0: the stage times t0 + c h carry the sign of h
            pair.check(f, -0.0, q0, p0, h)


def test_a_start_matrix_of_none_ignores_previous_forces():
    # no polynomial passes through repeated nodes, so no start matrix exists
    t = RknTableau(2, np.array([0.5, 0.5]), np.array([[0.0625, 0.0625], [0.0625, 0.0625]]),
                   np.array([0.25, 0.25]), np.array([0.5, 0.5]), "twin")
    q0, p0 = _state(random.Random(9), 2)
    F_prev = np.ones((2, 2))
    for blocks in ([[0, 1]], [[0], [1]]):
        assert _start_matrix(t.c, t.a_bar, blocks) is None
    pair = _Pair(t)
    for f in _FORCES:
        free = pair.check(f, 0.0, q0, p0, 0.2)
        assert pair.check(f, 0.0, q0, p0, 0.2, F_prev) == free


@pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 1)])
def test_wrong_shape_from_the_force_raises(shape):
    t = named_tableau("rkn-a")
    q0, p0 = _state(random.Random(4), 2)
    args = (lambda t, q: np.zeros(shape), 0.0, tuple(q0), tuple(p0), 0.2)
    pair = _Pair(t)
    got = _outcome(pair.kernel(args[0])[1], *args[1:])
    assert got == _outcome(pair.reference, *args)
    assert got == ("raised", ValueError, f"force returned shape {shape}, expected (2,)", None)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["diagsymp", "rkn-a", "order6-gauss3"])
def test_divergence_has_the_message_and_residual_of_the_stage_solver(name):
    t = reference_tableau() if name == "order6-gauss3" else named_tableau(name)
    q0, p0 = np.array([0.4, -0.3, 0.1]), np.array([2.4, 0.5, -1.0])
    for f in _FORCES:
        assert "raised" in _runs(t, f, 10.0, q0, p0, steps=3)
        for max_iters in (1, 2, 3):
            assert "raised" in _runs(t, f, 0.16, q0, p0, steps=3, max_iters=max_iters)
            # cut short, the residual shows the extrapolated start's bits
            pair = _Pair(t, max_iters=max_iters, d=3)
            F_prev = np.linspace(-0.9, 0.9, 3 * t.s).reshape(t.s, 3)
            got = pair.check(f, 0.16, q0, p0, 0.16, F_prev)
            assert got[0] == "raised"
