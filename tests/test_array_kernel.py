"""The generated array-state kernel against two references.

Array state runs one advance generated from source per tableau and state
size d (kernel._kernel_source): stage, sum and component loops
unrolled, state and stage values as floats.

Each check is one kernel run of n steps, every one sampled, held byte for
byte to the one reference loop the scalar kernel is held to,
kernel_reference._float_advance, with the force called on a (d,) array.

The numpy stage solver (_numpy_step below), the same rule on (stages, d)
arrays, is an independent oracle, stepped from each state the kernel
sampled with the bit reference's forces of the step before.  It is held
to a few ulps of each stage sum, not bit for bit, and must raise the same
exception type.  Every sum of it runs as the rule's do, row by row: left
to right over the nonzero coefficients alone.  BLAS products, in an order
of their own, drift from that in three ways the per-sum bound does not
model.  A sum of -0.0 terms alone comes out 0.0 where the rule's is -0.0,
and a force that tells the zeros apart carries that into the stage values
(test_a_zero_iterate_is_evaluated_again).  A force that is not finite
enters, as 0 * inf, a sum the rule leaves it out of.  And in a sweep, a
product rounds rkn-iiib's stage 1 one ulp off on Kepler at h = 0.3, which
the force carries into stage 0's second component, ~0.014, as 5 ulps of
its own sum.  Its message must be the same for divergence within a few
sweeps.  After many sweeps of a map that does not contract, rounding
differences grow until the residuals are unrelated; and the kernel stops
at a start or an iterate that is not finite, where the oracle sweeps on to
max_iters.  There only the type must agree.  The oracle never checked the
shape of a per-point result (numpy broadcast it), so that check is held
to the bit reference alone.
"""

import dataclasses
import math
import random
import re
from functools import partial

import numpy as np
import pytest
from kernel_reference import _assert_same, _float_advance, _outcome, _plus, _total

from symrkn.errors import StageDivergenceError
from symrkn.integrator import StepConfig, integrate
from symrkn.kernel import _blocks, _Floats, _start_matrix, _stepper
from symrkn.problems import kepler_2d
from symrkn.tableau import RknTableau, named_tableau
from test_scalar_kernel import METHODS, SHAPES, _pattern, _random_tableau, _tableau

_max = np.maximum.reduce

# kernel and oracle agree within this many ulps of each stage sum's scale
ULPS = 4
# and give the same divergence message up to this many sweeps
FEW_SWEEPS = 3


def _plus_rows(head, scale, A, X):
    """head + scale * (A @ X) by row of A, as the rule sums: each row left
    to right over its nonzero entries alone, so with no 0 * inf and no 0.0
    start, and head alone in a row with none.  A is (m, n) or (n,), X
    (n, d), and head broadcasts to (m, d)."""
    A = np.atleast_2d(A)
    head = np.broadcast_to(head, (len(A), X.shape[1]))
    with np.errstate(all="ignore"):
        return np.array([
            _plus(head[r], scale, _total(x * X[n] for n, x in enumerate(row) if x != 0.0))
            for r, row in enumerate(A)
        ])


def _numpy_step(t, stage_tol, iters):
    """step(f, t0, q0, p0, h, P) -> (q1, p1, Q, F): one step of the numpy
    stage solver, from the previous forces P, on (d,) and (s, d) arrays."""
    c, a = t.c, t.a_bar
    blocks = _blocks(a)
    M = _start_matrix(c, a, blocks)

    def step(f, t0, q0, p0, h, P):
        conv = stage_tol * (1.0 + float(_max(np.abs(q0), axis=None)))
        h2 = h * h
        times = t0 + c * h
        free = _plus_rows(q0[None, :], h, c[:, None], p0[None, :])
        Q = np.zeros_like(free)
        F = np.zeros_like(free)
        done = []
        for block in blocks:
            # the bases sum the stages solved before the block
            base = _plus_rows(free[block], h2, a[np.ix_(block, done)], F[done])
            own = a[np.ix_(block, block)]
            if not own.any():
                # one stage with a zero a_ii: explicit
                Q[block] = base
            else:
                Q[block] = _plus_rows(base, h2, M[block], P)
                w = h2 * own
                diff = math.inf
                for _ in range(iters):
                    F[block] = [f(times[i], Q[i]) for i in block]
                    # the block's own columns in ascending order, as the rule
                    # sums them: each row over its nonzero entries alone
                    Qn = np.array([
                        base[r] + _total(w[r, n] * F[j] for n, j in enumerate(block) if own[r, n])
                        for r in range(len(block))
                    ])
                    diff = float(_max(np.abs(Qn - Q[block]), axis=None))
                    Q[block] = Qn
                    if diff < conv:
                        break
                else:
                    what = (f"stages did not contract in {iters} sweeps" if len(block) > 1
                            else f"stage {block[0]} did not contract")
                    raise StageDivergenceError(
                        f"{what} (last increment {diff:.3e})", residual=diff
                    )
            F[block] = [f(times[i], Q[i]) for i in block]
            done = sorted(done + block)
        q1 = _plus_rows(q0 + h * p0, h2, t.b_bar, F)[0]
        return q1, _plus_rows(p0, h, t.b, F)[0], Q, F

    return step


def _values(pairs):
    return [np.frombuffer(data).reshape(shape) for shape, data in pairs]


def _assert_near_oracle(t, got, oracle, forces, same_message, f, t0, q0, p0, h):
    """got, the kernel's outcome, against the numpy solver stepped from
    each state the kernel sampled, with the bit reference's forces of the
    step before (the kernel's own bits) as the previous forces."""
    qs, ps = _values(got[-1])
    raised = got[0] == "raised"
    time, q, p, P = t0, np.array(q0), np.array(p0), np.zeros((t.s, len(q0)))
    for k in range(len(qs) + raised):
        if k:
            time, q, p, P = t0 + k * h, qs[k - 1], ps[k - 1], np.array(forces[k - 1])
        try:
            with np.errstate(all="ignore"):
                q1, p1, Q, F = oracle(f, time, q, p, h, P)
            if not (np.isfinite(q1).all() and np.isfinite(p1).all()):
                raise StageDivergenceError("sample is not finite")
        except (StageDivergenceError, ValueError) as exc:
            assert raised and k == len(qs), exc
            assert type(exc) is got[1]
            if same_message and "not finite" not in got[2]:
                assert str(exc) == got[2]
            return
        assert k < len(qs), "the kernel raised where the oracle did not"
        # each entry's scale: the sum of the magnitudes of the terms it adds up
        with np.errstate(all="ignore"):
            aF = abs(h * h) * np.abs(F)
            scales = (
                np.abs(q) + abs(h) * np.abs(p) + np.abs(t.b_bar) @ aF,
                np.abs(p) + abs(h) * (np.abs(t.b) @ np.abs(F)),
                np.abs(q) + np.abs(h * t.c)[:, None] * np.abs(p) + np.abs(t.a_bar) @ aF,
            )
        pairs = [(qs[k], q1, scales[0]), (ps[k], p1, scales[1])]
        if not raised and k == len(qs) - 1:
            pairs.append((_values(got[2:3])[0], Q, scales[2]))
        for x, y, scale in pairs:
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
        self.reference = _float_advance(t, stage_tol, max_iters)
        self.oracle = _numpy_step(t, stage_tol, max_iters)
        self.same_message = max_iters <= FEW_SWEEPS

    def kernel(self, f):
        """(kind, advance) for f, as integrate would choose them."""
        return _stepper(self.t, f, *self.run)

    def check(self, f, t0, q0, p0, h, steps=1):
        """One kernel run of steps steps, every one sampled, against both
        references."""
        forces = []
        got = _assert_same(self.t, f, t0, q0, p0, h, steps, *self.run[1:], forces=forces)
        _assert_near_oracle(self.t, got, self.oracle, forces, self.same_message,
                            f, t0, q0, p0, h)
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


def _stiff_late(t, q):
    # gentle for the first steps of size 1e-5, then too stiff to contract
    return -np.sin(q) * (1.0 if t < 2.5e-5 else 1e12)


def _runs(t, f, h, q0, p0, steps=12, stage_tol=1e-14, max_iters=100):
    """One run from t0 = 0.0 of the kernel and both references: the first
    step from its bases, each later one from the previous step's stage
    forces; one kernel serves the whole run, as in integrate."""
    return _Pair(t, stage_tol, max_iters, d=len(q0)).check(f, 0.0, q0, p0, h, steps)


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
            # steps of 1e-5 contract in one or two sweeps, which leave the
            # extrapolated start's bits in the result
            for max_iters in (1, 2):
                _runs(t, f, 1e-5, q0, p0, steps=4, max_iters=max_iters)


@pytest.mark.parametrize("name", METHODS)
def test_named_methods_on_kepler_have_the_bits_of_the_stage_solver(name):
    t = _tableau(name)
    prob = kepler_2d(0.5)
    for h in (0.05, -0.05, 0.3):
        _runs(t, prob.force, h, prob.q0, prob.p0, steps=20)
    # and wrapped, which turns the inline template off
    _runs(t, lambda t, q: prob.force(t, q), 0.05, prob.q0, prob.p0, steps=10)


def _sign_of_zero(t, q):
    # tells the two zeros apart: 0.0 at -0.0, -5.0 at 0.0, per component
    return np.where(np.signbit(q), 0.0, -5.0)


@pytest.mark.parametrize("name", METHODS)
def test_a_zero_iterate_is_evaluated_again(name):
    # h^2 underflows to 0.0, so from q0 = p0 = -0.0 a stage of a block
    # solved after stage 0's has the base -0.0 + 0.0 * (a_i0 F_0) = -0.0,
    # F_0 = -5.0, and starts at -0.0 + h^2 (0.0) = 0.0: its first iterate,
    # the base, is an increment of 0.0 that changes the force, -5.0 to 0.0
    t = _tableau(name)
    zeros = np.array([-0.0, -0.0])
    got = _runs(t, _sign_of_zero, 1e-170, zeros, zeros, steps=1)
    if name in ("rkn-iiia", "diagsymp"):
        assert np.signbit(_values(got[2:3])[0]).any()
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


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("counter", [_PointCounter, _StagesCounter], ids=["point", "stages"])
def test_no_more_force_calls_than_the_stage_solver(name, counter):
    # the bit reference evaluates every iterate, the kernel reuses the force
    # of an iterate that did not move
    t = _tableau(name)
    prob = kepler_2d(0.5)
    h = 0.05
    pair = _Pair(t)
    counted, outcomes = [], []
    for run in ("kernel", "reference"):
        force = counter()
        kind, kernel = pair.kernel(force)
        args = (0.0, kind.state(prob.q0), kind.state(prob.p0), h, 40)
        if run == "kernel":
            outcomes.append(_outcome(partial(kernel, *args, 1)))
        else:
            outcomes.append(_outcome(pair.reference, force, *args))
        counted.append(force.evaluations)
    assert outcomes[0] == outcomes[1]
    assert counted[0] <= counted[1]


def test_a_large_state_has_the_bits_of_the_stage_solver():
    rng = random.Random(64)
    t = _random_tableau(rng, 3, "full")
    q0, p0 = _state(rng, 64)
    for t in (t, _random_tableau(rng, 3, "explicit-last")):
        for f in _FORCES:
            got = _runs(t, f, 0.2, q0, p0, steps=4)
            assert got[0] != "raised" and _values(got[-1])[0].shape == (4, 64)


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
        r"<symrkn kernel s=3 d=3 \(0,1,2\) [0-9a-f]{8}>",
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


def test_repeated_nodes_start_every_step_at_its_bases():
    # no polynomial passes through repeated nodes, so the start matrix is
    # zero and every step of a run starts as a single step does
    t = RknTableau(2, np.array([0.5, 0.5]), np.array([[0.0625, 0.0625], [0.0625, 0.0625]]),
                   np.array([0.25, 0.25]), np.array([0.5, 0.5]), "twin")
    q0, p0 = _state(random.Random(9), 2)
    for blocks in ([[0, 1]], [[0], [1]]):
        assert not _start_matrix(t.c, t.a_bar, blocks).any()
    pair = _Pair(t)
    for f in _FORCES:
        qs, ps = _values(pair.check(f, 0.0, q0, p0, 0.2, 6)[-1])
        kind, kernel = pair.kernel(f)
        q, p = kind.state(q0), kind.state(p0)
        for k in range(6):
            q, p, _ = kernel(k * 0.2, q, p, 0.2)
            assert np.array(q).tobytes() == qs[k].tobytes()
            assert np.array(p).tobytes() == ps[k].tobytes()


@pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 1)])
def test_wrong_shape_from_the_force_raises(shape):
    t = named_tableau("rkn-a")
    q0, p0 = _state(random.Random(4), 2)
    got = _assert_same(t, lambda t, q: np.zeros(shape), 0.0, tuple(q0), tuple(p0), 0.2)
    message = f"force returned shape {shape}, expected (2,)"
    assert got[:5] == ("raised", ValueError, message, None, None)


def test_a_force_that_returns_a_list_has_the_bits_of_its_array():
    # a result of the right shape that is no ndarray passes the shape check
    prob, t = kepler_2d(0.5), named_tableau("rkn-a")
    runs = [
        integrate(t, dataclasses.replace(prob, force=f), 1.0, StepConfig(h=0.1))
        for f in (lambda t, q: prob.force(t, q).tolist(), lambda t, q: prob.force(t, q))
    ]
    for field in ("times", "q", "p"):
        assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes(), field


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
    t = _tableau(name)
    q0, p0 = np.array([0.4, -0.3, 0.1]), np.array([2.4, 0.5, -1.0])
    for f in _FORCES:
        assert _runs(t, f, 10.0, q0, p0, steps=3)[0] == "raised"
        for max_iters in (1, 2, 3):
            assert _runs(t, f, 0.16, q0, p0, steps=3, max_iters=max_iters)[0] == "raised"
    for max_iters in (2, 3):
        # cut short after steps that converged, the residual shows the
        # extrapolated start's bits
        got = _runs(t, _stiff_late, 1e-5, q0, p0, steps=6, max_iters=max_iters)
        assert got[0] == "raised" and got[4] >= 3


def test_array_state_takes_any_value_of_its_size():
    # a float64 ndarray of the kind's shape is taken by tolist alone,
    # anything else through np.asarray and reshape: always size floats
    state = _Floats(2).state
    cases = [
        (np.array([0.3, -0.0]), (0.3, -0.0)),
        ([0.3, -0.0], (0.3, -0.0)),
        ((0.3, -0.0), (0.3, -0.0)),
        (np.array([[0.3], [-0.0]]), (0.3, -0.0)),
        (np.array([0.3, -0.0]).astype(">f8"), (0.3, -0.0)),
        (np.array([0.3, 0.0, -0.0])[::2], (0.3, -0.0)),
        (np.array([1, 2]), (1.0, 2.0)),
        ([1, 2], (1.0, 2.0)),
        (np.array([0.3, -0.5], dtype=np.float32), (float(np.float32(0.3)), -0.5)),
        (np.array([math.nan, -math.inf]), (math.nan, -math.inf)),
    ]
    for x, want in cases:
        got = state(x)
        assert type(got) is tuple and [type(v) for v in got] == [float, float]
        assert np.array(got).tobytes() == np.array(want).tobytes()
    for x in (np.zeros(3), np.zeros(1), [0.0], np.zeros((2, 2)), np.float64(0.3), 0.3):
        with pytest.raises(ValueError):
            state(x)
