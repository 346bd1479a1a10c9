"""The generated scalar kernel against the reference loop, bit for bit.

Scalar state runs one advance generated from source per tableau, with the
stage and sum loops unrolled and the coefficients as float literals.  Each
check (kernel_reference._assert_same) is one kernel run of n steps, every
one sampled, held byte for byte to the one reference loop,
kernel_reference._float_advance, stepped n times with d = 1 and the force
called on a float.  Random tableaus of each shape in SHAPES reach
explicit, one-stage and larger blocks, in several orders.
"""

import linecache
import math
import random
import traceback
from functools import partial

import numpy as np
import pytest
from kernel_reference import _assert_same, _float_advance, _outcome

from symrkn.errors import StageDivergenceError
from symrkn.integrator import StepConfig, reference_tableau, step
from symrkn.kernel import _SCALAR, _blocks, _kernels, _start_matrix, _stepper
from symrkn.problems import perturbed_pendulum
from symrkn.tableau import RknTableau, named_tableau


METHODS = ("rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b", "order6-gauss3")


def _tableau(name):
    return reference_tableau() if name == "order6-gauss3" else named_tableau(name)


def _pendulum(t, q):
    return -math.sin(q) - 0.4 * math.cos(2.0 * q)


def _driven(t, q):
    return -math.sin(q) + 0.3 * math.cos(1.7 * t)


# the built-in pendulum force, which the kernel writes inline
_INLINE = perturbed_pendulum().force


def _stiff_late(t, q):
    # gentle for the first steps of size 1e-5, then too stiff to contract
    return -math.sin(q) * (1.0 if t < 2.5e-5 else 1e12)


def _runs(t, f, h, steps=40, q0=0.3, p0=2.5, stage_tol=1e-14, max_iters=100):
    """One run from t0 = 0.0 of the kernel and the reference: the first
    step from its bases, each later one from the previous step's forces."""
    return _assert_same(t, f, 0.0, q0, p0, h, steps, stage_tol, max_iters)


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize(
    "force, state",
    [(_pendulum, float), (_driven, float), (_INLINE, float), (_INLINE, np.atleast_1d)],
    ids=["autonomous", "driven", "inline", "inline-d=1"],
)
def test_named_methods_have_the_bits_of_the_generic_loops(name, force, state):
    t = _tableau(name)
    for h in (0.16, -0.16, 0.9):
        _runs(t, force, h, q0=state(0.3), p0=state(2.5))


# shapes of a random a_bar; a shape's index offsets its test's seed
SHAPES = ("full", "lower", "upper", "explicit-first", "explicit-last", "sandwich")


def _pattern(shape, s):
    """The nonzero pattern of an a_bar of the shape with s stages, and the
    stage blocks the kernel solves it in, in order."""
    ones, stages = np.ones((s, s)), list(range(s))
    if shape == "full":
        return ones, [stages]
    if shape == "lower":
        return np.tril(ones), [[i] for i in stages]
    if shape == "upper":
        return np.triu(ones), [[i] for i in reversed(stages)]
    if shape == "explicit-first":
        # stage 0 reads nothing and every other stage reads every stage
        ones[0] = 0.0
        return ones, [x for x in ([0], stages[1:]) if x]
    if shape == "sandwich":
        # stage 0 reads nothing, the middle stages read each other and stage
        # 0, and nothing reads the last, which reads every other stage
        ones[0] = 0.0
        ones[:, -1] = 0.0
        return ones, [x for x in ([0], stages[1:-1], stages[1:][-1:]) if x]
    # nothing reads the last stage, which reads every other stage
    ones[:, -1] = 0.0
    return ones, [x for x in (stages[:-1], [s - 1]) if x]


def _random_tableau(rng, s, shape, nodes=None):
    c = sorted(rng.uniform(0.0, 1.0) for _ in range(s)) if nodes is None else nodes
    a_bar = np.array([[rng.uniform(-0.3, 0.3) / s for _ in range(s)] for _ in range(s)])
    a_bar *= _pattern(shape, s)[0]
    b_bar = [rng.uniform(-1.0, 1.0) for _ in range(s)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(s)]
    return RknTableau(s, np.array(c), a_bar, np.array(b_bar), np.array(b), "random")


@pytest.mark.parametrize("s", range(1, 11))
@pytest.mark.parametrize("shape", SHAPES)
def test_random_tableaus_have_the_bits_of_the_generic_loops(s, shape):
    rng = random.Random(1000 * s + SHAPES.index(shape))
    for _ in range(3):
        t = _random_tableau(rng, s, shape)
        assert _blocks(t.a_bar) == _pattern(shape, s)[1]
        _runs(t, _driven, 0.2, steps=12)
        # steps of 1e-5 contract in one or two sweeps, which leave the
        # extrapolated start's bits in the result
        for max_iters in (1, 2):
            _runs(t, _driven, 1e-5, steps=4, max_iters=max_iters)


def test_repeated_nodes_and_zero_diagonals():
    rng = random.Random(7)
    for s in (2, 3, 5):
        nodes = [0.5] * s
        t = _random_tableau(rng, s, "lower", nodes=nodes)
        assert not _start_matrix(t.c, t.a_bar, _blocks(t.a_bar)).any()
        _runs(t, _driven, 0.2, steps=10)
        a_bar = np.array(t.a_bar)
        np.fill_diagonal(a_bar, 0.0)
        a_bar[0, 0] = 0.01
        for c in (nodes, sorted(rng.uniform(0.0, 1.0) for _ in range(s))):
            z = RknTableau(s, np.array(c), a_bar, t.b_bar, t.b, "zero-diagonal")
            assert _blocks(z.a_bar) == [[i] for i in range(s)]
            _runs(z, _driven, 0.2, steps=10)


def test_a_stage_with_a_signed_zero_diagonal_is_explicit():
    # -0.0 reads nothing (kernel._blocks), so with either zero as a_11 the
    # generator writes stage 1 explicit: no h^2 a_11 and no sweep of its own
    for zero in (0.0, -0.0):
        a_bar = np.tril(np.full((3, 3), 0.1))
        a_bar[1, 1] = zero
        t = RknTableau(3, np.array([0.0, 0.5, 1.0]), a_bar, np.array([0.2, 0.2, 0.1]),
                       np.array([0.25, 0.5, 0.25]), "explicit middle")
        assert _blocks(t.a_bar) == [[0], [1], [2]]
        kernel = _stepper(t, _driven, 0.3, 1e-14, 100)[1].func
        source = "".join(linecache.getlines(kernel.__code__.co_filename))
        assert "w0_0 = " in source and "w2_2 = " in source
        assert "w1_1" not in source and "stage 1 iterate" not in source
        assert "stage 1 did not" not in source
        _runs(t, _driven, 0.16, steps=10)


def test_signed_zero_coefficients_get_their_own_kernels():
    pos = RknTableau(1, np.array([0.0]), np.array([[0.0]]), np.array([0.5]),
                     np.array([1.0]), "zero")
    neg = RknTableau(1, np.array([-0.0]), np.array([[-0.0]]), np.array([0.5]),
                     np.array([1.0]), "negative zero")
    kernels = set()
    outcomes = set()
    for t in (pos, neg):
        kernels.add(_stepper(t, _pendulum, -0.0, 1e-14, 100)[1].func)
        # the stage time t0 + c h is the only place the sign of c shows
        outcomes.add(_assert_same(t, lambda t, q: math.copysign(1.0, t), -0.0, -0.0, 1.0, 0.5))
    assert len(kernels) == 2
    assert len(outcomes) == 2


def _sign_of_zero(t, q):
    # tells the two zeros apart: 0.0 at -0.0, -5.0 at 0.0
    return 0.0 if math.copysign(1.0, q) < 0.0 else -5.0


@pytest.mark.parametrize("name", METHODS)
def test_a_zero_iterate_is_evaluated_again(name):
    # h^2 underflows to 0.0, so from q0 = p0 = -0.0 a stage of a block
    # solved after stage 0's has the base -0.0 + 0.0 * (a_i0 F_0) = -0.0,
    # F_0 = -5.0, and starts at -0.0 + h^2 (0.0) = 0.0: its first iterate,
    # the base, is an increment of 0.0 that changes the force, -5.0 to 0.0
    t = _tableau(name)
    got = _assert_same(t, _sign_of_zero, 0.0, -0.0, -0.0, 1e-170)
    if name in ("rkn-iiia", "diagsymp"):
        assert np.signbit(np.frombuffer(got[2][1])).any()
    _runs(t, _sign_of_zero, 0.16, steps=5, q0=-0.0, p0=-0.0)


def _counting(f):
    """(force, calls): f, with the time of every call appended to calls."""
    calls = []

    def counted(t, q):
        calls.append(t)
        return f(t, q)

    return counted, calls


@pytest.mark.parametrize("name", METHODS)
def test_no_more_force_calls_than_the_generic_loops(name):
    # the reference evaluates every iterate, the kernel reuses the force
    # of an iterate that did not move
    t = _tableau(name)
    h = 0.16
    f, kernel_calls = _counting(_pendulum)
    g, loop_calls = _counting(_pendulum)
    _, kernel = _stepper(t, f, 0.3, 1e-14, 100)
    got = _outcome(partial(kernel, 0.0, 0.3, 2.5, h, 100, 1))
    want = _outcome(_float_advance(t, 1e-14, 100), g, 0.0, 0.3, 2.5, h, 100)
    assert got == want
    assert len(kernel_calls) <= len(loop_calls)


def test_stage_0_calls_a_driven_force_where_the_step_times_differ():
    # diagsymp's stage 0 takes over the previous step's last stage only at
    # the same time: step k starts at t0 + (k - 1) h, and the last stage of
    # step k - 1 is at (t0 + (k - 2) h) + h, an ulp off at some steps
    t = named_tableau("diagsymp")
    h, steps = 0.16, 200
    f, calls = _counting(_driven)
    _, kernel = _stepper(t, f, 0.3, 1e-14, 100)
    kernel(0.0, 0.3, 2.5, h, steps)
    start = [0.0 + k * h for k in range(steps)]  # start[k]: step k + 1
    differ = [k for k in range(1, steps) if start[k] != start[k - 1] + h * 1.0]
    # no other stage is at such a step's start, so stage 0 called f there
    called = set(calls)
    assert differ and all(start[k] in called for k in differ)
    _runs(t, _driven, h, steps=steps)


@pytest.mark.parametrize(
    "q0, p0",
    [(0.735447898644388, 0.18269453944276748), (2.9275810379167737, 1.2904552133329084)],
)
def test_stage_0_takes_the_last_stage_over_only_where_it_would_not_move(q0, p0):
    # on these runs some start Q0 equals the previous step's Q2, but the
    # first sweep's iterate B0 + w0_0 F0 from it is not Q2: stage 0 that
    # took Q2 over there would lose the bits of the reference
    _runs(named_tableau("diagsymp"), _pendulum, 0.7, steps=200, q0=q0, p0=p0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["diagsymp", "rkn-iiib", "rkn-a"])
def test_non_finite_forces_and_states(bad, name):
    t = named_tableau(name)
    cases = [
        (lambda t, q: bad, 0.3, 2.5),
        (lambda t, q: bad if t > 0.5 else _pendulum(t, q), 0.3, 2.5),
        (lambda t, q: bad if q > 0.7 else _pendulum(t, q), 0.3, 2.5),
        (_driven, bad, 2.5),
        (_driven, 0.3, bad),
    ]
    for f, q0, p0 in cases:
        _runs(t, f, 0.16, steps=8, q0=q0, p0=p0)


@pytest.mark.parametrize("name", ["diagsymp", "rkn-a"])
def test_divergence_has_the_message_and_residual_of_the_generic_loops(name):
    t = named_tableau(name)
    assert _runs(t, _pendulum, 10.0, steps=3)[0] == "raised"
    for max_iters in (1, 2, 3):
        assert _runs(t, _pendulum, 0.16, steps=3, max_iters=max_iters)[0] == "raised"
    for max_iters in (2, 3):
        # cut short after steps that converged, the residual shows the
        # extrapolated start's bits
        got = _runs(t, _stiff_late, 1e-5, steps=6, max_iters=max_iters)
        assert got[0] == "raised" and got[4] >= 3


def test_one_kernel_per_tableau_and_tolerances_are_arguments():
    t = named_tableau("rkn-a")
    _, a = _stepper(t, _pendulum, 0.0, 1e-14, 100)
    _, b = _stepper(t, _driven, 0.0, 1e-10, 7)
    _, c = _stepper(named_tableau("rkn-b"), _pendulum, 0.0, 1e-14, 100)
    assert a.func is b.func
    assert c.func is not a.func
    # the force is bound with the tolerances; scalar state has one force form
    assert a.args == (1e-14, 100, _pendulum) and b.args == (1e-10, 7, _driven)


def _cache_tableau(x):
    """A Jacobi tableau whose kernel source is as long for every x whose
    repr is as long: its nodes repeat, so its start matrix is zero, where
    its entries would otherwise vary in length with x."""
    half = np.array([0.5, 0.5])
    return RknTableau(2, half, np.full((2, 2), x), half, half, "cache")


def _cached_kernel(t):
    return _stepper(t, _pendulum, 0.0, 1e-14, 100)[1].func


def _held():
    return [advance for advance, _ in _kernels.values()]


def test_cache_is_bounded_and_evicted_sources_leave_linecache(monkeypatch):
    a, b, c, d, e = map(_cache_tableau, (0.11, 0.12, 0.13, 0.14, 0.15))
    first = _cached_kernel(a)
    name = first.__code__.co_filename
    assert name.startswith("<symrkn kernel s=2 (0,1) ")
    assert linecache.getline(name, 1).startswith("def advance(")
    size = dict(_kernels.values())[first]
    assert size == len("".join(linecache.getlines(name)))
    # room for three kernels: the older ones leave as b and c come in
    monkeypatch.setattr("symrkn.kernel._KERNEL_SOURCE_LIMIT", 3 * size)
    kernels = [first, _cached_kernel(b), _cached_kernel(c)]
    assert _held() == kernels
    assert sum(size for _, size in _kernels.values()) == 3 * size
    # a hit makes a the most recent, so d evicts b, the least recent
    assert _cached_kernel(a) is first
    kernels.append(_cached_kernel(d))
    assert _held() == [kernels[2], first, kernels[3]]
    assert linecache.getline(kernels[1].__code__.co_filename, 1) == ""
    for kernel in _held():
        assert linecache.getline(kernel.__code__.co_filename, 1).startswith("def advance(")
    # a kernel larger than the whole bound is held alone, and runs
    monkeypatch.setattr("symrkn.kernel._KERNEL_SOURCE_LIMIT", size // 2)
    alone = _cached_kernel(e)
    assert _held() == [alone]
    assert all(linecache.getline(k.__code__.co_filename, 1) == "" for k in kernels)
    assert _cached_kernel(e) is alone
    q1, p1 = step(e, lambda t, q: -q, 0.0, 1.0, 0.0, StepConfig(h=0.1))
    assert math.isfinite(q1) and math.isfinite(p1) and q1 < 1.0


def test_divergence_traceback_shows_the_kernel_source():
    prob = perturbed_pendulum()
    with pytest.raises(StageDivergenceError) as info:
        step(named_tableau("rkn-iiib"), prob.force, 0.0, 0.0, 2.5, StepConfig(h=10.0))
    text = "".join(traceback.format_exception(info.value))
    # step runs the kernel integrate runs
    assert "<symrkn kernel s=3 (0,1)(2) " in text
    # every failed solve raises the error the one helper builds
    assert 'raise _diverged(f"stages did not contract in {iters} sweeps", e0, e1)' in text


def test_scalar_state_takes_any_one_element_value():
    # a float or np.float64 is taken as it is, anything else reshaped
    state = _SCALAR.state
    for x in (0.3, np.float64(0.3), np.array(0.3), np.array([0.3]), [0.3], np.array([[0.3]])):
        assert type(state(x)) is float and state(x) == 0.3
    assert type(state(3)) is float and state(3) == 3.0
    assert math.copysign(1.0, state(-0.0)) == math.copysign(1.0, state(np.float64(-0.0))) == -1.0
    for x in (np.array([0.3, 0.4]), [], np.zeros((2, 1))):
        with pytest.raises(ValueError):
            state(x)
