"""The stage-solver kernels: one advance function per tableau, state kind and
force form, generated from source (_kernel_source), cached (_kernel),
picked for a run by _stepper and shared by every call on them.

The state kind (_Scalar, or _Floats of d components) owns everything that
differs between scalar and array state, in the source and at the kernel's
edges, so no other code tests for it; a run on (1,) arrays has the bits of
the same run on floats.  Only floats and the library's force templates
(problems._TEMPLATES) enter the source, never a label or other text from a
tableau file, and no other module compiles source.  Generating costs about
a millisecond for s = 3 with scalar or d = 2 state; the source grows as
s^2 d, to ~13 ms at s = 3, d = 32 and ~250 ms at s = 10, d = 100.
"""

from __future__ import annotations

import linecache
import threading
import zlib
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import StageDivergenceError
from .problems import _TEMPLATES

#: Most generated source, in characters, whose kernels are held at once
#: (see _kernel); 1.0 MB is one kernel at s = 10, d = 100.
_KERNEL_SOURCE_LIMIT = 8 * 2**20
_kernels = {}  # key: (advance, length of its source), least recent first
_kernels_lock = threading.Lock()


class _Scalar:
    """Scalar state: a value is one float, under its own name.

    size is the component count, sink names the array('d') method that
    takes a sample, tag goes into the file name.  names, pack and unpack
    write a value's components in the source, call the lines of
    y = f(time, v), and rows picks what energy is called on.
    state puts a user's q or p, or a sample row, in the kernel's form,
    value takes the kernel's form back to the user's, and floats gives
    its components as a tuple.
    """

    size, sink, tag = 1, "append", ""
    value = staticmethod(float)
    floats = staticmethod(lambda x: (x,))

    @staticmethod
    def state(x):
        # any one-element value; one of another size is a ValueError.  A
        # float or np.float64 skips np.reshape, which costs ~2 us a call
        if type(x) is float or type(x) is np.float64:
            return float(x)
        return float(np.reshape(x, ()))

    def names(self, name):
        return [name]

    def pack(self, names):
        return names[0]

    def unpack(self, name):
        return []

    def call(self, ind, time, v, y):
        return [f"{ind}{y[0]} = f({time}, {v[0]})"]

    def rows(self, flat, arr):
        return flat


class _Floats(NamedTuple):
    """Array state of size components: a value is the floats name_0, ...,
    packed as a tuple, and a (size,) array to the user and to the force,
    whose result must have that shape."""

    size: int
    sink, value, floats = "extend", staticmethod(np.array), staticmethod(tuple)
    tag = property(lambda self: f" d={self.size}")

    def state(self, x):
        # any value of size floats; one of another size is a ValueError.  A
        # float64 ndarray of shape (size,) skips np.asarray and reshape,
        # which cost ~0.3 us a call
        if type(x) is _NDARRAY and x.dtype is _FLOAT64 and x.ndim == 1 and len(x) == self.size:
            return tuple(x.tolist())
        return tuple(np.asarray(x, dtype=float).reshape(self.size).tolist())

    def names(self, name):
        return [f"{name}_{k}" for k in range(self.size)]

    def pack(self, names):
        return f"({', '.join(names)},)"

    def unpack(self, name):
        return [f"    {self.pack(self.names(name))} = {name}"]

    def call(self, ind, time, v, y):
        return [
            f"{ind}r = f({time}, array({self.pack(v)}))",
            f"{ind}if type(r) is not ndarray or r.shape != ({self.size},):",
            f'{ind}    r = checked(r, ({self.size},), "force")',
            f"{ind}{self.pack(y)} = r.tolist()",
        ]

    def rows(self, flat, arr):
        return arr


_SCALAR = _Scalar()
_NDARRAY, _FLOAT64 = np.ndarray, np.dtype(np.float64)


def _kind(q0):
    """The state kind of values like q0: scalar for a 0-d value, else floats."""
    return _SCALAR if np.ndim(q0) == 0 else _Floats(len(q0))


def _literal(x):
    """Source text of the finite float x, with its exact bits.

    repr round-trips every finite float, and a parenthesised negative
    literal compiles to one signed constant, so -0.0 stays -0.0.
    """
    r = repr(x)
    return f"({r})" if r[0] == "-" else r


def _kernel_source(c, a, b_bar, b, M, blocks, kind, form):
    """Source of advance(stage_tol, iters, f, t0, q0, p0, h, steps=1,
    every=0, qs=None, ps=None).

    steps steps of size h from q0, p0 at time t0, for state of the kind
    kind: scalar (q0, p0 and each stage value a float) or d floats (q0 and
    p0 tuples of d floats, each stage value d floats Q{i}_{k}).
    Step k starts at t0 + (k - 1) h, the first at t0 itself, for steps >= 1;
    each solve sweeps at most iters times, for iters >= 1.
    q and p after every every-th step and the last go to the sinks qs and
    ps (every 0: no samples); the caller has the times of those steps.  A
    sample that is not finite is not taken and raises StageDivergenceError
    with no residual.  Returns (q1, p1, Q) of the last step: states in the
    input form, stage values as a list.
    Only the "point" form keeps the step's time t, t0 + k h after step k,
    for its stage times T{i} = t + hc{i}; a template's force takes no
    time, and its unsafe fallback gets t0 + (k - 1) h + hc{i}.

    The stages are solved block by block, in the order of blocks, lists of
    stage indices (see _blocks), all by one rule.  Stage i's base B_i is
    q0 + h c_i p0 + h^2 (a_ij F_j summed over the stages solved before its
    block).  A block with no nonzero a_bar entry of its own, by the exact
    pattern of _blocks, is one explicit stage: Q_i = B_i, evaluated once.
    Any other block sweeps Q_i = B_i + (w_ij F_j + ...) over its own
    stages j, with w_ij = h^2 a_ij taken once per run, from the one start
    Q_i = B_i + h^2 (row i of the start matrix M times P): the previous
    step's forces P{i}, extrapolated, which are 0.0 before the first step.
    h c_i is taken once per run.

    Every sum, of a base, a start, a sweep or the update, is written by one
    rule, component by component: the terms whose coefficient is not a zero,
    by the exact test of _blocks (0.0 and -0.0 are both zeros), added left
    to right in ascending index.  A sum with no such term is not written,
    nor is h c_i p0 where c_i is a zero, nor w_ij where a_ij is.  So the
    exact zeros of quadrature on Lobatto nodes (c_1 = 0, b_bar_s = 0 and
    diagsymp's zero a_bar entries) cost no float work, a force that is not
    finite never enters a sum through a zero coefficient, and the rule is
    the same for both state kinds, so a (1,) run has the bits of the scalar
    run.

    One loop, solve, sweeps one block, and each sweep starts by evaluating
    every stage it solves.  Each sweep sets every stage component's
    increment e = new - old; a solve converges when -conv < e < conv for
    every component and diverges when some e is not finite (a sum of 0.0 * e
    that is not 0.0, the one finiteness test, as for a sample), before the
    force sees the iterate: a failed solve evaluates no force it discards.
    Either failure, divergence or no convergence in iters sweeps, is one
    line, raise _diverged(message, e...).  For the "point" form a block's
    start, or an explicit stage's value, that is not finite ends the step
    too, with no residual, before f sees it; so f never gets inf or NaN
    from a stage value, and a math-based f raises no ValueError on one.  An
    inline template gets no such test.  Kepler's takes a point that is not
    finite to the force itself, which is numpy's.  The pendulum's force is
    bounded, so only a state or step near the float range, where
    q0 + h c_i p0 overflows, gives it an infinite stage value; its math.sin
    then raises ValueError, which a kernel of a template with no unsafe
    test, calling no user code, ends as a divergence with no residual.
    A divergence, one for a non-finite sample, and one the force raises
    without a step index, gets the 1-based index of its step.

    A stage whose last increment is 0.0 in every component, and none of
    whose components is a zero (0.0 == -0.0, but f may tell them apart),
    has the bits of the iterate before it, so its converged solve keeps
    F_i (settle, in every solve).

    When _first_same_as_last holds for the tableau, stage 0 of a step may
    take the previous step's stage s - 1 as it is.  One guard before stage
    0's sweep holds when, in every component, the start Q0 equals the
    previous Q{s-1} and is not a zero, for the "point" form the stage time
    T0 equals the previous T{s-1} (each Q{s-1} and T{s-1} is 0.0 before the
    first step, which so never passes), and B0 + w0_0 * P{s-1} equals
    Q{s-1}.  It then sets F0 = P{s-1}, with no force call and no sweep, and
    keeps the start Q0.  The outcome has the bits of the full solve.
    P{s-1} is the force at the point (T{s-1}, Q{s-1}): evaluated there by
    its settle, or kept from an iterate with the same bits.  So, f being a
    function of (t, q) alone, the first sweep would evaluate F0 = P{s-1}
    at the same point: Q0 and Q{s-1} are equal and not zeros, so they have
    the same bits, and so have T0 and T{s-1} (equal times are not
    differently signed zeros, as T{s-1} = t + h with h nonzero is never
    -0.0), and a template's force, always one of problems.py's, takes no
    time.  The sweep's n = B0 + (w0_0 * F0) would then be the guard's
    Q{s-1}, which is Q0, so every increment e0 = n - Q0 would be 0.0, the
    solve would converge in that sweep, and settle would keep F0.

    form is "point" or a force template of problems.py with kind.size
    components.  One helper, call, writes every force evaluation, of one
    stage point: f at the time T{i} (kind.call) for "point"; else the
    template's text, or f at the time t0 + (k - 1) h + hc{i} where its
    unsafe test holds at the point.
    """
    s = len(c)
    vec, tup = kind.names, kind.pack
    # bases, values, forces, previous forces and increments by component
    B, Q, F, P, E = ([vec(f"{x}{i}") for i in range(s)] for x in "BQFPe")
    q0, p0 = vec("q0"), vec("p0")
    S, K = range(s), range(kind.size)
    # the blocks with a nonzero a_bar entry among their own stages, as _blocks reads it
    iterated = [x for x in blocks if any(a[i][j] != 0 for i in x for j in x)]
    # the stages each stage of an iterated block reads in its sweep
    own = {i: [j for j in x if a[i][j] != 0.0] for x in iterated for i in x}
    # the last stage, which stage 0 of the next step may take over, or None
    last = s - 1 if _first_same_as_last(c, a, b_bar, blocks) else None

    def terms(coeffs, names):
        # x * v for each coefficient x that is not a zero, by _blocks' exact test
        return [f"{_literal(x)} * {v}" for x, v in zip(coeffs, names) if x != 0.0]

    def plus(head, scale, terms):
        # head + scale (the terms, left to right); head alone with no term
        return f"{head} + {scale}({' + '.join(terms)})" if terms else head

    def col(rows, k):
        return [row[k] for row in rows]

    template = None if form == "point" else form

    def all_of(test, names):
        return " and ".join(test.format(x) for x in names)

    def call(ind, i):
        # F_i = f(t_i, Q_i) by component, the one force evaluation
        if template is None:
            return kind.call(ind, f"T{i}", Q[i], F[i])
        lets = [ind + x.format(*Q[i], r="R") for x in template.lets]
        inline = [
            f"{ind}{y} = {x.format(*Q[i], r='R')}"
            for y, x in zip(F[i], template.values)
        ]
        if template.unsafe is None:
            return lets + inline
        return [
            *lets,
            f"{ind}if {template.unsafe.format(*Q[i], r='R')}:",
            *kind.call(ind + "    ", f"t0 + (k - 1) * h + hc{i}", Q[i], F[i]),
            f"{ind}else:",
            *("    " + x for x in inline),
        ]

    def settle(ind, i):
        # F_i = f(t_i, Q_i) unless the last increments left Q_i unmoved
        unmoved = f"{all_of('{} == 0.0', E[i])} and {all_of('{} != 0.0', Q[i])}"
        return [f"{ind}if not ({unmoved}):", *call(ind + "    ", i)]

    def not_finite(names):
        # 0.0 * x is NaN exactly when x is not finite, and a sum of zeros is a zero
        return " + ".join(f"0.0 * {x}" for x in names) + " != 0.0"

    def finite(block):
        # for "point", a start that is not finite ends the step before f sees it
        if template is not None:
            return []
        what = f"stage {block[0]} start is" if len(block) == 1 else "stage starts are"
        return [f"if {not_finite([x for i in block for x in Q[i]])}:",
                f'    raise StageDivergenceError("{what} not finite")']

    def solve(ind, block):
        # Q_i = B_i + (w_ij F_j + ...) over the block, swept from the start
        # until converged, else raise; then F_i of every stage that moved
        if len(block) > 1:
            diverging = '"stage iterates are not finite"'
            stuck = 'f"stages did not contract in {iters} sweeps"'
        else:
            diverging = f'"stage {block[0]} iterate is not finite"'
            stuck = f'"stage {block[0]} did not contract"'
        es = [x for i in block for x in E[i]]
        sweep = [
            "for _ in range(iters):",
            *(x for i in block for x in call("    ", i)),
            *(x for i in block for k in K for x in (
                f"    n = {B[i][k]} + ({' + '.join(f'w{i}_{j} * {F[j][k]}' for j in own[i])})",
                f"    {E[i][k]} = n - {Q[i][k]}", f"    {Q[i][k]} = n")),
            f"    if {all_of('lo < {} < conv', es)}:",
            "        break",
            f"    if {not_finite(es)}:",
            f"        raise _diverged({diverging}, {', '.join(es)})",
            "else:",
            f"    raise _diverged({stuck}, {', '.join(es)})",
            *(x for i in block for x in settle("", i)),
        ]
        if last is not None and block == [0]:
            # the previous step's stage last, taken over when the first
            # sweep would return it unmoved (see above)
            same = [
                *(f"{x} == {y}" for x, y in zip(Q[0], Q[last])),
                *(f"{x} != 0.0" for x in Q[0]),
                *([f"T0 == T{last}"] if template is None else []),
                *(f"{x} + (w0_0 * {y}) == {z}" for x, y, z in zip(B[0], P[last], Q[last])),
            ]
            sweep = [
                f"if {' and '.join(same)}:",
                *(f"    {x} = {y}" for x, y in zip(F[0], P[last])),
                "else:",
                *("    " + x for x in sweep),
            ]
        # the base and the previous step's forces P, extrapolated
        start = [f"{Q[i][k]} = {plus(B[i][k], 'h2 * ', terms(M[i], col(P, k)))}"
                 for i in block for k in K]
        return [ind + x for x in start + finite(block) + sweep]

    out = [
        "def advance(stage_tol, iters, f, t0, q0, p0, h,",
        "            steps=1, every=0, qs=None, ps=None):",
    ]
    emit = out.append
    out += kind.unpack("q0") + kind.unpack("p0")
    emit("    h2 = h * h")
    # h c_i where a base, a stage time or an unsafe fallback reads it
    out += [f"    hc{i} = h * {_literal(c[i])}" for i in range(s)
            if c[i] != 0.0 or template is None or template.unsafe is not None]
    out += [f"    w{i}_{j} = h2 * {_literal(a[i][j])}" for i in own for j in own[i]]
    emit(f"    {' = '.join(x for i in S for x in P[i])} = 0.0")
    if last is not None:
        emit(f"    {' = '.join(Q[last] + ([f'T{last}'] if template is None else []))} = 0.0")
    emit("    mark = every if every < steps else steps")
    if template is None:
        emit("    t = t0")
    emit("    for k in range(1, steps + 1):")
    body = len(out)
    # m = the largest |q0_k|; a NaN q0_k fails the first sweep whatever conv is
    emit(f"        m = abs({q0[0]})")
    for x in q0[1:]:
        out += [f"        x = abs({x})", "        if x > m:", "            m = x"]
    emit("        conv = stage_tol * (1.0 + m)")
    emit("        lo = -conv")
    if template is None:
        # T{last} stays the previous step's until stage 0's guard has read it
        out += [f"        T{i} = t + hc{i}" for i in S if i != last]
    done = []  # the stages solved so far, ascending
    for block in blocks:
        if template is None and block == [last]:
            emit(f"        T{last} = t + hc{last}")
        for i in block:
            for k in K:
                head = q0[k] if c[i] == 0.0 else f"{q0[k]} + hc{i} * {p0[k]}"
                reads = terms([a[i][j] for j in done], [F[j][k] for j in done])
                emit(f"        {B[i][k]} = {plus(head, 'h2 * ', reads)}")
        if block in iterated:
            out += solve("        ", block)
        else:
            (i,) = block
            out += [f"        {Q[i][k]} = {B[i][k]}" for k in K]
            out += ["        " + x for x in finite(block)]
            out += call("        ", i)
        done = sorted(done + block)
    # the update: every q before any p, since each q reads the old p; a
    # p whose sum has no term is left as it is
    update = [(x, plus(f"{x} + h * {v}", "h2 * ", terms(b_bar, col(F, k))))
              for k, (x, v) in enumerate(zip(q0, p0))]
    update += [(v, plus(v, "h * ", terms(b, col(F, k)))) for k, v in enumerate(p0)]
    out += [f"        {x} = {y}" for x, y in update if y != x]
    if template is None:
        emit("        t = t0 + k * h")
    out += [f"        {P[i][k]} = {F[i][k]}" for i in S for k in K]
    emit("        if k == mark:")
    emit(f"            if {not_finite(q0 + p0)}:")
    emit('                raise StageDivergenceError("sample is not finite")')
    emit(f"            qs({tup(q0)})")
    emit(f"            ps({tup(p0)})")
    emit("            mark += every")
    emit("            if mark > steps:")
    emit("                mark = steps")
    # a divergence, the solver's or one the force raises itself, is
    # stamped with the step it ended; where no user code runs, so is
    # math's ValueError on an infinite stage value
    out[body:] = [
        "        try:",
        *("    " + x for x in out[body:]),
        "        except StageDivergenceError as exc:",
        "            if exc.step_index is None:",
        "                exc.step_index = k",
        "            raise",
        *([] if template is None or template.unsafe is not None else [
            "        except ValueError as exc:",
            "            raise StageDivergenceError(",
            '                "a stage value is outside the force\'s domain", step_index=k',
            "            ) from exc",
        ]),
    ]
    emit("    return (")
    emit(f"        {tup(q0)},")
    emit(f"        {tup(p0)},")
    emit(f"        [{', '.join(tup(x) for x in Q)}],")
    emit("    )")
    return "\n".join(out) + "\n"


def _first_same_as_last(c, a, b_bar, blocks):
    """Whether stage 0 of a step solves the fixed-point map that stage
    s - 1 of the step before has just solved, the "first same as last"
    property (Dormand and Prince 1980; Hairer, Lubich and Wanner, Geometric
    Numerical Integration, VIII.6), by exact tests of the tableau's floats,
    as _blocks reads a_bar: c_0 == 0.0 and c_{s-1} == 1.0; stages 0 and
    s - 1 are each an iterated block of one stage, with a_00 == a_{s-1,s-1};
    row 0 of a_bar is zero off the diagonal; and row s - 1 equals b_bar on
    the stages solved before it, where b_bar is 0.0 on every other stage.

    Then, under the one rule for sums (see _kernel_source), stage 0's base
    is q1 itself, and stage s - 1's base q0 + (h 1.0) p0 + h^2 (a_{s-1,j}
    F_j ...) is, term for term, the sum q1 of the update, q0 + h p0 + h^2
    (b_bar_j F_j ...): equal nonzero coefficients on the same stages, in
    the same order, as h 1.0 is h.  So B_{s-1} of one step has the bits of
    B0 of the next, and w0_0 is w{s-1}_{s-1}.  So the guard _kernel_source
    writes for such a tableau mostly holds, though it tests all it needs
    itself.
    """
    last = len(c) - 1
    if not (c[0] == 0.0 and c[last] == 1.0 and [0] in blocks and [last] in blocks):
        return False
    before = {j for x in blocks[:blocks.index([last])] for j in x}
    return (
        a[0][0] != 0.0 and a[0][0] == a[last][last]
        and all(a[0][j] == 0.0 for j in range(1, last + 1))
        and all(a[last][j] == b_bar[j] if j in before else b_bar[j] == 0.0
                for j in range(last + 1))
    )


def _diverged(what, *increments):
    """The StageDivergenceError of a failed stage solve: the residual is the
    largest |increment| of the last sweep, a NaN kept, as numpy's max does."""
    diff = float(np.max(np.abs(increments)))
    return StageDivergenceError(f"{what} (last increment {diff:.3e})", residual=diff)


def _checked(r, shape, name):
    """r as a float array of the given shape, else ValueError."""
    r = np.asarray(r, dtype=float)
    if r.shape != shape:
        raise ValueError(f"{name} returned shape {r.shape}, expected {shape}")
    return r


def _generate_kernel(key):
    """Compile the advance for one _stepper cache key, with its stage
    blocks, each solved by one text, and its start matrix."""
    c_bytes, a_bytes, b_bar_bytes, b_bytes, kind, form = key
    template = None if form == "point" else form
    c = np.frombuffer(c_bytes)
    s = len(c)
    a_bar = np.frombuffer(a_bytes).reshape(s, s)
    blocks = _blocks(a_bar)
    source = _kernel_source(
        c.tolist(), a_bar.tolist(), np.frombuffer(b_bar_bytes).tolist(),
        np.frombuffer(b_bytes).tolist(), _start_matrix(c, a_bar, blocks).tolist(),
        blocks, kind, form,
    )
    filename = "<symrkn kernel s={}{} {}{} {:08x}>".format(
        s, kind.tag,
        "".join(f"({','.join(map(str, block))})" for block in blocks),
        "" if template is None else f" {template.name}",
        zlib.crc32(b"".join(key[:4])),
    )
    namespace = {
        "array": np.array,
        "ndarray": np.ndarray,
        "checked": _checked,
        "_diverged": _diverged,
        "StageDivergenceError": StageDivergenceError,
        **dict(() if template is None else template.names),
    }
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


def _blocks(a_bar):
    """The stage blocks of a_bar, in the order the kernel solves them.

    Stage i reads stage j when a_bar[i, j] != 0, exactly: no tolerance,
    and -0.0 reads nothing.  The blocks are the strongly connected
    components of that pattern, each after every block it reads, ties to
    the lowest stage.  So a lower-triangular a_bar gives one block per
    stage in index order, and a full one gives one block of all stages.
    """
    s = len(a_bar)
    reach = (a_bar != 0) | np.eye(s, dtype=bool)
    for k in range(s):
        reach |= np.outer(reach[:, k], reach[k])
    cycle = reach & reach.T
    blocks, done = [], np.zeros(s, dtype=bool)
    while not done.all():
        # the lowest stage that reads only solved stages and its own block
        i = next(i for i in range(s) if not done[i] and (done | cycle[i] | ~reach[i]).all())
        blocks.append(np.flatnonzero(cycle[i]).tolist())
        done |= cycle[i]
    return blocks


def _start_matrix(c, a_bar, blocks):
    """Matrix taking the previous step's stage forces to this step's start.

    E[i, j] = l_j(1 + c_i), the Lagrange basis on the nodes c evaluated at
    the next step's nodes, extrapolates stage forces by one step (Hairer,
    Lubich and Wanner, Geometric Numerical Integration, VIII.6.1).  The
    start matrix is A E, A being a_bar kept only within each stage block
    (see _blocks), as a stage's base holds the blocks before.  It is the
    (s, s) zero matrix when the nodes are not pairwise distinct, or so
    close that the matrix overflows: every step of those tableaus starts
    at its bases, as a first step does.  So a start matrix is always
    finite.
    """
    s = len(c)
    if len(set(c.tolist())) < s:
        return np.zeros((s, s))
    x = 1.0 + c
    label = np.array([n for i in range(s) for n, block in enumerate(blocks) if i in block])
    E = np.ones((s, s))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j in range(s):
            for m in range(s):
                if m != j:
                    E[:, j] *= (x - c[m]) / (c[j] - c[m])
        M = np.where(label[:, None] == label, a_bar, 0.0) @ E
    return M if np.all(np.isfinite(M)) else np.zeros((s, s))


def _stepper(t, f, q0, stage_tol, max_iters):
    """(kind, advance) for a run of the force f from states of q0's kind.

    The one place that decides a run: the state kind (_kind of q0) and
    the force form: the template written inline when problems.py has one
    for f's exact type with the kind's component count, else "point", f
    called once per point (a subclass or any other force keeps its
    calls).  advance is the kernel with stage_tol, max_iters and f bound
    (see _kernel_source), on states in kind.state's form; max_iters and
    steps must be at least 1, as StepConfig and integrate ensure.

    Kernels are cached by the exact bytes of c, a_bar, b_bar and b, with
    the kind and the force form ("point" or the template itself), so 0.0
    and -0.0 get different kernels; stage_tol and max_iters are arguments
    and stay out of the key.  The solver structure, the stage blocks of
    a_bar (_blocks), and the start matrix follow from those bytes, so
    _generate_kernel derives both with the kernel, and every call on a
    tableau, kind and force form shares one kernel.  integrate passes its
    whole run; step, solve_stages and reversibility_test pass one step,
    which starts at its bases (the previous forces are 0.0), as a run's
    first does.
    """
    kind = _kind(q0)
    form = _TEMPLATES.get(type(f))
    if form is None or len(form.values) != kind.size:
        form = "point"
    key = (
        t.c.tobytes(), t.a_bar.tobytes(), t.b_bar.tobytes(), t.b.tobytes(),
        kind, form,
    )
    return kind, partial(_kernel(key), stage_tol, max_iters, f)

