"""The three benchmark workloads and their output checks.

Each workload is a closed loop with one caller: `op()` runs one operation
and returns only when it is done, and the next starts after it has been
checked.  `units_per_op` is the fixed amount of work in one operation
(integration steps, or tableaus derived and checked) that the time per
operation is divided by.

The integration workloads keep the paper's fixed initial data and step
sizes, so their outputs are identical on every seed and a digest of the CSV
can be compared across runs.  The seed only draws derive-check's family
parameters.
"""

from __future__ import annotations

import hashlib
import math
import random

# Acceptance-gate bounds the output checks reuse (tests/test_acceptance.py).
DIAGSYMP_MAX_ABS = 5e-4      # c02: diagsymp max |dH| on the pendulum
DRIFT_SEPARATION = 100.0     # c02/c03: |slope| ratio, drifting vs symmetric-symplectic
SLOPE_RANGE = (3.85, 4.15)   # c01: fitted convergence order

NAMED = ("rkn-iiia", "rkn-iiib", "diagsymp", "rkn-a", "rkn-b")


def _trailers(lines, tag):
    """{method: float} for the '# <tag>,<method>,<value>' trailer lines."""
    out = {}
    prefix = f"# {tag},"
    for line in lines:
        if line.startswith(prefix):
            method, value = line[len(prefix):].rsplit(",", 1)
            out[method] = float(value)
    return out


class Op:
    """Outcome of one operation, filled by the workload's check.

    `attempted` is what the operation counts for in the failure fraction:
    1 for a CLI invocation, one per tableau for a derivation sweep.
    """

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed = 0
        self.digest = ""
        self.rows = 0
        self.bytes = 0
        self.errors = []

    def fail(self, message, count=1):
        self.failed = min(self.attempted, self.failed + count)
        if len(self.errors) < 5:
            self.errors.append(message)


class _CliWorkload:
    """A `symrkn` CLI invocation that writes its CSV to a scratch file."""

    unit = "step"
    attempts_per_op = 1

    def __init__(self, sr, scratch):
        self.sr = sr
        self.out = scratch / f"{self.name}.csv"

    def op(self):
        self.out.unlink(missing_ok=True)
        return self.sr.cli.main(self.argv())

    def check(self, rc) -> Op:
        op = Op(self.attempts_per_op)
        try:
            data = self.out.read_bytes()
        except OSError as exc:
            op.fail(f"no output: {exc}")
            return op
        op.digest = hashlib.sha256(data).hexdigest()
        op.bytes = len(data)
        lines = data.decode("utf-8").splitlines()
        op.rows = len(lines)
        self.out.unlink()
        if rc != 0:
            op.fail(f"exit code {rc}")
        else:
            self.check_lines(lines, op)
        return op


class PendulumDrift(_CliWorkload):
    """`symrkn drift` on the scalar pendulum, every step sampled (c02/c03).

    diagsymp takes the sequential stage path and rkn-a the Jacobi path.  A
    span of 12000 (75000 steps per method) is the shortest round span on
    which rkn-a's fitted drift is at least 100x diagsymp's: at 8000 the
    bounded energy error of diagsymp still fits a slope only 51x smaller.
    """

    name = "pendulum-drift"
    METHODS = ("diagsymp", "rkn-a")
    H = 0.16

    def __init__(self, sr, scratch, t_end=12000.0, full_checks=True):
        super().__init__(sr, scratch)
        self.t_end = t_end
        self.full_checks = full_checks
        self.units_per_op = len(self.METHODS) * round(t_end / self.H)

    def prepare(self):
        for m in self.METHODS:
            self.sr.tableau.named_tableau(m)
        self.sr.problems.perturbed_pendulum()

    def argv(self):
        argv = ["drift", "--problem", "pendulum", "--h", repr(self.H),
                "--t-end", repr(self.t_end), "--sample-every", "1",
                "--out", str(self.out)]
        for m in self.METHODS:
            argv += ["--method", m]
        return argv

    def check_lines(self, lines, op):
        slope = _trailers(lines, "drift_slope")
        peak = _trailers(lines, "max_abs")
        if set(slope) != set(self.METHODS) or set(peak) != set(self.METHODS):
            op.fail("missing drift trailers")
        elif not all(math.isfinite(v) for v in (*slope.values(), *peak.values())):
            op.fail("non-finite drift trailer")
        elif self.full_checks:
            if not peak["diagsymp"] < DIAGSYMP_MAX_ABS:
                op.fail(f"diagsymp max_abs {peak['diagsymp']!r} >= {DIAGSYMP_MAX_ABS}")
            if not abs(slope["rkn-a"]) >= DRIFT_SEPARATION * abs(slope["diagsymp"]):
                op.fail(f"drift separation {slope['rkn-a']!r} vs {slope['diagsymp']!r}")


class KeplerConverge(_CliWorkload):
    """`symrkn converge --problem kepler` over all five named methods.

    Array state; the order-6 Gauss-3 reference run at min(h)/20 is most of
    the work.  Only final states are consumed.
    """

    name = "kepler-converge"
    H_LIST = (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625)

    def __init__(self, sr, scratch, t_end=5.0, full_checks=True):
        super().__init__(sr, scratch)
        self.t_end = t_end
        self.full_checks = full_checks
        runs = sum(round(t_end / h) for h in self.H_LIST)
        # reference_state's documented grid: the nominal min(h)/20 shrunk
        # to the nearest divisor of the span
        ref = max(1, math.ceil(t_end / (min(self.H_LIST) / 20.0) - 1e-9))
        self.units_per_op = len(NAMED) * runs + ref

    def prepare(self):
        for m in NAMED:
            self.sr.tableau.named_tableau(m)
        self.sr.problems.kepler_2d()

    def argv(self):
        argv = ["converge", "--problem", "kepler", "--t-end", repr(self.t_end),
                "--h-list", ",".join(repr(h) for h in self.H_LIST),
                "--out", str(self.out)]
        for m in NAMED:
            argv += ["--method", m]
        return argv

    def check_lines(self, lines, op):
        errors = [line.rsplit(",", 1)[1] for line in lines[1:] if not line.startswith("#")]
        slopes = _trailers(lines, "slope")
        lo, hi = SLOPE_RANGE
        bad = {m: v for m, v in slopes.items() if not lo <= v <= hi}
        if len(errors) != len(NAMED) * len(self.H_LIST):
            op.fail(f"{len(errors)} error rows")
        elif not all(math.isfinite(float(e)) for e in errors):
            op.fail("nan error row")
        elif set(slopes) != set(NAMED):
            op.fail("missing slope trailers")
        elif self.full_checks and bad:
            op.fail(f"slopes outside [{lo}, {hi}]: {bad}")


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class DeriveCheck:
    """Derivation sweep: families x quadrature rules, plus the named methods.

    Families: 3 order-2, 4 order-4 (two with beta = gamma) and 3 order-6
    draws from the seed, and build_expansion(eta, zeta) for eta, zeta in
    {2, 4, 6}.  Rules: Gauss s = 1..10 and Lobatto s = 2..10.  Each
    (family, rule) pair and each named method is one operation.
    """

    name = "derive-check"
    unit = "tableau"
    GRID = (2, 4, 6)

    def __init__(self, sr, seed):
        self.sr = sr
        rng = random.Random(seed)
        fams = [("order2", (rng.uniform(-0.5, 0.5),)) for _ in range(3)]
        for i in range(4):
            alpha, beta = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
            gamma = beta if i % 2 == 0 else beta + rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.5)
            fams.append(("order4", (alpha, beta, gamma)))
        fams += [("order6", (rng.uniform(-0.5, 0.5),)) for _ in range(3)]
        fams += [("expansion", (eta, zeta)) for eta in self.GRID for zeta in self.GRID]
        self.families = fams
        self.units_per_op = self.attempts_per_op = len(fams) * 19 + len(NAMED)

    def prepare(self):
        self.sr.tableau.named_tableau(NAMED[0])

    def op(self):
        sr = self.sr
        op = Op(self.attempts_per_op)
        digest = hashlib.sha256()
        rules = [sr.quadrature.gauss_rule(s) for s in range(1, 11)]
        rules += [sr.quadrature.lobatto_rule(s) for s in range(2, 11)]
        for kind, params in self.families:
            m = getattr(sr.cscoeff, f"build_{kind}")(*params)
            for rule in rules:
                try:
                    record = self._check_pair(kind, params, m, rule, op)
                except (sr.errors.SymrknError, ValueError, ArithmeticError) as exc:
                    record = repr(exc)
                    op.fail(f"{kind}{params} @ {rule.kind}-{rule.s}: {exc!r}")
                digest.update(record.encode())
        for name in NAMED:
            try:
                record = self._check_named(name, op)
            except (sr.errors.SymrknError, ValueError, ArithmeticError) as exc:
                record = repr(exc)
                op.fail(f"{name}: {exc!r}")
            digest.update(record.encode())
        op.digest = digest.hexdigest()
        return op

    def check(self, op):
        return op

    def _roundtrip(self, tab):
        text = self.sr.tableau.dumps_tableau(tab)
        back = self.sr.tableau.loads_tableau(text)
        same = (back.s == tab.s and back.label == tab.label
                and all(_same_bits(getattr(back, f), getattr(tab, f))
                        for f in ("c", "a_bar", "b_bar", "b")))
        return text, same

    def _check_pair(self, kind, params, m, rule, op) -> str:
        sr = self.sr
        where = f"{kind}{params} @ {rule.kind}-{rule.s}"
        tab = sr.tableau.discretize(m, rule)
        sym_ok, sym_dev = sr.tableau.is_symmetric(tab, tol=1e-12)
        sp_ok, sp_res = sr.tableau.is_symplectic(tab)
        bound = sr.tableau.classical_order_bound(tab)
        text, same = self._roundtrip(tab)
        eta, zeta = params if kind == "expansion" else (3, 3)
        cn = sr.cscoeff.check_CN(m, eta)
        dn = sr.cscoeff.check_DN(m, zeta)
        bad = []
        if not sym_ok:
            bad.append(f"asymmetric ({sym_dev:.2e})")
        if not same:
            bad.append("interchange round-trip not bitwise")
        if kind == "order4":
            # beta and gamma multiply P_2, which is constant on the nodes of
            # rules with s <= 2; there they fold into the (0, 0) entry and
            # every draw is symplectic
            _, beta, gamma = params
            expected = beta == gamma or rule.s <= 2
            if sp_ok != expected:
                bad.append(f"symplectic={sp_ok} with beta-gamma={beta - gamma!r}")
        if kind == "expansion" and not (cn.ok and dn.ok):
            bad.append(f"CN/DN residuals {cn.max_residual:.2e}/{dn.max_residual:.2e}")
        if bad:
            op.fail(f"{where}: {'; '.join(bad)}")
        return f"{text}|{sym_dev!r}|{sp_ok}|{sp_res!r}|{bound}|{cn.max_residual!r}|{dn.max_residual!r}\n"

    def _check_named(self, name, op) -> str:
        sr = self.sr
        tab = sr.tableau.named_tableau(name)
        sym_ok, sym_dev = sr.tableau.is_symmetric(tab, tol=1e-12)
        sp_ok, sp_res = sr.tableau.is_symplectic(tab)
        text, same = self._roundtrip(tab)
        # of the five, only diagsymp has beta = gamma
        if not (sym_ok and same and sp_ok == (name == "diagsymp")):
            op.fail(f"{name}: symmetric={sym_ok} roundtrip={same} symplectic={sp_ok}")
        return f"{text}|{sym_dev!r}|{sp_ok}|{sp_res!r}\n"


def make(name, sr, scratch, seed):
    if name == PendulumDrift.name:
        return PendulumDrift(sr, scratch)
    if name == KeplerConverge.name:
        return KeplerConverge(sr, scratch)
    if name == DeriveCheck.name:
        return DeriveCheck(sr, seed)
    raise SystemExit(f"unknown workload {name!r}")


def probes(sr, scratch):
    """Short runs of both CLI workloads.  A traced run makes them after its
    workload, so layers that workload never calls are still measured."""
    return [PendulumDrift(sr, scratch, t_end=160.0, full_checks=False),
            KeplerConverge(sr, scratch, t_end=1.0, full_checks=False)]
