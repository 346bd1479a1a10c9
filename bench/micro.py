"""Microbenchmarks of single library calls at fixed inputs, and the host
speed reading that every timed operation is normalised by.

Every traced run makes the microbenchmarks, whatever its workload, so the
numbers can be compared across workloads and against the hand timings in
ROADMAP.md.  Each is the median over batches of the mean time per call.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from workloads import NAMED

# Scalar paths start from the pendulum's initial state at the drift step
# size; array paths from the circular Kepler orbit at the largest step of
# the convergence study.  diagsymp is exactly lower triangular (sequential
# sweeps), rkn-a is not (Jacobi sweeps).
PATH_METHODS = {"seq": "diagsymp", "jacobi": "rkn-a"}
PENDULUM_H = 0.16
KEPLER_H = 0.2


# Host speed at which host-normalised times equal raw ones: a typical
# host_calib_us on the shared 2-core Xeon VM the benchmark was written on.
REFERENCE_CALIB_US = 700.0


def normalised(seconds, calib_us):
    """A time measured while host_calib_us() read calib_us, rescaled to the
    reference host speed."""
    return seconds * REFERENCE_CALIB_US / calib_us


def _calib_python(n=5000):
    acc = 0
    for i in range(n):
        acc += (i * i) % 7
    return acc


def _calib_numpy(n=200, a=np.arange(9.0).reshape(3, 3), b=np.arange(3.0)):
    for _ in range(n):
        c = a @ b + b * 2.0
        float(np.abs(c).max())


def host_calib_us():
    """Host speed: the geometric mean of the best of three runs of two
    fixed kernels, a pure-Python loop and a loop of small numpy operations,
    in microseconds.  Neither touches symrkn, so only the host moves it."""
    best = []
    for kernel in (_calib_python, _calib_numpy):
        runs = []
        for _ in range(3):
            t0 = perf_counter()
            kernel()
            runs.append(perf_counter() - t0)
        best.append(min(runs))
    return math.sqrt(best[0] * best[1]) * 1e6


def per_call_us(fn, budget_s=0.12, target_batch_s=0.004):
    """Median over batches of the mean microseconds per call of fn()."""
    fn()
    t0 = perf_counter()
    fn()
    once = max(perf_counter() - t0, 1e-7)
    batch = max(1, int(target_batch_s / once))
    samples = []
    deadline = perf_counter() + budget_s
    while len(samples) < 5 or perf_counter() < deadline:
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        samples.append((perf_counter() - t0) / batch * 1e6)
    return statistics.median(samples)


def run(sr):
    """{metric name: value} for every microbenchmarked layer."""
    tb, cs, qd, ig = sr.tableau, sr.cscoeff, sr.quadrature, sr.integrator
    out = {}
    problems = {
        "scalar": (sr.problems.perturbed_pendulum(), PENDULUM_H),
        "array": (sr.problems.kepler_2d(), KEPLER_H),
    }
    for structure, method in PATH_METHODS.items():
        tab = tb.named_tableau(method)
        for kind, (prob, h) in problems.items():
            cfg = ig.StepConfig(h=h)
            args = (tab, prob.force, prob.t0, prob.q0, prob.p0, cfg)
            path = f"{structure}_{kind}"
            out[f"integrator.solve_stages_us.{path}"] = per_call_us(lambda: ig.solve_stages(*args))
            out[f"integrator.step_us.{path}"] = per_call_us(lambda: ig.step(*args))

    rules = [(qd.gauss_rule, s) for s in range(1, 11)] + [(qd.lobatto_rule, s) for s in range(2, 11)]
    out["quadrature.rule_us"] = statistics.fmean(
        per_call_us(lambda: make(s), budget_s=0.03) for make, s in rules)
    out["quadrature.gauss10_us"] = per_call_us(lambda: qd.gauss_rule(10))

    builders = (
        lambda: cs.build_order2(0.1),
        lambda: cs.build_order4(-0.1, 0.02, 0.03),
        lambda: cs.build_order6(0.0),
        lambda: cs.build_expansion(6, 6),
    )
    out["cscoeff.build_us"] = statistics.fmean(per_call_us(b, budget_s=0.05) for b in builders)
    m66 = cs.build_expansion(6, 6)
    out["cscoeff.check_us"] = per_call_us(lambda: (cs.check_CN(m66, 6), cs.check_DN(m66, 6)))

    g10 = qd.gauss_rule(10)
    out["tableau.discretize_us"] = per_call_us(lambda: tb.discretize(m66, g10))
    out["tableau.named_tableau_us"] = statistics.fmean(
        per_call_us(lambda: tb.named_tableau(n), budget_s=0.05) for n in NAMED)
    tab66 = tb.discretize(m66, g10)
    out["tableau.verify_us"] = per_call_us(lambda: (
        tb.is_symmetric(tab66), tb.is_symplectic(tab66), tb.classical_order_bound(tab66)))
    out["tableau.interchange_us"] = per_call_us(lambda: tb.loads_tableau(tb.dumps_tableau(tab66)))
    return out
