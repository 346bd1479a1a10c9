"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Energy-drift slopes are fitted on per-step samples; coarser sampling strides
alias the pendulum's ~3-time-unit oscillation into a spurious slope.
"""

import math
import time

import numpy as np
from family_params import FAMILY_PARAMS

from symrkn.cscoeff import (
    build_expansion,
    build_order2,
    build_order4,
    build_order6,
    build_symmetric_general,
    check_CN,
    check_DN,
)
from symrkn.integrator import (
    StepConfig,
    _study_reference,
    global_error_study,
    integrate,
    linear_drift_slope,
    reference_tableau,
    reversibility_test,
)
from symrkn.problems import harmonic_oscillator, perturbed_pendulum
from symrkn.quadrature import gauss_rule, lobatto_rule
from symrkn.tableau import (
    RknTableau,
    classical_order_bound,
    discretize,
    is_symmetric,
    is_symplectic,
    named_tableau,
)

S3 = math.sqrt(3.0)
S5 = math.sqrt(5.0)
S15 = math.sqrt(15.0)

ALL_NAMED = tuple(FAMILY_PARAMS)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {name}: {detail}"


def _control() -> RknTableau:
    return RknTableau(
        1, np.array([0.0]), np.array([[0.0]]), np.array([1.0]), np.array([1.0]),
        "control",
    )


def test_c01_convergence_order():
    start = time.perf_counter()
    prob = perturbed_pendulum()
    h_list = [0.2 / 2**k for k in range(6)]
    _, ref = _study_reference(prob, 10.0, h_list)
    slopes = {}
    for name in ("rkn-iiib", "diagsymp", "rkn-a", "rkn-b"):
        study = global_error_study(
            named_tableau(name), prob, 10.0, h_list, reference=ref
        )
        slopes[name] = study.slope
    elapsed = time.perf_counter() - start
    ok = all(3.85 <= s <= 4.15 for s in slopes.values()) and elapsed < 5.0
    detail = (
        ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
        + f", {elapsed:.2f}s"
    )
    _verdict(1, "convergence order in [3.85, 4.15]", ok, detail)


def test_c02_energy_boundedness_vs_drift():
    start = time.perf_counter()
    prob = perturbed_pendulum()
    cfg = StepConfig(h=0.16)
    slope = {}
    peak = {}
    for name in ("diagsymp", "rkn-iiib", "rkn-b"):
        traj = integrate(named_tableau(name), prob, 1600.0, cfg)
        slope[name] = abs(linear_drift_slope(traj.times, traj.energy_error))
        peak[name] = float(np.abs(traj.energy_error).max())
    elapsed = time.perf_counter() - start
    ok = (
        peak["diagsymp"] < 5e-4
        and slope["diagsymp"] < 1e-9
        and slope["rkn-iiib"] >= 100 * slope["diagsymp"]
        and slope["rkn-b"] >= 100 * slope["diagsymp"]
        and elapsed < 2.0
    )
    detail = (
        f"diagsymp max|dH|={peak['diagsymp']:.2e}, |slope|={slope['diagsymp']:.2e}, "
        f"ratios iiib={slope['rkn-iiib'] / slope['diagsymp']:.0f}x, "
        f"rkn-b={slope['rkn-b'] / slope['diagsymp']:.0f}x, {elapsed:.2f}s"
    )
    _verdict(2, "bounded energy vs linear drift over [0, 1600]", ok, detail)


def test_c03_long_run_separation():
    start = time.perf_counter()
    prob = perturbed_pendulum()
    cfg = StepConfig(h=0.16)
    slope = {}
    peak = {}
    for name in ("diagsymp", "rkn-a"):
        traj = integrate(named_tableau(name), prob, 160000.0, cfg)
        slope[name] = abs(linear_drift_slope(traj.times, traj.energy_error))
        peak[name] = float(np.abs(traj.energy_error).max())
    elapsed = time.perf_counter() - start
    ok = (
        slope["rkn-a"] >= 100 * slope["diagsymp"]
        and peak["diagsymp"] < 5e-3
        and elapsed < 60.0
    )
    detail = (
        f"ratio={slope['rkn-a'] / slope['diagsymp']:.0f}x, "
        f"diagsymp max|dH|={peak['diagsymp']:.2e}, {elapsed:.1f}s"
    )
    _verdict(3, "drift separation over 1e6 steps", ok, detail)


def test_c04_tableau_recovery():
    rule = lobatto_rule(3)
    worst = 0.0
    for name, params in FAMILY_PARAMS.items():
        t = named_tableau(name)
        ref = discretize(build_order4(*params), rule)
        dev = max(
            np.abs(t.c - ref.c).max(),
            np.abs(t.a_bar - ref.a_bar).max(),
            np.abs(t.b_bar - ref.b_bar).max(),
            np.abs(t.b - ref.b).max(),
        )
        worst = max(worst, float(dev))
    ok = worst < 1e-14
    _verdict(4, "named tableaus recovered from family parameters", ok,
             f"max deviation {worst:.2e}")


def test_c05_symmetry_transfer():
    rng = np.random.default_rng(42)
    pairs = [
        (0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1),
        (0, 4), (4, 0), (2, 4), (4, 2),
    ]
    rules = [gauss_rule(s) for s in (1, 2, 3, 4)] + [
        lobatto_rule(s) for s in (2, 3, 4)
    ]
    worst = 0.0
    count = 0
    for _ in range(50):
        k = int(rng.integers(2, 7))
        chosen = rng.choice(len(pairs), size=k, replace=False)
        extra = {pairs[i]: float(rng.uniform(-0.6, 0.6)) for i in chosen}
        m = build_symmetric_general(extra)
        for rule in rules:
            sym, dev = is_symmetric(discretize(m, rule), tol=1e-12)
            worst = max(worst, dev)
            count += 1
            if not sym:
                break
    ok = worst < 1e-12
    _verdict(5, "symmetry survives discretization", ok,
             f"{count} tableaus, max deviation {worst:.2e}")


def test_c06_symplecticity_iff_beta_equals_gamma():
    rng = np.random.default_rng(7)
    rule = lobatto_rule(3)
    ok = True
    for i in range(20):
        alpha = float(rng.uniform(-0.5, 0.5))
        beta = float(rng.uniform(-0.5, 0.5))
        gamma = beta if i % 2 == 0 else float(rng.uniform(-0.5, 0.5))
        if i % 2 and abs(beta - gamma) < 1e-3:
            gamma += 0.1
        verdict, _ = is_symplectic(discretize(build_order4(alpha, beta, gamma), rule))
        ok = ok and (verdict == (abs(beta - gamma) < 1e-13))
    _verdict(6, "symplectic iff beta equals gamma", ok, "20 random triples")


def test_c07_order_bounds():
    rng = np.random.default_rng(19)
    table1 = [
        discretize(build_order2(float(rng.uniform(-0.5, 0.5))), gauss_rule(1)),
        discretize(build_order2(float(rng.uniform(-0.5, 0.5))), lobatto_rule(2)),
    ]
    table2 = [
        discretize(
            build_order4(*(float(v) for v in rng.uniform(-0.5, 0.5, 3))),
            gauss_rule(2),
        )
        for _ in range(3)
    ] + [named_tableau("rkn-iiia"), named_tableau("rkn-iiib")]
    table3 = [discretize(build_order6(0.0), gauss_rule(3))]
    bounds1 = [classical_order_bound(t).bound for t in table1]
    bounds2 = [classical_order_bound(t).bound for t in table2]
    bounds3 = [classical_order_bound(t).bound for t in table3]
    ok = (
        all(b >= 2 for b in bounds1)
        and all(b >= 4 for b in bounds2)
        and all(b >= 6 for b in bounds3)
    )
    _verdict(7, "discrete order bounds reach 2/4/6", ok,
             f"table1={bounds1}, table2={bounds2}, table3={bounds3}")


def test_c08_expansion_satisfies_continuous_conditions():
    worst = 0.0
    ok = True
    for eta in (1, 2, 3):
        for zeta in (1, 2, 3):
            m = build_expansion(eta, zeta)
            cn = check_CN(m, eta)
            dn = check_DN(m, zeta)
            ok = ok and cn.ok and dn.ok
            worst = max(worst, cn.max_residual, dn.max_residual)
    ok = ok and worst < 1e-12
    _verdict(8, "expansion meets requested moment levels", ok,
             f"max residual {worst:.2e} over 9 pairs")


def test_c09_reversibility():
    prob = perturbed_pendulum()
    worst_named = 0.0
    for name in ALL_NAMED:
        worst_named = max(
            worst_named, reversibility_test(named_tableau(name), prob, 0.16)
        )
    control_dev = reversibility_test(_control(), prob, 0.16)
    ok = worst_named < 1e-10 and control_dev > 1e-4
    _verdict(9, "reversibility of symmetric methods", ok,
             f"named max {worst_named:.2e}, control {control_dev:.2e}")


def test_c10_quadrature_fidelity():
    expected = [
        (gauss_rule(1), [0.5], [1.0]),
        (gauss_rule(2), [0.5 - S3 / 6, 0.5 + S3 / 6], [0.5, 0.5]),
        (
            gauss_rule(3),
            [0.5 - S15 / 10, 0.5, 0.5 + S15 / 10],
            [5 / 18, 4 / 9, 5 / 18],
        ),
        (lobatto_rule(2), [0.0, 1.0], [0.5, 0.5]),
        (lobatto_rule(3), [0.0, 0.5, 1.0], [1 / 6, 2 / 3, 1 / 6]),
        (
            lobatto_rule(4),
            [0.0, 0.5 - S5 / 10, 0.5 + S5 / 10, 1.0],
            [1 / 12, 5 / 12, 5 / 12, 1 / 12],
        ),
    ]
    worst = 0.0
    for rule, c, b in expected:
        worst = max(
            worst,
            float(np.abs(rule.c - np.array(c)).max()),
            float(np.abs(rule.b - np.array(b)).max()),
        )
    ok = worst < 1e-14
    _verdict(10, "quadrature matches closed forms", ok, f"max deviation {worst:.2e}")


def test_c11_reference_method_accuracy():
    prob = harmonic_oscillator()
    traj = integrate(reference_tableau(), prob, 10.0, StepConfig(h=0.1))
    err = max(
        abs(float(traj.q[-1, 0]) - math.cos(10.0)),
        abs(float(traj.p[-1, 0]) + math.sin(10.0)),
    )
    ok = err < 1e-8
    _verdict(11, "order-6 reference accuracy on harmonic", ok, f"error {err:.2e}")
