"""Command-line front end: derive/check/serialize tableaus and reproduce the
benchmark experiments as CSV.

Exit codes are a stable scripting contract: 0 success, 1 usage or parse
error, 2 property-check failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .cscoeff import (
    AlphaMatrix,
    build_expansion,
    build_order2,
    build_order4,
    build_order6,
)
from .errors import (
    DegenerateFitError,
    InvalidGridError,
    StageDivergenceError,
    SymrknError,
    TableauFormatError,
    UnsupportedStageCountError,
)
from .integrator import (
    StepConfig,
    final_state_error,
    fit_loglog_slope,
    integrate,
    linear_drift_slope,
    reference_state,
)
from .problems import harmonic_oscillator, kepler_2d, perturbed_pendulum
from .quadrature import gauss_rule, lobatto_rule
from .tableau import (
    NAMED_METHODS,
    RknTableau,
    check_simplifying_discrete,
    classical_order_bound,
    discretize,
    is_symmetric,
    is_symplectic,
    load_tableau,
    named_tableau,
    save_tableau,
)

DEFAULT_H_LIST = "0.2,0.1,0.05,0.025,0.0125,0.00625"

_PROBLEMS = {
    "pendulum": perturbed_pendulum,
    "harmonic": harmonic_oscillator,
    "kepler": kepler_2d,
}


@dataclass(frozen=True)
class ConvergenceReport:
    """Global error per step size for one method, by decreasing h."""

    method: str
    problem: str
    h: np.ndarray
    error: np.ndarray
    slope: float
    reference: str


@dataclass(frozen=True)
class DriftReport:
    """Energy error per sample time for one method."""

    method: str
    h: float
    t_end: float
    times: np.ndarray
    energy_error: np.ndarray
    drift_slope: float
    max_abs: float


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _csv_field(s: str) -> str:
    if any(ch in s for ch in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


# Rows formatted and written per write call.  Holding every line of a drift
# run (two methods x 75000 rows) at once was most of the run's peak memory.
_EMIT_CHUNK = 4096


def _write_csv(out_path, header, series, trailers) -> None:
    """Write the header, a name,x,y row per point of each (name, xs, ys)
    series of float arrays, then the trailer lines, to out_path or stdout.

    Rows are formatted from the arrays _EMIT_CHUNK at a time, so no more
    than one chunk of text is held at once.
    """
    with (
        open(out_path, "w", encoding="utf-8") if out_path
        else contextlib.nullcontext(sys.stdout)
    ) as fh:
        fh.write(header + "\n")
        for name, xs, ys in series:
            for i in range(0, len(xs), _EMIT_CHUNK):
                part = slice(i, i + _EMIT_CHUNK)
                rows = zip(xs[part].tolist(), ys[part].tolist())
                fh.write("".join(f"{name},{x:.16e},{y:.16e}\n" for x, y in rows))
        fh.write("".join(line + "\n" for line in trailers))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_method(token: str) -> RknTableau:
    """A method flag is a named method or a path to an rkn-tableau/1 file."""
    key = token.strip().lower()
    if key in NAMED_METHODS:
        return named_tableau(key)
    if os.path.exists(token):
        return load_tableau(token)
    raise TableauFormatError(
        f"unknown method {token!r}: not one of {', '.join(NAMED_METHODS)} "
        "and not a tableau file"
    )


def _summary_lines(t: RknTableau):
    sym_ok, sym_dev = is_symmetric(t)
    sp_ok, sp_res = is_symplectic(t)
    ob = classical_order_bound(t)
    note = "" if ob.weights_consistent else " (b_bar != b(1-c); bound not applicable)"
    return sym_ok, [
        f"label: {t.label}",
        f"stages: {t.s}",
        f"symmetric: {'yes' if sym_ok else 'no'} (deviation {sym_dev:.3e})",
        f"symplectic: {'yes' if sp_ok else 'no'} (residual {sp_res:.3e})",
        f"simplifying: xi={ob.xi} eta={ob.eta} zeta={ob.zeta}",
        f"order_bound: {ob.bound}{note}",
    ]


def _build_family(args) -> AlphaMatrix:
    need = {
        "order2": ("alpha",),
        "order4": ("alpha", "beta", "gamma"),
        "order6": ("alpha",),
        "expansion": ("eta", "zeta"),
    }[args.family]
    missing = [f"--{name}" for name in need if getattr(args, name) is None]
    if missing:
        raise ValueError(
            f"family {args.family} requires {', '.join(missing)}"
        )
    if args.family == "order2":
        return build_order2(args.alpha)
    if args.family == "order4":
        return build_order4(args.alpha, args.beta, args.gamma)
    if args.family == "order6":
        return build_order6(args.alpha)
    return build_expansion(args.eta, args.zeta)


def cmd_derive(args) -> int:
    if args.method and args.family:
        return _fail("--family and --method are mutually exclusive", 1)
    if not args.method and not args.family:
        return _fail("one of --family or --method is required", 1)
    try:
        if args.method:
            tab = named_tableau(args.method)
        else:
            m = _build_family(args)
            if args.quadrature is None or args.stages is None:
                return _fail(
                    "--quadrature and --stages are required with --family", 1
                )
            make = gauss_rule if args.quadrature == "gauss" else lobatto_rule
            tab = discretize(m, make(args.stages))
    except (ValueError, UnsupportedStageCountError, SymrknError) as exc:
        return _fail(str(exc), 1)
    _, lines = _summary_lines(tab)
    for line in lines:
        print(line)
    if args.out:
        save_tableau(tab, args.out)
        print(f"wrote: {args.out}")
    return 0


def cmd_check(args) -> int:
    tab = load_tableau(args.file)
    symmetric, lines = _summary_lines(tab)
    for line in lines:
        print(line)
    return 0 if symmetric else 2


def _parse_h_list(text: str):
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("empty --h-list")
    hs = sorted({float(tok) for tok in tokens}, reverse=True)
    if any(h <= 0.0 or not math.isfinite(h) for h in hs):
        raise ValueError("step sizes must be positive and finite")
    return hs


def convergence_report(
    tab: RknTableau, method: str, problem_name: str, t_end: float, h_values,
    reference,
) -> ConvergenceReport:
    """Errors at t_end per h against a fixed reference state; nan on
    divergence.

    The slope is nan when diverged rows leave too few points to fit; a
    degenerate fit with no diverged row raises the fit error.
    """
    prob = _PROBLEMS[problem_name]()
    hs = np.array(h_values, dtype=float)
    errors = np.empty_like(hs)
    for i, h in enumerate(hs.tolist()):
        try:
            errors[i] = final_state_error(tab, prob, t_end, StepConfig(h=h), reference)
        except StageDivergenceError:
            errors[i] = math.nan
    finite = np.isfinite(errors)
    try:
        slope = fit_loglog_slope(hs[finite], errors[finite])
    except DegenerateFitError as exc:
        if finite.all():
            raise DegenerateFitError(f"method {method}: {exc}") from exc
        slope = math.nan
    return ConvergenceReport(
        method, problem_name, hs, errors, slope, "exact-or-order6"
    )


def cmd_converge(args) -> int:
    try:
        hs = _parse_h_list(args.h_list)
        methods = [(tok, _resolve_method(tok)) for tok in args.method]
    except (ValueError, TableauFormatError, SymrknError) as exc:
        return _fail(str(exc), 1)
    prob = _PROBLEMS[args.problem]()
    try:
        reference = reference_state(prob, args.t_end, min(hs) / 20.0)
    except (InvalidGridError, StageDivergenceError, ValueError) as exc:
        return _fail(str(exc), 3 if isinstance(exc, StageDivergenceError) else 1)
    reports = [
        convergence_report(tab, tok, args.problem, args.t_end, hs, reference)
        for tok, tab in methods
    ]
    names = [_csv_field(rep.method) for rep in reports]
    _write_csv(
        args.out,
        "method,h,error",
        [(name, rep.h, rep.error) for name, rep in zip(names, reports)],
        [f"# slope,{name},{_fmt(rep.slope)}" for name, rep in zip(names, reports)],
    )
    failed = not all(np.isfinite(rep.error).all() for rep in reports)
    return 3 if failed else 0


def drift_report(
    tab: RknTableau, method: str, h: float, t_end: float, sample_every: int
) -> DriftReport:
    """Energy-error series on the pendulum run; nan summaries on divergence."""
    prob = perturbed_pendulum()
    traj = integrate(tab, prob, t_end, StepConfig(h=h), sample_every)
    slope = max_abs = math.nan
    if not traj.diverged:
        slope = linear_drift_slope(traj.times, traj.energy_error)
        max_abs = float(np.abs(traj.energy_error).max())
    return DriftReport(
        method, h, t_end, traj.times, traj.energy_error, slope, max_abs
    )


def cmd_drift(args) -> int:
    if args.sample_every < 1:
        return _fail("--sample-every must be >= 1", 1)
    try:
        methods = [(tok, _resolve_method(tok)) for tok in args.method]
        reports = [
            drift_report(tab, tok, args.h, args.t_end, args.sample_every)
            for tok, tab in methods
        ]
    except (ValueError, TableauFormatError, InvalidGridError, SymrknError) as exc:
        return _fail(str(exc), 1)
    names = [_csv_field(rep.method) for rep in reports]
    trailers = []
    for name, rep in zip(names, reports):
        trailers += [
            f"# drift_slope,{name},{_fmt(rep.drift_slope)}",
            f"# max_abs,{name},{_fmt(rep.max_abs)}",
        ]
    _write_csv(
        args.out,
        "method,t,energy_error",
        [(name, rep.times, rep.energy_error) for name, rep in zip(names, reports)],
        trailers,
    )
    failed = any(not math.isfinite(rep.drift_slope) for rep in reports)
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrkn",
        description="Symmetric RKN tableau derivation, checking, and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser("derive", help="derive a tableau and print properties")
    derive.add_argument("--family", choices=("order2", "order4", "order6", "expansion"))
    derive.add_argument("--method", choices=NAMED_METHODS)
    derive.add_argument("--alpha", type=float)
    derive.add_argument("--beta", type=float)
    derive.add_argument("--gamma", type=float)
    derive.add_argument("--eta", type=int)
    derive.add_argument("--zeta", type=int)
    derive.add_argument("--quadrature", choices=("gauss", "lobatto"))
    derive.add_argument("--stages", type=int)
    derive.add_argument("--out")
    derive.set_defaults(func=cmd_derive)

    check = sub.add_parser("check", help="verify properties of a tableau file")
    check.add_argument("file")
    check.set_defaults(func=cmd_check)

    converge = sub.add_parser("converge", help="global-error convergence study CSV")
    converge.add_argument("--method", action="append", required=True)
    converge.add_argument(
        "--problem", choices=tuple(_PROBLEMS), default="pendulum"
    )
    converge.add_argument("--t-end", type=float, default=10.0)
    converge.add_argument("--h-list", default=DEFAULT_H_LIST)
    converge.add_argument("--out")
    converge.set_defaults(func=cmd_converge)

    drift = sub.add_parser("drift", help="energy-drift study CSV")
    drift.add_argument("--method", action="append", required=True)
    drift.add_argument("--problem", choices=("pendulum",), default="pendulum")
    drift.add_argument("--h", type=float, default=0.16)
    drift.add_argument("--t-end", type=float, default=1600.0)
    drift.add_argument("--sample-every", type=int, default=10)
    drift.add_argument("--out")
    drift.set_defaults(func=cmd_drift)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 1 is this tool's
        # usage-error code, and --help's 0 passes through
        return 0 if (exc.code or 0) == 0 else 1
    try:
        return args.func(args)
    except TableauFormatError as exc:
        return _fail(str(exc), 1)
    except StageDivergenceError as exc:
        return _fail(str(exc), 3)
    except (InvalidGridError, DegenerateFitError, ValueError) as exc:
        return _fail(str(exc), 1)
    except OSError as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
