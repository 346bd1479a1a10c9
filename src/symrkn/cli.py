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
    StageDivergenceError,
    SymrknError,
    TableauFormatError,
)
from .integrator import (
    StepConfig,
    _study_reference,
    global_error_study,
    integrate,
    linear_drift_slope,
)
from .problems import harmonic_oscillator, kepler_2d, perturbed_pendulum
from .quadrature import gauss_rule, lobatto_rule
from .tableau import (
    NAMED_METHODS,
    RknTableau,
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
    than one chunk of text is held at once: one % over the row format
    repeated once per row (%.16e writes what the f-string :.16e does),
    with any % in name escaped.
    """
    with (
        open(out_path, "w", encoding="utf-8") if out_path
        else contextlib.nullcontext(sys.stdout)
    ) as fh:
        fh.write(header + "\n")
        for name, xs, ys in series:
            row = name.replace("%", "%%") + ",%.16e,%.16e\n"
            for i in range(0, len(xs), _EMIT_CHUNK):
                part = slice(i, i + _EMIT_CHUNK)
                pairs = np.column_stack((xs[part], ys[part]))
                fh.write(row * len(pairs) % tuple(pairs.ravel().tolist()))
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


# each --family: its builder and the flags it takes, in argument order
_FAMILIES = {
    "order2": (build_order2, ("alpha",)),
    "order4": (build_order4, ("alpha", "beta", "gamma")),
    "order6": (build_order6, ("alpha",)),
    "expansion": (build_expansion, ("eta", "zeta")),
}


def _build_family(args) -> AlphaMatrix:
    build, flags = _FAMILIES[args.family]
    missing = [f"--{name}" for name in flags if getattr(args, name) is None]
    if missing:
        raise ValueError(
            f"family {args.family} requires {', '.join(missing)}"
        )
    return build(*(getattr(args, name) for name in flags))


def cmd_derive(args) -> int:
    if args.method:
        tab = named_tableau(args.method)
    else:
        m = _build_family(args)
        if args.quadrature is None or args.stage_count is None:
            return _fail("--quadrature and --stages are required with --family", 1)
        make = gauss_rule if args.quadrature == "gauss" else lobatto_rule
        tab = discretize(m, make(args.stage_count))
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
    return [float(tok) for tok in tokens]


def cmd_converge(args) -> int:
    """Global error at --t-end per method and step size, and the fitted
    slope per method, as CSV.

    Every method is measured against one reference, which
    integrator._study_reference picks: the exact solution for harmonic and
    kepler, an order-6 Gauss-3 run for the pendulum.  It checks every
    grid first, so a step size that does not divide the span exits 1
    before any run.  A diverged run is a nan row and exits 3.
    """
    hs = _parse_h_list(args.h_list)
    methods = [(tok, _resolve_method(tok)) for tok in args.method]
    prob = _PROBLEMS[args.problem]()
    _, reference = _study_reference(prob, args.t_end, hs)
    studies = []
    for tok, tab in methods:
        try:
            studies.append(
                global_error_study(tab, prob, args.t_end, hs, reference=reference)
            )
        except DegenerateFitError as exc:
            raise DegenerateFitError(f"method {tok}: {exc}") from exc
    names = [_csv_field(tok) for tok, _ in methods]
    _write_csv(
        args.out,
        "method,h,error",
        [(name, st.h, st.error) for name, st in zip(names, studies)],
        [f"# slope,{name},{_fmt(st.slope)}" for name, st in zip(names, studies)],
    )
    failed = not all(np.isfinite(st.error).all() for st in studies)
    return 3 if failed else 0


def cmd_drift(args) -> int:
    prob = _PROBLEMS[args.problem]()
    series, trailers, failed = [], [], False
    methods = [(tok, _resolve_method(tok)) for tok in args.method]
    for tok, tab in methods:
        traj = integrate(
            tab, prob, args.t_end, StepConfig(h=args.h), args.sample_every
        )
        # keep the energy series only, so q and p are freed with traj
        times, energy_error, diverged = (
            traj.times, traj.energy_error, traj.diverged
        )
        del traj
        slope = max_abs = math.nan
        if not diverged:
            slope = linear_drift_slope(times, energy_error)
            max_abs = float(np.abs(energy_error).max())
        failed = failed or not math.isfinite(slope)
        name = _csv_field(tok)
        series.append((name, times, energy_error))
        trailers += [
            f"# drift_slope,{name},{_fmt(slope)}",
            f"# max_abs,{name},{_fmt(max_abs)}",
        ]
    _write_csv(args.out, "method,t,energy_error", series, trailers)
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrkn",
        description="Symmetric RKN tableau derivation, checking, and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser("derive", help="derive a tableau and print properties")
    source = derive.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=tuple(_FAMILIES))
    source.add_argument("--method", choices=NAMED_METHODS)
    derive.add_argument("--alpha", type=float)
    derive.add_argument("--beta", type=float)
    derive.add_argument("--gamma", type=float)
    derive.add_argument("--eta", type=int)
    derive.add_argument("--zeta", type=int)
    derive.add_argument("--quadrature", choices=("gauss", "lobatto"))
    derive.add_argument("--stages", type=int, dest="stage_count", metavar="STAGES")
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
    except StageDivergenceError as exc:
        return _fail(str(exc), 3)
    except (SymrknError, ValueError, OSError) as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
