"""symrkn benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; symrkn is imported from src/.  Every run
starts fresh single-threaded processes (bench/worker.py): nine that only set
up (four before and five after) and one that sets up and then runs the
workload in a closed loop for <seconds>.  Set-up time is measured from the
start of each process to the end of its set-up: ten samples per run.

The host this was written on is shared, and its speed swings by up to 2x
within seconds to minutes.  So every timing is taken together with a
reading of the host's speed, and the end-to-end times are reported rescaled
to a reference host speed.  An operation's reading comes from two fixed
calibration kernels run just before and after it; a set-up sample's from
the start-up time of a process that only imports numpy, started just
before it.  Neither touches symrkn.  The raw times and the readings are
printed in the report.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(the workload run with spans around every layer, short probe runs and
microbenchmarks).  The metric names and units come from BENCHMARK.json;
bench/METRICS.md says what each one measures and which end-to-end metric
it should move.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A run that cannot measure
(for instance because src/ is missing) exits non-zero without it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from micro import REFERENCE_CALIB_US, normalised

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROCESSES = 9
# Start-up time of the `import numpy` reference process at which normalised
# set-up times equal raw ones: typical on the shared 2-core Xeon VM the
# benchmark was written on.
REFERENCE_STARTUP_S = 0.12
BUDGET_S = 170.0  # every child is stopped by then; a run must end within 180 s
UNIT_NAMES = {"step": "us_per_step", "tableau": "us_per_tableau"}


def _run(argv, deadline):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, *map(str, argv)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise RuntimeError(f"{argv[0]} {argv[1]} exited {proc.returncode}: " + " | ".join(tail))
    return proc.stdout


def spawn(args, deadline):
    """Run one worker process to completion; return its JSON lines.  The
    first gets `setup_s`, measured from just before the process started,
    and `reference_s`, the start-up time of a process that only imports
    numpy, started just before it."""
    start = time.monotonic()
    _run(["-c", "import numpy"], deadline)
    reference = time.monotonic() - start
    start = time.monotonic()
    out = _run([WORKER, *args], deadline)
    docs = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    docs[0]["setup_s"] = docs[0]["ready"] - start
    docs[0]["reference_s"] = reference
    return docs


def spread(values):
    """(median, q1, q3) of the values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def describe(label, values, unit):
    med, q1, q3 = spread(values)
    return (f"{label:<16} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"spread {(q3 - q1) / med if med else 0.0:.3f}  n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + BUDGET_S
    # set-up samples are taken before and after the measuring process, so
    # that they span the run rather than one phase of a shared host's speed
    setup = ["setup", args.workload, args.seed]
    setups = [spawn(setup, deadline)[0] for _ in range(SETUP_PROCESSES // 2)]
    first, res = spawn(["run", args.workload, args.seed, args.seconds, args.trace], deadline)
    setups.append(first)
    setups += [spawn(setup, deadline)[0] for _ in range(SETUP_PROCESSES - SETUP_PROCESSES // 2)]

    work = [op for op in res["ops"] if op["kind"] == "workload"]
    attempted = sum(op["attempted"] for op in res["ops"])
    failed = sum(op["failed"] for op in res["ops"])
    unit_us = [normalised(op["unit_us"], op["calib_us"]) for op in work]
    setup_s = [s["setup_s"] * REFERENCE_STARTUP_S / s["reference_s"] for s in setups]
    calib = [op["calib_us"] for op in work]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"unit {res['unit']}  units/op {res['units_per_op']}  ops {len(work)}")
    print(describe(UNIT_NAMES[res["unit"]], unit_us, "us")
          + f"  (host-normalised to {REFERENCE_CALIB_US:g} us)")
    print(describe("  raw", [op["unit_us"] for op in work], "us"))
    print("  per op         " + " ".join(f"{v:.4g}" for v in unit_us))
    print(describe("setup_s", setup_s, "s")
          + f"  (host-normalised to a {REFERENCE_STARTUP_S:g} s reference start-up)")
    print(describe("  raw", [s["setup_s"] for s in setups], "s"))
    print(describe("  reference", [s["reference_s"] for s in setups], "s"))
    for stage in ("import_s", "transform_s", "prepare_s"):
        print(describe(f"  {stage}", [s[stage] for s in setups], "s"))
    print(describe("host.calib_us", calib, "us"))
    print(f"{'peak_rss_mb':<16} {res['peak_rss_mb']:.6g} MB")
    print(f"{'failed_frac':<16} {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"{'digest':<16} {' '.join(sorted({op['digest'] for op in work}))}")
    for op in res["ops"]:
        for err in op["errors"]:
            print(f"FAILED {op['kind']}: {err}")

    correct = failed == 0
    if args.trace:
        metrics = dict(res["per_layer"])
        metrics["legendre.transform_build_s"] = statistics.median(s["transform_s"] for s in setups)
        info = res["trace"]
        info["source"]["legendre.transform_build_s"] = "setup"
        correct = correct and info["self_sum_error"] < 1e-9
        print(f"trace: {info['spans']} spans, self-time sum error {info['self_sum_error']:.3g}, "
              f"{info['counted_steps_per_op']:.6g} integrate steps per op")
        for name, secs in sorted(info["self_s_by_span"].items(), key=lambda kv: -kv[1]):
            print(f"  self {name:<34} {secs:.6g} s")
        for name in sorted(metrics):
            print(f"  {name:<40} {metrics[name]!r:<24} from {info['source'].get(name, 'micro')}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "us_per_unit": statistics.median(unit_us),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ names)} do not match BENCHMARK.json")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
