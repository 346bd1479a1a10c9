"""One fresh, single-threaded benchmark process.

    python3 bench/worker.py setup <workload> <seed>
    python3 bench/worker.py run <workload> <seed> <seconds> <trace 0|1>

Both modes first set up as a user of the package would: import symrkn and
its CLI from src/, build the Legendre transform, derive the workload's
tableaus and build its problem.  They then print a JSON line holding the
CLOCK_MONOTONIC time at which set-up finished, so the parent can measure
set-up from the moment it started the process.  `run` goes on to run the
workload in a closed loop for <seconds> and prints a second JSON line with
the results.  run.py starts these processes and turns their output into
metrics.  Every operation is timed together with readings of the host's
speed (micro.host_calib_us) taken just before and after it.
"""

import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"


def _load_symrkn():
    sys.path.insert(0, str(ROOT / "src"))
    import symrkn
    import symrkn.cli  # noqa: F401  (the CLI workloads call it)

    src = (ROOT / "src").resolve()
    if src not in Path(symrkn.__file__).resolve().parents:
        raise SystemExit(f"symrkn imported from {symrkn.__file__}, not from {src}")
    return symrkn


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    import workloads

    clock = time.monotonic
    t_start = clock()
    sr = _load_symrkn()
    t_import = clock()
    sr.legendre.default_transform()
    t_transform = clock()
    scratch = OUT / "tmp"
    w = workloads.make(name, sr, scratch, seed)
    w.prepare()
    t_ready = clock()
    _emit({"ready": t_ready, "import_s": t_import - t_start,
           "transform_s": t_transform - t_import, "prepare_s": t_ready - t_transform})
    if mode == "setup":
        return 0
    seconds, trace = float(argv[3]), argv[4] == "1"
    scratch.mkdir(parents=True, exist_ok=True)
    result = {"unit": w.unit, "units_per_op": w.units_per_op}
    traced_ops = probe_ops = []
    if not trace:
        ops = phase(w, seconds)
    else:
        ops = phase(w, seconds / 2)
        traced_ops, probe_ops, result["per_layer"], result["trace"] = traced(
            sr, w, seconds / 2, scratch, ops, name, seed)
    check_digests(name, seed, ops + traced_ops)

    import resource

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops"] = [
        {"kind": kind, "unit_us": op.seconds / w.units_per_op * 1e6, "calib_us": op.calib_us,
         "attempted": op.attempted, "failed": op.failed, "digest": op.digest,
         "errors": op.errors}
        for kind, group in (("workload", ops), ("traced", traced_ops), ("probe", probe_ops))
        for op in group
    ]
    _emit(result)
    return 0


def _emit(doc):
    import json

    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def phase(w, seconds, tracer=None):
    """Closed loop: one operation at a time until `seconds` have passed.
    The host's speed is measured between operations; each operation keeps
    the mean of the readings just before and just after it."""
    import traceback
    from time import perf_counter

    from micro import host_calib_us
    from workloads import Op

    ops = []
    calib = host_calib_us()
    deadline = perf_counter() + seconds
    while True:
        span = tracer.open("bench.op") if tracer else None
        error = None
        t0 = perf_counter()
        try:
            result = w.op()
        except Exception as exc:  # a crashed operation is a failed one
            error = "".join(traceback.format_exception(exc)[-3:])
        dt = perf_counter() - t0
        if span:
            tracer.close(span)
            span = tracer.open("bench.check")
        if error is not None:
            op = Op(w.attempts_per_op)
            op.fail(error, op.attempted)
        else:
            op = w.check(result)
        if span:
            tracer.close(span)
        op.seconds = dt
        calib_next = host_calib_us()
        op.calib_us = (calib + calib_next) / 2.0
        calib = calib_next
        ops.append(op)
        if perf_counter() >= deadline:
            return ops


def traced(sr, w, seconds, scratch, plain, name, seed):
    """Run the workload with spans, then the probes; return the traced
    operations, the probe operations and the per-layer metrics."""
    import statistics

    import micro
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("workload") as root:
            ops = phase(w, seconds, tracer)
        with tracer.span("probe") as probe_root:
            probe_ops = [op for p in workloads.probes(sr, scratch)
                         for op in phase(p, 0.0, tracer)]
    finally:
        tracer.remove()
    layers, source = tracing.layer_metrics(tracer, root, probe_root)
    cli_ops, source["cli.rows_written"] = (ops, "workload") if ops[0].rows else (probe_ops, "probe")
    source["cli.bytes_written"] = source["cli.rows_written"]
    layers["cli.rows_written"] = statistics.fmean(o.rows for o in cli_ops)
    layers["cli.bytes_written"] = statistics.fmean(o.bytes for o in cli_ops)
    layers["trace.overhead_frac"] = (
        statistics.median(micro.normalised(o.seconds, o.calib_us) for o in ops)
        / statistics.median(micro.normalised(o.seconds, o.calib_us) for o in plain) - 1.0)
    layers["host.calib_us"] = statistics.median(o.calib_us for o in plain + ops)
    source["trace.overhead_frac"] = source["host.calib_us"] = "run"
    layers.update(micro.run(sr))
    steps = sum(r[tracing.ATTRS]["steps"] for r in tracer.under(root)
                if r[tracing.NAME] == "integrator.integrate")
    info = {
        "source": source,
        "self_sum_error": max(tracing.self_sum_error(tracer, r) for r in (root, probe_root)),
        "counted_steps_per_op": steps / len(ops),
        "spans": len(tracer.spans),
        "self_s_by_span": tracing.self_by_name(tracer, root),
    }
    tracer.dump(OUT / f"trace-{name}-seed{seed}.jsonl")
    return ops, probe_ops, layers, info


def code_digest():
    import hashlib

    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_digests(name, seed, ops):
    """Repeated runs of the same code must give bit-identical outputs:
    every operation in this process, and every earlier run of this code
    recorded in .bench_out/digests.json, must agree."""
    import json

    import workloads

    first = next((op.digest for op in ops if op.digest), None)
    if first is None:
        return
    key = f"{name}|seed={seed if name == workloads.DeriveCheck.name else '-'}|{code_digest()}"
    store = OUT / "digests.json"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    expected = known.setdefault(key, first)
    for op in ops:
        if op.digest and op.digest != expected:
            op.fail(f"output digest {op.digest[:12]} != {expected[:12]} from the same code",
                    op.attempted)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
