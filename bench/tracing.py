"""In-memory span recorder that wraps symrkn's public functions from outside.

A span is (name, start, end, parent).  Spans are opened by wrappers that
replace module-level references inside the symrkn package, so calls that
cli.py and integrator.py make through those names are recorded too.  Force
and energy calls are far too frequent to keep one span each: they are timed
and counted into the innermost open span instead, and count as its children
when self time is computed.

Self time of a span = its duration - the duration of its child spans - the
force and energy time charged to it.  Summed over every span under a root,
self times add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
from time import perf_counter

# Fields of one span record (a list, so the hot force wrapper can update it
# in place without attribute lookups).
NAME, START, END, PARENT, CHILD_T, FORCE_N, FORCE_T, ENERGY_N, ENERGY_T, ATTRS = range(10)

# Library functions wrapped in spans, by module.  Problem factories are
# wrapped separately so that the problems they return carry counting force
# and energy functions.
SPANNED = {
    "cli": ("main",),
    "integrator": ("integrate", "reference_state", "reference_tableau"),
    "tableau": (
        "named_tableau",
        "discretize",
        "is_symmetric",
        "is_symplectic",
        "classical_order_bound",
        "dumps_tableau",
        "loads_tableau",
    ),
    "quadrature": ("gauss_rule", "lobatto_rule"),
    "cscoeff": (
        "build_order2",
        "build_order4",
        "build_order6",
        "build_expansion",
        "check_CN",
        "check_DN",
    ),
}
FACTORIES = ("perturbed_pendulum", "harmonic_oscillator", "kepler_2d")


def integrate_path(tab, prob, cfg) -> str:
    """Stage-solver path an integrate call takes: seq|jacobi x scalar|array.

    Mirrors the integrator's documented rule: sequential sweeps for an
    exactly lower-triangular a_bar unless another structure is forced.
    """
    structure = getattr(getattr(cfg, "structure", None), "value", "auto")
    seq = structure == "sequential" or (structure == "auto" and tab.lower_triangular)
    kind = "scalar" if len(getattr(prob.q0, "shape", ())) == 0 else "array"
    return f"{'seq' if seq else 'jacobi'}_{kind}"


class Tracer:
    """Records spans while installed; restores every patched name on remove."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name, attrs=None):
        rec = [name, perf_counter(), 0.0,
               self.stack[-1] if self.stack else None,
               0.0, 0, 0.0, 0, 0.0, attrs]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def close(self, rec):
        rec[END] = perf_counter()
        popped = self.stack.pop()
        if popped is not rec:
            raise RuntimeError(f"span {rec[NAME]} closed out of order")
        parent = rec[PARENT]
        if parent is not None:
            parent[CHILD_T] += rec[END] - rec[START]

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        rec = self.open(name, attrs)
        try:
            yield rec
        finally:
            self.close(rec)

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, name, fn):
        open_, close = self.open, self.close
        if name == "integrator.integrate":
            def wrapper(t, prob, t_end, cfg, *args, **kwargs):
                attrs = {
                    "path": integrate_path(t, prob, cfg),
                    "steps": int(round((t_end - prob.t0) / cfg.h)),
                }
                rec = open_(name, attrs)
                try:
                    return fn(t, prob, t_end, cfg, *args, **kwargs)
                finally:
                    close(rec)
        else:
            def wrapper(*args, **kwargs):
                rec = open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(rec)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, fn, n_field, t_field):
        stack = self.stack

        def counted(a, b):
            t0 = perf_counter()
            r = fn(a, b)
            dt = perf_counter() - t0
            rec = stack[-1]
            rec[n_field] += 1
            rec[t_field] += dt
            return r

        return counted

    def _wrap_factory(self, fn):
        counting = self._counting

        def factory(*args, **kwargs):
            prob = fn(*args, **kwargs)
            energy = prob.energy
            return dataclasses.replace(
                prob,
                force=counting(prob.force, FORCE_N, FORCE_T),
                energy=None if energy is None else counting(energy, ENERGY_N, ENERGY_T),
            )

        factory.__wrapped__ = fn
        return factory

    def install(self):
        """Replace every reference to the wrapped functions in symrkn's
        modules, including values of module-level dicts (the CLI's problem
        table), so internal calls are recorded as well."""
        replacements = {}
        for mod_name, names in SPANNED.items():
            mod = sys.modules[f"symrkn.{mod_name}"]
            for name in names:
                fn = getattr(mod, name, None)
                if callable(fn):
                    replacements[id(fn)] = (fn, self._wrap_call(f"{mod_name}.{name}", fn))
        problems = sys.modules["symrkn.problems"]
        for name in FACTORIES:
            fn = getattr(problems, name, None)
            if callable(fn):
                replacements[id(fn)] = (fn, self._wrap_factory(fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "symrkn" or mod_name.startswith("symrkn.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = replacements.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patches.append((value, key, item))
                            value[key] = hit[1]

    def remove(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    @staticmethod
    def self_time(rec) -> float:
        return rec[END] - rec[START] - rec[CHILD_T] - rec[FORCE_T] - rec[ENERGY_T]

    def under(self, root):
        """Spans whose ancestor chain reaches root (root included)."""
        inside = {id(root)}
        out = [root]
        for rec in self.spans:
            parent = rec[PARENT]
            if parent is not None and id(parent) in inside:
                inside.add(id(rec))
                out.append(rec)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: a header naming the fields, then
        one list per span with its parent's index and the force and energy
        calls charged to it."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "force_n",
                                 "force_s", "energy_n", "energy_s", "attrs"]) + "\n")
            for i, rec in enumerate(self.spans):
                parent = rec[PARENT]
                fh.write(json.dumps([
                    i, rec[NAME], rec[START], rec[END],
                    None if parent is None else index[id(parent)],
                    rec[FORCE_N], rec[FORCE_T], rec[ENERGY_N], rec[ENERGY_T], rec[ATTRS],
                ]) + "\n")


PATHS = ("seq_scalar", "jacobi_scalar", "seq_array", "jacobi_array")


def _path_figures(spans, path):
    steps = self_t = forces = 0
    for rec in spans:
        if rec[NAME] == "integrator.integrate" and rec[ATTRS]["path"] == path:
            steps += rec[ATTRS]["steps"]
            self_t += Tracer.self_time(rec)
            forces += rec[FORCE_N]
    if not steps:
        return None
    return self_t / steps * 1e6, forces / steps


def _layer_figures(spans):
    """Per-layer figures over one group of spans; None where no span of the
    layer was recorded."""
    by_name = {}
    for rec in spans:
        by_name.setdefault(rec[NAME], []).append(rec)
    integ = by_name.get("integrator.integrate", [])
    refs = by_name.get("integrator.reference_state", [])
    mains = by_name.get("cli.main", [])
    force_n = sum(rec[FORCE_N] for rec in spans)
    force_t = sum(rec[FORCE_T] for rec in spans)
    out = {}
    for path in PATHS:
        fig = _path_figures(spans, path)
        out[f"integrator.us_per_step.{path}"] = fig and fig[0]
        out[f"integrator.force_evals_per_step.{path}"] = fig and fig[1]
    out["integrator.reference_s"] = (
        sum(r[END] - r[START] for r in refs) / len(refs) if refs else None)
    out["problems.force_us_per_call"] = force_t / force_n * 1e6 if force_n else None
    integ_t = sum(r[END] - r[START] for r in integ)
    out["problems.force_share"] = sum(r[FORCE_T] for r in integ) / integ_t if integ_t else None
    if mains:
        n = len(mains)
        out["problems.energy_calls"] = sum(r[ENERGY_N] for r in spans) / n
        out["problems.energy_s"] = sum(r[ENERGY_T] for r in spans) / n
        out["cli.self_s"] = sum(Tracer.self_time(r) for r in mains) / n
    else:
        out["problems.energy_calls"] = out["problems.energy_s"] = out["cli.self_s"] = None
    return out


def layer_metrics(tracer, root, probe_root):
    """Per-layer metrics from the workload's spans; a figure the workload
    never produced (a stage-solver path or layer it does not call) comes
    from the probe runs instead.  Returns (metrics, source of each)."""
    workload = _layer_figures(tracer.under(root))
    probe = _layer_figures(tracer.under(probe_root))
    metrics, source = {}, {}
    for key, value in workload.items():
        if value is None:
            value, source[key] = probe[key], "probe"
        else:
            source[key] = "workload"
        metrics[key] = value
    return metrics, source


def self_by_name(tracer, root):
    """Total self time per span name under root, force and energy included
    as their own entries: where the traced run's time went."""
    out = {"problems.force": 0.0, "problems.energy": 0.0}
    for rec in tracer.under(root):
        out[rec[NAME]] = out.get(rec[NAME], 0.0) + Tracer.self_time(rec)
        out["problems.force"] += rec[FORCE_T]
        out["problems.energy"] += rec[ENERGY_T]
    return out


def self_sum_error(tracer, root) -> float:
    """|sum of self times under root - root duration| / root duration."""
    dur = root[END] - root[START]
    return abs(sum(self_by_name(tracer, root).values()) - dur) / dur
