"""Outside-in span tracer for the padicah benchmark's traced run.

The program has no telemetry of its own, so the tracer wraps the public
functions that bound each layer, from outside: ``install`` replaces each
listed function in every ``padicah.*`` namespace that binds it (modules
import names with ``from .x import y``, so patching the defining module
alone would miss most callers) and ``uninstall`` puts the originals back.

Each call becomes a span: layer name, job id, parent span, thread, start
and end, an error flag, and work counts taken from the arguments and the
result.  Parents come from a per-thread stack; ``parallel_map`` workers
start their stack at the map's span, so their spans get the right parent.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of it covered by its children, where overlapping
children from worker threads count once.

Only the functions named in LAYERS are wrapped.  Finer ones (``Cell``
methods run tens of thousands of times per job) would swamp the timing.
"""
from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    job: object
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


def _refine_counts(args, kwargs, result):
    f, g = args[0], args[1]
    return {"cells_in": len(f.cells) + len(g.cells), "cells_out": len(result)}


def _cells_of_step(args, kwargs, result):
    return {"cells": len(result.cells)}


def _transform_targets(args, kwargs, result):
    """Targets enumerated: the padded size of every block the input touches."""
    from padicah.systems import block_of_index, block_range

    coeffs = args[0]
    seqs = coeffs.cfg.seqs
    blocks = {
        tuple(block_of_index(seqs[j], n) for j, n in enumerate(nvec))
        for nvec, _ in coeffs.items()
    }
    total = 0
    for block_vec in blocks:
        size = 1
        for j, t in enumerate(block_vec):
            size *= len(block_range(seqs[j], t))
        total += size
    return {"targets": total}


# layer -> (module, public names in it, counter); "Class.method" patches
# the class attribute.
LAYERS = {
    "stepfn.refine": ("stepfn", ("common_refinement",), _refine_counts),
    "stepfn.integral": ("stepfn", ("StepFunction.integral",), None),
    "systems.tensor_step": ("systems", ("tensor_haar_step", "tensor_price_step"), _cells_of_step),
    "systems.inner_product": ("systems", ("inner_product",), None),
    "systems.gamma_matrix": ("systems", ("price_haar_matrix",),
                             lambda a, k, r: {"entries": int(r.size)}),
    "series.transform": ("series", ("price_coeffs_from_haar", "haar_coeffs_from_price"),
                         _transform_targets),
    "series.stabilized_sum": ("series", ("stabilized_sum",), _cells_of_step),
    "series.majorant": ("series", ("series_majorant",), None),
    "series.value_on": ("series", ("AdditiveFn.value_on",), None),
    "grid.decompose_box": ("grid", ("decompose_box",), lambda a, k, r: {"cells": len(r)}),
    "integration.truncate": ("integration", ("truncate",), None),
    "integration.tail": ("integration", ("tail_integral", "tail_with_ties"), None),
    "integration.level_measure": ("integration", ("level_measure",), None),
    "integration.check_family": ("integration", ("check_family",), None),
    "integration.family_parse": ("integration", ("family_from_json_dict",), None),
    "recovery": ("recovery", (
        "recover_haar_coeff", "recover_price_coeff", "recover_additive",
        "gamma_path_reference", "lambda_condition_check", "tail_condition_check",
    ), None),
    "counterexample": ("counterexample", (
        "end_to_end", "verify_ah_success", "verify_lambda_failure",
        "example_series", "example_family",
    ), None),
    "cli": ("cli", ("main",), None),
    "reports.canonical_json": ("reports", ("canonical_json",), lambda a, k, r: {"bytes": len(r)}),
    "parallel.tree_sum": ("parallel", ("tree_sum",), None),  # wrapped specially
    "parallel.map": ("parallel", ("parallel_map",), None),  # wrapped specially
}

MODULES = sorted({module for module, _, _ in LAYERS.values()})


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, counter, args, kwargs):
        stack = self._stack()
        span = Span(next(self._ids), name, self.job, stack[-1].id if stack else None,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            return self._call(name, fn, counter, args, kwargs)

        return traced

    def _wrap_tree_sum(self, fn):
        def traced(values, *args, **kwargs):
            values = list(values)
            return self._call("parallel.tree_sum", fn, lambda a, k, r: {"terms": len(values)},
                              (values, *args), kwargs)

        return traced

    def _wrap_parallel_map(self, fn):
        tracer = self

        def traced(item_fn, items, *args, **kwargs):
            def run_map(items, *args, **kwargs):
                map_span = tracer._stack()[-1]

                def item(x):
                    # worker threads start empty: give them the map as parent
                    stack = tracer._stack()
                    stack.append(map_span)
                    try:
                        return item_fn(x)
                    finally:
                        stack.pop()

                return fn(item, items, *args, **kwargs)

            return tracer._call("parallel.map", run_map, None, (items, *args), kwargs)

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every LAYERS function wherever a padicah module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "padicah" or n.startswith("padicah."))]
        for layer, (module, names, counter) in LAYERS.items():
            home = sys.modules[f"padicah.{module}"]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, self._wrap(layer, original, counter))
                    continue
                original = getattr(home, name)
                if layer == "parallel.tree_sum":
                    wrapper = self._wrap_tree_sum(original)
                elif layer == "parallel.map":
                    wrapper = self._wrap_parallel_map(original)
                else:
                    wrapper = self._wrap(layer, original, counter)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# analysis


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def unit_of(metric: str) -> str:
    if metric.endswith(".self_ms"):
        return "ms"
    if metric.endswith((".blowup", ".overlap", ".overhead")):
        return "ratio"
    if metric == "reports.bytes":
        return "bytes"
    return "count"


def layer_metrics(spans, jobs: int) -> dict[str, float]:
    """Per-job self ms and work counts of every layer, plus error counts.

    Every metric is present whether or not the workload reached the layer;
    a layer that was never called reads 0.
    """
    own = self_times(spans)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    errors = defaultdict(int)
    child_time = defaultdict(float)
    by_id = {s.id: s for s in spans}
    for s in spans:
        self_ms[s.name] += own[s.id] * 1000.0
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value
        if s.error:
            errors[s.name.split(".")[0]] += 1
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == "parallel.map":
            child_time[parent.id] += s.end - s.start
    map_time = sum(s.end - s.start for s in spans if s.name == "parallel.map")

    def per_job(x):
        return x / jobs

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = per_job(self_ms[layer])
    out["stepfn.refine.calls"] = per_job(calls["stepfn.refine"])
    out["stepfn.refine.cells_out"] = per_job(counts["stepfn.refine.cells_out"])
    cells_in = counts["stepfn.refine.cells_in"]
    out["stepfn.refine.blowup"] = counts["stepfn.refine.cells_out"] / cells_in if cells_in else 0.0
    out["systems.tensor_step.cells"] = per_job(counts["systems.tensor_step.cells"])
    out["systems.gamma_matrix.entries"] = per_job(counts["systems.gamma_matrix.entries"])
    out["series.transform.targets"] = per_job(counts["series.transform.targets"])
    out["series.stabilized_sum.cells"] = per_job(counts["series.stabilized_sum.cells"])
    out["series.value_on.calls"] = per_job(calls["series.value_on"])
    out["grid.decompose_box.cells"] = per_job(counts["grid.decompose_box.cells"])
    out["integration.truncate.calls"] = per_job(calls["integration.truncate"])
    out["reports.bytes"] = per_job(counts["reports.canonical_json.bytes"])
    out["parallel.tree_sum.terms"] = per_job(counts["parallel.tree_sum.terms"])
    out["parallel.map.overlap"] = sum(child_time.values()) / map_time if map_time else 0.0
    for module in MODULES:
        out[f"{module}.errors"] = errors[module]
    return out
