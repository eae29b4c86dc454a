"""Traced replay of one workload in a fresh process, layer by layer.

Run by ``perfbench/run.py --trace 1``; not a user entry point::

    python3 perfbench/layers.py --workload store_roundtrip --seed 1 \\
        --out OUT.json --trace-out SPANS.json [--replay REPLAY.json]

The replay does the workload's work in-process, in the order the
layers build on each other, with a timing span around every call into
the public functions in :data:`TARGETS`.  The spans are installed from
here by rebinding those names (nothing under ``src/`` changes), kept
in memory, and written when the replay ends.  A layer's time is the
*self* time of its spans: duration minus the child spans inside it,
so memoized lower layers are charged to the first caller only and each
layer holds just the work it adds.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import tempfile
import time

T_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

#: (metric, module, public name) — a dotted name is a method
TARGETS = [
    ("models.build_s", "repro.models.registry", "build_symbolic"),
    ("graph.aggregate_s", "repro.graph.graph", "Graph.total_flops"),
    ("graph.aggregate_s", "repro.graph.graph",
     "Graph.total_bytes_accessed"),
    ("graph.aggregate_s", "repro.graph.graph", "Graph.parameter_count"),
    ("graph.hash_s", "repro.graph.serialize", "structural_hash"),
    ("symbolic.coefficient_s", "repro.symbolic.poly", "coefficient"),
    ("symbolic.compile_s", "repro.symbolic.compile", "compile_batch"),
    ("symbolic.compile_s", "repro.symbolic.compile", "compile_expr"),
    ("symbolic.compile_s", "repro.symbolic.compile",
     "CompiledExpr.codegen"),
    ("symbolic.replay_s", "repro.symbolic.compile",
     "CompiledExpr.eval_many"),
    ("symbolic.replay_s", "repro.symbolic.compile",
     "CompiledExpr.__call__"),
    ("analysis.footprint_s", "repro.analysis.footprint",
     "estimate_footprint"),
    ("analysis.fit_s", "repro.analysis.firstorder", "fit_numeric"),
    ("analysis.fit_s", "repro.analysis.firstorder", "derive_symbolic"),
    ("runtime.allocator_s", "repro.graph.traversal", "evaluate_sizes"),
    ("runtime.allocator_s", "repro.runtime.allocator",
     "simulate_allocator"),
    ("planner.s", "repro.planner.subbatch", "choose_subbatch"),
    ("planner.s", "repro.planner.subbatch", "subbatch_curve"),
    ("planner.s", "repro.planner.case_study", "run_case_study"),
    ("scaling.project_s", "repro.scaling.project", "project_all"),
    ("reports.render_s", "repro.reports.common", "Table.to_csv"),
    ("reports.render_s", "repro.reports.common", "Figure.to_csv"),
    ("exec.key_s", "repro.exec.tasks", "report_exhibit_key"),
    ("exec.store.get", "repro.exec.store", "ResultStore.get"),
    ("exec.store.put", "repro.exec.store", "ResultStore.put"),
    ("exec.engine.run_s", "repro.exec.engine", "ExecutionEngine.run"),
    ("serve.key", "repro.serve.service", "AnalysisService.canonical"),
    ("serve.query", "repro.serve.service",
     "AnalysisService.query_bytes"),
]

#: always-on ``repro.obs`` counters reported as they stand at the end
COUNTERS = ("analysis.sweep.points", "symbolic.compile.instructions",
            "symbolic.bisect.iterations", "exec.tasks.retried",
            "exec.pool.restarts")


class Tracer:
    """In-memory spans: [layer, start_ns, end_ns, parent, request]."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.request = None

    def wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [layer, clock(), 0, stack[-1] if stack else -1,
                      self.request]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def call(self, layer: str, fn, *args, **kwargs):
        return self.wrap(layer, fn)(*args, **kwargs)

    def self_times(self):
        """Seconds of self time per layer: each span's duration minus
        the spans directly inside it."""
        inner = [0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        totals: dict = {}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            totals[layer] = (totals.get(layer, 0.0)
                             + (end - start - inner[i]) / 1e9)
        return totals


def install(tracer: Tracer) -> list:
    """Rebind every target to a traced wrapper; the names not found
    (the program's API moved) are returned, not raised."""
    missing = []
    for layer, module_name, name in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{name}")
            continue
        owner_name, _, attr = name.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if owner else None
            if original is None:
                missing.append(f"{module_name}.{name}")
                continue
            setattr(owner, attr, tracer.wrap(layer, original))
            continue
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{name}")
            continue
        traced = tracer.wrap(layer, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro"):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, traced)
    from repro.reports import ALL_REPORTS

    for name, fn in list(ALL_REPORTS.items()):
        ALL_REPORTS[name] = tracer.wrap("reports.generate_s", fn)
    return missing


def _counter(name: str) -> float:
    from repro import obs

    metric = obs.REGISTRY.get(name)
    return float(metric.value) if metric is not None else 0.0


def _finished(report):
    return report


def replay_reports(tracer: Tracer, tmp: str, store_pass: bool) -> dict:
    """The cold pass's work serially (keys first when the workload has
    a store), then — with every lower layer warm — the pooled engine
    run and the warm pass on the store it filled."""
    from repro.exec.engine import ExecutionEngine, Task
    from repro.exec.store import ResultStore
    from repro.exec.tasks import report_exhibit, report_exhibit_key
    from repro.reports import ALL_REPORTS

    from perfbench.report_runs import COLD_WORKERS

    names = sorted(ALL_REPORTS)
    keys = {}
    if store_pass:
        for name in names:
            tracer.request = f"key:{name}"
            keys[name] = report_exhibit_key(name)
    reports = {}
    for name in names:
        tracer.request = f"generate:{name}"
        reports[name] = ALL_REPORTS[name]()
    for name in names:
        tracer.request = f"render:{name}"
        reports[name].to_csv()
    counts = {}
    if store_pass:
        # forked pool workers inherit these finished reports, so the
        # pooled run times the engine's own work: fork, dispatch,
        # pickling results home and the store puts
        for name in names:
            ALL_REPORTS[name] = functools.partial(_finished, reports[name])
        store_dir = os.path.join(tmp, "store")
        tasks = [Task(id=f"report:{n}", fn=report_exhibit, args=(n,),
                      key=keys[n]) for n in names]
        tracer.request = "engine:pooled"
        ExecutionEngine(max_workers=COLD_WORKERS,
                        store=ResultStore(store_dir)).run(tasks)
        hits, misses = _counter("exec.store.hit"), _counter("exec.store.miss")
        tracer.request = "engine:warm"
        results = ExecutionEngine(store=ResultStore(store_dir)).run(tasks)
        for name in names:
            results[f"report:{name}"].value.to_csv()
        hits = _counter("exec.store.hit") - hits
        lookups = hits + _counter("exec.store.miss") - misses
        counts["exec.store.hit_rate"] = hits / lookups if lookups else 0.0
        counts["exec.store.lookups"] = lookups
    return counts


def replay_serve(tracer: Tracer, tmp: str, replay: dict) -> dict:
    """Priming, then the phase-2 hits and computes, on an in-process
    service over a fresh store."""
    from repro.exec.store import ResultStore
    from repro.serve.service import AnalysisService

    from perfbench.serve_load import HIT_SPECS, hit_order

    service = AnalysisService(ResultStore(os.path.join(tmp, "store")))
    for endpoint, params in HIT_SPECS:
        tracer.request = f"prime:{endpoint}"
        service.query_bytes(endpoint, params)
    for i, index in enumerate(hit_order(replay["seed"], "p2",
                                        replay["hits"])):
        tracer.request = f"hit:{i}"
        service.query_bytes(*HIT_SPECS[index])
    for i, params in enumerate(replay["computes"]):
        tracer.request = f"compute:{i}"
        service.query_bytes("sweep", params)
    return {}


def _median(values):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def per_call(tracer: Tracer, layer: str, request_prefix: str = ""):
    """Median inclusive seconds of one layer's calls."""
    return _median([(end - start) / 1e9
                    for name, start, end, _, request in tracer.spans
                    if name == layer and str(request).startswith(
                        request_prefix)])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--replay", default=None)
    args = parser.parse_args()

    tracer = Tracer()
    entry = ("repro.serve.cli" if args.workload == "serve_mixed"
             else "repro.cli")
    tracer.call("cli.import_s", importlib.import_module, entry)
    missing = install(tracer)

    tmp = tempfile.mkdtemp(prefix="layers-", dir=os.path.dirname(args.out))
    if args.workload == "serve_mixed":
        with open(args.replay) as handle:
            counts = replay_serve(tracer, tmp, json.load(handle))
    else:
        counts = replay_reports(tracer, tmp,
                                args.workload == "store_roundtrip")
    wall = time.perf_counter() - T_START

    totals = tracer.self_times()
    covered = sum(totals.values())
    for name in COUNTERS:
        counts[name] = _counter(name)
    # both replays build every domain (exhibit keys fold in all five);
    # the memoized models are read back without a span
    registry = importlib.import_module("repro.models.registry")
    build = getattr(registry.build_symbolic, "__wrapped__",
                    registry.build_symbolic)
    counts["models.ops"] = sum(len(build(key).graph)
                               for key in registry.DOMAINS)
    summary = {
        "wall_s": wall,
        "covered_s": covered,
        "layers_s": totals,
        "per_call_s": {
            "exec.store.get": per_call(tracer, "exec.store.get"),
            "exec.store.put": per_call(tracer, "exec.store.put"),
            "serve.key": per_call(tracer, "serve.key"),
            "serve.hit": per_call(tracer, "serve.query", "hit:"),
            "serve.compute": per_call(tracer, "serve.query", "compute:"),
        },
        "counts": counts,
        "missing": missing,
        "spans": len(tracer.spans),
    }
    with open(args.trace_out, "w") as handle:
        json.dump({"fields": ["layer", "start_ns", "end_ns", "parent",
                              "request"], "spans": tracer.spans}, handle)
    with open(args.out, "w") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
