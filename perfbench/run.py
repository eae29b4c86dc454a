"""Run one benchmark workload and print its metrics.

::

    python3 perfbench/run.py --workload store_roundtrip --seed 1 \\
        --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` lists the ones the regression gate runs):

* ``store_roundtrip`` — a cold ``repro-report all --csv --max-workers 1``
  on a fresh empty store, then a second process on the populated store;
* ``serve_mixed`` — a ``repro-serve`` daemon: closed-loop warm hits,
  then open-loop hits beside back-to-back unique sweep computes;
* ``paper_nocache`` — one serial ``repro-report all --csv --no-cache``;
* ``all`` — the three above in turn.

A table of every metric goes to stdout first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are the end-to-end ones (``--trace 0``) or the per-layer ones
from a traced in-process replay (``--trace 1``).  The exit code is 2
when the checkout lacks the program or the goldens, and no result is
printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.common import (BENCH_DIR, STATE_DIR, Context,  # noqa: E402
                              PrerequisiteError, open_context,
                              run_process, stop_children)
from perfbench.report_runs import (run_paper_nocache,  # noqa: E402
                                   run_store_roundtrip)
from perfbench.serve_load import run_serve_mixed  # noqa: E402

WORKLOADS = {
    "store_roundtrip": run_store_roundtrip,
    "serve_mixed": run_serve_mixed,
    "paper_nocache": run_paper_nocache,
}

#: every end-to-end figure, by name and unit, and where it applies
END_TO_END = [
    ("setup_s", "s"), ("cold_wall_s", "s"), ("warm_wall_s", "s"),
    ("peak_rss_mb", "MB"), ("error_rate", "ratio"),
    ("hit_qps", "q/s"), ("hit_p50_ms", "ms"), ("hit_p99_ms", "ms"),
    ("compute_p50_ms", "ms"), ("compute_p90_ms", "ms"),
    ("compute_qps", "q/s"),
]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def traced_layers(ctx: Context, workload: str, result: dict) -> dict:
    """Run the traced replay in a fresh process; the per-layer figures."""
    out = os.path.join(ctx.tmp, "layers.json")
    spans = os.path.join(STATE_DIR, f"last_trace_{workload}.json")
    cmd = [ctx.python, os.path.join(BENCH_DIR, "layers.py"),
           "--workload", workload, "--seed", str(ctx.seed),
           "--out", out, "--trace-out", spans]
    if "replay" in result:
        replay = dict(result["replay"], seed=ctx.seed)
        cmd += ["--replay", os.path.join(ctx.tmp, "replay.json")]
        with open(cmd[-1], "w") as handle:
            json.dump(replay, handle)
    root = ctx.fresh_dir("layers-")
    run = run_process(ctx, cmd, ctx.env(
        cache_dir=os.path.join(root, "store"),
        history=os.path.join(root, "history.jsonl")), "layers")
    if run.returncode != 0:
        raise RuntimeError(f"traced replay exited {run.returncode}: "
                           f"{run.stderr.strip()[-500:]}")
    with open(out) as handle:
        summary = json.load(handle)

    metrics = dict.fromkeys(_units(_spec()["per_layer"]), 0.0)
    for name, seconds in summary["layers_s"].items():
        if name in metrics:
            metrics[name] = seconds
    for name, value in summary["counts"].items():
        if name in metrics:
            metrics[name] = value
    per_call = summary["per_call_s"]
    metrics["exec.store.get_ms"] = per_call["exec.store.get"] * 1e3
    metrics["exec.store.put_ms"] = per_call["exec.store.put"] * 1e3
    metrics["serve.key_us"] = per_call["serve.key"] * 1e6
    metrics["serve.hit_us"] = per_call["serve.hit"] * 1e6
    metrics["serve.compute_ms"] = per_call["serve.compute"] * 1e3
    served = result.get("layers", {})
    for name, value in served.items():
        if name in metrics:
            metrics[name] = value
    if "serve.http_p50_s" in served:
        metrics["serve.http_us"] = (served["serve.http_p50_s"] * 1e6
                                    - metrics["serve.hit_us"])
    metrics["trace.coverage"] = summary["covered_s"] / summary["wall_s"]
    metrics["trace.overhead_s"] = (summary["wall_s"]
                                   - result["untraced_wall_s"])
    if summary["missing"]:
        print("traced replay could not find: "
              + ", ".join(summary["missing"]))
    return metrics


def _row(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"  {name:<32} {shown:>14} {unit:<6} {note}"


def print_table(workload: str, result: dict, layers=None) -> None:
    outcomes = result["outcomes"]
    figures = dict(result["metrics"])
    figures["error_rate"] = outcomes.error_rate
    figures.update(result.get("serve", {}))
    serve = result.get("serve", {})
    notes = {
        "hit_p99_ms": f"n={serve.get('hit_n')} "
                      f"supported={serve.get('hit_p99_supported')} "
                      f"best=p{serve.get('hit_best_tail')}",
        "hit_p50_ms": f"n={serve.get('hit_n')}",
        "compute_p50_ms": f"n={serve.get('compute_n')}",
        "compute_p90_ms": f"n={serve.get('compute_n')} "
                          f"supported={serve.get('compute_p90_supported')} "
                          f"best=p{serve.get('compute_best_tail')}",
    } if serve else {}
    print(f"{workload}: rounds={result['rounds']} "
          f"attempted={outcomes.attempted} failed={outcomes.failed}")
    for name, unit in END_TO_END:
        print(_row(name, figures.get(name), unit, notes.get(name, "")))
    for reason in outcomes.reasons:
        print(f"  FAILED: {reason}")
    if layers is not None:
        units = _units(_spec()["per_layer"])
        for name, value in layers.items():
            print(_row(name, value, units[name]))


def run_workload(ctx: Context, workload: str, trace: bool):
    result = WORKLOADS[workload](ctx)
    ctx.reference.save()
    layers = traced_layers(ctx, workload, result) if trace else None
    print_table(workload, result, layers)
    if trace:
        metrics = layers
        units = _units(_spec()["per_layer"])
    else:
        units = _units(_spec()["end_to_end"])
        metrics = {name: value for name, value in result["metrics"].items()
                   if name in units}
    return result["outcomes"], {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ctx = open_context(args.seed, args.seconds)
    except (PrerequisiteError, ImportError, OSError) as error:
        print(f"perfbench: cannot run here: {error}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            outcomes, figures = run_workload(ctx, name, bool(args.trace))
            attempted += outcomes.attempted
            failed += outcomes.failed
            if len(names) > 1:
                figures = {f"{name}.{k}": v for k, v in figures.items()}
            metrics.update(figures)
    finally:
        stop_children(ctx)
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
