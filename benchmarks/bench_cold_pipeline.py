"""Benchmark: the cold pipeline's per-op layers against their oracles.

Each graph's cost table (``Graph.cost_groups``) holds one
representative op per cost signature, so aggregates, the cache-aware
Roofline and the stage split build and evaluate every distinct op
cost once; footprints replay int lists aligned with the graph's
traversal index.  This bench times each layer against its reference
loop in ``tests/oracles.py`` and records ``BENCH_cold_pipeline.json``:

* ``cold_pipeline.<domain>`` — the FLOP + byte aggregates of each
  registry model's training graph, from a cold cost table:
  ``oracle_s`` (Σ over every op), ``production_s`` (Σ count × term) and
  ``speedup``; the grouped result must be the *same interned* ``Expr``;
* ``cold_pipeline.ablation_cache`` — the 14 cache-aware step-time
  calls of the cache-size ablation (its word-LM model, cold table);
  the floats must be bit-equal;
* ``cold_pipeline.allocator_fig10`` — the Figure 10 allocator overlay
  (word LM, nine sizes, 12 GB), dict LRU vs the list-based loop; the
  reports must be field-equal;
* ``cold_pipeline.footprint_<domain>`` — the footprint of every size
  in the domain's sweep (greedy schedule on as the sweep has it),
  first call included: the production path starts from the traversal
  index a model build leaves (wiring core only), so its size program
  and liveness tables are built inside the timed region; the oracle
  is the mapping-based body in ``tests/oracles.py``; the estimates
  must be field-equal;
* ``end_to_end.all_no_cache`` — wall time of one
  ``repro-report all --csv --no-cache`` process (recorded, not gated:
  it tracks the host as much as the code).

``benchmarks/check_bench_floors.py --section cold_pipeline`` gates the
ratios against ``benchmarks/BENCH_floors.json``.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_cold_pipeline.py -s -q
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from time import perf_counter

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (REPO_ROOT, os.path.join(REPO_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.analysis import estimate_footprint  # noqa: E402
from repro.analysis.counters import StepCounts  # noqa: E402
from repro.analysis.sweep import _GREEDY_OP_LIMIT  # noqa: E402
from repro.graph import evaluate_sizes, topological_order  # noqa: E402
from repro.graph import traversal  # noqa: E402
from repro.hardware import V100_LIKE  # noqa: E402
from repro.hardware.cache import cache_aware_step_time  # noqa: E402
from repro.models.registry import DOMAINS, build_symbolic  # noqa: E402
from repro.reports.ablations import _case_model  # noqa: E402
from repro.runtime import AllocatorConfig, simulate_allocator  # noqa: E402
from tests import oracles  # noqa: E402

#: repeat a leg until it has run this long (or 5 times); keep the best
_MIN_TOTAL_S = 1.0


def _best(fn, reset=lambda: None):
    """Best wall time of ``fn`` over repeats; ``reset`` runs untimed
    before each repeat so every one starts cold."""
    best, spent, runs, out = float("inf"), 0.0, 0, None
    while runs < 5 and (runs == 0 or spent < _MIN_TOTAL_S):
        reset()
        t0 = perf_counter()
        out = fn()
        elapsed = perf_counter() - t0
        best, spent, runs = min(best, elapsed), spent + elapsed, runs + 1
    return best, out


def _row(oracle_s: float, production_s: float, **extra) -> dict:
    return {"oracle_s": round(oracle_s, 6),
            "production_s": round(production_s, 6),
            "speedup": round(oracle_s / production_s, 2), **extra}


def _bench_aggregates(key: str) -> dict:
    graph = build_symbolic(key).graph

    def oracle():
        return oracles.total_flops(graph), oracles.total_bytes_accessed(graph)

    def grouped():
        return graph.total_flops(), graph.total_bytes_accessed()

    oracle_s, reference = _best(oracle)
    grouped_s, result = _best(grouped, reset=graph._aggregate_cache.clear)
    assert result[0] is reference[0] and result[1] is reference[1], key
    return _row(oracle_s, grouped_s, ops=len(graph.ops),
                groups=len(graph.cost_groups().ops))


def _bench_cache_aware() -> dict:
    """The calls ``ablation_cache_size`` makes, on its model."""
    model = _case_model()
    graph = model.graph
    counts = StepCounts(model)
    calls = [
        (V100_LIKE.scaled(cache_bytes=int(mb * 2**20)),
         counts.bind(4096, subbatch))
        for subbatch in (128, 8)
        for mb in (1.5, 3, 6, 12, 24, 48, 96)
    ]

    def run(step_time):
        return [step_time(graph, accel, bindings)
                for accel, bindings in calls]

    oracle_s, reference = _best(lambda: run(oracles.cache_aware_step_time))
    grouped_s, result = _best(lambda: run(cache_aware_step_time),
                              reset=graph._aggregate_cache.clear)
    assert result == reference, "cache-aware floats must be bit-equal"
    return _row(oracle_s, grouped_s, calls=len(calls))


def _bench_allocator() -> dict:
    """The Figure 10 allocator overlay (sizes evaluated untimed)."""
    model = build_symbolic("word_lm")
    graph = model.graph
    entry = DOMAINS["word_lm"]
    counts = StepCounts(model)
    order = topological_order(graph)
    config = AllocatorConfig(capacity_bytes=12 * 10**9)
    sizes = [evaluate_sizes(graph, counts.bind(size, entry.subbatch))
             for size in list(entry.sweep_sizes) + [6144, 8192]]

    def run(simulate):
        return [simulate(graph, order, s, config) for s in sizes]

    oracle_s, reference = _best(lambda: run(oracles.simulate_allocator))
    grouped_s, result = _best(lambda: run(simulate_allocator))
    assert result == reference, "allocator reports must be field-equal"
    return _row(oracle_s, grouped_s, sizes=len(sizes),
                swapping_sizes=sum(r.swap_events > 0 for r in result))


def _bench_footprint(key: str) -> dict:
    """Every sweep point's footprint, from a freshly built index."""
    model = build_symbolic(key)
    graph = model.graph
    entry = DOMAINS[key]
    counts = StepCounts(model)
    use_greedy = len(graph) <= _GREEDY_OP_LIMIT
    bindings = [counts.bind(size, entry.subbatch)
                for size in entry.sweep_sizes]

    def run(estimate):
        return [estimate(model, b, use_greedy=use_greedy)
                for b in bindings]

    def fresh_index():
        # the state a model build leaves: wiring core and order only
        traversal._INDEXES.pop(graph, None)
        topological_order(graph)

    oracle_s, reference = _best(lambda: run(oracles.estimate_footprint))
    production_s, result = _best(lambda: run(estimate_footprint),
                                 reset=fresh_index)
    assert result == reference, "footprints must be field-equal"
    return _row(oracle_s, production_s, points=len(bindings),
                greedy=use_greedy, ops=len(graph.ops))


def _all_no_cache_seconds() -> float:
    """One ``repro-report all --csv --no-cache`` process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="bench-cold-")
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "all", "--csv", "--no-cache"],
        cwd=REPO_ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - t0


def test_cold_pipeline(bench_json):
    section = {key: _bench_aggregates(key) for key in DOMAINS}
    section["ablation_cache"] = _bench_cache_aware()
    section["allocator_fig10"] = _bench_allocator()
    for key in DOMAINS:
        section[f"footprint_{key}"] = _bench_footprint(key)
    results = {
        "cold_pipeline": section,
        "end_to_end": {"all_no_cache": {
            "wall_s": round(_all_no_cache_seconds(), 3),
            "cpu_count": os.cpu_count(),
        }},
    }
    path = bench_json("BENCH_cold_pipeline", results)

    print()
    for name, stats in section.items():
        print(f"{name:>18}  oracle {stats['oracle_s']:8.3f}s"
              f"  production {stats['production_s']:8.3f}s"
              f"  {stats['speedup']:7.1f}x")
    print(f"    all --no-cache  "
          f"{results['end_to_end']['all_no_cache']['wall_s']:.1f}s")
    print(f"wrote {path}")
