"""Benchmark: the production evaluator against the tree-walk oracles.

Production evaluates the sweep aggregates as their fused tape lowered
to generated source (``CompiledExpr.codegen()``) and tensor sizes by
replaying the graph's size tape.  This benchmark times both against the
recursive ``Expr.evalf`` oracles in ``tests/oracles.py`` on the word-LM
and ResNet (image) sweeps, at three levels:

* ``aggregates`` — the Figure 7-10 aggregate expressions at every sweep
  size: the aggregate tape's codegen form replayed per size vs one
  ``evalf`` per aggregate per size;
* ``tensor_sizes`` — per-tensor byte sizes of the training graph at the
  largest sweep size: ``evaluate_sizes`` (one size-tape replay) vs one
  ``evalf`` per tensor;
* ``sweep_domain`` — every sweep row, footprints included:
  ``compute_sweep_rows`` vs the seed sweep (tree-walk aggregates,
  mapping-based footprints with the O(V·ready·degree) greedy rescan).

Each of these records ``oracle_s``, ``production_s`` and ``speedup``
(``oracle_s / production_s``).  A fourth section, ``certified``, times
guarded vs certified (guard-free) replay of the hot-path aggregate
tape — the abstract-interpretation proof
(:func:`repro.check.absint.certify_tape`) discharges the per-call
numeric guard, and the section records what the proof buys.

Writes ``BENCH_compile_eval.json`` at the repo root and asserts the
acceptance criteria: scalar replay bit-identical to the tree, exact
tensor sizes, sweep rows within 1e-9 relative, and the word_lm sweep
at least 5x faster than the oracle.  Committed floors for every
recorded speedup live in ``benchmarks/BENCH_floors.json`` and are
enforced by ``benchmarks/check_bench_floors.py`` (the CI
``bench-regression`` job).  The ``sweep_domain`` section also records
``cache_stats`` deltas from the :mod:`repro.obs` counters (tape-cache
and size-program-cache hits/misses of the production leg).

Run:  pytest benchmarks/bench_compile_eval.py -s
"""

import os
import sys
from dataclasses import fields
from time import perf_counter

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (REPO_ROOT, os.path.join(REPO_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro import obs  # noqa: E402
from repro.analysis.counters import _SWEEP_AGGREGATES, StepCounts  # noqa: E402
from repro.analysis.sweep import compute_sweep_rows  # noqa: E402
from repro.check import certify_tape, model_binding_domain  # noqa: E402
from repro.graph.traversal import evaluate_sizes, size_program  # noqa: E402
from repro.models.registry import build_symbolic, get_domain  # noqa: E402
from tests import oracles  # noqa: E402

DOMAINS = ("word_lm", "image")  # word LM + ResNet, per the paper's Fig 7

#: obs counters snapshotted around the production sweep leg
_CACHE_COUNTERS = {
    "tape_cache": ("analysis.tape_cache.hit", "analysis.tape_cache.miss"),
    "size_program_cache": ("graph.size_program.cache.hit",
                           "graph.size_program.cache.miss"),
}

#: repeat a leg until it has run this long (or 5 times); keep the best
_MIN_TOTAL_S = 1.0


def _counter_snapshot() -> dict:
    return {name: obs.counter(name).value
            for names in _CACHE_COUNTERS.values() for name in names}


def _cache_delta(before: dict) -> dict:
    """Per-cache hit/miss deltas since ``before`` (grouped, short keys)."""
    after = _counter_snapshot()
    return {
        cache: {name.rsplit(".", 1)[-1]: after[name] - before[name]
                for name in names}
        for cache, names in _CACHE_COUNTERS.items()
    }


def _timed(fn):
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


def _best(fn):
    """Best wall time of ``fn`` over repeats, and its last output."""
    best, spent, runs, out = float("inf"), 0.0, 0, None
    while runs < 5 and (runs == 0 or spent < _MIN_TOTAL_S):
        elapsed, out = _timed(fn)
        best, spent, runs = min(best, elapsed), spent + elapsed, runs + 1
    return best, out


def _row(oracle_s: float, production_s: float, **extra) -> dict:
    return {"oracle_s": round(oracle_s, 6),
            "production_s": round(production_s, 6),
            "speedup": round(oracle_s / production_s, 2), **extra}


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _counts(key: str) -> StepCounts:
    """StepCounts with every sweep aggregate already built, so neither
    leg is charged for the one-time ``Expr`` construction."""
    counts = StepCounts(build_symbolic(key))
    for name in _SWEEP_AGGREGATES:
        getattr(counts, name)
    return counts


def _bench_aggregates(key: str) -> dict:
    entry = get_domain(key)
    counts = _counts(key)
    rows = [counts.bind(s, entry.subbatch) for s in entry.sweep_sizes]
    # compile and lower once before the clock, as the production caches
    # on StepCounts do
    program = counts.compiled(*_SWEEP_AGGREGATES).codegen()

    # the aggregates evaluate in microseconds, so repeat the whole
    # series to get timings above clock resolution
    repeated = rows * 200

    oracle_s, reference = _best(
        lambda: oracles.sweep_aggregates(counts, repeated))
    production_s, result = _best(lambda: [program(r) for r in repeated])
    err = max(_rel_err(got, want)
              for got_row, want_row in zip(result, reference)
              for got, want in zip(got_row, want_row))
    assert err == 0.0, "codegen scalar replay must be bit-identical"
    return _row(oracle_s, production_s, n_sizes=len(rows),
                n_aggregates=len(_SWEEP_AGGREGATES), max_rel_err=err)


def _bench_tensor_sizes(key: str) -> dict:
    entry = get_domain(key)
    model = build_symbolic(key)
    binding = {model.size_symbol: list(entry.sweep_sizes)[-1],
               model.batch: entry.subbatch}
    size_program(model.graph)  # compile once, as the graph index does

    oracle_s, reference = _best(
        lambda: oracles.evaluate_sizes(model.graph, binding))
    production_s, sizes = _best(
        lambda: evaluate_sizes(model.graph, binding))
    assert sizes == reference, "tensor sizing must be exact"
    return _row(oracle_s, production_s, n_tensors=len(reference))


def _bench_sweep(key: str) -> dict:
    entry = get_domain(key)
    counts = _counts(key)
    sizes, subbatch = list(entry.sweep_sizes), entry.subbatch

    oracle_s, reference = _best(
        lambda: oracles.sweep_rows(counts, sizes, subbatch))
    # the first production sweep compiles and lowers the tapes and
    # builds the graph's traversal tables, all cached per model — pay
    # that before the clock so the leg times steady-state evaluation
    compute_sweep_rows(key, sizes, subbatch)
    before = _counter_snapshot()
    production_s, rows = _best(
        lambda: compute_sweep_rows(key, sizes, subbatch))
    cache_stats = _cache_delta(before)

    err = max(
        _rel_err(getattr(ra, f.name), getattr(rb, f.name))
        for ra, rb in zip(rows, reference)
        for f in fields(ra)
    )
    assert len(rows) == len(reference)
    assert err <= 1e-9, f"{key}: sweep diverged from the oracle ({err})"
    return _row(oracle_s, production_s, n_sizes=len(rows),
                max_rel_err=err, cache_stats=cache_stats)


def _bench_certified(key: str) -> dict:
    """Guarded vs certified (guard-free) replay of the hot-path tape.

    :func:`repro.check.absint.certify_tape` proves no slot of the
    aggregate tape can go non-finite anywhere in the model's declared
    sweep domain, which lets the replay skip the per-call numeric
    guard.  The fused/codegen aggregate tape is a handful of
    straight-line float ops, so the guard (a counter bump plus one
    ``isfinite`` per output) is a real fraction of each call — this
    leg records how much the proof buys.
    """
    entry = get_domain(key)
    model = build_symbolic(key)
    counts = _counts(key)
    rows = [counts.bind(s, entry.subbatch) for s in entry.sweep_sizes]
    prog = counts.compiled(*_SWEEP_AGGREGATES).codegen()
    # bind once outside the clock: this leg isolates replay + guard
    vecs = [prog.bind_vector(r) for r in rows]
    reps = range(10_000)

    def replay():
        for _ in reps:
            out = [prog.eval_vector(v) for v in vecs]
        return out

    prog.mark_certified(False)  # the cached tape may carry a stamp
    replay()  # warm both legs' bytecode/caches before the clock
    guarded_s, reference = _timed(replay)

    certificate = certify_tape(prog, model_binding_domain(model))
    assert certificate.ok, (
        f"{key}: aggregate tape failed certification "
        f"({certificate.reason})"
    )
    certified_s, unguarded = _timed(replay)
    prog.mark_certified(False)  # don't leak the stamp to other legs
    assert unguarded == reference, \
        "certified replay must be bit-identical to guarded replay"

    return {
        "engine": "codegen",
        "certified": certificate.ok,
        "n_instructions": len(prog.code),
        "n_outputs": len(prog.out_slots),
        "guarded_s": round(guarded_s, 6),
        "certified_s": round(certified_s, 6),
        "speedup_certified": round(guarded_s / certified_s, 2),
    }


def test_compile_eval(bench_json):
    results = {
        "aggregates": {k: _bench_aggregates(k) for k in DOMAINS},
        "tensor_sizes": {k: _bench_tensor_sizes(k) for k in DOMAINS},
        "sweep_domain": {k: _bench_sweep(k) for k in DOMAINS},
        "certified": {k: _bench_certified(k) for k in DOMAINS},
    }
    path = bench_json("BENCH_compile_eval", results)

    print()
    for section, per_domain in results.items():
        for key, stats in per_domain.items():
            if "oracle_s" not in stats:
                continue
            print(f"{section:>13} {key:<8} oracle {stats['oracle_s']:8.3f}s"
                  f"  production {stats['production_s']:8.3f}s"
                  f"  {stats['speedup']:6.1f}x")
    for key, stats in results["certified"].items():
        print(f"    certified {key:<8} guarded {stats['guarded_s']:9.3f}s"
              f"  certified {stats['certified_s']:8.3f}s"
              f"  {stats['speedup_certified']:6.1f}x  (guard-free)")
    print(f"wrote {path}")

    # acceptance: >=5x over the seed sweep on the largest stock domain
    assert results["sweep_domain"]["word_lm"]["speedup"] >= 5.0
