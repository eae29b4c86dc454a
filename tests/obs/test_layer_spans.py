"""Layer spans of a cold run: model build, traversal index, cost table,
aggregates, cache-aware Roofline, stage split and the allocator
replay."""

import json

from repro import obs

_TABLE5_LAYERS = {
    "models.build",
    "graph.skeleton",
    "graph.cost_groups",
    "graph.aggregate",
    "hardware.cache_aware",
    "planner.split_stages",
}


def test_table5_trace_names_each_layer(tmp_path, capsys):
    from repro.cli import main

    obs.clear()
    trace_path = tmp_path / "t.json"
    try:
        assert main(["table5", "--no-cache", "--trace",
                     str(trace_path)]) == 0
    finally:
        obs.disable()
        obs.clear()
    capsys.readouterr()

    with open(trace_path) as handle:
        events = json.load(handle)["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert _TABLE5_LAYERS <= names


def test_allocator_span():
    """table5 never replays the allocator (fig10 does), so its span is
    checked on a direct call."""
    from repro.graph import evaluate_sizes, topological_order
    from repro.models import build_word_lm
    from repro.runtime import simulate_allocator

    model = build_word_lm(seq_len=2, vocab=50, layers=1)
    g = model.graph
    sizes = evaluate_sizes(g, {model.size_symbol: 8, model.batch: 2})
    obs.clear()
    obs.enable()
    try:
        simulate_allocator(g, topological_order(g), sizes)
        names = [s.name for s in obs.spans()]
    finally:
        obs.disable()
        obs.clear()
    assert "runtime.allocator" in names


def test_traversal_index_spans():
    """The wiring core is built inside the model build (the forward
    sort and validation); the liveness tables on the first footprint,
    and never again for the same graph."""
    from repro.analysis import estimate_footprint
    from repro.models import build_word_lm

    obs.clear()
    obs.enable()
    try:
        model = build_word_lm(seq_len=2, vocab=50, layers=1)
        for size in (8, 16, 24):
            estimate_footprint(model, {model.size_symbol: size,
                                       model.batch: 2})
        spans = obs.spans()
    finally:
        obs.disable()
        obs.clear()
    cores = [s for s in spans if s.name == "graph.skeleton"]
    assert len(cores) == 2
    assert all(s.parent is not None and s.parent.name == "models.build"
               for s in cores)
    tables = [s.args.get("tables", "liveness") for s in spans
              if s.name == "graph.skeleton.liveness"]
    assert sorted(tables) == ["greedy", "liveness"]


def test_spans_are_free_when_tracing_is_off():
    from repro.models import build_word_lm

    obs.clear()
    assert not obs.is_enabled()
    model = build_word_lm(seq_len=2, vocab=50, layers=1)
    model.graph.total_flops()
    assert obs.spans() == []
