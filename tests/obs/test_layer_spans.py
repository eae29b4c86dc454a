"""Layer spans of a cold run: model build, cost table, aggregates,
cache-aware Roofline, stage split and the allocator replay."""

import json

from repro import obs

_TABLE5_LAYERS = {
    "models.build",
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


def test_spans_are_free_when_tracing_is_off():
    from repro.models import build_word_lm

    obs.clear()
    assert not obs.is_enabled()
    model = build_word_lm(seq_len=2, vocab=50, layers=1)
    model.graph.total_flops()
    assert obs.spans() == []
