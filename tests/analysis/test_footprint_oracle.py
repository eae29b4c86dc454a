"""Index-native footprints against the mapping-based oracle.

``estimate_footprint`` replays int lists aligned with the graph's
traversal index; ``tests/oracles.py`` keeps the per-point size dict,
the dict-based liveness replay and the per-op working-set loop.  Every
``FootprintEstimate`` field must be equal.
"""

from types import SimpleNamespace

import pytest

from repro.analysis import estimate_footprint
from repro.analysis.counters import StepCounts
from repro.graph import (
    Graph,
    Op,
    TensorKind,
    memory_greedy_order,
    validate_graph,
)
from repro.graph.traversal import _memory_greedy_order_reference
from repro.models import build_word_lm
from repro.models.registry import DOMAINS, build_symbolic, get_domain
from repro.obs.metrics import counter
from repro.reports.ablations import _case_model, _small_config, _small_size
from repro.symbolic import symbols

from .. import oracles

b, h = symbols("b h")


def _assert_matches(model, bindings, **kwargs):
    got = estimate_footprint(model, bindings, **kwargs)
    assert got == oracles.estimate_footprint(model, bindings, **kwargs)
    return got


class TestRegistry:
    @pytest.mark.parametrize("key", list(DOMAINS))
    def test_every_sweep_size(self, key):
        entry = get_domain(key)
        model = build_symbolic(key)
        counts = StepCounts(model)
        for size in entry.sweep_sizes:
            _assert_matches(model, counts.bind(size, entry.subbatch),
                            use_greedy=False)

    @pytest.mark.parametrize("key", ["word_lm", "nmt"])
    def test_greedy_forced_on(self, key):
        model = build_symbolic(key)
        size = get_domain(key).sweep_sizes[-1]
        # at subbatch 8 the greedy schedule beats program order
        est = _assert_matches(model, StepCounts(model).bind(size, 8),
                              use_greedy=True)
        assert est.greedy_bytes < est.program_order_bytes


class TestVariants:
    def test_half_precision(self):
        model = _case_model(dtype_bytes=2)
        _assert_matches(model, StepCounts(model).bind(1024, 16),
                        use_greedy=False)

    def test_inplace(self):
        model = build_word_lm(seq_len=6, vocab=120, layers=2)
        bindings = {model.size_symbol: 48, model.batch: 8}
        est = _assert_matches(model, bindings, inplace=True)
        assert est.program_order_bytes < estimate_footprint(
            model, bindings).program_order_bytes

    @pytest.mark.parametrize("key", list(DOMAINS))
    def test_small_ablation_configs(self, key):
        entry = get_domain(key)
        model = entry.build_model(**_small_config(key))
        bindings = {model.batch: 8}
        if model.size_symbol is not None:
            bindings[model.size_symbol] = _small_size(key)
        use_greedy = len(model.graph) <= 2_000
        for inplace in (False, True):
            _assert_matches(model, bindings, use_greedy=use_greedy,
                            inplace=inplace)


class _Pass(Op):
    kind = "pass"

    def __init__(self, name, inputs, outputs):
        super().__init__(name, inputs, outputs)


def _edge_case_graph():
    """One op reads a tensor twice; a graph input is consumed; outputs
    are never read; an op produces a parameter.  After ``proj`` the
    greedy schedule runs ``square`` before ``side`` only if it credits
    ``square`` with freeing ``a`` across both of its reads."""
    g = Graph("edge_cases")
    x = g.input("x", (b, h))
    w = g.parameter("w", (h, h))
    a = g.tensor("a", (b, h))
    sq = g.tensor("sq", (b, h))
    dead = g.tensor("dead", (b, h, h))
    s = g.tensor("s", (b, h, h))
    flag = g.tensor("flag", (b,))
    y = g.tensor("y", (b,))
    w_new = g.tensor("w_new", (h, h), kind=TensorKind.PARAMETER)
    g.add_op(_Pass("proj", [x, w], [a]))
    g.add_op(_Pass("square", [a, a], [sq, dead]))
    g.add_op(_Pass("side", [w], [s, flag]))
    g.add_op(_Pass("reduce", [sq], [y]))
    g.add_op(_Pass("update", [w, sq], [w_new]))
    return g


class TestHandBuilt:
    @pytest.mark.parametrize("inplace", [False, True])
    def test_edge_cases(self, inplace):
        g = _edge_case_graph()
        model = SimpleNamespace(graph=g)
        for bv, hv in ((3, 5), (64, 2)):
            est = _assert_matches(model, {b: bv, h: hv}, inplace=inplace)
            # x, w and the produced w_new stay resident
            assert est.persistent_bytes == 4 * (bv * hv + 2 * hv * hv)

    def test_greedy_credits_repeated_reads(self):
        g = _edge_case_graph()
        sizes = oracles.evaluate_sizes(g, {b: 3, h: 5})
        names = [op.name for op in memory_greedy_order(g, sizes)]
        assert names == [op.name for op in
                         _memory_greedy_order_reference(g, sizes)]
        assert names == ["proj", "square", "update", "reduce", "side"]


def _count(name):
    return counter(name).value


class TestTablesBuiltOnce:
    def test_build_and_validate_skip_liveness_tables(self):
        before = _count("graph.skeleton.liveness.builds")
        greedy = _count("graph.skeleton.greedy.builds")
        model = build_word_lm(seq_len=3, vocab=50, layers=1)
        validate_graph(model.graph)
        assert _count("graph.skeleton.liveness.builds") == before
        assert _count("graph.skeleton.greedy.builds") == greedy

    def test_sweep_builds_tables_once(self):
        model = build_word_lm(seq_len=3, vocab=50, layers=1)
        names = ("graph.skeleton.cache.miss",
                 "graph.skeleton.liveness.builds",
                 "graph.skeleton.greedy.builds",
                 "graph.size_program.cache.miss")
        before = [_count(n) for n in names]
        for size in (8, 16, 24, 32, 48, 64, 96):
            estimate_footprint(model, {model.size_symbol: size,
                                       model.batch: 4})
        built = [_count(n) - c for n, c in zip(names, before)]
        # the wiring core came from the model build's validation
        assert built == [0, 1, 1, 1]
