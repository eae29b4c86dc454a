"""The per-graph cost table against the op-by-op oracles.

Every per-op cost consumer reads ``Graph.cost_groups()``; these tests
hold each one to the reference loop in ``tests/oracles.py``: symbolic
aggregates must be the *same interned* ``Expr``, float results must be
bit-equal.
"""

import pickle
import tracemalloc

import pytest

from repro.analysis.counters import StepCounts
from repro.graph import Graph, Op
from repro.graph import op as op_module
from repro.hardware import V100_LIKE
from repro.hardware.cache import cache_aware_step_time, cache_aware_total_bytes
from repro.models import build_word_lm
from repro.models.registry import DOMAINS, build_symbolic
from repro.ops import add, matmul
from repro.planner.model_parallel import split_stages
from repro.reports.ablations import _case_model
from repro.symbolic import symbols

from .. import oracles

_STAGES = {
    "embedding": ["embedding", "embed", "step_split", "x_t", "ids"],
    "lstm0": ["lstm0"],
    "lstm1": ["lstm1"],
    "output": ["w_out", "b_out", "logits", "xent", "loss", "hidden_all"],
}


class _Scaled(Op):
    def __init__(self, name, x, out, factor):
        super().__init__(name, [x], [out])
        self.factor = factor


@pytest.fixture(scope="module")
def case_model():
    return _case_model()


def _assert_aggregates_identical(graph):
    table = graph.cost_groups()
    assert sum(table.counts) == len(graph.ops) == len(table.index)
    assert graph.total_flops() is oracles.total_flops(graph)
    assert graph.total_bytes_accessed() is oracles.total_bytes_accessed(graph)


class TestAggregates:
    @pytest.mark.parametrize("key", list(DOMAINS))
    def test_registry_models(self, key):
        _assert_aggregates_identical(build_symbolic(key).graph)

    def test_case_model(self, case_model):
        _assert_aggregates_identical(case_model.graph)

    def test_half_precision_build(self):
        _assert_aggregates_identical(_case_model(dtype_bytes=2).graph)

    def test_cache_aware_total_bytes(self, case_model):
        graph = case_model.graph
        for cache in (V100_LIKE.cache_bytes, 2**20):
            assert cache_aware_total_bytes(graph, cache) is \
                oracles.cache_aware_total_bytes(graph, cache)

    def test_unrolled_graph_collapses(self):
        graph = build_symbolic("word_lm").graph
        assert len(graph.cost_groups().ops) < len(graph.ops) // 50


class TestPerBinding:
    @pytest.mark.parametrize("subbatch", [128, 8])
    def test_cache_aware_step_time_bit_equal(self, case_model, subbatch):
        bindings = StepCounts(case_model).bind(4096, subbatch)
        for accel in (V100_LIKE, V100_LIKE.scaled(cache_bytes=2**20)):
            assert cache_aware_step_time(case_model.graph, accel,
                                         bindings) == \
                oracles.cache_aware_step_time(case_model.graph, accel,
                                              bindings)

    @pytest.mark.parametrize("subbatch", [128, 8])
    def test_split_stages_bit_equal(self, case_model, subbatch):
        bindings = StepCounts(case_model).bind(4096, subbatch)
        assert split_stages(case_model.graph, _STAGES, bindings) == \
            oracles.split_stages(case_model.graph, _STAGES, bindings)


class TestSignature:
    def test_transpose_flag_splits_groups(self):
        m, = symbols("m")
        g = Graph("t")
        a = g.input("a", (m, m))
        w = g.parameter("w", (m, m))
        plain = matmul(g, a, w, name="plain")
        flipped = matmul(g, a, w, transpose_b=True, name="flipped")
        assert plain.shape == flipped.shape
        ops = g.ops
        assert ops[0].cost_signature() != ops[1].cost_signature()
        assert len(g.cost_groups().ops) == 2

    def test_same_shapes_share_a_group(self):
        m, = symbols("m")
        g = Graph("t")
        a = g.input("a", (m, m))
        w = g.parameter("w", (m, m))
        matmul(g, a, w, name="first")
        matmul(g, a, w, name="second")
        table = g.cost_groups()
        assert table.counts == (2,)
        assert table.index == (0, 0)

    def test_unhashable_attribute_gets_its_own_group(self):
        m, = symbols("m")
        g = Graph("t")
        a = g.input("a", (m, m))
        w = g.parameter("w", (m, m))
        matmul(g, a, w, name="first")
        matmul(g, a, w, name="second")
        for op in g.ops:
            op.notes = ["unhashable"]
        assert [op.cost_signature() for op in g.ops] == [
            (type(op), op) for op in g.ops
        ]

    def test_add_op_invalidates_table(self):
        m, = symbols("m")
        g = Graph("t")
        a = g.input("a", (m, m))
        w = g.parameter("w", (m, m))
        out = matmul(g, a, w, name="mm")
        first = g.cost_groups()
        assert g.cost_groups() is first
        add(g, out, out)
        second = g.cost_groups()
        assert second is not first
        assert sum(second.counts) == 2
        assert g.total_flops() is oracles.total_flops(g)

    def test_unpickled_op_registers_its_state(self):
        m, = symbols("m")
        g = Graph("t")
        op = _Scaled("s", g.input("x", (m,)), g.tensor("y", (m,)), 2.0)
        blob = pickle.dumps(op)
        del op_module._STATE_NAMES[_Scaled]
        clone = pickle.loads(blob)
        assert op_module._STATE_NAMES[_Scaled] == ("factor",)
        assert clone.cost_signature() == op.cost_signature()

    def test_signatures_leave_no_per_op_memory(self):
        """CPython keeps instance attributes inline until ``__dict__``
        is read; a dict per resident op would move peak RSS."""
        graph = build_word_lm(seq_len=10, vocab=50, layers=1).graph
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for op in graph.ops:
                op.cost_signature()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 8 * len(graph.ops)
