"""Graph traversal: topological orders, liveness, and schedules.

The paper's *algorithmic memory footprint* is the minimum over all
correct topological traversals of the peak live-tensor memory (§2.1).
Finding the true minimum is NP-hard (it generalizes register
sufficiency), so — like Catamount — we compute it with schedules that
are cheap and close to optimal in practice:

* :func:`topological_order` — deterministic Kahn order (program order
  among ready ops), modeling a framework that executes ops as issued;
* :func:`memory_greedy_order` — at every step run the ready op that
  minimizes the resulting live set, a strong footprint heuristic.

:func:`liveness_peak` replays any schedule and returns the high-water
mark of live bytes; persistent tensors (weights) are charged once.

All of them run on one int-indexed :class:`GraphIndex` per graph (see
:func:`graph_index`): a wiring core built on first use, plus size and
liveness tables built the first time a footprint needs them.
"""

from __future__ import annotations

import heapq
import weakref
from array import array
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs.metrics import counter as _obs_counter
from ..obs.tracer import TRACER as _TRACER
from ..symbolic import Expr
from ..symbolic.compile import CompiledExpr, compile_batch
from .graph import Graph
from .op import Op
from .tensor import Tensor

__all__ = [
    "topological_order",
    "memory_greedy_order",
    "liveness_peak",
    "evaluate_sizes",
    "evaluate_sizes_many",
    "size_program",
    "graph_index",
]

_SKEL_HIT = _obs_counter("graph.skeleton.cache.hit")
_SKEL_MISS = _obs_counter("graph.skeleton.cache.miss")
_LIVENESS_BUILDS = _obs_counter("graph.skeleton.liveness.builds")
_GREEDY_BUILDS = _obs_counter("graph.skeleton.greedy.builds")
# Size-program cache effectiveness (a miss batch-compiles the graph's
# distinct tensor size expressions) and greedy-scheduler heap traffic.
_SIZE_HIT = _obs_counter("graph.size_program.cache.hit")
_SIZE_MISS = _obs_counter("graph.size_program.cache.miss")
_HEAP_PUSHES = _obs_counter("graph.greedy.heap_pushes")
_HEAP_POPS = _obs_counter("graph.greedy.heap_pops")
_HEAP_STALE = _obs_counter("graph.greedy.stale_skips")
_SCHEDULES = _obs_counter("graph.greedy.schedules")


class Liveness:
    """Per-op liveness tables of one graph, on its :class:`GraphIndex`.

    *Transient* tensors are the ones a replay charges: produced by an
    op and not a weight.  ``out_live[i]`` lists op ``i``'s transient
    outputs and ``uses[i]`` its transient inputs, one entry per read
    (an op reading a tensor twice lists it twice; the consumer lists
    carry the same multiplicity).  ``persistent`` holds the weights and
    graph inputs, charged for the whole step.  ``working_sets`` holds
    each distinct working set of an op — its distinct transient inputs
    and outputs — as a sorted tuple of size slots, so the per-binding
    lower bound sums a few dozen sets instead of every op.
    """

    __slots__ = ("out_live", "uses", "consumer_counts", "persistent",
                 "working_sets")

    def __init__(self, index: "GraphIndex"):
        tensors = index.tensors
        slots = index.size_program()[1]
        live_index: Dict[Tensor, int] = {}
        persistent = []
        for i, t in enumerate(tensors):
            if t.is_persistent or t.producer is None:
                persistent.append(i)
            else:
                live_index[t] = i
        get = live_index.get
        out_live = []
        uses = []
        working_sets: Dict[tuple, None] = {}
        for op in index.ops:
            outs = tuple([j for j in map(get, op.outputs) if j is not None])
            ins = tuple([j for j in map(get, op.inputs) if j is not None])
            out_live.append(outs)
            uses.append(ins)
            members = set(ins)
            members.update(outs)
            working_sets[tuple(sorted([slots[j] for j in members]))] = None
        self.out_live = out_live
        self.uses = uses
        self.consumer_counts = [len(t.consumers) for t in tensors]
        self.persistent = tuple(persistent)
        self.working_sets = tuple(working_sets)

    def persistent_bytes(self, sizes: Sequence[int]) -> int:
        return sum(sizes[t] for t in self.persistent)

    def peak(self, order: Sequence[int], sizes: Sequence[int]) -> int:
        """High-water mark of transient bytes over an op-index order.

        A transient tensor is live from its producer until its last
        consumer runs; one with no consumers stays live to the end.
        """
        out_live = self.out_live
        uses = self.uses
        remaining = list(self.consumer_counts)
        live = 0
        peak = 0
        for i in order:
            for t in out_live[i]:
                live += sizes[t]
            if live > peak:
                peak = live
            for t in uses[i]:
                remaining[t] -= 1
                if remaining[t] == 0:
                    live -= sizes[t]
        return peak


class _GreedyTables:
    """What :func:`memory_greedy_order` needs beyond the wiring core.

    The scheduler charges every non-weight tensor, graph inputs
    included: ``out_grow[i]`` lists op ``i``'s non-weight outputs,
    ``uses[i]`` its distinct non-weight inputs with their read counts,
    and ``holders[t]`` the ``(op, reads)`` pairs of tensor ``t``.
    """

    __slots__ = ("out_grow", "uses", "holders", "consumer_counts")

    def __init__(self, index: "GraphIndex"):
        held = {t: i for i, t in enumerate(index.tensors)
                if not t.is_persistent}
        get = held.get
        out_grow = []
        greedy_uses = []
        holders: Dict[int, list] = {}
        for i, op in enumerate(index.ops):
            out_grow.append(
                tuple([j for j in map(get, op.outputs) if j is not None]))
            counts: Dict[int, int] = {}
            for j in map(get, op.inputs):
                if j is not None:
                    counts[j] = counts.get(j, 0) + 1
            items = tuple(counts.items())
            greedy_uses.append(items)
            for j, c in items:
                holders.setdefault(j, []).append((i, c))
        self.out_grow = out_grow
        self.uses = greedy_uses
        self.holders = {j: tuple(v) for j, v in holders.items()}
        self.consumer_counts = [len(t.consumers) for t in index.tensors]


class GraphIndex:
    """Int-indexed traversal structure of one graph (cached per graph).

    The *wiring core* — dense op and tensor indices, per-op producer
    counts and consumer edges — is all :func:`topological_order`
    needs, and is built once per graph version.  Everything a
    footprint needs besides the concrete sizes depends only on the
    wiring too, so it hangs off the same index and is built on first
    use: the batch-compiled size program (:meth:`size_program`), the
    liveness tables (:meth:`liveness`) and the greedy scheduler's
    tables.  Per-binding work is then plain list arithmetic over one
    int list aligned with :attr:`tensors` (:meth:`sizes`).
    """

    __slots__ = ("version", "name", "ops", "tensors", "op_index",
                 "pending0", "edge_consumers", "_topo", "_sizes",
                 "_liveness", "_greedy")

    def __init__(self, graph: Graph):
        with _TRACER.span("graph.skeleton", "graph", graph=graph.name,
                          n_ops=len(graph.ops)):
            ops = tuple(graph.ops)
            self.version = (len(ops), len(graph.tensors))
            self.name = graph.name
            self.ops = ops
            self.tensors = tuple(graph.tensors.values())
            op_index = {op: i for i, op in enumerate(ops)}
            self.op_index = op_index
            pending0 = array("i")
            edges = []
            for op in ops:
                producers = {t.producer for t in op.inputs}
                producers.discard(None)
                pending0.append(len(producers))
                edges.append(tuple([op_index[c] for out in op.outputs
                                    for c in out.consumers]))
            self.pending0 = pending0
            self.edge_consumers = edges
        self._topo: Optional[Tuple[Tuple[Op, ...], Tuple[int, ...]]] = None
        self._sizes: Optional[Tuple[Tuple[Expr, ...], array,
                                    CompiledExpr]] = None
        self._liveness: Optional[Liveness] = None
        self._greedy: Optional[_GreedyTables] = None

    # -- wiring ----------------------------------------------------------
    def topo(self) -> Tuple[Tuple[Op, ...], Tuple[int, ...]]:
        """Kahn order as ``(ops, op indices)``; ties run in program
        order.  Raises ``ValueError`` on a cycle."""
        if self._topo is None:
            pending = list(self.pending0)
            edges = self.edge_consumers
            ready = [i for i, p in enumerate(pending) if p == 0]
            order: List[int] = []
            while ready:
                i = heapq.heappop(ready)
                order.append(i)
                for j in edges[i]:
                    pending[j] -= 1
                    if pending[j] == 0:
                        heapq.heappush(ready, j)
            if len(order) != len(self.ops):
                raise ValueError(
                    f"graph {self.name} has a cycle "
                    f"({len(self.ops) - len(order)} ops unreachable)"
                )
            ops = self.ops
            self._topo = (tuple([ops[i] for i in order]), tuple(order))
        return self._topo

    # -- sizes -----------------------------------------------------------
    def size_program(self) -> Tuple[Tuple[Expr, ...], array, CompiledExpr]:
        """``(exprs, slots, program)``: the graph's distinct tensor size
        expressions, each tensor's slot among them, and one CSE'd tape
        over ``exprs`` (compiled once per index)."""
        if self._sizes is None:
            _SIZE_MISS.inc()
            with _TRACER.span("graph.size_program.compile", "compile",
                              graph=self.name,
                              n_tensors=len(self.tensors)):
                slot_of: Dict[Expr, int] = {}
                slots = array("i", [
                    slot_of.setdefault(t.size_bytes(), len(slot_of))
                    for t in self.tensors
                ])
                exprs = tuple(slot_of)
                self._sizes = (exprs, slots, compile_batch(exprs))
        else:
            _SIZE_HIT.inc()
        return self._sizes

    def slot_sizes(self, bindings: Optional[Mapping] = None,
                   engine: str = "compiled") -> List[int]:
        """Bytes of each distinct size expression under ``bindings``.

        ``"compiled"`` replays the tape, ``"codegen"`` its fused
        source-codegen form (bit-identical), ``"treewalk"`` calls each
        expression's recursive ``evalf``.
        """
        exprs, _, program = self.size_program()
        if engine == "treewalk":
            return [int(round(e.evalf(bindings))) for e in exprs]
        if engine == "codegen":
            program = program.codegen()
        elif engine != "compiled":
            raise ValueError(f"unknown size-program engine {engine!r}")
        return [int(round(v)) for v in program(bindings)]

    def sizes(self, slot_sizes: Sequence[int]) -> List[int]:
        """Per-tensor bytes, aligned with :attr:`tensors`, from this
        index's :meth:`slot_sizes`."""
        return list(map(slot_sizes.__getitem__, self._sizes[1]))

    def size_list(self, sizes: Mapping[Tensor, int]) -> List[int]:
        """A tensor -> bytes mapping resolved to the index's order."""
        return [sizes[t] for t in self.tensors]

    # -- lazily built tables -----------------------------------------------
    def liveness(self) -> Liveness:
        if self._liveness is None:
            with _TRACER.span("graph.skeleton.liveness", "graph",
                              graph=self.name, n_ops=len(self.ops)):
                self._liveness = Liveness(self)
            _LIVENESS_BUILDS.inc()
        return self._liveness

    def greedy_tables(self) -> _GreedyTables:
        if self._greedy is None:
            with _TRACER.span("graph.skeleton.liveness", "graph",
                              graph=self.name, n_ops=len(self.ops),
                              tables="greedy"):
                self._greedy = _GreedyTables(self)
            _GREEDY_BUILDS.inc()
        return self._greedy

    def greedy_order(self, sizes: Sequence[int]) -> List[int]:
        """Memory-greedy schedule as op indices (see
        :func:`memory_greedy_order`)."""
        tables = self.greedy_tables()
        n = len(self.ops)
        uses = tables.uses
        holders = tables.holders
        edges = self.edge_consumers

        remaining = list(tables.consumer_counts)
        grow = [sum([sizes[t] for t in outs]) for outs in tables.out_grow]
        shrink = [0] * n
        for t, ops_counts in holders.items():
            rem = remaining[t]
            for i, c in ops_counts:
                if c == rem:
                    shrink[i] += sizes[t]

        pending = list(self.pending0)
        is_ready = [False] * n
        executed = [False] * n
        # heap traffic is counted in locals (one add per heap op) and
        # flushed to the metrics registry once per schedule
        pushes = pops = stale = 0
        heap: List[Tuple[int, int]] = []
        for i in range(n):
            if pending[i] == 0:
                is_ready[i] = True
                heapq.heappush(heap, (grow[i] - shrink[i], i))
                pushes += 1

        order: List[int] = []
        while heap:
            delta, i = heapq.heappop(heap)
            pops += 1
            # skip stale entries: executed, or pushed before a later shrink
            if executed[i] or delta != grow[i] - shrink[i]:
                stale += 1
                continue
            executed[i] = True
            order.append(i)

            for t, c in uses[i]:
                remaining[t] -= c
                rem = remaining[t]
                if rem == 0:
                    continue
                # a consumer now holding all remaining uses will free t
                for j, cj in holders[t]:
                    if cj == rem and not executed[j]:
                        shrink[j] += sizes[t]
                        if is_ready[j]:
                            heapq.heappush(heap, (grow[j] - shrink[j], j))
                            pushes += 1
            for j in edges[i]:
                pending[j] -= 1
                if pending[j] == 0 and not is_ready[j]:
                    is_ready[j] = True
                    heapq.heappush(heap, (grow[j] - shrink[j], j))
                    pushes += 1
        _SCHEDULES.inc()
        _HEAP_PUSHES.inc(pushes)
        _HEAP_POPS.inc(pops)
        _HEAP_STALE.inc(stale)
        if len(order) != n:
            raise ValueError(f"graph {self.name} has a cycle")
        return order


_INDEXES: "weakref.WeakKeyDictionary[Graph, GraphIndex]" = (
    weakref.WeakKeyDictionary()
)


def graph_index(graph: Graph) -> GraphIndex:
    """The graph's :class:`GraphIndex`, rebuilt when ops or tensors were
    added since it was built."""
    cached = _INDEXES.get(graph)
    if (cached is None
            or cached.version != (len(graph.ops), len(graph.tensors))):
        _SKEL_MISS.inc()
        cached = GraphIndex(graph)
        _INDEXES[graph] = cached
    else:
        _SKEL_HIT.inc()
    return cached


def topological_order(graph: Graph) -> List[Op]:
    """Kahn's algorithm; among ready ops, preserves insertion order.

    Raises ``ValueError`` if the graph has a cycle (malformed
    construction) — every valid compute graph is a DAG.  The order is
    a pure function of the graph's wiring, so it is computed once per
    graph and a copy returned on later calls.
    """
    return list(graph_index(graph).topo()[0])


def size_program(graph: Graph) -> Tuple[Tuple[Expr, ...], CompiledExpr]:
    """The graph's distinct tensor byte-size expressions and their
    batch-compiled tape (cached on the graph's index).

    An unrolled graph has tens of thousands of tensors but a few dozen
    distinct size expressions, which share most of their subtrees (the
    same ``h``/``b`` products appear in every shape); one CSE'd tape
    evaluates each shared subterm once per binding.
    """
    exprs, _, program = graph_index(graph).size_program()
    return exprs, program


def evaluate_sizes(graph: Graph,
                   bindings: Optional[Mapping] = None, *,
                   engine: str = "compiled") -> Dict[Tensor, int]:
    """Concrete byte size per tensor under the given symbol bindings.

    Evaluates the cached batch-compiled size program — one tape replay
    for the whole graph, identical floats to the per-tensor tree walk.
    ``engine="codegen"`` replays the fused source-codegen form of the
    same program (bit-identical scalar results, no dispatch loop); the
    generated function is cached on the program, so the lowering cost
    is paid once per graph.
    """
    if engine not in ("compiled", "codegen"):
        raise ValueError(f"unknown size-program engine {engine!r}")
    index = graph_index(graph)
    sizes = index.sizes(index.slot_sizes(bindings, engine))
    return dict(zip(index.tensors, sizes))


def evaluate_sizes_many(graph: Graph, rows) -> "list[Dict[Tensor, int]]":
    """Sizes for many bindings at once (vectorized tape replay).

    ``rows`` is a sequence of bindings mappings or a column mapping
    (see :meth:`repro.symbolic.CompiledExpr.bind_matrix`); returns one
    size dict per row.
    """
    index = graph_index(graph)
    matrix = index.size_program()[2].eval_many(rows)
    return [
        dict(zip(index.tensors,
                 index.sizes([int(round(v)) for v in matrix[r]])))
        for r in range(matrix.shape[0])
    ]


def _evaluate_sizes_treewalk(graph: Graph,
                             bindings: Optional[Mapping] = None
                             ) -> Dict[Tensor, int]:
    """Reference per-tensor recursive evaluation (seed behavior).

    Kept for equivalence tests and as the baseline the compiled path is
    benchmarked against (``benchmarks/bench_compile_eval.py``).
    """
    sizes: Dict[Tensor, int] = {}
    for t in graph.tensors.values():
        sizes[t] = int(round(t.size_bytes().evalf(bindings)))
    return sizes


def _consumer_counts(graph: Graph) -> Dict[Tensor, int]:
    return {
        t: len(t.consumers) for t in graph.tensors.values()
    }


def memory_greedy_order(graph: Graph,
                        sizes: Mapping[Tensor, int]) -> List[Op]:
    """Schedule that greedily minimizes live memory growth per step.

    At each step, among ready ops pick the one whose execution changes
    live bytes the least (bytes allocated for outputs minus bytes of
    inputs that die).  Ties break on program order for determinism.

    Deltas are maintained *incrementally*: an op's growth (output
    bytes) is fixed, and its shrink (input bytes it frees) only ever
    increases — a tensor is credited to a consumer exactly when that
    consumer becomes the sole holder of its remaining uses.  A lazy
    min-heap over ``(delta, program index)`` then replaces the
    O(ready · degree) rescan per step, taking the schedule from
    O(V·ready·degree) to O((V + E) log V) while producing the *same*
    order as the reference scan (verified by tests).
    """
    index = graph_index(graph)
    ops = index.ops
    return [ops[i] for i in index.greedy_order(index.size_list(sizes))]


def _memory_greedy_order_reference(graph: Graph,
                                   sizes: Mapping[Tensor, int]) -> List[Op]:
    """Seed O(V·ready·degree) greedy scan — the behavioral oracle.

    Kept for equivalence tests against :func:`memory_greedy_order` and
    as the benchmark baseline; both must yield identical schedules.
    """
    op_index = {op: i for i, op in enumerate(graph.ops)}
    pending: Dict[Op, int] = {}
    remaining = _consumer_counts(graph)
    ready: List[Op] = []

    for op in graph.ops:
        producers = {t.producer for t in op.inputs if t.producer is not None}
        pending[op] = len(producers)
        if pending[op] == 0:
            ready.append(op)

    def delta(op: Op) -> int:
        grow = sum(
            sizes[t] for t in op.outputs if not t.is_persistent
        )
        shrink = 0
        seen = set()
        for t in op.inputs:
            if t.is_persistent or t in seen:
                continue
            seen.add(t)
            uses = sum(1 for c in t.consumers if c is op)
            if remaining[t] - uses == 0:
                shrink += sizes[t]
        return grow - shrink

    order: List[Op] = []
    while ready:
        best = min(ready, key=lambda op: (delta(op), op_index[op]))
        ready.remove(best)
        order.append(best)
        seen = set()
        for t in best.inputs:
            if t in seen:
                continue
            seen.add(t)
            remaining[t] -= sum(1 for c in t.consumers if c is best)
        for out in best.outputs:
            for consumer in out.consumers:
                pending[consumer] -= 1
                if pending[consumer] == 0:
                    ready.append(consumer)
    if len(order) != len(graph.ops):
        raise ValueError(f"graph {graph.name} has a cycle")
    return order


def liveness_peak(
    graph: Graph,
    order: Sequence[Op],
    sizes: Mapping[Tensor, int],
    *,
    include_params: bool = True,
) -> int:
    """Peak live bytes over a schedule (the footprint of that traversal).

    A non-persistent tensor becomes live when produced and dies after
    its last consumer executes.  Graph outputs (no consumers) stay live
    to the end.  Persistent tensors (weights) and graph inputs are live
    for the whole step.
    """
    index = graph_index(graph)
    live = index.liveness()
    size_list = index.size_list(sizes)
    op_index = index.op_index
    peak = live.peak([op_index[op] for op in order], size_list)
    base = live.persistent_bytes(size_list) if include_params else 0
    return base + peak
