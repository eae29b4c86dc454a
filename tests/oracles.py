"""Test-only reference oracles: the op-by-op loops production replaced.

Production code reads each graph's cost table
(:meth:`repro.graph.Graph.cost_groups`) and evaluates every distinct
op cost once; the allocator keeps its LRU in an insertion-ordered dict
with running byte totals; footprints replay int lists aligned with the
graph's traversal index.  The straightforward per-op versions live
here so the tests can hold the fast paths to them — ``is``-identical
symbolic aggregates, bit-equal floats, field-equal allocator reports
and footprint estimates.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.footprint import FootprintEstimate
from repro.graph import (
    Graph,
    Op,
    Tensor,
    inplace_aliases,
    liveness_peak_aliased,
)
from repro.graph.traversal import _memory_greedy_order_reference
from repro.hardware.cache import cache_aware_op_bytes
from repro.planner.model_parallel import StageCosts
from repro.runtime.allocator import (
    AllocationReport,
    AllocatorConfig,
    _rounded,
)
from repro.symbolic import Add, Const, Expr


def total_flops(graph: Graph) -> Expr:
    return Add.of(Const(0), *(op.flops() for op in graph.ops))


def total_bytes_accessed(graph: Graph) -> Expr:
    return Add.of(Const(0), *(op.bytes_accessed() for op in graph.ops))


def cache_aware_total_bytes(graph: Graph, cache_bytes: float) -> Expr:
    return Add.of(Const(0), *(cache_aware_op_bytes(op, cache_bytes)
                              for op in graph.ops))


def cache_aware_step_time(graph: Graph, accel, bindings=None) -> dict:
    total_time = 0.0
    total_flops = 0.0
    total_bytes = 0.0
    for op in graph.ops:
        flops = op.flops().evalf(bindings)
        byts = cache_aware_op_bytes(op, cache_bytes=accel.cache_bytes)
        byts = byts.evalf(bindings)
        total_time += max(flops / accel.achievable_flops,
                          byts / accel.achievable_bandwidth)
        total_flops += flops
        total_bytes += byts
    return {
        "step_time": total_time,
        "flops": total_flops,
        "bytes": total_bytes,
        "flop_utilization": (total_flops / total_time / accel.peak_flops
                             if total_time else 0.0),
    }


def split_stages(graph: Graph, stage_prefixes: Mapping[str, Sequence[str]],
                 bindings: Optional[Mapping] = None) -> List[StageCosts]:
    order = list(stage_prefixes)
    costs = {s: StageCosts(s, 0.0, 0.0, 0.0, 0.0) for s in order}

    def stage_of(name: str) -> str:
        clean = name
        for prefix in ("grad/", "sgd/"):
            if clean.startswith(prefix):
                clean = clean[len(prefix):]
        for stage, prefixes in stage_prefixes.items():
            if any(clean.startswith(p) for p in prefixes):
                return stage
        return order[-1]

    for op in graph.ops:
        stage = costs[stage_of(op.name)]
        stage.flops += op.flops().evalf(bindings)
        stage.bytes_accessed += op.bytes_accessed().evalf(bindings)
        for out in op.outputs:
            if not out.is_persistent:
                stage.activation_bytes += out.size_bytes().evalf(bindings)
    for t in graph.tensors.values():
        if t.is_param:
            costs[stage_of(t.name)].param_bytes += \
                t.size_bytes().evalf(bindings)
    return [costs[s] for s in order]


def simulate_allocator(graph: Graph, order: Sequence[Op],
                       sizes: Mapping[Tensor, int],
                       config: Optional[AllocatorConfig] = None
                       ) -> AllocationReport:
    """List-based LRU; every total re-summed on every op."""
    config = config or AllocatorConfig()
    report = AllocationReport()
    resident: Dict[Tensor, int] = {}
    swapped: Dict[Tensor, int] = {}
    lru: List[Tensor] = []  # least-recently-used first
    pinned = 0
    limit = config.usable_bytes

    def touch(t: Tensor) -> None:
        if t in lru:
            lru.remove(t)
            lru.append(t)

    def high_water() -> None:
        resident_bytes = pinned + sum(resident.values())
        total = resident_bytes + sum(swapped.values())
        report.peak_resident_bytes = max(report.peak_resident_bytes,
                                         resident_bytes)
        report.peak_total_bytes = max(report.peak_total_bytes, total)

    def make_room(needed: int) -> None:
        if limit is None:
            return
        while pinned + sum(resident.values()) + needed > limit and lru:
            victim = lru.pop(0)
            size = resident.pop(victim)
            swapped[victim] = size
            report.swapped_out_bytes += size
            report.swap_events += 1

    for t in graph.tensors.values():
        if t.is_persistent or t.producer is None:
            size = _rounded(sizes[t], config.alignment)
            report.rounding_overhead_bytes += size - sizes[t]
            pinned += size
    high_water()

    remaining = {t: len(t.consumers) for t in graph.tensors.values()}
    for op in order:
        for out in op.outputs:
            if out.is_persistent or out.producer is None:
                continue
            size = _rounded(sizes[out], config.alignment)
            report.rounding_overhead_bytes += size - sizes[out]
            make_room(size)
            resident[out] = size
            lru.append(out)
        for t in op.inputs:
            if t in swapped:
                size = swapped.pop(t)
                make_room(size)
                resident[t] = size
                lru.append(t)
            else:
                touch(t)
        high_water()
        seen = set()
        for t in op.inputs:
            if t.is_persistent or t.producer is None or t in seen:
                continue
            seen.add(t)
            remaining[t] -= sum(1 for c in t.consumers if c is op)
            if remaining[t] == 0:
                if t in resident:
                    resident.pop(t)
                    if t in lru:
                        lru.remove(t)
                swapped.pop(t, None)
    return report


def evaluate_sizes(graph: Graph,
                   bindings: Optional[Mapping] = None) -> Dict[Tensor, int]:
    """Per-tensor recursive ``evalf`` (memoized per size expression)."""
    memo: Dict[object, int] = {}
    sizes: Dict[Tensor, int] = {}
    for t in graph.tensors.values():
        expr = t.size_bytes()
        if expr not in memo:
            memo[expr] = int(round(expr.evalf(bindings)))
        sizes[t] = memo[expr]
    return sizes


def topological_order(graph: Graph) -> List[Op]:
    """Kahn's algorithm on dicts; ready ops run in program order."""
    op_index = {op: i for i, op in enumerate(graph.ops)}
    pending = {
        op: len({t.producer for t in op.inputs if t.producer is not None})
        for op in graph.ops
    }
    ready = [op_index[op] for op in graph.ops if pending[op] == 0]
    order: List[Op] = []
    while ready:
        op = graph.ops[heapq.heappop(ready)]
        order.append(op)
        for out in op.outputs:
            for consumer in out.consumers:
                pending[consumer] -= 1
                if pending[consumer] == 0:
                    heapq.heappush(ready, op_index[consumer])
    if len(order) != len(graph.ops):
        raise ValueError(f"graph {graph.name} has a cycle")
    return order


def liveness_peak(graph: Graph, order: Sequence[Op],
                  sizes: Mapping[Tensor, int], *,
                  include_params: bool = True) -> int:
    """Dict-based liveness replay over a schedule of ops."""
    persistent = sum(sizes[t] for t in graph.tensors.values()
                     if t.is_persistent or t.producer is None)
    remaining = {t: len(t.consumers) for t in graph.tensors.values()}
    live = 0
    peak = 0
    for op in order:
        for t in op.outputs:
            if not (t.is_persistent or t.producer is None):
                live += sizes[t]
        peak = max(peak, live)
        seen = set()
        for t in op.inputs:
            if t.is_persistent or t.producer is None or t in seen:
                continue
            seen.add(t)
            remaining[t] -= sum(1 for c in t.consumers if c is op)
            if remaining[t] == 0:
                live -= sizes[t]
    return (persistent if include_params else 0) + peak


def estimate_footprint(model, bindings: Optional[Mapping] = None, *,
                       use_greedy: bool = True,
                       inplace: bool = False) -> FootprintEstimate:
    """Mapping-based footprint: a size dict per point, per-op sets."""
    graph = model.graph
    sizes = evaluate_sizes(graph, bindings)
    persistent = sum(sizes[t] for t in graph.tensors.values()
                     if t.is_persistent or t.producer is None)

    aliases = inplace_aliases(graph) if inplace else None
    orders = [topological_order(graph)]
    if use_greedy:
        orders.append(_memory_greedy_order_reference(graph, sizes))
    if aliases:
        peaks = [liveness_peak_aliased(graph, order, sizes, aliases)
                 for order in orders]
    else:
        peaks = [liveness_peak(graph, order, sizes) for order in orders]

    working_set = 0
    for op in graph.ops:
        local = sum(
            sizes[t] for t in set(op.inputs) | set(op.outputs)
            if not (t.is_persistent or t.producer is None)
        )
        working_set = max(working_set, local)

    return FootprintEstimate(
        program_order_bytes=peaks[0],
        greedy_bytes=peaks[-1],
        persistent_bytes=persistent,
        lower_bound_bytes=persistent + working_set,
    )
