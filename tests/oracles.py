"""Test-only reference oracles: the op-by-op loops and recursive tree
walks production replaced.

Production code reads each graph's cost table
(:meth:`repro.graph.Graph.cost_groups`) and evaluates every distinct
op cost once; the allocator keeps its LRU in an insertion-ordered dict
with running byte totals; footprints replay int lists aligned with the
graph's traversal index; every expression is evaluated by replaying
the generated-source form of a compiled tape; and the posynomial
queries run on flat ``Poly`` arrays.  The straightforward versions —
per-op loops, recursive ``Expr.evalf``, the seed greedy rescan and the
recursive expand/degree/coefficient — live here so the tests (and
``benchmarks/bench_compile_eval.py``) can hold the fast paths to them:
``is``-identical symbolic aggregates, bit-equal floats, field-equal
allocator reports, footprint estimates and sweep rows.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.counters import _SWEEP_AGGREGATES, StepCounts
from repro.analysis.footprint import FootprintEstimate
from repro.analysis.sweep import _GREEDY_OP_LIMIT, SweepRow
from repro.graph import (
    Graph,
    Op,
    Tensor,
    inplace_aliases,
    liveness_peak_aliased,
)
from repro.hardware.cache import cache_aware_op_bytes
from repro.planner.model_parallel import StageCosts
from repro.runtime.allocator import (
    AllocationReport,
    AllocatorConfig,
    _rounded,
)
from repro.symbolic import (
    Add,
    Ceil,
    Const,
    Expr,
    Floor,
    Log,
    Max,
    Min,
    Mul,
    Pow,
    Symbol,
    as_expr,
)


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
    """One recursive ``evalf`` per tensor (the seed sizing)."""
    return {t: int(round(t.size_bytes().evalf(bindings)))
            for t in graph.tensors.values()}


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


def memory_greedy_order(graph: Graph,
                        sizes: Mapping[Tensor, int]) -> List[Op]:
    """The seed O(V·ready·degree) greedy scan: every step rescans the
    ready list for the op that grows live bytes the least."""
    op_index = {op: i for i, op in enumerate(graph.ops)}
    pending: Dict[Op, int] = {}
    remaining = {t: len(t.consumers) for t in graph.tensors.values()}
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
        orders.append(memory_greedy_order(graph, sizes))
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


def sweep_aggregates(counts: StepCounts,
                     bindings: Sequence[Mapping]) -> List[List[float]]:
    """Every sweep aggregate at every binding, one recursive ``evalf``
    each (columns in ``StepCounts.sweep_series`` order)."""
    exprs = [getattr(counts, name) for name in _SWEEP_AGGREGATES]
    return [[e.evalf(b) for e in exprs] for b in bindings]


def sweep_rows(counts: StepCounts, sizes: Sequence[float], subbatch: int,
               *, include_footprint: bool = True) -> List[SweepRow]:
    """The seed sweep: a tree walk per aggregate per size, and the
    mapping-based footprint under the production greedy-op limit."""
    model = counts.model
    use_greedy = len(model.graph) <= _GREEDY_OP_LIMIT
    rows: List[SweepRow] = []
    for size in sizes:
        b = counts.bind(size, subbatch)
        step_bytes = counts.step_bytes.evalf(b)
        footprint = (estimate_footprint(model, b, use_greedy=use_greedy)
                     .minimal_bytes if include_footprint else 0.0)
        rows.append(SweepRow(
            size=size,
            params=counts.params.evalf(b),
            flops_per_sample=counts.flops_per_sample.evalf(b),
            step_bytes=step_bytes,
            intensity=(counts.step_flops.evalf(b) / step_bytes
                       if step_bytes else 0.0),
            footprint_bytes=float(footprint),
            bytes_fixed=counts.bytes_fixed.evalf(b),
            bytes_per_sample=counts.bytes_per_sample.evalf(b),
        ))
    return rows


# ---------------------------------------------------------------------
# Posynomial queries — the pre-flat recursive implementations behind
# ``repro.symbolic.expand`` / ``degree`` / ``coefficient``.

def expand(expr: Expr) -> Expr:
    expr = as_expr(expr)
    if isinstance(expr, (Const, Symbol)):
        return expr
    if isinstance(expr, Add):
        return Add.of(*(expand(arg) for arg in expr.args()))
    if isinstance(expr, Pow):
        base = expand(expr.base)
        exponent = expand(expr.exponent)
        if (
            isinstance(base, Add)
            and isinstance(exponent, Const)
            and exponent.value.denominator == 1
            and exponent.value >= 2
        ):
            n = int(exponent.value)
            out = base
            for _ in range(n - 1):
                out = _mul_expand(out, base)
            return out
        return Pow.of(base, exponent)
    if isinstance(expr, Mul):
        parts = [expand(arg) for arg in expr.args()]
        result = parts[0]
        for part in parts[1:]:
            result = _mul_expand(result, part)
        return result
    if isinstance(expr, Max):
        return Max.of(*(expand(a) for a in expr.fargs))
    if isinstance(expr, Min):
        return Min.of(*(expand(a) for a in expr.fargs))
    if isinstance(expr, (Ceil, Floor, Log)):
        return type(expr).of(expand(expr.fargs[0]))
    raise TypeError(f"cannot expand {type(expr).__name__}")


def _mul_expand(a: Expr, b: Expr) -> Expr:
    a_terms = a.args() if isinstance(a, Add) else (a,)
    b_terms = b.args() if isinstance(b, Add) else (b,)
    products = [Mul.of(x, y) for x in a_terms for y in b_terms]
    return Add.of(*products)


def _term_degree(term: Expr, sym: Symbol) -> Optional[Fraction]:
    """Degree of a product-form term in ``sym``; None if non-posynomial."""
    if isinstance(term, Const):
        return Fraction(0)
    if isinstance(term, Symbol):
        return Fraction(1) if term == sym else Fraction(0)
    if isinstance(term, Pow):
        if not isinstance(term.exponent, Const):
            return None
        inner = _term_degree(term.base, sym)
        if inner is None:
            return None
        return inner * term.exponent.value
    if isinstance(term, Mul):
        total = Fraction(0)
        for base, exponent in term.factors:
            if not isinstance(exponent, Const):
                return None
            inner = _term_degree(base, sym)
            if inner is None:
                return None
            total += inner * exponent.value
        return total
    if isinstance(term, (Max, Min, Ceil, Floor, Log)):
        if sym in term.free_symbols():
            return None
        return Fraction(0)
    return None


def degree(expr: Expr, sym: Symbol) -> Fraction:
    expr = expand(as_expr(expr))
    terms = expr.args() if isinstance(expr, Add) else (expr,)
    best = None
    for term in terms:
        d = _term_degree(term, sym)
        if d is None:
            raise ValueError(f"{expr} is not polynomial-like in {sym}")
        best = d if best is None else max(best, d)
    return best if best is not None else Fraction(0)


def coefficient(expr: Expr, sym: Symbol, power) -> Expr:
    power = Fraction(power)
    expr = expand(as_expr(expr))
    terms = expr.args() if isinstance(expr, Add) else (expr,)
    matched = []
    for term in terms:
        d = _term_degree(term, sym)
        if d is None:
            raise ValueError(f"{expr} is not polynomial-like in {sym}")
        if d == power:
            matched.append(Mul.of(term, Pow.of(sym, Const(-power))))
    if not matched:
        return Const(0)
    return Add.of(*matched)
