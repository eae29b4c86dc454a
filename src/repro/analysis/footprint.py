"""Minimal memory footprint estimation (§2.1 / §4.5 / Figure 10).

The paper defines algorithmic memory footprint as the minimum, over all
correct topological traversals, of the peak live-tensor memory.  We
bound it from above with two schedules (framework-style program order,
and a memory-greedy order) and take the better, exactly the
"topological traversal estimates" of Figure 10.  A lower bound —
persistent weights + the largest single op working set — brackets the
estimate for validation.

Every point is index-native: it reads the graph's traversal index
(:func:`repro.graph.traversal.graph_index`), whose size program,
liveness tables and greedy tables are built once per graph.  A point
replays the size program into one int list aligned with the index's
tensors, and persistent bytes, both schedules' peaks and the
working-set bound (a max over the graph's few dozen distinct working
sets) all read that list — no per-point tensor dict, no per-op sets.
The mapping-based reference (per-tensor ``evalf``, the seed greedy
rescan) lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..graph import inplace_aliases, liveness_peak_aliased
from ..graph.traversal import graph_index
from ..models.base import BuiltModel
from ..obs.tracer import TRACER as _TRACER

__all__ = ["FootprintEstimate", "estimate_footprint"]


@dataclass
class FootprintEstimate:
    """Footprint bounds for one binding of a model's symbols."""

    #: peak bytes under plain program-order traversal
    program_order_bytes: int
    #: peak bytes under the memory-greedy schedule
    greedy_bytes: int
    #: persistent bytes (weights + inputs), always resident
    persistent_bytes: int
    #: lower bound: persistent + max single-op working set
    lower_bound_bytes: int

    @property
    def minimal_bytes(self) -> int:
        """Best (smallest) traversal estimate — the Fig. 10 quantity."""
        return min(self.program_order_bytes, self.greedy_bytes)

    @property
    def scheduler_gain(self) -> float:
        """Footprint saved by memory-greedy scheduling vs program order."""
        if self.program_order_bytes == 0:
            return 0.0
        return 1.0 - self.greedy_bytes / self.program_order_bytes


def estimate_footprint(model: BuiltModel,
                       bindings: Optional[Mapping] = None, *,
                       use_greedy: bool = True,
                       inplace: bool = False) -> FootprintEstimate:
    """Evaluate footprint bounds for one concrete configuration.

    ``bindings`` must bind the model's size symbol and subbatch.  Set
    ``use_greedy=False`` to skip the greedy schedule on very large
    graphs (the program-order bound is then reported for both).
    ``inplace=True`` applies the §4.5 TensorFlow optimization: eligible
    pointwise ops reuse their input's buffer.
    """
    graph = model.graph
    with _TRACER.span("analysis.footprint", "footprint",
                      graph=graph.name, use_greedy=use_greedy):
        return _estimate_footprint(graph, bindings, use_greedy, inplace)


def _estimate_footprint(graph, bindings, use_greedy,
                        inplace) -> FootprintEstimate:
    index = graph_index(graph)
    slot_sizes = index.slot_sizes(bindings)
    sizes = index.sizes(slot_sizes)
    live = index.liveness()
    persistent = live.persistent_bytes(sizes)

    orders = [index.topo()[1]]
    if use_greedy:
        orders.append(index.greedy_order(sizes))

    aliases = inplace_aliases(graph) if inplace else None
    if aliases:
        size_map = dict(zip(index.tensors, sizes))
        peaks = [
            liveness_peak_aliased(graph, [index.ops[i] for i in order],
                                  size_map, aliases)
            for order in orders
        ]
    else:
        peaks = [persistent + live.peak(order, sizes) for order in orders]

    working_set = max([0] + [sum([slot_sizes[s] for s in ws])
                             for ws in live.working_sets])
    return FootprintEstimate(
        program_order_bytes=peaks[0],
        greedy_bytes=peaks[-1],
        persistent_bytes=persistent,
        lower_bound_bytes=persistent + working_set,
    )
