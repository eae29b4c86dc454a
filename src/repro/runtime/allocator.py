"""BFC-style allocator simulator (the TF memory-allocator substitute).

Figure 10 of the paper compares TensorFlow's allocator-reported memory
footprint with topological-traversal estimates, observing that the
allocator (a) slightly exceeds the algorithmic minimum (alignment,
binning), and (b) *flattens* once the model no longer fits in GPU
memory, because TF silently swaps tensors to host RAM and stops
counting them ("80% of 12GB").

This simulator replays a training-step schedule against a best-fit-
with-coalescing-inspired allocator: sizes round up to 256-byte-aligned
bins, a device capacity can be imposed, and when an allocation would
exceed capacity the least-recently-used live tensors are swapped out
(their bytes counted separately).  The reported footprint is the
device-resident high-water mark — exactly the quantity that flattens
in the paper's figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from ..graph import Graph, Op, Tensor
from ..obs.tracer import TRACER as _TRACER

__all__ = ["AllocatorConfig", "AllocationReport", "simulate_allocator"]

_ALIGNMENT = 256


@dataclass
class AllocatorConfig:
    """Device memory model for the allocator replay."""

    #: device capacity in bytes; None = unbounded (footprint measured)
    capacity_bytes: Optional[int] = None
    #: fraction of capacity usable before swapping begins (TF ~0.8)
    usable_fraction: float = 0.8
    #: bytes of allocation alignment (BFC: 256)
    alignment: int = _ALIGNMENT

    @property
    def usable_bytes(self) -> Optional[int]:
        if self.capacity_bytes is None:
            return None
        return int(self.capacity_bytes * self.usable_fraction)


@dataclass
class AllocationReport:
    """Outcome of an allocator replay."""

    #: device-resident high-water mark (what TF's allocator reports)
    peak_resident_bytes: int = 0
    #: true high-water including swapped-out tensors
    peak_total_bytes: int = 0
    #: bytes moved device→host by swapping
    swapped_out_bytes: int = 0
    #: number of swap events
    swap_events: int = 0
    #: allocation overhead vs exact sizes (alignment/binning), bytes
    rounding_overhead_bytes: int = 0

    @property
    def did_swap(self) -> bool:
        return self.swap_events > 0


def _rounded(size: int, alignment: int) -> int:
    if size <= 0:
        return alignment
    return ((size + alignment - 1) // alignment) * alignment


def simulate_allocator(
    graph: Graph,
    order: Sequence[Op],
    sizes: Mapping[Tensor, int],
    config: Optional[AllocatorConfig] = None,
) -> AllocationReport:
    """Replay a schedule through the allocator model.

    Persistent tensors (parameters) and graph inputs are allocated up
    front and never swap (frameworks pin weights); activations are
    allocated when produced, freed after their last consumer, and are
    swap candidates in LRU order when capacity pressure occurs.
    """
    with _TRACER.span("runtime.allocator", "runtime", graph=graph.name,
                      ops=len(order)):
        return _replay(graph, order, sizes, config or AllocatorConfig())


def _replay(graph: Graph, order: Sequence[Op], sizes: Mapping[Tensor, int],
            config: AllocatorConfig) -> AllocationReport:
    report = AllocationReport()

    # insertion order is the LRU order: least recently used first
    resident: Dict[Tensor, int] = {}
    swapped: Dict[Tensor, int] = {}
    pinned = 0
    resident_bytes = 0  # running totals of the two dicts' values
    swapped_bytes = 0
    limit = config.usable_bytes

    def high_water() -> None:
        live = pinned + resident_bytes
        report.peak_resident_bytes = max(report.peak_resident_bytes, live)
        report.peak_total_bytes = max(report.peak_total_bytes,
                                      live + swapped_bytes)

    def make_room(needed: int) -> None:
        nonlocal resident_bytes, swapped_bytes
        if limit is None:
            return
        while pinned + resident_bytes + needed > limit and resident:
            victim = next(iter(resident))
            size = resident.pop(victim)
            resident_bytes -= size
            swapped[victim] = size
            swapped_bytes += size
            report.swapped_out_bytes += size
            report.swap_events += 1

    # pin weights and inputs
    for t in graph.tensors.values():
        if t.is_persistent or t.producer is None:
            size = _rounded(sizes[t], config.alignment)
            report.rounding_overhead_bytes += size - sizes[t]
            pinned += size
    high_water()

    remaining = {t: len(t.consumers) for t in graph.tensors.values()}

    for op in order:
        # allocate outputs
        for out in op.outputs:
            if out.is_persistent or out.producer is None:
                continue
            size = _rounded(sizes[out], config.alignment)
            report.rounding_overhead_bytes += size - sizes[out]
            make_room(size)
            resident[out] = size
            resident_bytes += size
        # inputs are touched (swapped ones would page back in; we only
        # track the footprint consequence: they become resident again)
        for t in op.inputs:
            if t in swapped:
                size = swapped.pop(t)
                swapped_bytes -= size
                make_room(size)
                resident[t] = size
                resident_bytes += size
            elif t in resident:
                resident[t] = resident.pop(t)  # most recently used
        high_water()
        # free dead activations
        seen = set()
        for t in op.inputs:
            if t.is_persistent or t.producer is None or t in seen:
                continue
            seen.add(t)
            remaining[t] -= sum(1 for c in t.consumers if c is op)
            if remaining[t] == 0:
                if t in resident:
                    resident_bytes -= resident.pop(t)
                if t in swapped:
                    swapped_bytes -= swapped.pop(t)

    return report
