"""Graph container: owns tensors and ops, guarantees well-formedness.

The graph is a DAG of :class:`~repro.graph.op.Op` nodes connected by
:class:`~repro.graph.tensor.Tensor` edges.  It provides aggregate
algorithmic counts (FLOPs, bytes, parameters) as symbolic expressions —
the quantities the paper profiles with TFprof, here derived exactly.

Unrolled RNN training graphs repeat a few dozen distinct ops tens of
thousands of times, so every per-op cost consumer reads the graph's
:class:`CostGroups` table: one representative op and one count per
:meth:`Op.cost_signature <repro.graph.op.Op.cost_signature>`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..obs.tracer import TRACER as _TRACER
from ..symbolic import Add, Const, Expr, Mul
from .op import Op
from .tensor import Dim, Tensor, TensorKind

__all__ = ["CostGroups", "Graph"]


class CostGroups(NamedTuple):
    """A graph's ops grouped by cost signature.

    ``ops[g]`` represents the ``counts[g]`` ops of group ``g`` (the
    first one in program order); ``index[i]`` is the group of
    ``graph.ops[i]``, so per-binding consumers evaluate each group's
    terms once and still accumulate floats in program order.
    """

    ops: Tuple[Op, ...]
    counts: Tuple[int, ...]
    index: Tuple[int, ...]

    def total(self, cost: Callable[[Op], Expr]) -> Expr:
        """Exact Σ count × ``cost(op)`` over the groups.

        Rational arithmetic is exact and ``Add`` canonical, so this is
        the same interned ``Expr`` as summing ``cost`` over every op.
        """
        return Add.of(Const(0), *(
            Mul.of(Const(n), cost(op))
            for op, n in zip(self.ops, self.counts)
        ))


class Graph:
    """A compute graph under construction or analysis.

    ``default_dtype_bytes`` sets the element width of tensors created
    without an explicit dtype (4 = fp32; 2 models half precision — the
    §6.2.3 memory-reduction lever).
    """

    def __init__(self, name: str = "graph", *,
                 default_dtype_bytes: int = 4):
        self.name = name
        self.default_dtype_bytes = int(default_dtype_bytes)
        self.ops: List[Op] = []
        self.tensors: Dict[str, Tensor] = {}
        self._op_names: set = set()
        self._name_counters: Dict[str, int] = {}
        #: cost table and aggregates, cleared by :meth:`add_op`
        self._aggregate_cache: Dict[str, object] = {}

    # -- construction -----------------------------------------------------
    def unique_name(self, prefix: str) -> str:
        """Allocate a name unique across both ops and tensors."""
        count = self._name_counters.get(prefix, 0)
        while True:
            candidate = prefix if count == 0 else f"{prefix}_{count}"
            count += 1
            if candidate not in self.tensors and candidate not in self._op_names:
                self._name_counters[prefix] = count
                return candidate

    def tensor(
        self,
        prefix: str,
        shape: Sequence[Dim],
        *,
        dtype_bytes: Optional[int] = None,
        kind: str = TensorKind.ACTIVATION,
    ) -> Tensor:
        """Create and register a tensor with a unique name."""
        if dtype_bytes is None:
            dtype_bytes = self.default_dtype_bytes
        t = Tensor(self.unique_name(prefix), shape,
                   dtype_bytes=dtype_bytes, kind=kind)
        self.tensors[t.name] = t
        return t

    def parameter(self, prefix: str, shape: Sequence[Dim],
                  *, dtype_bytes: Optional[int] = None) -> Tensor:
        """Create a trainable weight tensor."""
        return self.tensor(prefix, shape, dtype_bytes=dtype_bytes,
                           kind=TensorKind.PARAMETER)

    def input(self, prefix: str, shape: Sequence[Dim],
              *, dtype_bytes: Optional[int] = None) -> Tensor:
        """Create a training-data input tensor."""
        return self.tensor(prefix, shape, dtype_bytes=dtype_bytes,
                           kind=TensorKind.INPUT)

    def add_op(self, op: Op) -> Op:
        """Register an op: wire producer/consumer links and check names."""
        if op.name in self._op_names:
            raise ValueError(f"duplicate op name {op.name!r}")
        for t in op.inputs:
            if self.tensors.get(t.name) is not t:
                raise ValueError(
                    f"op {op.name} consumes foreign tensor {t.name!r}"
                )
        for t in op.outputs:
            if self.tensors.get(t.name) is not t:
                raise ValueError(
                    f"op {op.name} produces foreign tensor {t.name!r}"
                )
            if t.producer is not None:
                raise ValueError(
                    f"tensor {t.name} already produced by {t.producer.name}"
                )
            t.producer = op
        for t in op.inputs:
            t.consumers.append(op)
        # requires_grad propagates forward through any op
        needs = any(t.requires_grad for t in op.inputs)
        if needs:
            for t in op.outputs:
                t.requires_grad = True
        self.ops.append(op)
        self._op_names.add(op.name)
        self._aggregate_cache.clear()
        return op

    # -- queries -----------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        """All trainable weight tensors, in creation order."""
        return [t for t in self.tensors.values() if t.is_param]

    def inputs(self) -> List[Tensor]:
        """All training-data input tensors."""
        return [t for t in self.tensors.values() if t.is_input]

    def find(self, name: str) -> Tensor:
        """Look up a tensor by exact name."""
        try:
            return self.tensors[name]
        except KeyError:
            raise KeyError(f"no tensor named {name!r} in graph {self.name}")

    def parameter_count(self) -> Expr:
        """Total trainable parameters (symbolic)."""
        counts = [t.num_elements() for t in self.parameters()]
        return Add.of(*counts) if counts else Const(0)

    def parameter_bytes(self) -> Expr:
        """Total weight memory (symbolic bytes)."""
        sizes = [t.size_bytes() for t in self.parameters()]
        return Add.of(*sizes) if sizes else Const(0)

    def cost_groups(self) -> CostGroups:
        """The ops grouped by :meth:`Op.cost_signature` (cached)."""
        table = self._aggregate_cache.get("groups")
        if table is None:
            with _TRACER.span("graph.cost_groups", "graph",
                              graph=self.name, ops=len(self.ops)) as span:
                slots: Dict[object, int] = {}
                ops: List[Op] = []
                counts: List[int] = []
                index: List[int] = []
                for op in self.ops:
                    group = slots.setdefault(op.cost_signature(), len(ops))
                    if group == len(ops):
                        ops.append(op)
                        counts.append(0)
                    counts[group] += 1
                    index.append(group)
                table = CostGroups(tuple(ops), tuple(counts), tuple(index))
                span.set(groups=len(ops))
            self._aggregate_cache["groups"] = table
        return table

    def _aggregate(self, key: str, cost: Callable[[Op], Expr]) -> Expr:
        if key not in self._aggregate_cache:
            with _TRACER.span("graph.aggregate", "graph",
                              graph=self.name, aggregate=key):
                self._aggregate_cache[key] = self.cost_groups().total(cost)
        return self._aggregate_cache[key]

    def total_flops(self) -> Expr:
        """Sum of algorithmic FLOPs across all ops.

        Cached until the graph changes — large unrolled models reuse
        the same aggregate at every sweep binding.
        """
        return self._aggregate("flops", lambda op: op.flops())

    def total_bytes_accessed(self) -> Expr:
        """Sum of algorithmic bytes accessed across all ops (cached)."""
        return self._aggregate("bytes", lambda op: op.bytes_accessed())

    def algorithmic_io_bytes(self) -> Expr:
        """Bytes of training data consumed per step (paper's algorithmic IO)."""
        sizes = [t.size_bytes() for t in self.inputs()]
        return Add.of(*sizes) if sizes else Const(0)

    def free_symbols(self) -> frozenset:
        out = frozenset()
        for t in self.tensors.values():
            for d in t.shape:
                out |= d.free_symbols()
        return out

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return (f"Graph({self.name}: {len(self.ops)} ops, "
                f"{len(self.tensors)} tensors)")
