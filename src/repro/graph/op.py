"""Op base class: a node of the compute graph.

Each op knows its *algorithmic* cost, in the paper's sense (§2.1):

* :meth:`Op.flops` — FLOPs of the mathematical computation only (no
  address arithmetic, no loop overhead);
* :meth:`Op.bytes_accessed` — bytes the op must read as inputs plus
  write as outputs (no intermediate scratch, no cache effects).

Subclasses additionally implement

* :meth:`Op.backward` — construct the gradient subgraph for a training
  step (reverse-mode autodiff), and
* :meth:`Op.execute` — a concrete numpy evaluation used by the runtime
  profiler to cross-validate the symbolic counts.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from ..symbolic import Add, Const, Expr
from .tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Graph

__all__ = ["Op"]

#: per-op identity, never part of the cost signature
_IDENTITY_ATTRS = frozenset(("name", "inputs", "outputs"))

#: op class -> sorted names of every other attribute ever assigned on
#: one of its instances.  Recorded by ``Op.__setattr__`` so that
#: ``cost_signature`` never reads an instance ``__dict__``: CPython
#: keeps attributes inline until the dict is asked for, and
#: materializing it costs ~64 B on each of 100k+ resident ops.
_STATE_NAMES: Dict[type, Tuple[str, ...]] = {}
_STATE_LOCK = threading.Lock()
_UNSET = object()


def _register_state_name(cls: type, name: str) -> None:
    with _STATE_LOCK:
        names = _STATE_NAMES.get(cls, ())
        if name not in names:
            _STATE_NAMES[cls] = tuple(sorted((*names, name)))


class Op:
    """Base compute-graph node.

    Parameters
    ----------
    name:
        Unique op name within its graph (enforced by ``Graph.add_op``).
    inputs / outputs:
        Tensors read / produced.  Output tensors must have this op as
        their producer (``Graph.add_op`` wires this up).
    """

    #: short kind tag used in profiles, e.g. "matmul"; subclasses override.
    kind = "op"

    # -- declared cost metadata (consumed by repro.check.costs) ----------
    #: False for metadata-only view ops (reshape) whose algorithmic
    #: bytes are legitimately below the written-output lower bound.
    cost_writes_outputs = True
    #: upper-bound multiplier on operand traffic: algorithmic bytes may
    #: not exceed this many passes over inputs+outputs (SGD re-reads
    #: the weight, so its update op declares 2).
    cost_bytes_passes = 1
    #: declared per-symbol degree cap for the FLOP formula; ``None``
    #: defaults to the largest per-symbol degree among the op's tensor
    #: element counts (a FLOP count growing faster than any tensor the
    #: op touches is a formula regression).
    cost_degree = None
    #: True for weight-update ops (used by the params-never-updated lint).
    is_optimizer = False

    def __init__(self, name: str, inputs: Sequence[Tensor],
                 outputs: Sequence[Tensor]):
        self.name = name
        self.inputs: Tuple[Tensor, ...] = tuple(inputs)
        self.outputs: Tuple[Tensor, ...] = tuple(outputs)

    def __setattr__(self, name: str, value) -> None:
        if (name not in _IDENTITY_ATTRS
                and name not in _STATE_NAMES.get(type(self), ())):
            _register_state_name(type(self), name)
        object.__setattr__(self, name, value)

    def __setstate__(self, state: dict) -> None:
        # unpickling and copying bypass __setattr__ unless routed here
        for name, value in state.items():
            setattr(self, name, value)

    # -- algorithmic accounting ------------------------------------------
    def cost_signature(self) -> Hashable:
        """Key under which ops have identical cost terms.

        The op class, the ``(shape, dtype_bytes)`` of every operand
        (shapes are tuples of hash-consed ``Expr``s, so hashing them is
        cheap) and the value of every other attribute any instance of
        the class was ever given — ``transpose_b``, ``kernel``, ``fn``,
        ``axes`` … — derived generically, so a new op class needs no
        registration.  Two ops that agree on all of it read the same
        values from every attribute their cost methods can look up.
        An op with an unhashable attribute gets a signature of its own.
        """
        names = _STATE_NAMES.get(type(self), ())
        signature = (
            type(self),
            tuple([(t.shape, t.dtype_bytes) for t in self.inputs]),
            tuple([(t.shape, t.dtype_bytes) for t in self.outputs]),
            names,
            tuple([getattr(self, n, _UNSET) for n in names]),
        )
        try:
            hash(signature)
        except TypeError:
            return (type(self), self)
        return signature

    def flops(self) -> Expr:
        """Algorithmic FLOPs; default 0 (data movement / bookkeeping ops)."""
        return Const(0)

    def bytes_accessed(self) -> Expr:
        """Algorithmic bytes: read all inputs once + write all outputs once.

        Subclasses override when the op touches less than its operands
        (e.g. an embedding lookup reads only the gathered rows).
        """
        total = [t.size_bytes() for t in self.inputs]
        total += [t.size_bytes() for t in self.outputs]
        return Add.of(*total) if total else Const(0)

    # -- autodiff ----------------------------------------------------------
    def backward(self, graph: "Graph",
                 grad_outputs: Sequence[Optional[Tensor]]
                 ) -> Tuple[Optional[Tensor], ...]:
        """Build gradient ops; return a grad tensor (or None) per input.

        ``grad_outputs`` aligns with ``self.outputs``; entries are None
        when that output does not participate in the loss.  The default
        raises: ops reachable from the loss must implement their
        gradient.
        """
        raise NotImplementedError(
            f"{type(self).__name__} ({self.name}) has no gradient rule"
        )

    # -- concrete execution -------------------------------------------------
    def execute(self, inputs: Sequence[np.ndarray],
                output_shapes: Sequence[Tuple[int, ...]] = ()
                ) -> Tuple[np.ndarray, ...]:
        """Numpy forward evaluation used by the runtime executor.

        ``output_shapes`` supplies the concrete shape of each output
        under the current symbol bindings, for ops whose kernels cannot
        infer them from the inputs alone (broadcast, split, reshape,
        scatter).
        """
        raise NotImplementedError(
            f"{type(self).__name__} ({self.name}) has no numpy kernel"
        )

    # -- misc ---------------------------------------------------------------
    def validate(self) -> None:
        """Structural self-check; subclasses extend with shape rules."""
        for t in self.outputs:
            if t.producer is not self:
                raise ValueError(
                    f"output {t.name} of {self.name} has wrong producer"
                )

    def __repr__(self) -> str:
        ins = ", ".join(t.name for t in self.inputs)
        outs = ", ".join(t.name for t in self.outputs)
        return f"{type(self).__name__}({self.name}: [{ins}] -> [{outs}])"
