"""Graph checkpoints: save/load compute graphs as JSON.

The paper's artifact distributes its analyzed models as saved graph
definitions (TensorFlow MetaGraphDef checkpoints) that Catamount loads
back for analysis.  This module provides the same workflow for our IR:

    data = save_graph(graph)            # JSON-compatible dict
    graph2 = load_graph(data)           # analytically identical

Round-tripped graphs preserve symbolic shapes, op attributes, and
producer/consumer structure, so every analysis (FLOPs, bytes,
footprint, execution) gives identical results.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Tuple

from ..symbolic import as_expr
from ..symbolic.serialize import expr_from_json, expr_to_json
from .graph import Graph
from .op import Op
from .tensor import Tensor

__all__ = ["save_graph", "load_graph", "save_graph_file",
           "load_graph_file"]


# -- per-class attribute codecs ----------------------------------------------
# encode: op -> config dict; decode: (name, inputs, outputs, config) -> Op

def _codec_registry() -> Dict[str, Tuple[Callable, Callable]]:
    from ..graph.autodiff import _GradSeed
    from ..ops.conv import Conv2DFilterGradOp, Conv2DInputGradOp, Conv2DOp
    from ..ops.embedding import EmbeddingGradOp, EmbeddingLookupOp
    from ..ops.matmul import BatchMatMulOp, MatMulOp
    from ..ops.norm import BatchNormGradOp, BatchNormOp
    from ..ops.optimizer import SGDUpdateOp
    from ..ops.pointwise import (
        BinaryOp,
        OneMinusOp,
        ScaleOp,
        UnaryGradOp,
        UnaryOp,
    )
    from ..ops.pool import (
        AvgPool1DGradOp,
        AvgPool1DOp,
        MaxPool2DGradOp,
        MaxPool2DOp,
    )
    from ..ops.reduce import BroadcastOp, ReduceOp
    from ..ops.shape import (
        ConcatOp,
        ReshapeOp,
        SplitOp,
        TransposeOp,
        ZeroOp,
    )
    from ..ops.softmax import (
        SoftmaxCrossEntropyGradOp,
        SoftmaxCrossEntropyOp,
        SoftmaxGradOp,
        SoftmaxOp,
    )

    def simple(cls):
        return (
            lambda op: {},
            lambda name, ins, outs, cfg: cls(name, *ins, *outs),
        )

    registry: Dict[str, Tuple[Callable, Callable]] = {}

    registry["MatMulOp"] = (
        lambda op: {"ta": op.transpose_a, "tb": op.transpose_b},
        lambda name, ins, outs, cfg: MatMulOp(
            name, ins[0], ins[1], outs[0],
            transpose_a=cfg["ta"], transpose_b=cfg["tb"]),
    )
    registry["BatchMatMulOp"] = (
        lambda op: {"ta": op.transpose_a, "tb": op.transpose_b},
        lambda name, ins, outs, cfg: BatchMatMulOp(
            name, ins[0], ins[1], outs[0],
            transpose_a=cfg["ta"], transpose_b=cfg["tb"]),
    )
    registry["Conv2DOp"] = (
        lambda op: {"stride": op.stride, "padding": op.padding},
        lambda name, ins, outs, cfg: Conv2DOp(
            name, ins[0], ins[1], outs[0],
            stride=cfg["stride"], padding=cfg["padding"]),
    )

    class _Fwd:
        """Geometry carrier for conv-grad reconstruction."""

        def __init__(self, cfg):
            self.stride = cfg["stride"]
            self.padding = cfg["padding"]
            self.kernel = tuple(cfg["kernel"])

    def conv_grad_cfg(op):
        return {"stride": op.stride, "padding": op.padding,
                "kernel": list(op.kernel)}

    registry["Conv2DInputGradOp"] = (
        conv_grad_cfg,
        lambda name, ins, outs, cfg: Conv2DInputGradOp(
            name, ins[0], ins[1], outs[0], forward=_Fwd(cfg)),
    )
    registry["Conv2DFilterGradOp"] = (
        conv_grad_cfg,
        lambda name, ins, outs, cfg: Conv2DFilterGradOp(
            name, ins[0], ins[1], outs[0], forward=_Fwd(cfg)),
    )
    registry["UnaryOp"] = (
        lambda op: {"fn": op.fn},
        lambda name, ins, outs, cfg: UnaryOp(name, cfg["fn"], ins[0],
                                             outs[0]),
    )
    registry["UnaryGradOp"] = (
        lambda op: {"fn": op.fn},
        lambda name, ins, outs, cfg: UnaryGradOp(
            name, cfg["fn"], ins[0], ins[1], ins[2], outs[0]),
    )
    registry["BinaryOp"] = (
        lambda op: {"fn": op.fn},
        lambda name, ins, outs, cfg: BinaryOp(name, cfg["fn"], ins[0],
                                              ins[1], outs[0]),
    )
    registry["ScaleOp"] = (
        lambda op: {"factor": op.factor},
        lambda name, ins, outs, cfg: ScaleOp(name, ins[0],
                                             cfg["factor"], outs[0]),
    )
    registry["OneMinusOp"] = simple(OneMinusOp)
    registry["ReduceOp"] = (
        lambda op: {"axes": list(op.axes), "mean": op.mean},
        lambda name, ins, outs, cfg: ReduceOp(
            name, ins[0], outs[0], tuple(cfg["axes"]),
            mean=cfg["mean"]),
    )
    registry["BroadcastOp"] = (
        lambda op: {"axes": list(op.axes), "normalize": op.normalize},
        lambda name, ins, outs, cfg: BroadcastOp(
            name, ins[0], outs[0], tuple(cfg["axes"]),
            normalize=cfg["normalize"]),
    )
    registry["ConcatOp"] = (
        lambda op: {"axis": op.axis},
        lambda name, ins, outs, cfg: ConcatOp(name, ins, outs[0],
                                              cfg["axis"]),
    )
    registry["SplitOp"] = (
        lambda op: {"axis": op.axis},
        lambda name, ins, outs, cfg: SplitOp(name, ins[0], outs,
                                             cfg["axis"]),
    )
    registry["ReshapeOp"] = simple(ReshapeOp)
    registry["TransposeOp"] = (
        lambda op: {"perm": list(op.perm)},
        lambda name, ins, outs, cfg: TransposeOp(name, ins[0], outs[0],
                                                 tuple(cfg["perm"])),
    )
    registry["ZeroOp"] = (
        lambda op: {},
        lambda name, ins, outs, cfg: ZeroOp(name, outs[0]),
    )
    registry["MaxPool2DOp"] = (
        lambda op: {"window": op.window, "stride": op.stride,
                    "padding": op.padding},
        lambda name, ins, outs, cfg: MaxPool2DOp(
            name, ins[0], outs[0], window=cfg["window"],
            stride=cfg["stride"], padding=cfg["padding"]),
    )

    class _PoolFwd:
        def __init__(self, cfg):
            self.window = cfg["window"]
            self.stride = cfg["stride"]
            self.padding = cfg["padding"]

    registry["MaxPool2DGradOp"] = (
        lambda op: {"window": op.window, "stride": op.stride,
                    "padding": op.padding},
        lambda name, ins, outs, cfg: MaxPool2DGradOp(
            name, ins[0], ins[1], ins[2], outs[0],
            forward=_PoolFwd(cfg)),
    )
    registry["AvgPool1DOp"] = (
        lambda op: {"window": op.window, "stride": op.stride},
        lambda name, ins, outs, cfg: AvgPool1DOp(
            name, ins[0], outs[0], window=cfg["window"],
            stride=cfg["stride"]),
    )
    registry["AvgPool1DGradOp"] = (
        lambda op: {"window": op.window, "stride": op.stride},
        lambda name, ins, outs, cfg: AvgPool1DGradOp(
            name, ins[0], outs[0], window=cfg["window"],
            stride=cfg["stride"]),
    )
    registry["BatchNormOp"] = (
        lambda op: {},
        lambda name, ins, outs, cfg: BatchNormOp(name, ins[0], ins[1],
                                                 ins[2], outs[0]),
    )
    registry["BatchNormGradOp"] = (
        lambda op: {"wants": list(op._wants)},
        lambda name, ins, outs, cfg: _decode_bn_grad(
            BatchNormGradOp, name, ins, outs, cfg),
    )
    registry["EmbeddingLookupOp"] = (
        lambda op: {},
        lambda name, ins, outs, cfg: EmbeddingLookupOp(
            name, ins[0], ins[1], outs[0]),
    )
    registry["EmbeddingGradOp"] = (
        lambda op: {},
        lambda name, ins, outs, cfg: EmbeddingGradOp(name, ins[0],
                                                     ins[1], outs[0]),
    )
    registry["SoftmaxOp"] = simple(SoftmaxOp)
    registry["SoftmaxGradOp"] = (
        lambda op: {},
        lambda name, ins, outs, cfg: SoftmaxGradOp(name, ins[0], ins[1],
                                                   outs[0]),
    )
    registry["SoftmaxCrossEntropyOp"] = (
        lambda op: {},
        lambda name, ins, outs, cfg: SoftmaxCrossEntropyOp(
            name, ins[0], ins[1], outs[0], outs[1]),
    )
    registry["SoftmaxCrossEntropyGradOp"] = (
        lambda op: {},
        lambda name, ins, outs, cfg: SoftmaxCrossEntropyGradOp(
            name, ins[0], ins[1], ins[2], outs[0]),
    )
    registry["SGDUpdateOp"] = (
        lambda op: {"lr": op.lr},
        lambda name, ins, outs, cfg: SGDUpdateOp(name, ins[0], ins[1],
                                                 lr=cfg["lr"]),
    )
    registry["_GradSeed"] = (
        lambda op: {},
        lambda name, ins, outs, cfg: _GradSeed(name, ins[0], outs[0]),
    )
    return registry


def _decode_bn_grad(cls, name, ins, outs, cfg):
    wants = cfg["wants"]
    slots = iter(outs)
    dx = next(slots) if wants[0] else None
    dgamma = next(slots) if wants[1] else None
    dbeta = next(slots) if wants[2] else None
    return cls(name, ins[0], ins[1], ins[2], dx, dgamma, dbeta)


def save_graph(graph: Graph) -> Dict[str, Any]:
    """Encode a graph as a JSON-compatible checkpoint dict."""
    registry = _codec_registry()
    tensors = []
    for t in graph.tensors.values():
        entry = {
            "name": t.name,
            "shape": [expr_to_json(d) for d in t.shape],
            "dtype_bytes": t.dtype_bytes,
            "kind": t.kind,
            "requires_grad": t.requires_grad,
        }
        if t.int_bound is not None:
            entry["int_bound"] = expr_to_json(t.int_bound)
        tensors.append(entry)

    ops = []
    for op in graph.ops:
        cls = type(op).__name__
        if cls not in registry:
            raise TypeError(
                f"no checkpoint codec for op class {cls} ({op.name})"
            )
        encode, _ = registry[cls]
        ops.append({
            "class": cls,
            "name": op.name,
            "inputs": [t.name for t in op.inputs],
            "outputs": [t.name for t in op.outputs],
            "config": encode(op),
        })

    return {
        "format": "repro-graph-v1",
        "name": graph.name,
        "default_dtype_bytes": graph.default_dtype_bytes,
        "tensors": tensors,
        "ops": ops,
    }


def load_graph(data: Dict[str, Any]) -> Graph:
    """Reconstruct a graph from a checkpoint dict."""
    if data.get("format") != "repro-graph-v1":
        raise ValueError(
            f"not a repro graph checkpoint: format={data.get('format')!r}"
        )
    registry = _codec_registry()
    graph = Graph(data["name"],
                  default_dtype_bytes=data["default_dtype_bytes"])

    for entry in data["tensors"]:
        t = Tensor(
            entry["name"],
            tuple(expr_from_json(d) for d in entry["shape"]),
            dtype_bytes=entry["dtype_bytes"],
            kind=entry["kind"],
        )
        if "int_bound" in entry:
            t.int_bound = expr_from_json(entry["int_bound"])
        graph.tensors[t.name] = t

    for entry in data["ops"]:
        cls = entry["class"]
        if cls not in registry:
            raise ValueError(f"unknown op class {cls!r} in checkpoint")
        _, decode = registry[cls]
        ins = [graph.tensors[n] for n in entry["inputs"]]
        outs = [graph.tensors[n] for n in entry["outputs"]]
        graph.add_op(decode(entry["name"], ins, outs, entry["config"]))

    # restore explicit grad flags (add_op propagation covers most, but
    # saved graphs are authoritative)
    for entry in data["tensors"]:
        graph.tensors[entry["name"]].requires_grad = \
            entry["requires_grad"]
    return graph


def save_graph_file(graph: Graph, path: str) -> None:
    """Write a graph checkpoint to a JSON file."""
    with open(path, "w") as handle:
        json.dump(save_graph(graph), handle)


def load_graph_file(path: str) -> Graph:
    """Load a graph checkpoint from a JSON file."""
    with open(path) as handle:
        return load_graph(json.load(handle))
