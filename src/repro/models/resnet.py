"""Image classification: ResNet with basic and bottleneck blocks (§2.2, Fig. 1).

Standard He et al. residual networks — 18/34 use basic (3×3, 3×3)
blocks, 50/101/152 use bottleneck (1×1, 3×3, 1×1) blocks — with an
optional *width multiplier* applied to every channel count, which is
how the paper grows image models ("increasing depth and convolution
channels ... improves accuracy the most", §4.1).

The width multiplier may stay symbolic: every channel dim becomes
``64·w`` etc., so the same graph yields closed-form FLOP/byte formulas
whose asymptotics in ``w`` reproduce the ResNet row of Table 2 —
huge γ (spatial weight reuse) and near-zero λ (weights stream once).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..graph import Graph, Tensor, validate_graph
from ..ops import (
    add,
    batch_norm,
    conv2d,
    matmul,
    max_pool2d,
    reduce_mean,
    relu,
    softmax_cross_entropy,
)
from ..symbolic import Symbol, as_expr
from .base import BuiltModel, traced_build

__all__ = ["build_resnet", "RESNET_BLOCKS"]

#: blocks per residual group for the supported depths
RESNET_BLOCKS = {
    18: (2, 2, 2, 2),
    34: (3, 4, 6, 3),
    50: (3, 4, 6, 3),
    101: (3, 4, 23, 3),
    152: (3, 8, 36, 3),
}

_BOTTLENECK_DEPTHS = frozenset({50, 101, 152})


def _conv_bn_relu(g: Graph, x: Tensor, cout, k: int, stride: int, *,
                  name: str, activate: bool = True) -> Tensor:
    w = g.parameter(f"{name}/w", (k, k, x.shape[3], cout))
    out = conv2d(g, x, w, stride=stride, padding="same", name=name)
    out = batch_norm(g, out, name=f"{name}/bn")
    if activate:
        out = relu(g, out, name=f"{name}/relu")
    return out


def _basic_block(g: Graph, x: Tensor, cout, stride: int, *,
                 name: str) -> Tensor:
    out = _conv_bn_relu(g, x, cout, 3, stride, name=f"{name}/conv1")
    out = _conv_bn_relu(g, out, cout, 3, 1, name=f"{name}/conv2",
                        activate=False)
    shortcut = x
    if stride != 1 or x.shape[3] != out.shape[3]:
        shortcut = _conv_bn_relu(g, x, cout, 1, stride,
                                 name=f"{name}/proj", activate=False)
    return relu(g, add(g, out, shortcut, name=f"{name}/skip"),
                name=f"{name}/out")


def _bottleneck_block(g: Graph, x: Tensor, mid, cout, stride: int, *,
                      name: str) -> Tensor:
    out = _conv_bn_relu(g, x, mid, 1, stride, name=f"{name}/conv1")
    out = _conv_bn_relu(g, out, mid, 3, 1, name=f"{name}/conv2")
    out = _conv_bn_relu(g, out, cout, 1, 1, name=f"{name}/conv3",
                        activate=False)
    shortcut = x
    if stride != 1 or x.shape[3] != out.shape[3]:
        shortcut = _conv_bn_relu(g, x, cout, 1, stride,
                                 name=f"{name}/proj", activate=False)
    return relu(g, add(g, out, shortcut, name=f"{name}/skip"),
                name=f"{name}/out")


@traced_build
def build_resnet(
    *,
    depth: int = 50,
    width=None,
    image_size: int = 224,
    classes: int = 1000,
    training: bool = True,
    validate: bool = True,
    dtype_bytes: int = 4,
) -> BuiltModel:
    """Construct a ResNet; ``width=None`` keeps the multiplier symbolic."""
    if depth not in RESNET_BLOCKS:
        raise ValueError(
            f"unsupported depth {depth}; choose from {sorted(RESNET_BLOCKS)}"
        )
    batch = Symbol("b")
    size_symbol = None
    if width is None:
        size_symbol = Symbol("w")
        width = size_symbol
    width = as_expr(width)

    bottleneck = depth in _BOTTLENECK_DEPTHS
    blocks = RESNET_BLOCKS[depth]

    g = Graph(f"resnet{depth}", default_dtype_bytes=dtype_bytes)
    image = g.input("image", (batch, image_size, image_size, 3))
    labels = g.input("labels", (batch,))
    labels.int_bound = as_expr(classes)

    out = _conv_bn_relu(g, image, 64 * width, 7, 2, name="stem")
    out = max_pool2d(g, out, window=3, stride=2, padding="same",
                     name="stem/pool")

    for group, num_blocks in enumerate(blocks):
        base = 64 * 2**group * width
        cout = 4 * base if bottleneck else base
        for block in range(num_blocks):
            stride = 2 if (group > 0 and block == 0) else 1
            name = f"g{group + 1}/b{block}"
            if bottleneck:
                out = _bottleneck_block(g, out, base, cout, stride,
                                        name=name)
            else:
                out = _basic_block(g, out, cout, stride, name=name)

    pooled = reduce_mean(g, out, [1, 2], name="global_pool")  # [b, c]
    w_fc = g.parameter("fc/w", (pooled.shape[1], classes))
    b_fc = g.parameter("fc/b", (classes,))
    logits = add(g, matmul(g, pooled, w_fc, name="fc"), b_fc,
                 name="logits")
    loss_vec, _ = softmax_cross_entropy(g, logits, labels, name="xent")
    loss = reduce_mean(g, loss_vec, [0], name="loss")

    model = BuiltModel(
        domain="image",
        graph=g,
        loss=loss,
        batch=batch,
        size_symbol=size_symbol,
        meta={
            "depth": depth,
            "image_size": image_size,
            "classes": classes,
            "bottleneck": bottleneck,
        },
    )
    if training:
        model.with_training_step()
    if validate:
        validate_graph(g)
    return model
