"""Word language model: multi-layer LSTM (paper §2.3, Fig. 2).

Architecture: embedding lookup → ``layers`` recurrent LSTM layers →
FC output projection to the vocabulary → softmax cross-entropy.

Parameter count ≈ ``8h²l + 2hv`` and forward FLOPs/sample ≈
``q(16h²l + 2hv)`` — the analytic anchors of §4.2.  The embedding
contributes no FLOPs but a large share of the weight footprint; the FC
output layer dominates activation memory (a [b·q, v] logit tensor).

The ``projection`` option implements the projected LSTM of the §6 case
study (reduce the last hidden dimension before the huge output layer).
"""

from __future__ import annotations

from typing import Optional

from ..graph import Graph, validate_graph
from ..ops import concat, embedding_lookup, matmul, reduce_mean, reshape
from ..ops import softmax_cross_entropy
from ..symbolic import Symbol, as_expr
from .base import BuiltModel, traced_build
from .cells import lstm_layer, make_lstm_weights

__all__ = ["build_word_lm", "word_lm_params", "DEFAULT_SEQ_LEN"]

#: unroll length; FLOPs/param → 6q ≈ 480 asymptotically, matching the
#: paper's measured 481 (Table 2)
DEFAULT_SEQ_LEN = 80


def word_lm_params(hidden, layers: int, vocab, *, projection=None):
    """Closed-form parameter count (used as a test oracle).

    ``8h²l + 4hl + 2hv`` — weights + biases + embedding and output
    tables; with projection the last layer adds ``h·r`` and the output
    table shrinks to ``r·v``.
    """
    h = as_expr(hidden)
    v = as_expr(vocab)
    total = 0
    in_dim = h
    for layer in range(layers):
        is_last = layer == layers - 1
        if is_last and projection is not None:
            r = as_expr(projection)
            # recurrent state is the projected output: wh is [r, 4h]
            total = total + in_dim * 4 * h + r * 4 * h + 4 * h + h * r
            in_dim = r
        else:
            total = total + in_dim * 4 * h + h * 4 * h + 4 * h
            in_dim = h
    out_dim = as_expr(projection) if projection is not None else h
    return h * v + total + out_dim * v + v


@traced_build
def build_word_lm(
    *,
    hidden=None,
    layers: int = 2,
    vocab=40_000,
    seq_len: int = DEFAULT_SEQ_LEN,
    projection=None,
    training: bool = True,
    validate: bool = True,
    dtype_bytes: int = 4,
) -> BuiltModel:
    """Construct the word LM; ``hidden=None`` keeps width symbolic.

    ``dtype_bytes=2`` models half-precision training storage — the
    §6.2.3 low-precision memory lever.
    """
    batch = Symbol("b")
    size_symbol = None
    if hidden is None:
        size_symbol = Symbol("h")
        hidden = size_symbol
    hidden = as_expr(hidden)
    vocab = as_expr(vocab)

    g = Graph("word_lm", default_dtype_bytes=dtype_bytes)
    ids = g.input("ids", (batch * seq_len,))
    ids.int_bound = vocab
    labels = g.input("labels", (batch * seq_len,))
    labels.int_bound = vocab

    embed_table = g.parameter("embedding", (vocab, hidden))
    flat_embeds = embedding_lookup(g, embed_table, ids, name="embed")
    # [b·q, h] → q per-step [b, h] slices
    stacked = reshape(g, flat_embeds, (seq_len, batch, hidden),
                      name="embed_steps")
    from ..ops import split

    step_slices = split(g, stacked, [1] * seq_len, axis=0, name="step_split")
    xs = [
        reshape(g, s, (batch, hidden), name=f"x_t{t}")
        for t, s in enumerate(step_slices)
    ]

    outputs = xs
    for layer in range(layers):
        is_last = layer == layers - 1
        weights = make_lstm_weights(
            g,
            outputs[0].shape[1],
            hidden,
            projection=projection if (is_last and projection) else None,
            name=f"lstm{layer}",
        )
        outputs = lstm_layer(g, outputs, weights, batch,
                             name=f"lstm{layer}")

    hidden_cat = concat(g, outputs, axis=0, name="hidden_all")  # [q·b, d]
    out_dim = outputs[0].shape[1]
    w_out = g.parameter("w_out", (out_dim, vocab))
    bias_out = g.parameter("b_out", (vocab,))
    from ..ops import add as add_op

    logits = add_op(g, matmul(g, hidden_cat, w_out, name="logits"),
                    bias_out, name="logits_biased")
    loss_vec, _probs = softmax_cross_entropy(g, logits, labels, name="xent")
    loss = reduce_mean(g, loss_vec, [0], name="loss")

    model = BuiltModel(
        domain="word_lm",
        graph=g,
        loss=loss,
        batch=batch,
        size_symbol=size_symbol,
        meta={
            "seq_len": seq_len,
            "layers": layers,
            "vocab": vocab,
            "projection": projection,
        },
    )
    if training:
        model.with_training_step()
    if validate:
        validate_graph(g)
    return model
