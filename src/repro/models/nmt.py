"""Neural machine translation: encoder/decoder + attention (§2.4, Fig. 4).

Architecture (Luong et al.): a bi-directional LSTM first encoder layer,
uni-directional LSTM encoder layers above it, an LSTM decoder, a
general (bilinear) attention over encoder states, and an attentional
output layer feeding the target-vocabulary projection.

Word-piece sequences are short (q ≈ 25), so γ → 6q ≈ 150 — the paper's
149 FLOPs/param, the *lowest* of the recurrent models — while the two
embeddings (source + target) give it a word-LM-like weight footprint.
"""

from __future__ import annotations

from typing import List

from ..graph import Graph, Tensor, validate_graph
from ..ops import (
    add,
    batch_matmul,
    concat,
    embedding_lookup,
    matmul,
    reduce_mean,
    reshape,
    softmax,
    softmax_cross_entropy,
    split,
    tanh,
)
from ..symbolic import Symbol, as_expr
from .base import BuiltModel, traced_build
from .cells import bidirectional_lstm_layer, lstm_layer, make_lstm_weights

__all__ = ["build_nmt", "DEFAULT_SEQ_LEN"]

#: source/target word-piece unroll (γ → 6q ≈ 150, paper: 149)
DEFAULT_SEQ_LEN = 25


def _embed_steps(g: Graph, table: Tensor, ids: Tensor, seq_len: int,
                 batch, hidden, *, name: str) -> List[Tensor]:
    flat = embedding_lookup(g, table, ids, name=f"{name}/embed")
    stacked = reshape(g, flat, (seq_len, batch, hidden),
                      name=f"{name}/steps")
    slices = split(g, stacked, [1] * seq_len, axis=0, name=f"{name}/split")
    return [
        reshape(g, s, (batch, hidden), name=f"{name}/x_t{t}")
        for t, s in enumerate(slices)
    ]


@traced_build
def build_nmt(
    *,
    hidden=None,
    enc_layers: int = 2,
    dec_layers: int = 2,
    vocab=32_000,
    seq_len: int = DEFAULT_SEQ_LEN,
    training: bool = True,
    validate: bool = True,
    dtype_bytes: int = 4,
) -> BuiltModel:
    """Construct the NMT model; ``hidden=None`` keeps width symbolic."""
    batch = Symbol("b")
    size_symbol = None
    if hidden is None:
        size_symbol = Symbol("h")
        hidden = size_symbol
    hidden = as_expr(hidden)
    vocab = as_expr(vocab)

    g = Graph("nmt", default_dtype_bytes=dtype_bytes)
    src_ids = g.input("src_ids", (batch * seq_len,))
    src_ids.int_bound = vocab
    tgt_ids = g.input("tgt_ids", (batch * seq_len,))
    tgt_ids.int_bound = vocab
    labels = g.input("labels", (batch * seq_len,))
    labels.int_bound = vocab

    src_table = g.parameter("src_embedding", (vocab, hidden))
    tgt_table = g.parameter("tgt_embedding", (vocab, hidden))

    # --- encoder ---------------------------------------------------------
    xs = _embed_steps(g, src_table, src_ids, seq_len, batch, hidden,
                      name="src")
    fwd = make_lstm_weights(g, hidden, hidden, name="enc0/fwd")
    bwd = make_lstm_weights(g, hidden, hidden, name="enc0/bwd")
    enc = bidirectional_lstm_layer(g, xs, fwd, bwd, batch, name="enc0")
    for layer in range(1, enc_layers):
        weights = make_lstm_weights(g, enc[0].shape[1], hidden,
                                    name=f"enc{layer}")
        enc = lstm_layer(g, enc, weights, batch, name=f"enc{layer}")

    enc_dim = enc[0].shape[1]
    enc_stack = concat(
        g,
        [reshape(g, s, (batch, 1, enc_dim), name=f"enc3d_t{t}")
         for t, s in enumerate(enc)],
        axis=1,
        name="enc_stack",
    )  # [b, ts, enc_dim]

    # precomputed attention keys: enc_states @ Wa  (Luong "general")
    w_attn = g.parameter("w_attn", (enc_dim, hidden))
    enc_flat = reshape(g, enc_stack, (batch * seq_len, enc_dim),
                       name="enc_flat")
    keys_flat = matmul(g, enc_flat, w_attn, name="attn_keys")
    keys = reshape(g, keys_flat, (batch, seq_len, hidden),
                   name="attn_keys3d")

    # --- decoder ---------------------------------------------------------
    ys = _embed_steps(g, tgt_table, tgt_ids, seq_len, batch, hidden,
                      name="tgt")
    dec_weights = [
        make_lstm_weights(g, hidden, hidden, name=f"dec{layer}")
        for layer in range(dec_layers)
    ]
    dec = ys
    for layer, weights in enumerate(dec_weights):
        dec = lstm_layer(g, dec, weights, batch, name=f"dec{layer}")

    w_ctx = g.parameter("w_context", (enc_dim + hidden, hidden))
    attn_vecs = []
    for t, dec_h in enumerate(dec):
        query = reshape(g, dec_h, (batch, 1, hidden), name=f"attn/q{t}")
        scores = batch_matmul(g, query, keys, transpose_b=True,
                              name=f"attn/scores{t}")       # [b,1,ts]
        weights = softmax(g, scores, name=f"attn/w{t}")
        ctx = batch_matmul(g, weights, enc_stack,
                           name=f"attn/ctx{t}")              # [b,1,enc]
        ctx2d = reshape(g, ctx, (batch, enc_dim), name=f"attn/ctx2d{t}")
        joined = concat(g, [ctx2d, dec_h], axis=1, name=f"attn/join{t}")
        attn_vecs.append(
            tanh(g, matmul(g, joined, w_ctx, name=f"attn/vec{t}"),
                 name=f"attn/tanh{t}")
        )

    hidden_cat = concat(g, attn_vecs, axis=0, name="hidden_all")
    w_out = g.parameter("w_out", (hidden, vocab))
    b_out = g.parameter("b_out", (vocab,))
    logits = add(g, matmul(g, hidden_cat, w_out, name="logits"), b_out,
                 name="logits_biased")
    loss_vec, _ = softmax_cross_entropy(g, logits, labels, name="xent")
    loss = reduce_mean(g, loss_vec, [0], name="loss")

    model = BuiltModel(
        domain="nmt",
        graph=g,
        loss=loss,
        batch=batch,
        size_symbol=size_symbol,
        meta={
            "seq_len": seq_len,
            "enc_layers": enc_layers,
            "dec_layers": dec_layers,
            "vocab": vocab,
        },
    )
    if training:
        model.with_training_step()
    if validate:
        validate_graph(g)
    return model
