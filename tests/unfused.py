"""Reference encoder built from small autograd primitives only.

This is the composition `pcldetect.encoder.encode_batch` computes with its
fused `linear` and `self_attention` primitives: every projection is a
matmul node plus an add node, attention is about 23 nodes per layer, and
the last layer computes every row before position 0 is selected. Tests
compare the fused encoder against it in value and gradient.
"""

import numpy as np

from pcldetect import autograd as ag
from pcldetect.data import PAD_ID
from pcldetect.encoder import MASK_BIAS


def linear(x, params, name):
    return ag.add(ag.matmul(x, params[f"{name}.weight"]), params[f"{name}.bias"])


def attention(x, params, layer, mask_bias, cfg, train, rng, attn_sink):
    b, s, d = x.shape
    h, dh = cfg.n_heads, d // cfg.n_heads

    def split_heads(t):
        return ag.transpose(ag.reshape(t, (b, s, h, dh)), (0, 2, 1, 3))

    q = split_heads(linear(x, params, f"layer.{layer}.attn.q"))
    k = split_heads(linear(x, params, f"layer.{layer}.attn.k"))
    v = split_heads(linear(x, params, f"layer.{layer}.attn.v"))
    scores = ag.scale(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    probs = ag.softmax(ag.add(scores, mask_bias))
    if attn_sink is not None:
        attn_sink.append(probs.values.copy())
    probs = ag.dropout(probs, cfg.dropout_rate, train, rng)
    ctx = ag.reshape(ag.transpose(ag.matmul(probs, v), (0, 2, 1, 3)), (b, s, d))
    return linear(ctx, params, f"layer.{layer}.attn.out")


def encode_batch(params, token_ids, train=False, rng=None, attn_sink=None):
    """(batch, d_model) representation at position 0, every row computed."""
    cfg = params.config
    ids = np.asarray(token_ids)
    s = ids.shape[1]
    mask_bias = ag.constant(np.where(ids == PAD_ID, MASK_BIAS, 0.0)[:, None, None, :])
    emb = ag.add(
        ag.embedding_gather(params["embeddings.token"], ids),
        ag.embedding_gather(params["embeddings.position"], np.arange(s)),
    )
    x = ag.layer_norm(emb, params["embeddings.ln.gain"], params["embeddings.ln.bias"])
    x = ag.dropout(x, cfg.dropout_rate, train, rng)
    for layer in range(cfg.n_layers):
        attn = attention(x, params, layer, mask_bias, cfg, train, rng, attn_sink)
        x = ag.layer_norm(
            ag.add(x, ag.dropout(attn, cfg.dropout_rate, train, rng)),
            params[f"layer.{layer}.attn.ln.gain"],
            params[f"layer.{layer}.attn.ln.bias"],
        )
        ff = ag.gelu(linear(x, params, f"layer.{layer}.ff.in"))
        ff = linear(ff, params, f"layer.{layer}.ff.out")
        x = ag.layer_norm(
            ag.add(x, ag.dropout(ff, cfg.dropout_rate, train, rng)),
            params[f"layer.{layer}.ff.ln.gain"],
            params[f"layer.{layer}.ff.ln.bias"],
        )
    return ag.select(x, 0, axis=1)
