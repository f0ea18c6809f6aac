"""Mini BERT-style bidirectional encoder trained from scratch.

Desk-scale stand-in for a large pre-trained encoder: learned token and
absolute position embeddings, post-norm self-attention blocks with GELU
feed-forward layers, and a tanh pooler over the leading ([CLS]) position.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError, ContractError
from .files import atomic_open

MASK_BIAS = -1e9  # exp() of (score + bias - max) underflows to exactly 0.0

INIT_STD = 0.02


@dataclass(frozen=True)
class EncoderConfig:
    """Shape hyperparameters of the encoder."""

    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 6
    d_ff: int = 256
    max_len: int = 250
    dropout_rate: float = 0.4
    pad_id: int = 0

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ConfigError("vocab_size must be positive")
        if min(self.d_model, self.n_heads, self.n_layers, self.d_ff) < 1:
            raise ConfigError("model dimensions must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.max_len < 3:
            raise ConfigError("max_len must allow [CLS], one token and [SEP]")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")


def param_shapes(config: EncoderConfig) -> dict:
    """Name -> shape of every encoder parameter, in the order they are drawn and stored."""
    d, f = config.d_model, config.d_ff
    shapes = {
        "embeddings.token": (config.vocab_size, d),
        "embeddings.position": (config.max_len, d),
        "embeddings.ln.gain": (d,),
        "embeddings.ln.bias": (d,),
    }
    for i in range(config.n_layers):
        for proj in ("q", "k", "v", "out"):
            shapes[f"layer.{i}.attn.{proj}.weight"] = (d, d)
            shapes[f"layer.{i}.attn.{proj}.bias"] = (d,)
        shapes[f"layer.{i}.attn.ln.gain"] = (d,)
        shapes[f"layer.{i}.attn.ln.bias"] = (d,)
        shapes[f"layer.{i}.ff.in.weight"] = (d, f)
        shapes[f"layer.{i}.ff.in.bias"] = (f,)
        shapes[f"layer.{i}.ff.out.weight"] = (f, d)
        shapes[f"layer.{i}.ff.out.bias"] = (d,)
        shapes[f"layer.{i}.ff.ln.gain"] = (d,)
        shapes[f"layer.{i}.ff.ln.bias"] = (d,)
    shapes["pooler.dense.weight"] = (d, d)
    shapes["pooler.dense.bias"] = (d,)
    return shapes


def init_arrays(shapes: dict, rng: np.random.Generator) -> dict:
    """Fresh values for a name -> shape table, drawn in its order: unit gains,
    zero biases and normal(0, 0.02) weights, told apart by name suffix."""

    def fresh(name, shape):
        if name.endswith(".gain"):
            return np.ones(shape)
        if name.endswith(".bias"):
            return np.zeros(shape)
        return rng.normal(0.0, INIT_STD, size=shape)

    return {name: fresh(name, shape) for name, shape in shapes.items()}


class EncoderParams:
    """A name -> Tensor table of parameters plus the encoder config.

    The encoder reads the names of `param_shapes` ("embeddings.*",
    "layer.<i>.*", "pooler.*"), which the optimizer's grouping keys on; a
    model's table also holds its classifier ("classifier.*").
    """

    def __init__(self, config: EncoderConfig, tensors: dict):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


def _attention_weights(params: EncoderParams, layer: int) -> tuple:
    return tuple(
        (params[f"layer.{layer}.attn.{proj}.weight"], params[f"layer.{layer}.attn.{proj}.bias"])
        for proj in ("q", "k", "v", "out")
    )


def encode_batch(
    params: EncoderParams,
    token_ids: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
    attn_sink: list | None = None,
) -> Tensor:
    """Run the encoder over a padded (batch, seq) id matrix.

    Returns the last layer's representation at position 0 for each row.
    Padding positions are masked out of every attention step, so appended
    [PAD] ids cannot influence the result. Since only position 0 is
    returned, the last layer computes its attention query, residuals, layer
    norms and feed-forward for that row alone; its keys and values still
    cover every position, and its dropout masks are drawn at full size so
    the rng stream matches a full computation. When `attn_sink` is a list,
    each layer's attention probabilities are appended to it: (batch, heads,
    seq, seq) per layer, except (batch, heads, 1, seq) for the last one.
    """
    cfg = params.config
    ids = np.asarray(token_ids)
    if ids.ndim != 2:
        raise ContractError(f"encode_batch expects a 2-d id matrix, got shape {ids.shape}")
    b, s = ids.shape
    if s > cfg.max_len:
        raise ContractError(
            f"sequence length {s} exceeds max_len {cfg.max_len}; truncate upstream"
        )
    if s < 1:
        raise ContractError("empty sequence")

    dtype = params["embeddings.token"].values.dtype  # float32 scores stay float32
    key_bias = np.where(ids == cfg.pad_id, MASK_BIAS, 0.0).astype(dtype, copy=False)  # (b, s)
    rate = cfg.dropout_rate
    full = (b, s, cfg.d_model)

    emb = ag.add(
        ag.embedding_gather(params["embeddings.token"], ids),
        ag.embedding_gather(params["embeddings.position"], np.arange(s)),
    )
    x = ag.layer_norm(emb, params["embeddings.ln.gain"], params["embeddings.ln.bias"])
    x = ag.dropout(x, rate, train, rng)

    for layer in range(cfg.n_layers):
        rows = 1 if layer == cfg.n_layers - 1 else s  # only [CLS] leaves the last layer
        attn = ag.self_attention(
            x, _attention_weights(params, layer), key_bias, cfg.n_heads,
            rate, train, rng, n_queries=rows, sink=attn_sink,
        )
        if rows < s:
            x = ag.select(x, slice(0, rows), axis=1)
        x = ag.residual_norm(
            x, attn, params[f"layer.{layer}.attn.ln.gain"], params[f"layer.{layer}.attn.ln.bias"],
            rate, train, rng, draw_shape=full,
        )
        ff = ag.feed_forward(
            x, params[f"layer.{layer}.ff.in.weight"], params[f"layer.{layer}.ff.in.bias"],
            params[f"layer.{layer}.ff.out.weight"], params[f"layer.{layer}.ff.out.bias"],
        )
        x = ag.residual_norm(
            x, ff, params[f"layer.{layer}.ff.ln.gain"], params[f"layer.{layer}.ff.ln.bias"],
            rate, train, rng, draw_shape=full,
        )

    return ag.select(x, 0, axis=1)  # (b, d_model) at the [CLS] position


def pooler(h: Tensor, params: EncoderParams) -> Tensor:
    """Dense + tanh transform of the [CLS] representation; output in (-1, 1)."""
    return ag.tanh(ag.linear(h, params["pooler.dense.weight"], params["pooler.dense.bias"]))


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 4


def save_checkpoint(
    path,
    config: EncoderConfig,
    arrays: dict,
    meta: dict | None = None,
) -> None:
    """Write a bit-exact .npz dump of config, parameters and metadata.

    `arrays` maps name -> array for every trainable parameter (encoder plus
    heads). A checkpoint is a best-validation snapshot, not a resume point,
    so no optimizer state is stored. The file holds two members: `header`,
    the sorted JSON header as UTF-8 bytes, and `params`, every parameter
    flattened into one float64 array in `arrays` order, which the header's
    `params` index lists as [name, shape]. Uncompressed npz keeps the file
    bytes a pure function of the content, so equal runs hash identically.
    """
    header = {
        "version": CHECKPOINT_VERSION,
        "encoder_config": asdict(config),
        "meta": meta or {},
        "params": [[name, list(a.shape)] for name, a in arrays.items()],
    }
    text = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    flat = np.concatenate([a.ravel() for a in arrays.values()])
    with atomic_open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(text, dtype=np.uint8), params=flat)


def load_checkpoint(path):
    """Read a checkpoint; returns (config, name -> array, meta).

    Each array is a view of the file's one `params` array. The header's
    index is checked against that array before any view is taken.
    """
    # opened here, because np.load leaves a file it opened itself open on a bad zip, and
    # outside the `try`, so that a missing or unreadable file keeps its own error
    with open(path, "rb") as fh:
        try:
            with np.load(fh) as data:
                raw = data["header"]
                # a version-2 header is a numpy unicode string, read only to name its version
                text = str(raw) if raw.dtype.kind == "U" else raw.tobytes().decode("utf-8")
                header = json.loads(text)
                version = header["version"]
                if version == CHECKPOINT_VERSION:
                    flat, config = data["params"], header["encoder_config"]
                    meta = dict(header["meta"])
        # not numpy data, a bare array, no header or params; a truncated, empty or damaged
        # zip, whose central directory may send a seek past the file (OSError)
        except (ValueError, TypeError, KeyError, zipfile.BadZipFile, EOFError,
                NotImplementedError, OSError):
            raise ConfigError(f"{path}: not a pcldetect checkpoint") from None
    if version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"{path}: checkpoint version {version}; this pcldetect reads version {CHECKPOINT_VERSION}"
        )
    try:
        config = EncoderConfig(**config)
    except TypeError:  # not a mapping, a field EncoderConfig lacks or needs, a mistyped value
        raise ConfigError(f"{path}: checkpoint encoder config {config!r} does not fit") from None
    arrays, offset = {}, 0
    for name, shape in _param_index(path, header.get("params"), flat):
        size = math.prod(shape)
        arrays[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return config, arrays, meta


def _param_index(path, index, flat) -> list:
    """The header's [name, shape] list, refused unless it exactly covers `flat`."""

    def bad(why):
        return ConfigError(f"{path}: checkpoint parameter index {why}")

    if flat.dtype != np.float64 or flat.ndim != 1:
        raise ConfigError(f"{path}: checkpoint params are {flat.dtype} of shape {flat.shape}, "
                          "not a 1-d float64 array")
    if not isinstance(index, list):
        raise bad("is missing")
    seen, total = set(), 0
    for entry in index:
        name, shape = entry if isinstance(entry, list) and len(entry) == 2 else (None, None)
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(dim) is int and dim >= 0 for dim in shape)):
            raise bad(f"entry {entry!r} is not a name and a shape of non-negative integers")
        if name in seen:
            raise bad(f"names {name} twice")
        seen.add(name)
        total += math.prod(shape)
    if total != flat.size:
        raise bad(f"sizes sum to {total}, but params holds {flat.size} values")
    return index
