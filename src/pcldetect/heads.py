"""Classification heads and losses: binary (contains PCL) and 7-way multi-label."""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import NUM_CATEGORIES
from .errors import ContractError

PROB_CLAMP = 1e-12

INIT_STD = 0.02


class BinaryHeadParams:
    """Dense layer (2 x d_model) feeding a softmax; index 1 is the positive class."""

    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight
        self.bias = bias

    @classmethod
    def init(cls, d_model: int, rng: np.random.Generator) -> "BinaryHeadParams":
        return cls(
            Tensor(rng.normal(0.0, INIT_STD, size=(2, d_model)), requires_grad=True),
            Tensor(np.zeros(2), requires_grad=True),
        )

    def named(self, prefix: str = "classifier") -> dict:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class MultiLabelHeadParams:
    """Dense layer (7 x d_model) feeding per-class sigmoids."""

    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight
        self.bias = bias

    @classmethod
    def init(cls, d_model: int, rng: np.random.Generator) -> "MultiLabelHeadParams":
        return cls(
            Tensor(
                rng.normal(0.0, INIT_STD, size=(NUM_CATEGORIES, d_model)),
                requires_grad=True,
            ),
            Tensor(np.zeros(NUM_CATEGORIES), requires_grad=True),
        )

    def named(self, prefix: str = "classifier") -> dict:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


def _logits(h: Tensor, head) -> Tensor:
    return ag.add(ag.matmul(h, ag.transpose(head.weight, (1, 0))), head.bias)


def binary_forward(h: Tensor, head: BinaryHeadParams) -> Tensor:
    """Two class probabilities summing to 1; works on (d,) or (batch, d)."""
    return ag.softmax(_logits(h, head))


def multilabel_forward(h: Tensor, head: MultiLabelHeadParams) -> Tensor:
    """Seven independent probabilities in (0, 1)."""
    return ag.sigmoid(_logits(h, head))


def binary_loss(probs: Tensor, golds) -> Tensor:
    """Mean binary cross-entropy on the positive-class probability.

    `probs` is a (batch, 2) tensor of class probabilities, `golds` a batch of
    0/1 labels. Probabilities are clamped to [1e-12, 1 - 1e-12] so both logs
    stay finite.
    """
    y = np.asarray(golds, dtype=np.float64)
    if y.size == 0:
        raise ContractError("binary_loss needs a non-empty batch")
    if probs.ndim != 2 or probs.shape[-1] != 2 or probs.shape[0] != y.shape[0]:
        raise ContractError(
            f"binary_loss expects probs (batch, 2) matching {y.shape[0]} golds, "
            f"got {probs.shape}"
        )
    p = ag.clip(ag.select(probs, 1, axis=-1), PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = ag.mul(ag.constant(y), ag.log(p))
    neg = ag.mul(ag.constant(1.0 - y), ag.log(ag.sub(ag.constant(np.ones(y.shape)), p)))
    return ag.scale(ag.reduce_mean(ag.add(pos, neg)), -1.0)


def bce_loss(probs: Tensor, golds) -> Tensor:
    """Multi-label loss: sum binary cross-entropy over classes, mean over batch."""
    y = np.asarray(golds, dtype=np.float64)
    if y.ndim != 2 or probs.ndim != 2:
        raise ContractError("bce_loss expects (batch, classes) probs and golds")
    if y.shape != probs.shape:
        raise ContractError(
            f"gold vectors of shape {y.shape} do not match probs {probs.shape}"
        )
    p = ag.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = ag.mul(ag.constant(y), ag.log(p))
    neg = ag.mul(ag.constant(1.0 - y), ag.log(ag.sub(ag.constant(np.ones(y.shape)), p)))
    per_sample = ag.reduce_sum(ag.add(pos, neg), axis=-1)
    return ag.scale(ag.reduce_mean(per_sample), -1.0)


def predict_binary(probs: Tensor | np.ndarray) -> np.ndarray:
    """Hard 0/1 predictions from (batch, 2) probabilities."""
    v = probs.values if isinstance(probs, Tensor) else np.asarray(probs)
    return (v[..., 1] > v[..., 0]).astype(int)


def predict_multilabel(probs: Tensor | np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Hard 7-bit predictions by thresholding each class probability."""
    v = probs.values if isinstance(probs, Tensor) else np.asarray(probs)
    return (v >= threshold).astype(int)
