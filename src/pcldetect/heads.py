"""Classification head, losses and hard labels, all on logits: binary
(contains PCL) and 7-way multi-label."""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError


def logits(h: Tensor, params) -> Tensor:
    """Class logits from the table's "classifier.weight" (width, d) and
    "classifier.bias" (width,); works on (d,) or (batch, d).

    Width 2 for subtask 1, where index 1 is the positive class, and
    NUM_CATEGORIES for subtask 2.
    """
    return ag.linear(h, ag.transpose(params["classifier.weight"], (1, 0)),
                     params["classifier.bias"])


# both subtasks' names for the one logits function; the trainer calls it
# through them, so bench/tracer.py can time the head
binary_forward = multilabel_forward = logits


def binary_loss(z: Tensor, golds) -> Tensor:
    """Mean cross-entropy of (batch, 2) logits against a batch of 0/1 labels."""
    y = np.asarray(golds)
    if y.size == 0:
        raise ContractError("binary_loss needs a non-empty batch")
    if z.ndim != 2 or z.shape[-1] != 2 or z.shape[0] != y.shape[0]:
        raise ContractError(
            f"binary_loss expects logits (batch, 2) matching {y.shape[0]} golds, "
            f"got {z.shape}"
        )
    if not np.all((y == 0) | (y == 1)):
        raise ContractError(f"binary_loss needs 0/1 golds, got {sorted(set(y.tolist()))}")
    return ag.cross_entropy(z, y)


def bce_loss(z: Tensor, golds) -> Tensor:
    """Multi-label loss: binary cross-entropy on logits, summed over classes,
    mean over batch."""
    y = np.asarray(golds, dtype=np.float64)
    if y.ndim != 2 or z.ndim != 2:
        raise ContractError("bce_loss expects (batch, classes) logits and golds")
    if y.shape != z.shape:
        raise ContractError(f"gold vectors of shape {y.shape} do not match logits {z.shape}")
    return ag.bce_with_logits(z, y)


def predict_binary(z: Tensor) -> np.ndarray:
    """Hard 0/1 predictions from (batch, 2) logits: 1 where z1 > z0."""
    v = ag.check_finite(z, "predict_binary")
    return (v[..., 1] > v[..., 0]).astype(int)


def predict_multilabel(z: Tensor) -> np.ndarray:
    """Hard 7-bit predictions from logits: a bit is set where z >= 0."""
    return (ag.check_finite(z, "predict_multilabel") >= 0.0).astype(int)
