"""Weighted random sampling that oversamples the minority class.

Each example is drawn with probability proportional to 1/sqrt(kappa) of its
class ratio, so an epoch of draws (with replacement, epoch length equal to
the training-set length) sees the positive class at rate
sqrt(kappa_p) / (sqrt(kappa_p) + sqrt(kappa_n)). `wrs_weights` returns those
weights as an array, `class_ratios` the ratios they come from, and
`draw_epoch` draws an epoch from any positive weight array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DegenerateDistributionError


def class_ratios(binary_labels) -> tuple[float, float]:
    """(positive fraction, negative fraction) of a 0/1 label vector."""
    labels = np.asarray(binary_labels)
    total = labels.size
    if total == 0:
        raise DegenerateDistributionError("empty label vector")
    pos = int(np.count_nonzero(labels))
    if pos == 0 or pos == total:
        raise DegenerateDistributionError(
            f"need both classes present, got {pos} positives of {total}"
        )
    kappa_pos = pos / total
    return kappa_pos, 1.0 - kappa_pos


def wrs_weights(binary_labels) -> np.ndarray:
    """Per-example draw weights: 1/sqrt(kappa_p) for positives, 1/sqrt(kappa_n) for negatives."""
    labels = np.asarray(binary_labels)
    kappa_pos, kappa_neg = class_ratios(labels)
    return np.where(labels != 0, 1.0 / math.sqrt(kappa_pos), 1.0 / math.sqrt(kappa_neg))


def draw_epoch(weights, n: int, rng_seed) -> np.ndarray:
    """Draw n indices independently with replacement, P(i) = w_i / sum(w).

    `weights` is a positive weight array; the draw is a pure function of
    (weights, n, rng_seed).
    """
    w = np.asarray(weights, dtype=np.float64)
    if n < 1:
        raise ContractError("epoch length must be at least 1")
    if w.ndim != 1 or w.size == 0:
        raise ContractError("weights must be a non-empty vector")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ContractError("weights must be positive and finite")
    rng = np.random.default_rng(rng_seed)
    return rng.choice(w.size, size=n, replace=True, p=w / w.sum())
