"""Evaluation metrics: positive-class P/R/F1 and per-class plus macro F1."""

from __future__ import annotations

from dataclasses import dataclass

from .data import NUM_CATEGORIES
from .errors import ContractError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(preds, golds) -> ConfusionCounts:
    preds, golds = list(preds), list(golds)
    if len(preds) != len(golds):
        raise ContractError(f"length mismatch: {len(preds)} preds vs {len(golds)} golds")
    if not preds:
        raise ContractError("need at least one example")
    tp = sum(1 for p, g in zip(preds, golds) if p and g)
    fp = sum(1 for p, g in zip(preds, golds) if p and not g)
    fn = sum(1 for p, g in zip(preds, golds) if not p and g)
    return ConfusionCounts(tp, fp, fn, len(preds) - tp - fp - fn)


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean, with the 0/0 -> 0 convention."""
    return _safe_div(2.0 * precision * recall, precision + recall)


def prf1_positive(preds, golds) -> tuple[float, float, float]:
    """Precision, recall and F1 of the positive (label 1) class."""
    c = confusion(preds, golds)
    p = _safe_div(c.tp, c.tp + c.fp)
    r = _safe_div(c.tp, c.tp + c.fn)
    return p, r, f1_score(p, r)


def macro_average(per_class) -> float:
    """Unweighted mean of per-class scores."""
    per_class = list(per_class)
    return sum(per_class) / len(per_class)


def macro_f1(preds, golds) -> tuple[list[float], float]:
    """One-vs-rest F1 per category bit plus their unweighted mean.

    `preds` and `golds` are equal-length batches of 7-bit vectors. A class
    absent from both sides scores 0 under the 0/0 convention and still
    enters the mean.
    """
    preds, golds = list(preds), list(golds)
    if len(preds) != len(golds):
        raise ContractError(f"length mismatch: {len(preds)} preds vs {len(golds)} golds")
    for vec in (*preds, *golds):
        if len(vec) != NUM_CATEGORIES:
            raise ContractError(
                f"category vectors must have {NUM_CATEGORIES} entries, got {len(vec)}"
            )
    per_class = []
    for c in range(NUM_CATEGORIES):
        _, _, f1 = prf1_positive([p[c] for p in preds], [g[c] for g in golds])
        per_class.append(f1)
    return per_class, macro_average(per_class)


def format_report(metrics: dict) -> str:
    """One `key<TAB>value` line per metric."""
    return "\n".join(f"{k}\t{_fmt(v)}" for k, v in metrics.items())


def tsv_row(metrics: dict) -> str:
    """Single tab-separated row of the metric values, for cross-run aggregation."""
    return "\t".join(_fmt(v) for v in metrics.values())


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(x) for x in v)
    return str(v)
