"""Seed-run selection and majority-vote fusion of prediction files."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .data import NUM_CATEGORIES, text_lines
from .errors import ConfigError, ContractError
from .files import atomic_open


@dataclass(frozen=True)
class RunReport:
    """Cross-validation summary of one seed's training run."""

    seed: int
    fold_metrics: tuple[float, ...]
    mean_val: float
    checkpoint: str

    def __post_init__(self):
        expected = _mean(self.fold_metrics)
        if abs(self.mean_val - expected) > 1e-12:
            raise ContractError(
                f"mean_val {self.mean_val} is not the mean of {self.fold_metrics}"
            )

    @classmethod
    def create(cls, seed: int, fold_metrics, checkpoint: str) -> "RunReport":
        fold_metrics = tuple(float(m) for m in fold_metrics)
        return cls(seed, fold_metrics, _mean(fold_metrics), checkpoint)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "fold_metrics": list(self.fold_metrics),
                "mean_val": self.mean_val,
                "checkpoint": self.checkpoint,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        d = json.loads(text)
        return cls(d["seed"], tuple(d["fold_metrics"]), d["mean_val"], d["checkpoint"])


def _mean(fold_metrics) -> float:
    if not fold_metrics:
        raise ContractError("a run report needs at least one fold metric")
    return sum(fold_metrics) / len(fold_metrics)


def select_top_k(reports, k: int = 3) -> list[RunReport]:
    """The k reports with the highest cross-validation mean; ties go to lower seed."""
    reports = list(reports)
    if len(reports) < k:
        raise ConfigError(f"need at least {k} run reports, got {len(reports)}")
    return sorted(reports, key=lambda r: (-r.mean_val, r.seed))[:k]


def _check_voters(pred_sets):
    pred_sets = [list(p) for p in pred_sets]
    if len(pred_sets) % 2 == 0:
        raise ConfigError(f"majority vote needs an odd number of voters, got {len(pred_sets)}")
    lengths = {len(p) for p in pred_sets}
    if len(lengths) != 1:
        raise ContractError(f"voters disagree on example count: {sorted(lengths)}")
    return pred_sets


def vote_binary(pred_sets) -> list[int]:
    """Elementwise majority over an odd number of 0/1 prediction vectors."""
    pred_sets = _check_voters(pred_sets)
    half = len(pred_sets) / 2
    return [int(sum(votes) > half) for votes in zip(*pred_sets)]


def vote_multilabel(pred_sets) -> list[tuple[int, ...]]:
    """Per-label elementwise majority over sets of bit-vector predictions."""
    pred_sets = _check_voters(pred_sets)
    half = len(pred_sets) / 2
    fused = []
    for vectors in zip(*pred_sets):
        widths = {len(v) for v in vectors}
        if len(widths) != 1:
            raise ContractError(f"voters disagree on vector width: {sorted(widths)}")
        fused.append(tuple(int(sum(bits) > half) for bits in zip(*vectors)))
    return fused


def write_predictions(path, par_ids, labels) -> None:
    """One `par_id<TAB>label` line per example; bit vectors join on commas."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for pid, lab in zip(par_ids, labels):
            if isinstance(lab, (list, tuple)):
                lab = ",".join(str(int(b)) for b in lab)
            fh.write(f"{pid}\t{lab}\n")


def read_predictions(path):
    """Parse a prediction file into (par_ids, labels); detects bit vectors.

    A par_id may occur once: a repeat would leave its label ambiguous. Every
    label is 0 or 1, or NUM_CATEGORIES comma-separated 0/1 bits, all of one
    kind.
    """
    par_ids, labels, seen = [], [], set()
    for lineno, line in text_lines(path):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != 2:
            raise ContractError(
                f"{path}: line {lineno}: expected `par_id<TAB>label`, got {len(cells)} cells"
            )
        pid, lab = cells
        if pid in seen:
            raise ContractError(f"{path}: line {lineno}: duplicate par_id {pid!r}")
        seen.add(pid)
        try:
            bits = tuple(int(b) for b in lab.split(","))
        except ValueError:
            bits = ()
        if len(bits) not in (1, NUM_CATEGORIES) or not set(bits) <= {0, 1}:
            raise ContractError(
                f"{path}: line {lineno}: label {lab!r} is neither 0/1 nor "
                f"{NUM_CATEGORIES} comma-separated 0/1 bits"
            )
        label = bits if len(bits) > 1 else bits[0]
        if labels and is_bit_vector(label) != is_bit_vector(labels[0]):
            raise ContractError(f"{path}: line {lineno}: mixes plain labels and bit vectors")
        par_ids.append(pid)
        labels.append(label)
    return par_ids, labels


def is_bit_vector(label) -> bool:
    """Whether a label read by `read_predictions` is a subtask-2 bit vector."""
    return isinstance(label, tuple)
