"""Output checks computed apart from pcldetect.

Every checker takes plain Python data and returns a list of problems, one
line each; an empty list means the check passed. None of them calls into
pcldetect, so a fault in the program cannot hide itself by also being in
the checker.
"""

from __future__ import annotations

import math

TOLERANCE = 1e-12
SAMPLER_TAIL = 1e-6  # two-sided tail mass outside the binomial bounds


def read_predictions(path) -> dict:
    """par_id -> label from a `par_id<TAB>label` file; bit vectors become tuples."""
    labels: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            par_id, label = line.split("\t")
            if par_id in labels:
                raise ValueError(f"{path}: par_id {par_id} appears twice")
            bits = label.split(",")
            labels[par_id] = tuple(int(b) for b in bits) if len(bits) > 1 else int(label)
    return labels


def f1_positive(preds, golds) -> float:
    """F1 of the positive class, 0 when there are no true positives."""
    tp = sum(1 for p, g in zip(preds, golds) if p and g)
    fp = sum(1 for p, g in zip(preds, golds) if p and not g)
    fn = sum(1 for p, g in zip(preds, golds) if g and not p)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def macro_f1(preds, golds) -> float:
    """Unweighted mean over bit positions of each bit's positive-class F1."""
    width = len(golds[0])
    per_bit = [f1_positive([p[c] for p in preds], [g[c] for g in golds]) for c in range(width)]
    return sum(per_bit) / width


def check_labels_cover(predicted: dict, expected_ids) -> list[str]:
    """The prediction file labels exactly the expected par_ids."""
    expected = set(expected_ids)
    missing = expected - predicted.keys()
    extra = predicted.keys() - expected
    problems = []
    if missing:
        problems.append(f"{len(missing)} par_ids have no prediction, e.g. {sorted(missing)[:3]}")
    if extra:
        problems.append(f"{len(extra)} predictions for unknown par_ids, e.g. {sorted(extra)[:3]}")
    return problems


def check_f1_at_least(name: str, f1: float, floor: float) -> list[str]:
    return [] if f1 >= floor else [f"{name}: F1 {f1:.6f} is below {floor}"]


def check_equal_metric(name: str, ours: float, reported: float) -> list[str]:
    if abs(ours - reported) <= TOLERANCE:
        return []
    return [f"{name}: recomputed metric {ours!r} differs from reported {reported!r}"]


def check_same_labels(first: dict, second: dict) -> list[str]:
    """Two prediction runs over the same paragraphs agree par_id by par_id."""
    if first.keys() != second.keys():
        return ["the two prediction files label different par_ids"]
    differ = sorted(pid for pid in first if first[pid] != second[pid])
    if differ:
        return [f"{len(differ)} labels change with the input order, e.g. {differ[:3]}"]
    return []


def check_budget(name: str, steps_taken: int, budget: int, stopped_early: bool) -> list[str]:
    problems = []
    if steps_taken != budget:
        problems.append(f"{name}: took {steps_taken} steps, budget is {budget}")
    if stopped_early:
        problems.append(f"{name}: stopped early")
    return problems


def check_partition(n: int, val_sets, train_sets, labels) -> list[str]:
    """Validation sets partition range(n), each train set is the complement of
    its validation set, and per-fold counts of every class differ by at most 1.
    """
    problems = []
    seen = [0] * n
    for fold, (val, train) in enumerate(zip(val_sets, train_sets)):
        val_set = {int(i) for i in val}
        if len(val_set) != len(val):
            problems.append(f"fold {fold}: an index repeats in the validation set")
        if val_set & {int(i) for i in train}:
            problems.append(f"fold {fold}: train and validation sets overlap")
        if len(val_set) + len(train) != n:
            problems.append(f"fold {fold}: train and validation do not cover all {n} examples")
        for i in val_set:
            if 0 <= i < n:
                seen[i] += 1
            else:
                problems.append(f"fold {fold}: index {i} is out of range")
    wrong = [i for i, count in enumerate(seen) if count != 1]
    if wrong:
        problems.append(f"{len(wrong)} examples are not in exactly one validation fold, "
                        f"e.g. {wrong[:3]}")
    for label in sorted(set(labels), key=str):
        counts = [sum(1 for i in val if labels[int(i)] == label) for val in val_sets]
        if max(counts) - min(counts) > 1:
            problems.append(f"class {label!r}: per-fold counts {counts} differ by more than 1")
    return problems


def check_mean(name: str, values, reported_mean: float) -> list[str]:
    values = list(values)
    return check_equal_metric(name, math.fsum(values) / len(values), reported_mean)


def check_loss_falls(name: str, losses, window: int) -> list[str]:
    """Mean loss over the last `window` steps is below that over the first."""
    losses = list(losses)
    if len(losses) < 2 * window:
        return [f"{name}: {len(losses)} losses are too few for two windows of {window}"]
    first = sum(losses[:window]) / window
    last = sum(losses[-window:]) / window
    if last < first:
        return []
    return [f"{name}: mean loss over the last {window} steps {last:.4f} "
            f"is not below the first {window} {first:.4f}"]


def wrs_positive_share(n_pos: int, n_neg: int) -> float:
    """Expected positive share of 1/sqrt(class ratio) weighted draws."""
    total = n_pos + n_neg
    root_pos, root_neg = math.sqrt(n_pos / total), math.sqrt(n_neg / total)
    return root_pos / (root_pos + root_neg)


def check_sampler_share(drawn_positives: int, draws: int, n_pos: int, n_neg: int) -> list[str]:
    """The drawn positive count lies within the binomial bounds around the
    expected share; the two tails outside the bounds hold SAMPLER_TAIL.
    """
    from scipy.stats import binom

    p = wrs_positive_share(n_pos, n_neg)
    lo = binom.ppf(SAMPLER_TAIL / 2, draws, p)
    hi = binom.isf(SAMPLER_TAIL / 2, draws, p)
    if lo <= drawn_positives <= hi:
        return []
    return [f"sampler drew {drawn_positives}/{draws} positives; "
            f"expected {p:.4f} of draws, bounds [{lo:.0f}, {hi:.0f}]"]
