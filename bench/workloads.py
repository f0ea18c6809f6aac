"""The benchmark's three workloads: inputs, set-up, timed rounds and checks.

Each workload builds its inputs from the seed with tests/synthcorpus.py,
sets up several times and keeps the median, then repeats whole rounds of the
same timed call until the requested seconds have passed (at least one
round; two for s1_fold). Outputs are checked after each round with
bench/checks.py, which shares no code with pcldetect.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pcldetect.cli
import pcldetect.trainer
from pcldetect.data import ParagraphRecord
from pcldetect.trainer import RunConfig
from synthcorpus import (
    PLANTED,
    synthetic_binary_records,
    synthetic_category_records,
    write_binary_tsv,
    write_category_tsv,
)

import checks
from tracer import Tracer, unit_of

F1_FLOOR = 0.95
CHILD_TIMEOUT_S = 170
# s1_predict's checkpoint is trained on the acceptance test's corpus
# (synthetic_binary_records seed 0), whatever the benchmark seed, so that it
# is the same learned model in every run; the seed picks what it labels.
CHECKPOINT_CORPUS_SEED = 0

# The subtask-1 recipe of the acceptance test's end-to-end run, with a fixed
# budget: one epoch over the 1600-example training split is 400 steps, and
# patience exceeds the number of evaluations so early stopping cannot end it.
# The training seed stays at 13; only the corpus follows the benchmark seed.
# On a few corpora the recipe has not learned the marker after 400 steps
# (bench/README.md, "Seeds and budgets"), so s1_fold checks that its F1 is
# reported faithfully, not that it is high.
S1_RECIPE = dict(
    subtask=1, d_model=64, n_heads=4, n_layers=6, d_ff=256, max_len=64,
    dropout=0.4, batch_size=4, epochs=1, eta=1e-3, lam=1.6, groups=3,
    k_folds=5, eval_every_batches=50, patience_rounds=1000, seed=13,
    fold_seed=13, wrs=True, grouping="llrd",
)

# Subtask 2 with a small encoder over all five folds; lambda is the
# subtask-2 default (3.6).
S2_RECIPE = dict(
    subtask=2, d_model=32, n_heads=2, n_layers=2, d_ff=64, max_len=40,
    dropout=0.1, batch_size=4, epochs=1, eta=1e-3, groups=2, k_folds=5,
    eval_every_batches=25, patience_rounds=1000, seed=13, fold_seed=13,
    wrs=True, grouping="llrd",
)


@dataclass(frozen=True)
class Size:
    """Input sizes; FULL is the benchmark, SMOKE runs each workload in seconds."""

    s1_examples: int = 2000
    s1_positive_frac: float = 0.10
    s1_overrides: tuple = ()
    predict_examples: int = 1000
    predict_text_len: tuple = (2, 20)
    shuffled_examples: int = 500
    s2_category_examples: int = 200
    s2_binary_examples: int = 250
    s2_overrides: tuple = ()
    setup_repeats: int = 3
    s1_fold_rounds: int = 2
    held_out_predicts: int = 3
    loss_window: int = 20


FULL = Size()
SMOKE = Size(
    s1_examples=200,
    s1_positive_frac=0.2,
    s1_overrides=(("d_model", 32), ("n_layers", 2), ("d_ff", 64), ("groups", 2),
                  ("batch_size", 8), ("epochs", 20), ("eta", 5e-3), ("dropout", 0.1),
                  ("eval_every_batches", 20)),
    predict_examples=100,
    shuffled_examples=50,
    s2_category_examples=40,
    s2_binary_examples=60,
    s2_overrides=(("d_model", 16), ("eval_every_batches", 10)),
    setup_repeats=2,
    s1_fold_rounds=1,
    held_out_predicts=1,
    loss_window=3,
)


@dataclass
class Tally:
    """Operations attempted and failed; each failed check fails one operation."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, problems) -> None:
        self.failed += len(problems)
        self.problems.extend(problems)


def _now() -> float:
    return time.perf_counter()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def has_marker(record: ParagraphRecord) -> int:
    return int(PLANTED in record.text.split())


def planned_evals(steps: int, every: int) -> int:
    return steps // every if steps >= every else 1


def s1_config(data_path, size: Size) -> RunConfig:
    return RunConfig(**{**S1_RECIPE, **dict(size.s1_overrides), "data_path": str(data_path)})


def s2_config(data_path, negatives_path, size: Size) -> RunConfig:
    return RunConfig(**{**S2_RECIPE, **dict(size.s2_overrides),
                        "data_path": str(data_path), "negatives_path": str(negatives_path)})


def _write_plain_tsv(path, records) -> None:
    """Records in the subtask-1 layout; labels are not read by `predict`."""
    write_binary_tsv(path, [dataclasses.replace(r, raw_label=r.raw_label or 0) for r in records])


def _predict(checkpoint, data_path, out_path) -> tuple[float, dict]:
    """Run `pcldetect predict` in process; returns (seconds, labels by par_id)."""
    argv = ["predict", "--checkpoint", str(checkpoint), "--data", str(data_path),
            "--out", str(out_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = _now()
        code = pcldetect.cli.main(argv)
        seconds = _now() - t0
    if code != 0:
        raise RuntimeError(f"pcldetect predict exited with {code}")
    return seconds, checks.read_predictions(out_path)


class Run:
    """State shared by the phases of one workload run."""

    def __init__(self, seed: int, seconds: float, trace: bool, work: Path, size: Size):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.size = size
        self.tracer = Tracer().install() if trace else None
        self.tally = Tally()
        self.rounds = 0

    @contextlib.contextmanager
    def timed(self):
        """The timed call of a round; GC pauses are traced only in here."""
        if self.tracer is not None:
            self.tracer.gc_window = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.gc_window = False

    def setup(self, build) -> tuple[float, object]:
        """Build the inputs `setup_repeats` times; (median seconds, last result)."""
        times, result = [], None
        for rep in range(self.size.setup_repeats):
            rep_dir = self.work / f"setup{rep}"
            rep_dir.mkdir()
            t0 = _now()
            result = build(rep_dir)
            times.append(_now() - t0)
        return statistics.median(times), result

    def rounds_until_deadline(self, one_round, min_rounds: int = 1) -> None:
        deadline = _now() + self.seconds
        while self.rounds < min_rounds or _now() < deadline:
            one_round(self.work / f"round{self.rounds}")
            self.rounds += 1


# ---------------------------------------------------------------------------
# s1_fold
# ---------------------------------------------------------------------------


def _s1_inputs(rep_dir: Path, seed, size: Size):
    records = synthetic_binary_records(
        n=size.s1_examples, positive_frac=size.s1_positive_frac, seed=seed
    )
    path = rep_dir / "train.tsv"
    write_binary_tsv(path, records)
    config = s1_config(path, size)
    data = pcldetect.trainer.load_training_data(config)
    return records, config, data


def run_s1_fold(run: Run) -> dict:
    size = run.size
    setup_s, (records, config, data) = run.setup(lambda d: _s1_inputs(d, run.seed, size))
    truth = [has_marker(r) for r in records]
    fold_s, kfold_s, predict_rates, ckpt_bytes = [], [], [], 0

    def one_round(round_dir):
        nonlocal ckpt_bytes
        with run.timed():
            t0 = _now()
            folds = pcldetect.trainer.make_folds(config, data)
            train_idx, val_idx = folds.split(0)
            t1 = _now()
            outcome = pcldetect.trainer.train_fold(config, data, train_idx, val_idx, 0, round_dir)
            t2 = _now()
        fold_s.append(t2 - t1)
        kfold_s.append(t2 - t0)
        budget = config.epochs * math.ceil(len(train_idx) / config.batch_size)
        evals = planned_evals(budget, config.eval_every_batches)
        run.tally.attempted += budget + evals + 1
        run.tally.check(checks.check_budget("fold 0", outcome.steps_taken, budget,
                                            outcome.stopped_early))
        splits = [folds.split(k) for k in range(config.k_folds)]
        run.tally.check(checks.check_partition(
            len(records), [v for _, v in splits], [t for t, _ in splits], truth))
        held_out = [records[i] for i in val_idx]
        path = round_dir / "held_out.tsv"
        _write_plain_tsv(path, held_out)
        for _ in range(size.held_out_predicts):
            dt, labels = _predict(outcome.checkpoint_path, path, path.with_suffix(".pred"))
            predict_rates.append(len(held_out) / dt)
            run.tally.attempted += len(held_out)
        run.tally.check(checks.check_labels_cover(labels, [r.par_id for r in held_out]))
        golds = [truth[i] for i in val_idx]
        f1 = checks.f1_positive([labels.get(r.par_id, 0) for r in held_out], golds)
        run.tally.check(checks.check_equal_metric("fold 0 best_metric", f1, outcome.best_metric))
        if run.tracer is not None:
            _check_sampler(run, train_idx, truth)
        ckpt_bytes = Path(outcome.checkpoint_path).stat().st_size

    # one fold outlasts the run length, so the median needs a second round
    run.rounds_until_deadline(one_round, min_rounds=size.s1_fold_rounds)
    return {
        "setup_s": setup_s,
        "fold_s": statistics.median(fold_s),
        "kfold_s": statistics.median(kfold_s),
        "predict_examples_per_s": statistics.median(predict_rates),
        "checkpoint_bytes": ckpt_bytes,
    }


def _check_sampler(run: Run, train_idx, truth) -> None:
    """Positive share of every traced epoch draw (positions into train_idx)."""
    n_pos = sum(truth[i] for i in train_idx)
    for draw in run.tracer.kept.pop("sampler.draw_epoch", []):
        drawn = sum(truth[train_idx[int(j)]] for j in draw)
        run.tally.check(checks.check_sampler_share(drawn, len(draw), n_pos,
                                                   len(train_idx) - n_pos))


# ---------------------------------------------------------------------------
# s1_predict
# ---------------------------------------------------------------------------


def _s1_predict_inputs(rep_dir: Path, seed, size: Size):
    train = synthetic_binary_records(
        n=size.s1_examples, positive_frac=size.s1_positive_frac, seed=CHECKPOINT_CORPUS_SEED
    )
    write_binary_tsv(rep_dir / "train.tsv", train)
    records = synthetic_binary_records(
        n=size.predict_examples, positive_frac=0.10, seed=[seed, 1],
        text_len=size.predict_text_len,
    )
    write_binary_tsv(rep_dir / "predict.tsv", records)
    order = np.random.default_rng([seed, 2]).permutation(len(records))
    shuffled = [records[i] for i in order[: size.shuffled_examples]]
    write_binary_tsv(rep_dir / "predict_shuffled.tsv", shuffled)
    job = {"config": {**S1_RECIPE, **dict(size.s1_overrides),
                      "data_path": str(rep_dir / "train.tsv")}}
    (rep_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
    return rep_dir, records, shuffled


def train_checkpoint_child(work: Path, trace: bool) -> None:
    """Train fold 0 of the s1 recipe in its own process (see run_s1_predict)."""
    job = json.loads((work / "job.json").read_text(encoding="utf-8"))
    tracer = Tracer().install() if trace else None
    config = RunConfig(**job["config"])
    data = pcldetect.trainer.load_training_data(config)
    t0 = _now()
    train_idx, val_idx = pcldetect.trainer.make_folds(config, data).split(0)
    t1 = _now()
    outcome = pcldetect.trainer.train_fold(config, data, train_idx, val_idx, 0, work / "ckpt")
    t2 = _now()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(work / "child_trace.npz")
    summary = {"fold_s": t2 - t1, "kfold_s": t2 - t0, "checkpoint": outcome.checkpoint_path}
    (work / "child.json").write_text(json.dumps(summary), encoding="utf-8")


def run_s1_predict(run: Run) -> dict:
    """Set-up trains the checkpoint in a child process, so that the peak
    memory of training stays out of this process's peak_rss_mb.
    """
    size = run.size
    inputs_s, (inputs, records, shuffled) = run.setup(
        lambda d: _s1_predict_inputs(d, run.seed, size))
    t0 = _now()
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--seed", str(run.seed),
         "--trace", str(int(run.tracer is not None)), "--train-checkpoint", str(inputs)],
        check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )
    train_s = _now() - t0
    child = json.loads((inputs / "child.json").read_text(encoding="utf-8"))
    if run.tracer is not None:
        run.tracer.absorb(inputs / "child_trace.npz")
    checkpoint = child["checkpoint"]
    truth = {r.par_id: has_marker(r) for r in records}
    rates, first = [], None

    def one_round(round_dir):
        nonlocal first
        with run.timed():
            seconds, labels = _predict(checkpoint, inputs / "predict.tsv", run.work / "out.pred")
        rates.append(len(records) / seconds)
        run.tally.attempted += len(records)
        run.tally.check(checks.check_labels_cover(labels, truth))
        f1 = checks.f1_positive([labels.get(p, 0) for p in truth], list(truth.values()))
        run.tally.check(checks.check_f1_at_least("predict", f1, F1_FLOOR))
        first = first or labels

    run.rounds_until_deadline(one_round)
    # a random subset in random order: other batch neighbours, other padding
    _, again = _predict(checkpoint, inputs / "predict_shuffled.tsv", run.work / "shuf.pred")
    run.tally.attempted += len(shuffled)
    in_file_order = {r.par_id: first.get(r.par_id) for r in shuffled}
    run.tally.check(checks.check_same_labels(in_file_order, again))
    return {
        "setup_s": inputs_s + train_s,
        "fold_s": child["fold_s"],
        "kfold_s": child["kfold_s"],
        "predict_examples_per_s": statistics.median(rates),
        "checkpoint_bytes": Path(checkpoint).stat().st_size,
    }


# ---------------------------------------------------------------------------
# s2_kfold
# ---------------------------------------------------------------------------


def _s2_inputs(rep_dir: Path, seed, size: Size):
    cats = synthetic_category_records(n=size.s2_category_examples, seed=[seed, 3])
    binary = synthetic_binary_records(n=size.s2_binary_examples, positive_frac=0.10,
                                      seed=[seed, 4])
    write_category_tsv(rep_dir / "categories.tsv", cats)
    write_binary_tsv(rep_dir / "negatives.tsv", binary)
    # training order: category paragraphs in file order, then the negatives
    records = cats + [r for r in binary if not has_marker(r)]
    config = s2_config(rep_dir / "categories.tsv", rep_dir / "negatives.tsv", size)
    return records, config


@contextlib.contextmanager
def _recording_folds():
    """Record each train_fold call's split and wall time inside run_kfold."""
    calls = []
    inner = pcldetect.trainer.train_fold

    def recorded(config, data, train_idx, val_idx, fold, run_dir):
        t0 = _now()
        outcome = inner(config, data, train_idx, val_idx, fold, run_dir)
        calls.append((np.asarray(train_idx), np.asarray(val_idx), _now() - t0))
        return outcome

    pcldetect.trainer.train_fold = recorded
    try:
        yield calls
    finally:
        pcldetect.trainer.train_fold = inner


def run_s2_kfold(run: Run) -> dict:
    size = run.size
    setup_s, (records, config) = run.setup(lambda d: _s2_inputs(d, run.seed, size))
    truth = [r.category_vector or (0,) * 7 for r in records]
    contains = [int(any(v)) for v in truth]
    kfold_s, fold_s, predict_rates, ckpt_bytes = [], [], [], 0

    def one_round(round_dir):
        nonlocal ckpt_bytes
        predicted, predict_s = 0, 0.0
        with _recording_folds() as calls, run.timed():
            t0 = _now()
            _, outcomes = pcldetect.trainer.run_kfold(config, round_dir)
            kfold_s.append(_now() - t0)
        fold_s.extend(dt for _, _, dt in calls)
        run.tally.check(checks.check_partition(
            len(records), [v for _, v, _ in calls], [t for t, _, _ in calls], contains))
        saved = json.loads((round_dir / "report.json").read_text(encoding="utf-8"))
        run.tally.check(checks.check_mean("report.json mean_val", saved["fold_metrics"],
                                          saved["mean_val"]))
        for (train_idx, val_idx, _), outcome, metric in zip(calls, outcomes,
                                                            saved["fold_metrics"]):
            name = f"fold {outcome.fold}"
            budget = config.epochs * math.ceil(len(train_idx) / config.batch_size)
            run.tally.attempted += budget + planned_evals(budget, config.eval_every_batches) + 1
            run.tally.check(checks.check_budget(name, outcome.steps_taken, budget,
                                                outcome.stopped_early))
            run.tally.check(checks.check_loss_falls(name, outcome.losses, size.loss_window))
            # the whole corpus, held-out rows first in validation order so that
            # they are batched as the fold's own evaluation batched them
            in_val = set(val_idx.tolist())
            order = list(val_idx) + [i for i in range(len(records)) if i not in in_val]
            path = round_dir / f"fold{outcome.fold}_corpus.tsv"
            _write_plain_tsv(path, [records[i] for i in order])
            dt, labels = _predict(outcome.checkpoint_path, path, path.with_suffix(".pred"))
            predict_s += dt
            predicted += len(order)
            run.tally.attempted += len(order)
            run.tally.check(checks.check_labels_cover(labels, [r.par_id for r in records]))
            ours = checks.macro_f1([labels.get(records[i].par_id, (0,) * 7) for i in val_idx],
                                   [truth[i] for i in val_idx])
            run.tally.check(checks.check_equal_metric(f"{name} macro F1", ours, metric))
        predict_rates.append(predicted / predict_s)
        ckpt_bytes = sum(p.stat().st_size for p in round_dir.glob("fold*.npz"))

    run.rounds_until_deadline(one_round)
    return {
        "setup_s": setup_s,
        "fold_s": statistics.median(fold_s),
        "kfold_s": statistics.median(kfold_s),
        "predict_examples_per_s": statistics.median(predict_rates),
        "checkpoint_bytes": ckpt_bytes,
    }


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

RUNNERS = {"s1_fold": run_s1_fold, "s1_predict": run_s1_predict, "s2_kfold": run_s2_kfold}

UNITS = {
    "setup_s": "s",
    "fold_s": "s",
    "kfold_s": "s",
    "predict_examples_per_s": "examples/s",
    "peak_rss_mb": "MB",
    "checkpoint_bytes": "bytes",
}


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
        out_dir: Path, size: Size = FULL) -> dict:
    """Run one workload; returns the result object (plus `problems`)."""
    (out_dir / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=out_dir / "work"))
    state = Run(seed, seconds, trace, work, size)
    try:
        values = RUNNERS[workload](state)
    finally:
        if state.tracer is not None:
            state.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        trace_dir = out_dir / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        state.tracer.dump(trace_dir / f"{workload}-seed{seed}.npz")
        named = state.tracer.per_layer_metrics(state.rounds)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(named.items())}
    else:
        values["setup_s"] += import_s
        values["peak_rss_mb"] = _peak_rss_mb()
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
    tally = state.tally
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": min(tally.failed, tally.attempted),
        "metrics": metrics,
        "problems": tally.problems,
    }
