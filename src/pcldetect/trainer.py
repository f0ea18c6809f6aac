"""Training orchestration: fold loops, sampler epochs, early stopping, checkpoints."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import mmap
import os
import signal
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import blas
from .autograd import Tape, backward, zero_grads
from .data import (
    NUM_CATEGORIES,
    RESERVED_TOKENS,
    FoldAssignment,
    ParagraphRecord,
    Vocabulary,
    binarize_label,
    compose_input,
    load_subtask1_tsv,
    load_subtask2_labels,
    pad_batch,
    stratified_kfold,
    text_lines,
    tokenize,
)
from .encoder import (
    EncoderConfig,
    EncoderParams,
    encode_batch,
    init_arrays,
    load_checkpoint,
    param_shapes,
    pooler,
    save_checkpoint,
)
from .errors import (
    ConfigError,
    ContractError,
    NumericsError,
    TrainingDivergedError,
)
from .files import atomic_open
from .heads import (
    bce_loss,
    binary_forward,
    binary_loss,
    multilabel_forward,
    predict_binary,
    predict_multilabel,
)
from .metrics import macro_f1, prf1_positive
from .optim import (
    AdamW,
    ScheduleState,
    build_grouped_llrd,
    build_single_group,
    cosine_warmup_multiplier,
)
from .sampler import draw_epoch, wrs_weights

logger = logging.getLogger(__name__)

EVAL_BATCH = 16
# A fold hands its periodic evaluations to a forked child, and lets its
# in-process ones fork the prediction helper, when its first evaluation took
# longer than this. Forking every evaluation slowed the benchmark's subtask-2
# folds, whose evaluations take about 17 ms, by 12%, and forking the
# prediction helper for each slowed them too; the subtask-1 folds' 450-650 ms
# evaluations gain.
FORK_MIN_EVAL_S = 0.05


def _setting(default, help_text: str, flag: str | None = None):
    """A RunConfig field: its default, its CLI help and, when it is not
    `--` plus the field name with dashes, its flag."""
    return dataclasses.field(default=default, metadata={"help": help_text, "flag": flag})


@dataclass
class RunConfig:
    """Resolved knobs for one training run; the CLI's flags are made from its fields."""

    subtask: int = _setting(1, "1 (binary) or 2 (multi-label)")
    data_path: str = _setting("", "training data TSV", flag="--data")
    negatives_path: str = _setting(
        "", "subtask 2: labeled TSV whose negatives join with all-zero vectors",
        flag="--negatives",
    )
    out_dir: str = _setting("runs", "directory for checkpoints and metadata")
    # model
    d_model: int = _setting(64, "encoder width")
    n_heads: int = _setting(4, "attention heads")
    n_layers: int = _setting(6, "encoder layers")
    d_ff: int = _setting(256, "feed-forward width")
    max_len: int = _setting(250, "maximum token sequence length")
    dropout: float = _setting(0.4, "dropout rate")
    # recipe
    batch_size: int = _setting(4, "training batch size")
    epochs: int = _setting(10, "maximum training epochs")
    eta: float = _setting(1e-5, "anchor learning rate of the middle group")
    lam: float | None = _setting(
        None, "group decay factor; none means 1.6 (subtask 1) or 3.6 (subtask 2)",
        flag="--lambda",
    )
    groups: int = _setting(3, "number of encoder layer groups")
    head_multiplier: float = _setting(1.1, "head lr relative to the top group")
    weight_decay: float = _setting(0.01, "decoupled weight decay")
    warmup_frac: float = _setting(0.10, "linear warmup fraction of total steps")
    k_folds: int = _setting(5, "stratified fold count, at least 2")
    eval_every_batches: int = _setting(50, "batches between evaluations")
    patience_rounds: int = _setting(10, "consecutive non-improving evaluations before stopping")
    seed: int = _setting(13, "run seed")
    fold: int = _setting(0, "which fold the train command holds out")
    fold_seed: int | None = _setting(None, "fold assignment seed; none means the run seed")
    wrs: bool = _setting(True, "weighted random sampling over the training split")
    grouping: str = _setting("llrd", "llrd (grouped decay) or single (flat baseline)")

    def __post_init__(self):
        if self.subtask not in (1, 2):
            raise ConfigError(f"subtask must be 1 or 2, got {self.subtask}")
        for name, value in (("seed", self.seed), ("fold_seed", self.fold_seed)):
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        finite = {"eta": self.eta, "lambda": self.lam, "head_multiplier": self.head_multiplier,
                  "weight_decay": self.weight_decay}
        for name, value in finite.items():
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        positive = {
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "eta": self.eta,
            "groups": self.groups,
            "head_multiplier": self.head_multiplier,
            "eval_every_batches": self.eval_every_batches,
            "patience_rounds": self.patience_rounds,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.k_folds < 2:
            raise ConfigError(f"k_folds must be at least 2, got {self.k_folds}")
        if not 0 <= self.fold < self.k_folds:
            raise ConfigError(f"fold must be in [0, {self.k_folds}), got {self.fold}")
        if self.lam is not None and self.lam <= 0:
            raise ConfigError("lambda must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigError("warmup_frac must be in [0, 1)")
        if self.grouping not in ("llrd", "single"):
            raise ConfigError(f"grouping must be 'llrd' or 'single', got {self.grouping!r}")
        if self.grouping == "llrd" and self.groups > self.n_layers:
            raise ConfigError(
                f"cannot split {self.n_layers} layers into {self.groups} groups"
            )
        self.encoder_config(len(RESERVED_TOKENS))  # the encoder's own shape rules

    @property
    def resolved_lambda(self) -> float:
        if self.lam is not None:
            return self.lam
        return 1.6 if self.subtask == 1 else 3.6

    @property
    def resolved_fold_seed(self) -> int:
        return self.seed if self.fold_seed is None else self.fold_seed

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(
            vocab_size=vocab_size,
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_layers=self.n_layers,
            d_ff=self.d_ff,
            max_len=self.max_len,
            dropout_rate=self.dropout,
        )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["resolved_lambda"] = self.resolved_lambda
        return d

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        """Read key=value lines ('#' comments allowed, each key once); overrides win."""
        values, lines = {}, {}
        for lineno, line in text_lines(path):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key=value")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key in lines:
                raise ConfigError(f"{path}: {key} is set on lines {lines[key]} and {lineno}")
            values[key], lines[key] = raw, lineno
        if overrides:
            values.update(overrides)
        return cls.from_mapping(values)

    @classmethod
    def from_mapping(cls, values: dict) -> "RunConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in values.items():
            if key not in fields:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(raw, fields[key].type, key)
        return cls(**kwargs)


def _coerce(raw, annotation: str, key: str):
    """Parse a config-file value or a CLI flag's string as the field's type."""
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    if annotation == "bool":
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean {key}={raw!r}")
    if annotation in ("float | None", "int | None") and text.lower() in ("", "none"):
        return None
    try:
        if annotation.startswith("int"):
            return int(text)
        if annotation.startswith("float"):
            return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse {key}={raw!r} as {annotation}") from None
    return text


# ---------------------------------------------------------------------------
# data preparation
# ---------------------------------------------------------------------------


@dataclass
class TrainingData:
    """Tokenized corpus plus every label view the trainer needs."""

    records: list[ParagraphRecord]
    token_ids: list[list[int]]
    binary_labels: np.ndarray  # contains-PCL flag, drives WRS and subtask 1
    label_vectors: np.ndarray | None  # (n, 7) for subtask 2
    strat_labels: list
    vocab: Vocabulary


def load_training_data(config: RunConfig) -> TrainingData:
    if config.subtask == 1:
        records = load_subtask1_tsv(config.data_path)
        vectors = None
        binary = [binarize_label(r.raw_label) for r in records]
        strat = binary
    else:
        records = load_subtask2_labels(config.data_path)
        vector_list = [list(r.category_vector) for r in records]
        binary = [int(any(v)) for v in vector_list]
        if config.negatives_path:
            extras = [
                r
                for r in load_subtask1_tsv(config.negatives_path)
                if binarize_label(r.raw_label) == 0
            ]
            records = records + extras
            vector_list += [[0] * 7 for _ in extras]
            binary += [0] * len(extras)
            strat = list(binary)
        else:
            strat = _dominant_categories(vector_list)
        vectors = np.asarray(vector_list, dtype=np.float64)
    if not records:
        raise ConfigError(f"no training examples in {config.data_path}")
    texts = [compose_input(r) for r in records]
    vocab = Vocabulary.build(texts)
    token_ids = [tokenize(t, vocab, config.max_len) for t in texts]
    return TrainingData(list(records), token_ids, np.asarray(binary), vectors, list(strat), vocab)


def _dominant_categories(vector_list) -> list[int]:
    # positives-only stratification: label each paragraph by its corpus-wide
    # most frequent category bit
    counts = np.sum(vector_list, axis=0)
    out = []
    for vec in vector_list:
        present = [c for c, bit in enumerate(vec) if bit]
        out.append(max(present, key=lambda c: (counts[c], -c)) if present else -1)
    return out


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


HEAD_WIDTH = {1: 2, 2: NUM_CATEGORIES}  # classifier logits per subtask


def model_shapes(config: EncoderConfig, subtask: int) -> dict:
    """Name -> shape of every parameter of a model, in the order they are
    drawn and stored: the encoder's, then the subtask's classifier."""
    width = HEAD_WIDTH[subtask]
    return {**param_shapes(config),
            "classifier.weight": (width, config.d_model), "classifier.bias": (width,)}


@dataclass
class Model:
    params: EncoderParams  # every name of `model_shapes`
    subtask: int

    @classmethod
    def from_arrays(cls, config: EncoderConfig, subtask: int, arrays: dict) -> "Model":
        """A model over a name -> array mapping (fresh draws, a snapshot or a
        checkpoint's views); the one place a model's Tensors are made."""
        tensors = {name: ag.Tensor(arrays[name], requires_grad=True)
                   for name in model_shapes(config, subtask)}
        return cls(EncoderParams(config, tensors), subtask)

    def named(self) -> dict:
        return self.params.tensors

    def forward(self, ids, train=False, rng=None):
        """Class logits of either width (`binary_forward` is `multilabel_forward`)."""
        h = pooler(encode_batch(self.params, ids, train=train, rng=rng), self.params)
        return binary_forward(h, self.params)

    def loss(self, z, golds):
        return binary_loss(z, golds) if self.subtask == 1 else bce_loss(z, golds)

    def predict(self, z) -> np.ndarray:
        return predict_binary(z) if self.subtask == 1 else predict_multilabel(z)


def build_model(config: RunConfig, vocab_size: int, rng: np.random.Generator) -> Model:
    encoder_config = config.encoder_config(vocab_size)
    arrays = init_arrays(model_shapes(encoder_config, config.subtask), rng)
    return Model.from_arrays(encoder_config, config.subtask, arrays)


def build_groups(config: RunConfig, names):
    if config.grouping == "single":
        return build_single_group(names, config.eta, config.weight_decay)
    return build_grouped_llrd(
        names,
        G=config.groups,
        eta=config.eta,
        lam=config.resolved_lambda,
        head_multiplier=config.head_multiplier,
        weight_decay=config.weight_decay,
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _may_fork() -> bool:
    """Whether a forked child would have a core of its own and be safe to
    fork: a fork copies only the calling thread."""
    return hasattr(os, "fork") and _cores() >= 2 and threading.active_count() == 1


def _fork(work, size: int):
    """Run `work(shared)` in a forked child; returns (its pid, `shared`).

    `shared` is an anonymous mapping of `size` bytes that the child writes
    its result into. The child leaves through `os._exit`, with status 0 only
    if `work` returned, so no handler or buffer of this process runs twice.
    """
    shared = mmap.mmap(-1, size)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            work(shared)
            code = 0
        finally:
            os._exit(code)
    return pid, shared


def _kill(pid: int, shared) -> None:
    """Kill and reap a child of `_fork` and close its mapping."""
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    shared.close()


def _predict_token_ids(model: Model, token_ids, pad_id: int, helper: bool = True) -> np.ndarray:
    """Hard predictions (eval mode) for id sequences, in input order.

    Rows are batched in order of token length (stable), so each batch pads
    little, and the predictions are scattered back to input order. With
    `helper`, two or more batches and `_may_fork()`, a forked child computes
    the odd batches and writes their labels as int8 into a shared mapping
    while this process computes the even ones. A child that does not exit 0
    has its batches computed again here, so an error is raised with its own
    type. Each batch is computed as a serial loop computes it.
    """
    if not token_ids:
        raise ContractError("no examples to predict")
    order = np.argsort([len(t) for t in token_ids], kind="stable")
    starts = range(0, order.size, EVAL_BATCH)
    labels = np.empty((order.size, *(() if model.subtask == 1 else (NUM_CATEGORIES,))), int)

    def run(share, out):
        for start in share:
            ids = pad_batch(
                [token_ids[i] for i in order[start : start + EVAL_BATCH]], pad_id=pad_id
            )
            out[start : start + EVAL_BATCH] = model.predict(model.forward(ids))

    if helper and len(starts) >= 2 and _may_fork():
        theirs = starts[1::2]
        pid, shared = _fork(
            lambda shared: run(theirs, np.frombuffer(shared, np.int8).reshape(labels.shape)),
            labels.size,
        )
        try:
            run(starts[0::2], labels)
            status = os.waitpid(pid, 0)[1]
        except BaseException:
            _kill(pid, shared)
            raise
        with shared:
            if status == 0:
                done = np.frombuffer(shared, np.int8).reshape(labels.shape).copy()
                for start in theirs:
                    labels[start : start + EVAL_BATCH] = done[start : start + EVAL_BATCH]
            else:
                logger.warning("prediction helper ended with wait status %d; "
                               "predicting its batches in process", status)
                run(theirs, labels)
    else:
        run(starts, labels)
    preds = np.empty_like(labels)
    preds[order] = labels
    return preds


def predict_indices(model: Model, data: TrainingData, indices, helper: bool = True) -> np.ndarray:
    """Hard predictions for a set of example indices (eval mode)."""
    return _predict_token_ids(model, [data.token_ids[i] for i in indices], data.vocab.pad_id,
                              helper)


def eval_metric(model: Model, data: TrainingData, indices, helper: bool = True) -> float:
    """Positive-class F1 (subtask 1) or macro F1 (subtask 2) on the given split;
    `helper` as for `_predict_token_ids`."""
    preds = predict_indices(model, data, indices, helper)
    if model.subtask == 1:
        golds = data.binary_labels[indices]
        return prf1_positive(preds.tolist(), golds.tolist())[2]
    golds = data.label_vectors[indices].astype(int)
    return macro_f1([tuple(p) for p in preds], [tuple(g) for g in golds])[1]


# ---------------------------------------------------------------------------
# fold training
# ---------------------------------------------------------------------------


@dataclass
class FoldOutcome:
    fold: int
    best_metric: float
    best_step: int
    steps_taken: int
    planned_steps: int
    stopped_early: bool
    history: list  # [(step, metric), ...] in evaluation order
    losses: list  # per-step training loss
    checkpoint_path: str
    wall_clock: float


def _epoch_order(config, data, train_idx, epoch, order_seeds) -> np.ndarray:
    """Index order for one epoch: a weighted-sampler draw or a plain shuffle."""
    seed = order_seeds[epoch]
    train_idx = np.asarray(train_idx)
    if config.wrs:
        labels = data.binary_labels[train_idx]
        if labels.min() == labels.max():
            logger.warning(
                "training split has a single class; weighted sampler degenerates to uniform"
            )
            weights = np.ones(train_idx.size)
        else:
            weights = wrs_weights(labels).weights
        return train_idx[draw_epoch(weights, train_idx.size, seed)]
    return np.random.default_rng(seed).permutation(train_idx)


def _batch_golds(data: TrainingData, idx, subtask: int):
    if subtask == 1:
        return data.binary_labels[idx]
    return data.label_vectors[idx]


class _Evaluation:
    """A fold's validation passes: history, best snapshot, patience and fork gate.

    Once the first evaluation, timed in process and serially, took over
    FORK_MIN_EVAL_S, each that cannot end the fold is scored in a forked child
    while training goes on, if `_may_fork()`, and recorded before the next
    starts or the epoch ends; the others use the prediction helper.
    """

    def __init__(self, model: Model, data: TrainingData, val_idx, patience: int):
        self.model, self.data, self.val_idx, self.patience = model, data, val_idx, patience
        self.history: list = []  # [(step, metric), ...]
        self.best, self.best_step, self.snapshot, self.since_improved = -math.inf, -1, None, 0
        self.fork = None  # whether evaluations are slow enough to fork; None until timed
        self.pending = None  # (step, snapshot at that step, child pid, its shared metric)

    @property
    def stopped(self) -> bool:
        return self.since_improved >= self.patience

    def run(self, step: int, last_of_epoch: bool) -> None:
        """Evaluate the model as trained to `step`. An epoch's last evaluation (so
        the fold's last), and one that could spend patience, run in process."""
        self.settle()
        decisive = last_of_epoch or self.since_improved + 1 >= self.patience
        if self.fork and not decisive and _may_fork():
            snapshot = self._snapshot(step)
            self.pending = (step, snapshot, *self._fork(snapshot))
            return
        t0 = time.perf_counter()
        metric = eval_metric(self.model, self.data, self.val_idx, helper=bool(self.fork))
        if self.fork is None:
            self.fork = time.perf_counter() - t0 > FORK_MIN_EVAL_S
        self._record(step, metric)

    def _fork(self, snapshot):
        """Score `snapshot` in a child, which writes the metric as one float;
        returns (its pid, the mapping)."""
        return _fork(lambda shared: struct.pack_into("d", shared, 0, self._score(snapshot)), 8)

    def _score(self, snapshot) -> float:
        """Score `snapshot` serially: a child's parent goes on training on the other core."""
        model = Model.from_arrays(self.model.params.config, self.model.subtask, snapshot[0])
        return eval_metric(model, self.data, self.val_idx, helper=False)

    def settle(self) -> None:
        """Record the pending child's evaluation, waiting for it if need be.

        A child that did not exit 0 (its evaluation raised, or it was killed)
        is scored again here, on the snapshot it scored, so an evaluation
        error is raised in this process with its own type.
        """
        if self.pending is not None:
            step, snapshot, pid, shared = self.pending
            status = os.waitpid(pid, 0)[1]
            self.pending = None
            with shared:
                if status == 0:
                    metric = struct.unpack("d", shared)[0]
                else:
                    logger.warning("evaluation child of step %d ended with wait status %d; "
                                   "evaluating in process", step, status)
                    metric = self._score(snapshot)
            self._record(step, metric, snapshot)

    def close(self) -> None:
        """Kill and reap a child still evaluating because training raised."""
        if self.pending is not None:
            _kill(*self.pending[2:])
            self.pending = None

    def _snapshot(self, step: int):
        return {name: t.values.copy() for name, t in self.model.named().items()}, step

    def _record(self, step: int, metric: float, snapshot=None) -> None:
        """The one place an evaluation is recorded; no `snapshot` means take one now."""
        self.history.append((step, metric))
        if metric > self.best:
            self.best, self.best_step = metric, step
            self.snapshot = snapshot or self._snapshot(step)
            self.since_improved = 0
        else:
            self.since_improved += 1


@blas.one_thread()
def train_fold(
    config: RunConfig,
    data: TrainingData,
    train_idx,
    val_idx,
    fold: int,
    run_dir,
) -> FoldOutcome:
    """Train on one fold split and keep the best-validation-metric checkpoint."""
    train_idx = np.asarray(train_idx)
    val_idx = np.asarray(val_idx)
    if train_idx.size == 0 or val_idx.size == 0:
        raise ConfigError("train and validation splits must be non-empty")
    if np.intersect1d(train_idx, val_idx).size:
        raise ConfigError("train and validation splits overlap")

    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()

    init_ss, dropout_ss, order_ss = np.random.SeedSequence([config.seed, fold]).spawn(3)
    model = build_model(config, len(data.vocab), np.random.default_rng(init_ss))
    named = model.named()
    optimizer = AdamW(build_groups(config, named), named)
    dropout_rng = np.random.default_rng(dropout_ss)
    order_seeds = order_ss.spawn(config.epochs)

    n = train_idx.size
    batches_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    pad = data.vocab.pad_id

    step = 0
    losses: list = []
    evaluation = _Evaluation(model, data, val_idx, config.patience_rounds)
    try:
        for epoch in range(config.epochs):
            order = _epoch_order(config, data, train_idx, epoch, order_seeds)
            for b in range(batches_per_epoch):
                idx = order[b * config.batch_size : (b + 1) * config.batch_size]
                ids = pad_batch([data.token_ids[i] for i in idx], pad_id=pad)
                golds = _batch_golds(data, idx, config.subtask)
                step += 1
                multiplier = cosine_warmup_multiplier(
                    ScheduleState(step, total_steps, config.warmup_frac)
                )
                try:
                    with Tape():
                        loss = model.loss(model.forward(ids, train=True, rng=dropout_rng), golds)
                        loss_val = loss.item()
                        if not math.isfinite(loss_val):
                            raise NumericsError(f"loss is {loss_val}")
                        backward(loss)
                except NumericsError as exc:
                    batch_ids = [data.records[i].par_id for i in idx]
                    raise TrainingDivergedError(
                        f"non-finite loss at step {step} (epoch {epoch}): {exc}; "
                        f"lr multiplier {multiplier:.6f}, batch par_ids {batch_ids}"
                    ) from exc
                optimizer.step(multiplier)
                zero_grads(named.values())
                losses.append(loss_val)

                if step % config.eval_every_batches == 0:
                    evaluation.run(step, last_of_epoch=b == batches_per_epoch - 1)
                    if evaluation.stopped:
                        break
            evaluation.settle()
            logger.info(
                "fold %d epoch %d done: step %d, loss %.4f, best %.4f",
                fold, epoch, step, losses[-1], evaluation.best if evaluation.history else math.nan,
            )
            if evaluation.stopped:
                break
        if evaluation.snapshot is None:  # training was shorter than one evaluation interval
            evaluation.run(step, last_of_epoch=True)
    finally:
        evaluation.close()

    ckpt_path = run_dir / f"fold{fold}.npz"
    _write_checkpoint(ckpt_path, config, data, optimizer.groups, evaluation.snapshot, fold,
                      total_steps)
    return FoldOutcome(
        fold=fold,
        best_metric=evaluation.best,
        best_step=evaluation.best_step,
        steps_taken=step,
        planned_steps=total_steps,
        stopped_early=evaluation.stopped,
        history=evaluation.history,
        losses=losses,
        checkpoint_path=str(ckpt_path),
        wall_clock=time.monotonic() - started,
    )


# file paths stay out of checkpoints, so equal runs write equal bytes in any
# directory; metadata.json keeps them
_PATH_KEYS = ("data_path", "negatives_path", "out_dir")


def _write_checkpoint(path, config, data, groups, snapshot, fold, total_steps):
    arrays, step = snapshot
    run_config = {k: v for k, v in config.to_dict().items() if k not in _PATH_KEYS}
    meta = {
        "run_config": run_config,
        "subtask": config.subtask,
        "fold": fold,
        "vocab": data.vocab.tokens,
        "schedule": {"snapshot_step": step, "total_steps": total_steps},
        "optimizer_groups": [
            {"role": g.role, "base_lr": g.base_lr, "weight_decay": g.weight_decay,
             "names": list(g.names)}
            for g in groups
        ],
    }
    save_checkpoint(path, config.encoder_config(len(data.vocab)), arrays, meta)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# run entry points
# ---------------------------------------------------------------------------


def make_folds(config: RunConfig, data: TrainingData) -> FoldAssignment:
    return stratified_kfold(data.strat_labels, k=config.k_folds, seed=config.resolved_fold_seed)


def _train_folds(config: RunConfig, run_dir, fold_numbers) -> list[FoldOutcome]:
    """Load the data, train each listed fold of its stratified assignment and
    write metadata.json beside the checkpoints."""
    data = load_training_data(config)
    folds = make_folds(config, data)
    # train_fold is looked up at call time, so a caller may wrap it in this module
    outcomes = [train_fold(config, data, *folds.split(fold), fold, run_dir)
                for fold in fold_numbers]
    _write_metadata(Path(run_dir), config, outcomes)
    return outcomes


def run_single_fold(config: RunConfig, run_dir) -> FoldOutcome:
    """The `train` command: one fold of the stratified assignment."""
    return _train_folds(config, run_dir, [config.fold])[0]


def run_kfold(config: RunConfig, run_dir):
    """Train every fold; returns (RunReport, fold outcomes)."""
    from .ensemble import RunReport

    outcomes = _train_folds(config, run_dir, range(config.k_folds))
    best = max(outcomes, key=lambda o: (o.best_metric, -o.fold))
    report = RunReport.create(
        config.seed, [o.best_metric for o in outcomes], best.checkpoint_path
    )
    with atomic_open(Path(run_dir) / "report.json", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    return report, outcomes


def _write_metadata(run_dir: Path, config: RunConfig, outcomes):
    meta = {
        "config": config.to_dict(),
        "seed": config.seed,
        "folds": [
            {
                "fold": o.fold,
                "best_metric": o.best_metric,
                "best_step": o.best_step,
                "steps_taken": o.steps_taken,
                "planned_steps": o.planned_steps,
                "stopped_early": o.stopped_early,
                "history": [[s, m] for s, m in o.history],
                "checkpoint": o.checkpoint_path,
                "checkpoint_sha256": file_sha256(o.checkpoint_path),
                "wall_clock_sec": o.wall_clock,
            }
            for o in outcomes
        ],
        "wall_clock_sec": sum(o.wall_clock for o in outcomes),
    }
    with atomic_open(run_dir / "metadata.json", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def lambda_sweep(config: RunConfig, grid, run_dir):
    """One full k-fold run per lambda; returns [(lam, mean, std), ...]."""
    grid = list(grid)
    if not grid:
        raise ConfigError("lambda grid is empty")
    runs = {}  # run directory name -> config
    for lam in grid:
        name = f"lambda_{lam:g}"
        if name in runs:
            raise ConfigError(
                f"lambda grid values {runs[name].lam!r} and {lam!r} would both write {name}/"
            )
        runs[name] = dataclasses.replace(config, lam=lam)
    run_dir = Path(run_dir)
    rows = []
    for name, sub in runs.items():
        report, _ = run_kfold(sub, run_dir / name)
        metrics = np.array(report.fold_metrics)
        rows.append((sub.lam, float(metrics.mean()), float(metrics.std())))
        logger.info("lambda %.2f: mean %.4f std %.4f", sub.lam, rows[-1][1], rows[-1][2])
    table = "\n".join(f"{lam:g}\t{mean:.6f}\t{std:.6f}" for lam, mean, std in rows)
    with atomic_open(run_dir / "sweep.tsv", encoding="utf-8") as fh:
        fh.write(table + "\n")
    return rows


# ---------------------------------------------------------------------------
# inference from a checkpoint
# ---------------------------------------------------------------------------


def load_model(ckpt_path):
    """Rebuild (model, vocab, meta) from a checkpoint file.

    Before anything is built, refuses a file whose metadata lacks the subtask
    or the vocabulary or holds either mistyped, whose vocabulary does not have
    one token per embedding row, or whose parameter names and shapes differ
    from the `model_shapes` of its encoder config and subtask.
    """
    enc_config, arrays, meta = load_checkpoint(ckpt_path)
    for key in ("subtask", "vocab"):
        if key not in meta:
            raise ConfigError(f"{ckpt_path}: checkpoint metadata has no {key!r}")
    subtask, tokens = meta["subtask"], meta["vocab"]
    if type(subtask) is not int or subtask not in HEAD_WIDTH:
        raise ConfigError(f"{ckpt_path}: checkpoint subtask {subtask!r} is not the integer 1 or 2")
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise ConfigError(f"{ckpt_path}: checkpoint vocab is not a list of strings")
    if len(tokens) != enc_config.vocab_size:
        raise ConfigError(f"{ckpt_path}: checkpoint vocab holds {len(tokens)} tokens, but its "
                          f"config has vocab_size {enc_config.vocab_size}")
    vocab = Vocabulary(tokens)
    expected = model_shapes(enc_config, subtask)
    missing = [name for name in expected if name not in arrays]
    if missing:
        raise ConfigError(f"{ckpt_path}: checkpoint lacks {', '.join(missing)}")
    extra = [name for name in arrays if name not in expected]
    if extra:
        raise ConfigError(f"{ckpt_path}: checkpoint holds {', '.join(extra)}, unused by its config")
    width, d = expected["classifier.weight"]
    for name, shape in expected.items():
        found = arrays[name].shape
        if name == "classifier.weight" and found[1:] == (d,) and found[0] != width:
            raise ConfigError(
                f"{ckpt_path}: a {found[0]}-wide classifier does not fit subtask {subtask!r}"
            )
        if found != shape:
            raise ConfigError(
                f"{ckpt_path}: {name} has shape {found}, but its config and subtask imply {shape}"
            )
    return Model.from_arrays(enc_config, subtask, arrays), vocab, meta


@blas.one_thread()
def predict_records(ckpt_path, records):
    """Predict labels for paragraph records; returns (par_ids, labels)."""
    model, vocab, meta = load_model(ckpt_path)
    max_len = model.params.config.max_len
    token_ids = [tokenize(compose_input(r), vocab, max_len) for r in records]
    flat = _predict_token_ids(model, token_ids, vocab.pad_id)
    if model.subtask == 1:
        labels = [int(p) for p in flat]
    else:
        labels = [tuple(int(b) for b in row) for row in flat]
    return [r.par_id for r in records], labels
