"""Training orchestration: fold loops, sampler epochs, early stopping, checkpoints.

A `Model` is an `EncoderParams` whose table also holds the subtask's
classifier; `TrainingData.golds` holds the targets that both the loss and
the metric read. Training, snapshots and checkpoints are float64; every
evaluation and prediction runs forward on the float32 copy that
`Model.inference` makes, so a fold's metric and `predict` share arithmetic.
Its forked children are `native.Child`s; AdamW forks and closes its own helper.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import native
from .autograd import Tape, backward
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
    ParseError,
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
    build_grouped_llrd,
    build_single_group,
    cosine_warmup_multiplier,
)
from .sampler import draw_epoch, wrs_weights

logger = logging.getLogger(__name__)

EVAL_BATCH = 16
# A fold hands its periodic evaluations to a forked child, and lets its
# in-process ones fork the prediction helper, when its first evaluation's
# first batch, times the number of batches, took longer than this. Forking
# every evaluation slowed the benchmark's subtask-2 folds by 12% when their
# evaluations took about 17 ms, and forking the prediction helper for each
# slowed them too; the subtask-1 folds' evaluations gain. In float32, fold
# 0's serial validation pass (one BLAS thread, median of 7, 2-core Xeon)
# takes 6-7 ms for `s2_kfold` (85 rows) and 190-240 ms for `s1_fold` (400).
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
    binary_labels: np.ndarray  # contains-PCL flag, drives WRS
    golds: np.ndarray  # the loss's and metric's targets: binary_labels, or (n, 7) floats
    strat_labels: list
    vocab: Vocabulary


def load_training_data(config: RunConfig) -> TrainingData:
    if config.subtask == 1:
        records = load_subtask1_tsv(config.data_path)
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
            categorized = {r.par_id for r in records}
            for r in extras:
                if r.par_id in categorized:
                    raise ParseError(f"{config.negatives_path}: negative par_id {r.par_id!r} "
                                     f"is also a category paragraph in {config.data_path}")
            records = records + extras
            vector_list += [[0] * 7 for _ in extras]
            binary += [0] * len(extras)
            strat = list(binary)
        else:
            strat = _dominant_categories(vector_list)
    if not records:
        raise ConfigError(f"no training examples in {config.data_path}")
    texts = [compose_input(r) for r in records]
    vocab = Vocabulary.build(texts)
    token_ids = [tokenize(t, vocab, config.max_len) for t in texts]
    binary = np.asarray(binary)
    golds = binary if config.subtask == 1 else np.asarray(vector_list, dtype=np.float64)
    return TrainingData(list(records), token_ids, binary, golds, list(strat), vocab)


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


class Model(EncoderParams):
    """Every parameter of `model_shapes` as Tensors, with the config and subtask."""

    def __init__(self, config: EncoderConfig, tensors: dict, subtask: int):
        super().__init__(config, tensors)
        self.subtask = subtask

    @classmethod
    def from_arrays(cls, config: EncoderConfig, subtask: int, arrays: dict) -> "Model":
        """A float64 model over a name -> array mapping (fresh draws, a snapshot
        or a checkpoint's views); the one place a trained model's Tensors are made."""
        tensors = {name: ag.Tensor(arrays[name], requires_grad=True)
                   for name in model_shapes(config, subtask)}
        return cls(config, tensors, subtask)

    def inference(self) -> "Model":
        """A float32 copy that needs no gradients: the one place the model that
        evaluations and `predict` run forward is made."""
        tensors = {name: ag.Tensor(t.values.astype(np.float32))
                   for name, t in self.tensors.items()}
        return Model(self.config, tensors, self.subtask)

    def forward(self, ids, train=False, rng=None):
        """Class logits of either width (`binary_forward` is `multilabel_forward`)."""
        h = pooler(encode_batch(self, ids, train=train, rng=rng), self)
        return binary_forward(h, self)

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


def _predict_token_ids(model: Model, token_ids, helper: bool = True) -> np.ndarray:
    """Hard predictions (eval mode) for id sequences, in input order, from
    `model` as given (`Model.inference` makes the float32 copy to pass).

    Rows are batched in order of token length (stable), so each batch pads
    little, and the predictions are scattered back to input order. With
    `helper` and two or more batches, a `native.Child` computes the odd
    batches while this process computes the even ones, both writing into
    the child's mapping. Each batch is computed as a serial loop computes it.
    """
    if not token_ids:
        raise ContractError("no examples to predict")
    order = np.argsort([len(t) for t in token_ids], kind="stable")
    starts = range(0, order.size, EVAL_BATCH)
    shape = (order.size, *(() if model.subtask == 1 else (NUM_CATEGORIES,)))

    def run(share, shared) -> np.ndarray:
        """Write the batches at `share` into `shared` as int8 labels; returns all it holds."""
        out = np.frombuffer(shared, np.int8).reshape(shape)
        for start in share:
            ids = pad_batch([token_ids[i] for i in order[start : start + EVAL_BATCH]])
            out[start : start + EVAL_BATCH] = model.predict(model.forward(ids))
        return out

    preds = np.empty(shape, int)
    if helper and len(starts) >= 2:
        child = native.Child("prediction helper", lambda shared: run(starts[1::2], shared),
                             preds.size)
        try:
            labels = run(starts[0::2], child.shared)
            child.result()  # the odd batches, in the same mapping
        finally:
            child.close()
    else:
        labels = run(starts, bytearray(preds.size))
    preds[order] = labels
    return preds


def predict_indices(model: Model, data: TrainingData, indices, helper: bool = True) -> np.ndarray:
    """Hard predictions for a set of example indices (eval mode)."""
    return _predict_token_ids(model, [data.token_ids[i] for i in indices], helper)


def eval_metric(model: Model, data: TrainingData, indices, helper: bool = True) -> float:
    """Positive-class F1 (subtask 1) or macro F1 (subtask 2) on the given split;
    `helper` as for `_predict_token_ids`."""
    preds = predict_indices(model, data, indices, helper)
    golds = data.golds[indices]
    if model.subtask == 1:
        return prf1_positive(preds.tolist(), golds.tolist())[2]
    return macro_f1([tuple(p) for p in preds], [tuple(g) for g in golds.astype(int)])[1]


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


def _epoch_orders(config, data, train_idx, order_seeds):
    """Index order for each epoch, drawn as it starts: a weighted-sampler
    draw, with the weights computed once per fold, or a plain shuffle."""
    if not config.wrs:
        return (np.random.default_rng(seed).permutation(train_idx) for seed in order_seeds)
    labels = data.binary_labels[train_idx]
    if labels.min() == labels.max():
        logger.warning("training split has a single class; weighted sampler degenerates to uniform")
        weights = np.ones(train_idx.size)
    else:
        weights = wrs_weights(labels)
    return (train_idx[draw_epoch(weights, train_idx.size, seed)] for seed in order_seeds)


class _Evaluation:
    """A fold's validation passes: history, best snapshot, patience and fork gate.

    Every evaluation scores `Model.inference` of the model, or of its
    snapshot. Before the first evaluation, one batch is timed in process. If
    that time, times the number of batches, exceeds FORK_MIN_EVAL_S, each
    evaluation that cannot end the fold, the first included, is scored on
    its snapshot by a `native.Child` while training goes on, and recorded
    before the next starts or the epoch ends; the others use the prediction
    helper.
    """

    def __init__(self, model: Model, data: TrainingData, val_idx, patience: int):
        self.model, self.data, self.val_idx, self.patience = model, data, val_idx, patience
        self.history: list = []  # [(step, metric), ...]
        self.best, self.best_step, self.snapshot, self.since_improved = -math.inf, -1, None, 0
        self.fork = None  # whether evaluations are slow enough to fork; None until timed
        self.pending = None  # (step, snapshot at that step, the Child scoring it)

    @property
    def stopped(self) -> bool:
        return self.since_improved >= self.patience

    def run(self, step: int, last_of_epoch: bool) -> None:
        """Evaluate the model as trained to `step`. An epoch's last evaluation (so
        the fold's last), and one that could spend patience, run in process."""
        self.settle()
        if self.fork is None:
            model = self.model.inference()
            t0 = time.perf_counter()
            eval_metric(model, self.data, self.val_idx[:EVAL_BATCH])
            batches = math.ceil(len(self.val_idx) / EVAL_BATCH)
            self.fork = (time.perf_counter() - t0) * batches > FORK_MIN_EVAL_S
        decisive = last_of_epoch or self.since_improved + 1 >= self.patience
        if self.fork and not decisive:
            snapshot = self._snapshot()

            def score(shared):
                model = Model.from_arrays(self.model.config, self.model.subtask, snapshot)
                metric = eval_metric(model.inference(), self.data, self.val_idx)
                struct.pack_into("d", shared, 0, metric)

            self.pending = step, snapshot, native.Child(f"evaluation child of step {step}",
                                                        score, 8)
            return
        self._record(step, eval_metric(self.model.inference(), self.data, self.val_idx,
                                       helper=self.fork))

    def settle(self) -> None:
        """Record the pending evaluation, waiting for its child if need be; one
        whose child did not fork or failed is scored here, on its snapshot."""
        if self.pending is not None:
            step, snapshot, child = self.pending
            metric = struct.unpack("d", child.result())[0]
            self.pending = None
            self._record(step, metric, snapshot)

    def close(self) -> None:
        """Kill and reap a child still evaluating because training raised."""
        if self.pending is not None:
            self.pending[2].close()
            self.pending = None

    def _snapshot(self) -> dict:
        return {name: t.values.copy() for name, t in self.model.tensors.items()}

    def _record(self, step: int, metric: float, snapshot=None) -> None:
        """The one place an evaluation is recorded; no `snapshot` means take one now."""
        self.history.append((step, metric))
        if metric > self.best:
            self.best, self.best_step = metric, step
            self.snapshot = snapshot or self._snapshot()
            self.since_improved = 0
        else:
            self.since_improved += 1


@native.compute()
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
    optimizer = AdamW(build_groups(config, model.tensors), model.tensors)
    dropout_rng = np.random.default_rng(dropout_ss)
    order_seeds = order_ss.spawn(config.epochs)

    n = train_idx.size
    batches_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * batches_per_epoch

    step = 0
    losses: list = []
    evaluation = _Evaluation(model, data, val_idx, config.patience_rounds)
    optimizer.fork_helper()
    try:
        for epoch, order in enumerate(_epoch_orders(config, data, train_idx, order_seeds)):
            for b in range(batches_per_epoch):
                idx = order[b * config.batch_size : (b + 1) * config.batch_size]
                ids = pad_batch([data.token_ids[i] for i in idx])
                golds = data.golds[idx]
                step += 1
                multiplier = cosine_warmup_multiplier(step, total_steps, config.warmup_frac)
                optimizer.zero_grad()
                try:
                    with Tape():
                        loss = model.loss(model.forward(ids, train=True, rng=dropout_rng), golds)
                        loss_val = loss.item()
                        if not math.isfinite(loss_val):
                            raise NumericsError(f"loss is {loss_val}")
                        backward(loss, *optimizer.handoffs(multiplier))
                except NumericsError as exc:
                    batch_ids = [data.records[i].par_id for i in idx]
                    raise TrainingDivergedError(
                        f"non-finite loss at step {step} (epoch {epoch}): {exc}; "
                        f"lr multiplier {multiplier:.6f}, batch par_ids {batch_ids}"
                    ) from exc
                optimizer.step(multiplier)
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
        optimizer.close()

    ckpt_path = run_dir / f"fold{fold}.npz"
    save_checkpoint(ckpt_path, model.config, evaluation.snapshot,
                    {"subtask": config.subtask, "vocab": data.vocab.tokens})
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
    """The run's record, which checkpoints do not carry: the resolved config (its
    `build_groups` are the optimizer's), and each fold's steps, history and file hash."""
    meta = {
        "config": config.to_dict(),
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
    """Rebuild (model, vocab) from a checkpoint file; the model is
    `Model.inference` of the checkpoint's parameters.

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
    return Model.from_arrays(enc_config, subtask, arrays).inference(), vocab


@native.compute()
def predict_records(ckpt_path, records):
    """Predict labels for paragraph records; returns (par_ids, labels)."""
    model, vocab = load_model(ckpt_path)
    max_len = model.config.max_len
    token_ids = [tokenize(compose_input(r), vocab, max_len) for r in records]
    labels = _predict_token_ids(model, token_ids).tolist()
    if model.subtask == 2:
        labels = [tuple(row) for row in labels]
    return [r.par_id for r in records], labels
