import ast
import dataclasses
import errno
import gc
import json
import logging
import math
import os
import shutil
import signal
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from pcldetect import autograd as ag
from pcldetect import native, trainer
from pcldetect.autograd import Tape, backward
from pcldetect.cli import main
from pcldetect.data import Vocabulary, compose_input, pad_batch, tokenize
from pcldetect.encoder import (
    EncoderConfig,
    encode_batch,
    init_arrays,
    load_checkpoint,
    pooler,
    save_checkpoint,
)
from pcldetect.errors import (
    ConfigError,
    ContractError,
    NumericsError,
    ParseError,
    TrainingDivergedError,
)
from pcldetect.heads import binary_forward
from pcldetect.metrics import macro_f1, prf1_positive
from pcldetect.optim import AdamW
from pcldetect.trainer import (
    RunConfig,
    build_model,
    eval_metric,
    file_sha256,
    lambda_sweep,
    load_model,
    load_training_data,
    make_folds,
    predict_indices,
    predict_records,
    run_kfold,
    run_single_fold,
    train_fold,
)

from synthcorpus import (
    encode_token,
    synthetic_binary_records,
    synthetic_category_records,
    write_binary_tsv,
    write_category_tsv,
)


def tiny_config(data_path, **kw):
    defaults = dict(
        subtask=1,
        data_path=str(data_path),
        d_model=16,
        n_heads=2,
        n_layers=2,
        d_ff=32,
        max_len=40,
        dropout=0.1,
        batch_size=4,
        epochs=1,
        eta=1e-3,
        groups=2,
        k_folds=3,
        eval_every_batches=8,
        patience_rounds=3,
        seed=13,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "train.tsv"
    write_binary_tsv(path, synthetic_binary_records(n=72, positive_frac=0.25, seed=5))
    return path


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(subtask=3)
    with pytest.raises(ConfigError):
        RunConfig(batch_size=0)
    with pytest.raises(ConfigError):
        RunConfig(lam=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(grouping="fancy")
    with pytest.raises(ConfigError):
        RunConfig(n_layers=1, groups=3)
    RunConfig(n_layers=1, groups=3, grouping="single")  # groups unused there


def test_lambda_defaults_per_subtask():
    assert RunConfig(subtask=1).resolved_lambda == 1.6
    assert RunConfig(subtask=2).resolved_lambda == 3.6
    assert RunConfig(subtask=2, lam=0.6).resolved_lambda == 0.6


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "subtask = 1\nepochs = 3\neta = 2e-4  # anchor\nwrs = false\nlam = none\n",
        encoding="utf-8",
    )
    config = RunConfig.from_file(cfg, overrides={"epochs": 5})
    assert config.epochs == 5
    assert config.eta == 2e-4
    assert config.wrs is False
    assert config.lam is None
    with pytest.raises(ConfigError):
        RunConfig.from_file(cfg, overrides={"not_a_key": 1})


def test_empty_dataset_refused(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_training_data(tiny_config(path))


def test_step_count_matches_loop_arithmetic(small_corpus, tmp_path):
    config = tiny_config(
        small_corpus, epochs=2, eval_every_batches=1000, patience_rounds=1000
    )
    data = load_training_data(config)
    folds = make_folds(config, data)
    train_idx, val_idx = folds.split(0)
    outcome = train_fold(config, data, train_idx, val_idx, 0, tmp_path)
    per_epoch = math.ceil(train_idx.size / config.batch_size)
    assert outcome.planned_steps == config.epochs * per_epoch
    assert outcome.steps_taken == outcome.planned_steps
    assert not outcome.stopped_early
    assert len(outcome.losses) == outcome.steps_taken
    # no evaluation fell due, so the fold's only one ran after the last step
    assert outcome.history == [(outcome.steps_taken, outcome.best_metric)]
    assert outcome.best_step == outcome.steps_taken
    _, _, meta = load_checkpoint(outcome.checkpoint_path)
    assert meta["schedule"]["snapshot_step"] == outcome.steps_taken
    # each setting once: the recipe lives in run_config, and no generator state
    assert sorted(meta) == ["fold", "optimizer_groups", "run_config", "schedule", "subtask",
                            "vocab"]


def test_early_stopping_cuts_run_short(small_corpus, tmp_path):
    config = tiny_config(
        small_corpus, epochs=6, eval_every_batches=2, patience_rounds=2, eta=1e-5
    )
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    outcome = train_fold(config, data, train_idx, val_idx, 0, tmp_path)
    assert outcome.stopped_early
    assert outcome.steps_taken < outcome.planned_steps
    assert outcome.steps_taken <= outcome.planned_steps
    metrics = [m for _, m in outcome.history]
    assert outcome.best_metric == max(metrics)
    best_steps = [s for s, m in outcome.history if m == outcome.best_metric]
    assert outcome.best_step == best_steps[0]


def test_training_is_reproducible(small_corpus, tmp_path):
    config = tiny_config(small_corpus, epochs=1)
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    a = train_fold(config, data, train_idx, val_idx, 0, tmp_path / "a")
    b = train_fold(config, data, train_idx, val_idx, 0, tmp_path / "b")
    assert a.losses == b.losses
    assert a.history == b.history
    assert file_sha256(a.checkpoint_path) == file_sha256(b.checkpoint_path)


def test_grouped_decay_degenerates_to_single_group(small_corpus, tmp_path):
    common = dict(epochs=1, wrs=False, head_multiplier=1.0, dropout=0.0)
    config_llrd = tiny_config(small_corpus, lam=1.0, grouping="llrd", **common)
    config_single = tiny_config(small_corpus, grouping="single", **common)
    data = load_training_data(config_llrd)
    train_idx, val_idx = make_folds(config_llrd, data).split(0)
    a = train_fold(config_llrd, data, train_idx, val_idx, 0, tmp_path / "llrd")
    b = train_fold(config_single, data, train_idx, val_idx, 0, tmp_path / "single")
    assert a.losses == b.losses
    assert a.history == b.history


def test_divergence_aborts_with_diagnostics(small_corpus, tmp_path):
    # an absurd learning rate makes the decoupled decay factor explosive
    config = tiny_config(
        small_corpus, eta=1e12, epochs=10, eval_every_batches=10_000,
        patience_rounds=10_000, weight_decay=0.01,
    )
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train_fold(config, data, train_idx, val_idx, 0, tmp_path)
    message = str(err.value)
    assert "multiplier" in message
    assert "par_ids" in message


def test_run_kfold_writes_report_and_metadata(small_corpus, tmp_path):
    config = tiny_config(small_corpus, out_dir=str(tmp_path), epochs=1)
    report, outcomes = run_kfold(config, tmp_path)
    assert len(outcomes) == config.k_folds
    assert report.fold_metrics == tuple(o.best_metric for o in outcomes)
    assert report.mean_val == pytest.approx(
        sum(o.best_metric for o in outcomes) / len(outcomes)
    )
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["config"]["resolved_lambda"] == 1.6
    assert len(meta["folds"]) == config.k_folds
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fold0.npz", "fold1.npz", "fold2.npz", "metadata.json", "report.json"
    ]
    for fold_meta in meta["folds"]:
        assert fold_meta["checkpoint_sha256"] == file_sha256(fold_meta["checkpoint"])
    report_json = (tmp_path / "report.json").read_text()
    assert json.loads(report_json)["seed"] == config.seed


def test_run_single_fold_and_predict(small_corpus, tmp_path):
    config = tiny_config(small_corpus, out_dir=str(tmp_path), fold=1, epochs=1)
    outcome = run_single_fold(config, tmp_path)
    assert outcome.fold == 1
    records = synthetic_binary_records(n=8, positive_frac=0.5, seed=99)
    par_ids, labels = predict_records(outcome.checkpoint_path, records)
    assert par_ids == [r.par_id for r in records]
    assert set(labels) <= {0, 1}


def test_lambda_sweep_table(small_corpus, tmp_path):
    config = tiny_config(small_corpus, epochs=1, k_folds=2)
    rows = lambda_sweep(config, [0.6, 1.6], tmp_path)
    assert len(rows) == 2
    assert all(math.isfinite(mean) and math.isfinite(std) for _, mean, std in rows)
    best = max(rows, key=lambda r: r[1])
    lam06 = next(r for r in rows if r[0] == 0.6)
    assert best[1] >= lam06[1]
    lines = (tmp_path / "sweep.tsv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].split("\t")[0] == "0.6"


def test_single_row_sweep(small_corpus, tmp_path):
    config = tiny_config(small_corpus, epochs=1, k_folds=2)
    rows = lambda_sweep(config, [1.6], tmp_path)
    assert len(rows) == 1


def test_subtask2_positives_only_warns_and_trains(tmp_path, caplog):
    path = tmp_path / "cats.tsv"
    write_category_tsv(path, synthetic_category_records(n=60, seed=3))
    config = tiny_config(path, subtask=2, epochs=1, k_folds=2, eval_every_batches=5)
    data = load_training_data(config)
    assert data.golds.shape == (60, 7)
    assert set(data.binary_labels) == {1}
    train_idx, val_idx = make_folds(config, data).split(0)
    with caplog.at_level(logging.WARNING):
        outcome = train_fold(config, data, train_idx, val_idx, 0, tmp_path)
    assert "single class" in caplog.text
    assert 0.0 <= outcome.best_metric <= 1.0


def test_a_fold_warns_of_a_single_class_once(tmp_path, caplog, monkeypatch):
    path = tmp_path / "cats.tsv"
    write_category_tsv(path, synthetic_category_records(n=60, seed=3))
    config = tiny_config(path, subtask=2, epochs=3, k_folds=2, eval_every_batches=5,
                         patience_rounds=1000)
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    draws, draw = [], trainer.draw_epoch

    def recording(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(trainer, "draw_epoch", recording)
    with caplog.at_level(logging.WARNING):
        outcome = train_fold(config, data, train_idx, val_idx, 0, tmp_path)
    assert caplog.text.count("single class") == 1
    assert len(draws) == 3 and outcome.steps_taken == outcome.planned_steps  # one per epoch


def test_subtask2_with_negatives_file(tmp_path):
    cats = tmp_path / "cats.tsv"
    write_category_tsv(cats, synthetic_category_records(n=40, seed=4))
    negs = tmp_path / "negs.tsv"
    write_binary_tsv(negs, synthetic_binary_records(n=40, positive_frac=0.2, seed=6))
    config = tiny_config(cats, subtask=2, negatives_path=str(negs), k_folds=2)
    data = load_training_data(config)
    # negatives from the labeled file join with all-zero vectors
    n_neg = sum(1 for r in synthetic_binary_records(n=40, positive_frac=0.2, seed=6)
                if r.raw_label < 2)
    assert len(data.records) == 40 + n_neg
    assert data.golds[40:].sum() == 0
    assert set(data.strat_labels) == {0, 1}
    # gold rows and token rows follow the records, the appended negatives included
    assert len(data.golds) == len(data.token_ids) == len(data.records)
    assert all(r.category_vector is None for r in data.records[40:])
    assert len({tuple(v) for v in data.golds[:40]}) > 1  # a shifted row would show
    for i, record in enumerate(data.records):
        assert data.golds[i].tolist() == list(record.category_vector or (0,) * 7), i
        assert data.token_ids[i] == tokenize(compose_input(record), data.vocab, config.max_len), i


def test_subtask2_refuses_a_negative_that_is_also_a_category_paragraph(tmp_path):
    cats, negatives = tmp_path / "cats.tsv", tmp_path / "negatives.tsv"
    cat_records = synthetic_category_records(n=20, seed=3)
    write_category_tsv(cats, cat_records)
    others = synthetic_binary_records(n=20, positive_frac=0.25, seed=4)
    clash = dataclasses.replace(others[-1], par_id=cat_records[0].par_id, raw_label=0)
    write_binary_tsv(negatives, others[:-1] + [clash])
    config = tiny_config(cats, subtask=2, negatives_path=str(negatives))
    with pytest.raises(ParseError, match=f"negative par_id '{clash.par_id}' is also a category"):
        load_training_data(config)
    # a positive row of the same paragraph is the expected overlap: it does not join
    write_binary_tsv(negatives, others[:-1] + [dataclasses.replace(clash, raw_label=3)])
    load_training_data(config)


def test_fold_seed_controls_assignment(small_corpus):
    config_a = tiny_config(small_corpus, seed=1, fold_seed=7)
    config_b = tiny_config(small_corpus, seed=2, fold_seed=7)
    data = load_training_data(config_a)
    fa = make_folds(config_a, data)
    fb = make_folds(config_b, data)
    assert np.array_equal(fa.fold_of, fb.fold_of)


def test_training_step_tape_budget():
    # the s1 recipe's shape: one step records 36 tape nodes. The embeddings
    # take five (two gathers, add, layer_norm, dropout), each of the six
    # layers four (self_attention, residual_norm, feed_forward, residual_norm)
    # and the last layer's row select one more, then the [CLS] select, the
    # pooler (linear, tanh), the head and loss (transpose, linear, cross_entropy)
    config = RunConfig(d_model=64, n_heads=4, n_layers=6, d_ff=256, max_len=64, dropout=0.4)
    model = build_model(config, 53, np.random.default_rng(0))
    rows = np.random.default_rng(1).integers(6, 53, size=(4, 31))
    ids = pad_batch([row[:n].tolist() for row, n in zip(rows, (16, 22, 31, 25))])
    with Tape() as tape:
        loss = model.loss(model.forward(ids, train=True, rng=np.random.default_rng(2)),
                          [0, 1, 0, 0])
        backward(loss)
    assert len(tape) == 36


@pytest.mark.parametrize("subtask", [1, 2])
def test_a_wrong_prediction_reaches_the_encoder(subtask):
    """A classifier bias of +-40 makes every prediction confidently wrong; one
    backward through the model's forward and loss still moves the pooler, the
    first layer and the embedding row of every token in the batch."""
    config = EncoderConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=2, d_ff=16,
                           max_len=8, dropout_rate=0.0)
    arrays = init_arrays(trainer.model_shapes(config, subtask), np.random.default_rng(0))
    model = trainer.Model.from_arrays(config, subtask, arrays)
    ids = np.array([[1, 5, 7, 9, 2, 0], [1, 6, 8, 2, 0, 0]])
    if subtask == 1:
        golds = np.array([1, 1])
        model["classifier.bias"].values[:] = [40.0, -40.0]
    else:
        golds = np.array([[1, 0, 1, 0, 0, 1, 0]] * 2, dtype=np.float64)
        model["classifier.bias"].values[:] = np.where(golds[0] == 1, -40.0, 40.0)
    with Tape():
        z = model.forward(ids, train=True, rng=np.random.default_rng(1))
        loss = model.loss(z, golds)
        backward(loss)
    assert np.all(model.predict(z) != golds) and loss.item() > 30.0
    for name in ("pooler.dense.weight", "layer.0.attn.q.weight"):
        assert np.abs(model[name].grad).max() > 0.0, name
    token_grad = np.abs(model["embeddings.token"].grad).max(axis=1)
    in_batch = np.unique(ids[ids != config.pad_id])
    assert np.all(token_grad[in_batch] > 0.0)
    assert np.all(np.delete(token_grad, ids) == 0.0)  # rows no token reads stay still


def _arrays(model):
    return {name: t.values for name, t in model.tensors.items()}


def _mixed_label_model(small_corpus, subtask):
    config = tiny_config(small_corpus)
    data = load_training_data(config)
    model = build_model(dataclasses.replace(config, subtask=subtask), len(data.vocab),
                        np.random.default_rng(3))
    # move the head's decision threshold between the two middle rows, so
    # both labels occur and no row sits near the boundary
    ids = pad_batch(data.token_ids, pad_id=data.vocab.pad_id)
    z = pooler(encode_batch(model, ids), model).values @ model["classifier.weight"].values.T
    if subtask == 1:
        z = z[:, 1:] - z[:, :1]
    mid = len(z) // 2
    model["classifier.bias"].values[-z.shape[1]:] -= (
        np.sort(z, axis=0)[mid - 1 : mid + 1].mean(axis=0))
    return model, data


@pytest.mark.parametrize("subtask", [1, 2])
def test_an_inference_forward_runs_in_float32_throughout(small_corpus, subtask, monkeypatch):
    model, data = _mixed_label_model(small_corpus, subtask)
    copy = model.inference()
    for name, t in copy.tensors.items():
        assert t.values.dtype == np.float32 and not t.requires_grad, name
        assert np.array_equal(t.values, model[name].values.astype(np.float32)), name
        assert model[name].values.dtype == np.float64 and model[name].requires_grad, name
    made, make = [], ag._make

    def recording(values, inputs, backward_fn):
        out = make(values, inputs, backward_fn)
        made.append(out.values.dtype)
        return out

    monkeypatch.setattr(ag, "_make", recording)
    ids = pad_batch(data.token_ids[:8], pad_id=data.vocab.pad_id)
    assert (ids == data.vocab.pad_id).any()  # the padding mask takes part
    sink = []
    z = binary_forward(pooler(encode_batch(copy, ids, attn_sink=sink), copy), copy)
    assert z.values.dtype == np.float32
    assert len(sink) == model.config.n_layers
    assert {p.dtype for p in sink} == {np.dtype(np.float32)}
    assert set(made) == {np.dtype(np.float32)}


@pytest.mark.parametrize("subtask", [1, 2])
def test_length_sorted_prediction_keeps_input_order(small_corpus, subtask):
    model, data = _mixed_label_model(small_corpus, subtask)
    indices = np.random.default_rng(4).permutation(len(data.token_ids))
    assert len({len(data.token_ids[i]) for i in indices}) > 5
    preds = predict_indices(model, data, indices)
    alone = np.array([predict_indices(model, data, [i])[0] for i in indices])
    assert np.array_equal(preds, alone)
    assert len(np.unique(preds)) > 1  # the check is not vacuous
    with pytest.raises(ContractError):
        predict_indices(model, data, [])


def test_predict_records_keeps_input_order(small_corpus, tmp_path):
    model, data = _mixed_label_model(small_corpus, 1)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model.config, _arrays(model),
                    {"subtask": 1, "vocab": data.vocab.tokens})
    records = [data.records[i] for i in np.random.default_rng(5).permutation(len(data.records))]
    par_ids, labels = predict_records(path, records)
    assert par_ids == [r.par_id for r in records]
    assert labels == [predict_records(path, [r])[1][0] for r in records]
    assert set(labels) == {0, 1}


def _learned_fold(small_corpus, tmp_path, subtask):
    """Fold 0 trained on the small corpus long enough that its labels vary;
    subtask 2 adds planted categories and takes the corpus as negatives.
    Returns (data, validation indices, outcome)."""
    path, extra = small_corpus, {}
    if subtask == 2:
        path = tmp_path / "cats.tsv"
        write_category_tsv(path, synthetic_category_records(n=60, seed=3))
        extra = {"negatives_path": str(small_corpus)}
    config = tiny_config(path, subtask=subtask, epochs=10, eta=1e-2, patience_rounds=100,
                         **extra)
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    return data, val_idx, train_fold(config, data, train_idx, val_idx, 0, tmp_path / "fold")


@pytest.mark.parametrize("subtask", [1, 2])
def test_float32_prediction_gives_a_float64_forwards_labels(small_corpus, tmp_path, subtask):
    data, _, outcome = _learned_fold(small_corpus, tmp_path, subtask)
    model = load_model(outcome.checkpoint_path)[0]
    config, arrays, _ = load_checkpoint(outcome.checkpoint_path)
    reference = trainer.Model.from_arrays(config, subtask, arrays)
    assert {t.values.dtype for t in model.tensors.values()} == {np.dtype(np.float32)}
    assert {t.values.dtype for t in reference.tensors.values()} == {np.dtype(np.float64)}

    expected = predict_indices(reference, data, range(len(data.records)))
    labels = predict_records(outcome.checkpoint_path, data.records)[1]
    assert np.array_equal(np.array(labels), expected)
    assert len(np.unique(expected, axis=0)) > 1  # the check is not vacuous
    ids = pad_batch(data.token_ids, pad_id=data.vocab.pad_id)
    z32, z64 = model.forward(ids).values, reference.forward(ids).values
    assert z32.dtype == np.float32
    assert np.abs(z32 - z64).max() < 1e-4  # 1.2e-7 (subtask 1) and 8.7e-6 (subtask 2)


@pytest.mark.parametrize("forked", [False, True], ids=["in process", "forked"])
@pytest.mark.parametrize("subtask", [1, 2])
def test_a_folds_best_metric_is_what_predict_reproduces(small_corpus, tmp_path, monkeypatch,
                                                        subtask, forked):
    monkeypatch.setattr(native, "_cores", lambda: 2 if forked else 1)
    monkeypatch.setattr(trainer, "FORK_MIN_EVAL_S", 0.0)
    forks = _all_forks(monkeypatch)
    data, val_idx, outcome = _learned_fold(small_corpus, tmp_path, subtask)
    assert bool(forks) == forked
    assert outcome.best_metric > 0.0  # the check is not vacuous
    model = load_model(outcome.checkpoint_path)[0]
    assert eval_metric(model, data, val_idx) == outcome.best_metric
    _, labels = predict_records(outcome.checkpoint_path, [data.records[i] for i in val_idx])
    golds = data.golds[val_idx].astype(int).tolist()
    if subtask == 1:
        assert prf1_positive(labels, golds)[2] == outcome.best_metric
    else:
        assert macro_f1(labels, [tuple(g) for g in golds])[1] == outcome.best_metric


def _serial_predictions(model, data, indices):
    """Reference: one plain loop over the length-sorted batches of EVAL_BATCH."""
    rows = [data.token_ids[i] for i in indices]
    order = np.argsort([len(r) for r in rows], kind="stable")
    batches = [
        model.predict(model.forward(pad_batch(
            [rows[i] for i in order[start : start + trainer.EVAL_BATCH]],
            pad_id=data.vocab.pad_id,
        )))
        for start in range(0, order.size, trainer.EVAL_BATCH)
    ]
    preds = np.empty_like(np.concatenate(batches))
    preds[order] = np.concatenate(batches)
    return preds


def _all_forks(monkeypatch):
    """Count the children `os.fork` starts from here on; returns their pids."""
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _refuse_forks(monkeypatch, attempts):
    """Make `os.fork` fail as it does at a process limit; each attempt adds None
    to `attempts`. The refusal `native.Child` remembers is undone after the test."""

    def refuse():
        attempts.append(None)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(native.Child, "barred", False)


@pytest.mark.parametrize("subtask", [1, 2])
def test_forked_prediction_equals_a_serial_loop(small_corpus, subtask, monkeypatch):
    model, data = _mixed_label_model(small_corpus, subtask)
    indices = np.random.default_rng(6).permutation(len(data.token_ids))
    assert len(indices) > 4 * trainer.EVAL_BATCH  # each process gets several batches
    serial = _serial_predictions(model, data, indices)
    forks = _all_forks(monkeypatch)
    for cores, children in ((1, 0), (2, 1), (8, 1)):
        monkeypatch.setattr(native, "_cores", lambda: cores)
        forks.clear()
        assert np.array_equal(predict_indices(model, data, indices), serial)
        assert len(forks) == children
        # one batch, or no helper asked for: nothing forks
        assert np.array_equal(predict_indices(model, data, indices[: trainer.EVAL_BATCH]),
                              serial[: trainer.EVAL_BATCH])
        assert np.array_equal(predict_indices(model, data, indices, helper=False), serial)
        assert len(forks) == children


@pytest.mark.parametrize("death", ["exit 3", "SIGKILL", "fork refused"])
def test_a_prediction_helper_that_dies_has_its_batches_computed_again(small_corpus, monkeypatch,
                                                                      death):
    monkeypatch.setattr(native, "_cores", lambda: 2)
    model, data = _mixed_label_model(small_corpus, 1)
    indices = np.random.default_rng(7).permutation(len(data.token_ids))
    serial = _serial_predictions(model, data, indices)

    parent, forward = os.getpid(), model.forward

    def forward_or_die(ids):
        if os.getpid() != parent:  # the helper
            if death == "exit 3":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return forward(ids)

    monkeypatch.setattr(model, "forward", forward_or_die)
    forks = _all_forks(monkeypatch)
    if death == "fork refused":
        _refuse_forks(monkeypatch, forks)
    assert np.array_equal(predict_indices(model, data, indices), serial)
    assert len(forks) == 1


def test_a_raise_in_the_caller_kills_the_prediction_helper(small_corpus, monkeypatch):
    monkeypatch.setattr(native, "_cores", lambda: 2)
    model, data = _mixed_label_model(small_corpus, 1)
    parent, forward = os.getpid(), model.forward

    def forward_or_raise(ids):
        if os.getpid() == parent:
            raise KeyError("injected")
        time.sleep(60)  # the helper, until it is killed
        return forward(ids)

    monkeypatch.setattr(model, "forward", forward_or_raise)
    forks = _all_forks(monkeypatch)
    started = time.monotonic()
    with pytest.raises(KeyError, match="injected"):
        predict_indices(model, data, range(len(data.token_ids)))
    assert time.monotonic() - started < 30
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # killed and reaped
        os.waitpid(forks[0], os.WNOHANG)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerics_error_in_a_helper_batch_reaches_the_caller(
    small_corpus, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(native, "_cores", lambda: 2)
    model, data = _mixed_label_model(small_corpus, 1)
    by_length = np.argsort([len(t) for t in data.token_ids], kind="stable")
    indices = by_length[: 2 * trainer.EVAL_BATCH]  # batch 0 for the caller, 1 for the helper
    caller_rows = indices[: trainer.EVAL_BATCH]
    width = max(len(data.token_ids[i]) for i in caller_rows)
    assert max(len(data.token_ids[i]) for i in indices) > width
    # a position only the helper's longer rows reach: its attention scores turn NaN
    model["embeddings.position"].values[width] = np.inf
    predict_indices(model, data, caller_rows)  # the caller's batch alone is finite
    with pytest.raises(NumericsError, match="attention scores"):
        predict_indices(model, data, indices)

    ckpt, tsv, out = tmp_path / "poisoned.npz", tmp_path / "data.tsv", tmp_path / "out.tsv"
    save_checkpoint(ckpt, model.config, _arrays(model),
                    {"subtask": 1, "vocab": data.vocab.tokens})
    write_binary_tsv(tsv, [data.records[i] for i in indices])
    code = main(["predict", "--checkpoint", str(ckpt), "--data", str(tsv), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: attention scores") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.skipif(native.threads() is None, reason="numpy does not use its bundled OpenBLAS")
def test_blas_keeps_one_thread_in_training_and_prediction(small_corpus, tmp_path, monkeypatch):
    """Inside `predict_records` and `train_fold`, OpenBLAS runs one thread; the
    previous thread count is back after each, also when the fold raises."""
    model, data = _mixed_label_model(small_corpus, 1)
    ckpt = tmp_path / "model.npz"
    save_checkpoint(ckpt, model.config, _arrays(model),
                    {"subtask": 1, "vocab": data.vocab.tokens})
    config = tiny_config(small_corpus, epochs=1)
    seen, forward = [], trainer.Model.forward

    def recording(self, ids, **kwargs):
        seen.append(native.threads())
        if kwargs.get("train") and len(seen) > 5:
            raise KeyError("injected")
        return forward(self, ids, **kwargs)

    monkeypatch.setattr(trainer.Model, "forward", recording)
    get, set_ = native._thread_count_calls()
    before = get()
    set_(2)
    try:
        predict_records(ckpt, data.records)
        assert (set(seen), get()) == ({1}, 2)
        seen.clear()
        with pytest.raises(KeyError, match="injected"):
            train_fold(config, data, *make_folds(config, data).split(0), 0, tmp_path / "fold")
        assert (len(seen), set(seen), get()) == (6, {1}, 2)
    finally:
        set_(before)


def test_training_and_prediction_keep_freed_memory_in_the_heap(small_corpus, tmp_path,
                                                              monkeypatch):
    """`mallopt` has had the heap policy's two calls, once, before every
    forward of `predict_records` and `train_fold`."""
    model, data = _mixed_label_model(small_corpus, 1)
    ckpt = tmp_path / "model.npz"
    save_checkpoint(ckpt, model.config, _arrays(model),
                    {"subtask": 1, "vocab": data.vocab.tokens})
    config = tiny_config(small_corpus, epochs=1)
    policy = ((native.M_MMAP_THRESHOLD, native.MMAP_THRESHOLD),
              (native.M_TRIM_THRESHOLD, native.TRIM_THRESHOLD))
    calls, seen, forward = [], [], trainer.Model.forward

    def recording(self, ids, **kwargs):
        seen.append(tuple(calls))
        return forward(self, ids, **kwargs)

    monkeypatch.setattr(trainer.Model, "forward", recording)
    monkeypatch.setattr(native, "_mallopt", lambda: lambda *args: calls.append(args))
    predict_records(ckpt, data.records)
    assert (set(seen), tuple(calls)) == ({policy}, policy)
    calls.clear()
    seen.clear()
    train_fold(config, data, *make_folds(config, data).split(0), 0, tmp_path / "fold")
    assert (set(seen), tuple(calls)) == ({policy}, policy)


def test_the_heap_policy_does_nothing_without_mallopt(monkeypatch):
    class NoMallopt:
        def __init__(self, name):
            pass

    native._mallopt.cache_clear()
    try:
        monkeypatch.setattr(native.ctypes, "CDLL", NoMallopt)
        assert native._mallopt() is None
        with native.compute():
            pass
    finally:
        monkeypatch.undo()
        native._mallopt.cache_clear()


_WIDTH_MISMATCH = "a {width}-wide classifier does not fit subtask {subtask}"


@pytest.mark.parametrize("subtask, width, doctor, message", [
    (1, 7, None, _WIDTH_MISMATCH),
    (2, 2, None, _WIDTH_MISMATCH),
    (1, 3, None, _WIDTH_MISMATCH),
    (2, 3, None, _WIDTH_MISMATCH),
    (1, 2, lambda params, meta, encoder: meta.pop("subtask"),
     "checkpoint metadata has no 'subtask'"),
    (1, 2, lambda params, meta, encoder: params.pop("pooler.dense.weight"),
     "checkpoint lacks pooler.dense.weight"),
    (1, 2, lambda params, meta, encoder: params.update({"layer.0.attn.q.weight": np.eye(3)}),
     "layer.0.attn.q.weight has shape (3, 3), but its config and subtask imply (16, 16)"),
    (1, 2, lambda params, meta, encoder: params.update({"pooler.extra": np.zeros(2)}),
     "checkpoint holds pooler.extra, unused by its config"),
    (1, 2, lambda params, meta, encoder: meta.update(subtask=[1]),
     "checkpoint subtask [1] is not the integer 1 or 2"),
    (1, 2, lambda params, meta, encoder: meta.update(subtask=True),
     "checkpoint subtask True is not the integer 1 or 2"),
    (1, 2, lambda params, meta, encoder: meta.update(subtask=1.0),
     "checkpoint subtask 1.0 is not the integer 1 or 2"),
    (1, 2, lambda params, meta, encoder: meta.update(vocab=5),
     "checkpoint vocab is not a list of strings"),
    (1, 2, lambda params, meta, encoder: meta.update(vocab=None),
     "checkpoint vocab is not a list of strings"),
    (1, 2, lambda params, meta, encoder: meta["vocab"].append("unseen"),
     "checkpoint vocab holds {longer} tokens, but its config has vocab_size {rows}"),
    (1, 2, lambda params, meta, encoder: meta["vocab"].pop(),
     "checkpoint vocab holds {shorter} tokens, but its config has vocab_size {rows}"),
    (1, 2, lambda params, meta, encoder: encoder.update(pad_id=3),
     "checkpoint pad_id 3 is not the vocabulary's [PAD] id 0"),
], ids=["1-7", "2-2", "1-3", "2-3", "no-subtask", "no-pooler-weight", "q-weight-3x3",
        "extra-parameter", "subtask-list", "subtask-true", "subtask-float", "vocab-int",
        "vocab-null", "vocab-longer", "vocab-shorter", "pad-id"])
def test_predict_refuses_a_head_whose_width_does_not_fit_the_subtask(
    small_corpus, tmp_path, capsys, subtask, width, doctor, message
):
    config = tiny_config(small_corpus)
    data = load_training_data(config)
    model = build_model(config, len(data.vocab), np.random.default_rng(3))
    params = _arrays(model)
    head_shapes = {"classifier.weight": (width, config.d_model), "classifier.bias": (width,)}
    params.update(init_arrays(head_shapes, np.random.default_rng(4)))
    meta = {"subtask": subtask, "vocab": list(data.vocab.tokens)}
    encoder = dataclasses.asdict(model.config)
    if doctor is not None:
        doctor(params, meta, encoder)
    ckpt, out = tmp_path / "doctored.npz", tmp_path / "out.tsv"
    save_checkpoint(ckpt, EncoderConfig(**encoder), params, meta)
    code = main(["predict", "--checkpoint", str(ckpt), "--data", str(small_corpus),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    rows = len(data.vocab)
    assert message.format(width=width, subtask=subtask, rows=rows, longer=rows + 1,
                          shorter=rows - 1) in err
    assert not out.exists()


def test_a_non_ascii_vocabulary_round_trips_through_a_checkpoint_and_predict(
    small_corpus, tmp_path
):
    model, data = _mixed_label_model(small_corpus, 1)
    tokens = data.vocab.tokens[:-2] + ["café", "naïve"]
    ckpt = tmp_path / "model.npz"
    save_checkpoint(ckpt, model.config, _arrays(model), {"subtask": 1, "vocab": tokens})
    assert '"café", "naïve"'.encode("utf-8") in ckpt.read_bytes()  # the header is UTF-8 text
    assert load_checkpoint(ckpt)[2]["vocab"] == tokens

    records = [dataclasses.replace(r, text=f"{r.text} café naïve") for r in data.records]
    tsv, out = tmp_path / "data.tsv", tmp_path / "out.tsv"
    write_binary_tsv(tsv, records)
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(tsv), "--out", str(out)]) == 0
    vocab = Vocabulary(tokens)
    rows = [tokenize(compose_input(r), vocab, model.config.max_len) for r in records]
    assert all(encode_token(vocab, "café") in ids and encode_token(vocab, "naïve") in ids
               for ids in rows)
    labels = [int(model.predict(model.forward(pad_batch([ids], pad_id=vocab.pad_id)))[0])
              for ids in rows]
    assert out.read_text(encoding="utf-8").splitlines() == [
        f"{r.par_id}\t{label}" for r, label in zip(records, labels)
    ]
    assert len(set(labels)) > 1


@pytest.mark.parametrize("subtask", [1, 2])
def test_one_layout_from_build_through_checkpoint_to_load(small_corpus, tmp_path, subtask):
    path = small_corpus
    if subtask == 2:
        path = tmp_path / "cats.tsv"
        write_category_tsv(path, synthetic_category_records(n=60, seed=3))
    config = tiny_config(path, subtask=subtask, k_folds=2)
    data = load_training_data(config)
    built = [(name, t.shape) for name, t in
             build_model(config, len(data.vocab), np.random.default_rng(0)).tensors.items()]
    width = trainer.HEAD_WIDTH[subtask]
    assert built[-2:] == [("classifier.weight", (width, 16)), ("classifier.bias", (width,))]
    outcome = train_fold(config, data, *make_folds(config, data).split(0), 0, tmp_path)
    with np.load(outcome.checkpoint_path) as saved:
        index = json.loads(saved["header"].tobytes())["params"]
    assert [(name, tuple(shape)) for name, shape in index] == built
    loaded = load_model(outcome.checkpoint_path)[0]
    assert [(name, t.shape) for name, t in loaded.tensors.items()] == built


def test_checkpoint_bytes_do_not_depend_on_paths(small_corpus, tmp_path):
    checkpoints = []
    for name in ("a", "a_longer_directory_name"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        data_path = run_dir / "train.tsv"
        shutil.copy(small_corpus, data_path)
        config = tiny_config(data_path, out_dir=str(run_dir))
        data = load_training_data(config)
        train_idx, val_idx = make_folds(config, data).split(0)
        train_fold(config, data, train_idx, val_idx, 0, run_dir)
        checkpoints.append((run_dir / "fold0.npz").read_bytes())
    assert checkpoints[0] == checkpoints[1]
    with np.load(run_dir / "fold0.npz") as saved:
        assert not [k for k in saved.files if k.startswith("opt/")]  # no optimizer moments


def _fork_counter(monkeypatch):
    """Let every evaluation that may fork do so; returns the pids of the
    evaluation children whose fork was attempted (prediction helpers are not
    counted; None where the fork was refused)."""
    monkeypatch.setattr(trainer, "FORK_MIN_EVAL_S", 0.0)
    monkeypatch.setattr(native, "_cores", lambda: 2)
    forks, attempts, fork, init = [], [], os.fork, native.Child.__init__

    def attempt():
        attempts.append(None)
        return fork()

    def counting(self, name, work, size):
        tried = len(attempts)
        init(self, name, work, size)
        if name.startswith("evaluation child") and len(attempts) > tried:
            forks.append(self.pid)

    monkeypatch.setattr(os, "fork", attempt)
    monkeypatch.setattr(native.Child, "__init__", counting)
    return forks


def _in_child(action, monkeypatch):
    """Run `action(model)` before evaluating, in forked children only."""
    parent, inner = os.getpid(), trainer.eval_metric

    def eval_metric(model, data, indices, **kwargs):
        if os.getpid() != parent:
            action(model)
        return inner(model, data, indices, **kwargs)

    monkeypatch.setattr(trainer, "eval_metric", eval_metric)


def _in_process_and_forked(config, tmp_path, monkeypatch, cores=2):
    """Fold 0 trained on one core with every evaluation immediate and in
    process, then on `cores` with every evaluation that may fork handed to a
    `native.Child` (deferred to where it is recorded, on one core)."""
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    forks = _fork_counter(monkeypatch)
    outcomes = []
    for run, (n, min_eval_s) in enumerate([(1, math.inf), (cores, 0.0)]):
        monkeypatch.setattr(native, "_cores", lambda: n)
        monkeypatch.setattr(trainer, "FORK_MIN_EVAL_S", min_eval_s)
        outcomes.append(train_fold(config, data, train_idx, val_idx, 0, tmp_path / str(run)))
    return outcomes, forks


def _summary(outcome):
    return (outcome.history, outcome.best_step, outcome.best_metric, outcome.losses,
            outcome.steps_taken, outcome.stopped_early,
            Path(outcome.checkpoint_path).read_bytes())


@pytest.mark.parametrize("subtask", [1, 2])
def test_forked_evaluation_equals_in_process(small_corpus, tmp_path, monkeypatch, subtask):
    if subtask == 1:
        config = tiny_config(small_corpus, epochs=8, eta=2e-2, eval_every_batches=3,
                             patience_rounds=1000)
    else:
        path = tmp_path / "cats.tsv"
        write_category_tsv(path, synthetic_category_records(n=60, seed=3))
        config = tiny_config(path, subtask=2, epochs=4, eta=5e-2, k_folds=2,
                             eval_every_batches=3, patience_rounds=1000)
    (in_process, forked), forks = _in_process_and_forked(config, tmp_path, monkeypatch)
    # every evaluation but an epoch's last ran in a child
    per_epoch = forked.planned_steps // config.epochs
    here = {s for s, _ in forked.history if s % per_epoch == 0}
    assert len(forks) == len(forked.history) - len(here) > 0
    assert len({m for _, m in forked.history}) > 1  # the metric moves
    assert _summary(forked) == _summary(in_process)


@pytest.mark.parametrize("patience", [1, 2, 3])
def test_forked_evaluation_stops_where_in_process_does(small_corpus, tmp_path, monkeypatch,
                                                       patience):
    config = tiny_config(small_corpus, epochs=6, eta=2e-2, eval_every_batches=2,
                         patience_rounds=patience)
    (in_process, forked), forks = _in_process_and_forked(config, tmp_path, monkeypatch)
    assert in_process.stopped_early
    assert _summary(forked) == _summary(in_process)
    # an evaluation that could end the fold runs in process, so patience 1 never forks
    assert (len(forks) > 0) == (patience > 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerics_error_in_a_forked_evaluation_reaches_the_caller(
    small_corpus, tmp_path, monkeypatch, capsys
):
    forks = _fork_counter(monkeypatch)
    take = trainer._Evaluation._snapshot

    def poisoned_snapshot(self):
        """Every snapshot holds an inf, so its child and its re-run here both fail."""
        values = take(self)
        values["embeddings.position"][1] = np.inf
        return values

    monkeypatch.setattr(trainer._Evaluation, "_snapshot", poisoned_snapshot)
    config = tiny_config(small_corpus, epochs=2, patience_rounds=1000)
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    with pytest.raises(NumericsError, match="attention scores"):
        train_fold(config, data, train_idx, val_idx, 0, tmp_path / "fold")
    assert forks

    out_dir = tmp_path / "cli"
    code = main(["train", "--data", str(small_corpus), "--out-dir", str(out_dir),
                 "--d-model", "16", "--n-heads", "2", "--n-layers", "2", "--d-ff", "32",
                 "--max-len", "40", "--groups", "2", "--epochs", "2",
                 "--eval-every-batches", "8", "--patience-rounds", "1000"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: attention scores") and err.count("\n") == 1, err
    assert not (out_dir / "fold0.npz").exists()


@pytest.mark.parametrize("death", ["exit 3", "SIGKILL", "fork refused"])
def test_an_evaluation_child_that_dies_costs_one_evaluation(small_corpus, tmp_path, monkeypatch,
                                                             death):
    def die(model):
        if death == "exit 3":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)

    _in_child(die, monkeypatch)
    if death == "fork refused":
        _refuse_forks(monkeypatch, [])
    config = tiny_config(small_corpus, epochs=8, eta=2e-2, eval_every_batches=3,
                         patience_rounds=1000)
    (in_process, forked), forks = _in_process_and_forked(config, tmp_path, monkeypatch)
    assert forks
    assert _summary(forked) == _summary(in_process)


def test_an_error_that_does_not_pickle_reaches_the_caller_as_itself(small_corpus, tmp_path,
                                                                    monkeypatch):
    class LocalError(Exception):  # a local class does not pickle
        pass

    error, evaluated, inner = LocalError("bad"), [], trainer.eval_metric

    def eval_metric(model, data, indices, **kwargs):
        """The first evaluation, which is timed in process, passes; every other raises."""
        if evaluated:
            raise error
        evaluated.append(True)
        return inner(model, data, indices, **kwargs)

    forks = _fork_counter(monkeypatch)
    monkeypatch.setattr(trainer, "eval_metric", eval_metric)
    config = tiny_config(small_corpus, epochs=2, patience_rounds=1000)
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    with pytest.raises(LocalError) as err:
        train_fold(config, data, train_idx, val_idx, 0, tmp_path)
    assert err.value is error and forks
    # raised where the forked evaluation is collected, not by a later in-process one
    assert "settle" in {entry.name for entry in err.traceback}


def test_a_pending_child_is_killed_when_training_raises(small_corpus, tmp_path, monkeypatch):
    forks = _fork_counter(monkeypatch)
    _in_child(lambda model: time.sleep(60), monkeypatch)
    inner = trainer.backward

    def backward_until_a_fork(loss):
        if forks:
            raise NumericsError("injected")
        return inner(loss)

    monkeypatch.setattr(trainer, "backward", backward_until_a_fork)
    config = tiny_config(small_corpus, epochs=2, patience_rounds=1000)
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    started = time.monotonic()
    with pytest.raises(TrainingDivergedError, match="injected"):
        train_fold(config, data, train_idx, val_idx, 0, tmp_path)
    assert time.monotonic() - started < 30


@pytest.mark.parametrize("epochs, every, patience", [(8, 3, 1000), (6, 2, 2)])
def test_a_one_core_fold_that_defers_its_evaluations_equals_the_in_process_run(
    small_corpus, tmp_path, monkeypatch, epochs, every, patience
):
    """On one core, an evaluation slow enough to fork is scored where it is
    recorded, on the snapshot taken at its step."""
    config = tiny_config(small_corpus, epochs=epochs, eta=2e-2, eval_every_batches=every,
                         patience_rounds=patience)
    deferred, record = [], trainer._Evaluation._record

    def recording(self, step, metric, snapshot=None):
        deferred.append(snapshot is not None)  # a snapshot taken earlier than now
        record(self, step, metric, snapshot)

    monkeypatch.setattr(trainer._Evaluation, "_record", recording)
    forks = _all_forks(monkeypatch)
    (in_process, one_core), _ = _in_process_and_forked(config, tmp_path, monkeypatch, cores=1)
    assert not forks and any(deferred)
    # patience 2 stops the fold; otherwise the metric moves
    assert in_process.stopped_early if patience == 2 else len({m for _, m in one_core.history}) > 1
    assert _summary(one_core) == _summary(in_process)


def test_a_refused_fork_is_tried_and_warned_about_once(small_corpus, tmp_path, monkeypatch,
                                                       caplog):
    monkeypatch.setattr(trainer, "FORK_MIN_EVAL_S", 0.0)
    monkeypatch.setattr(native, "_cores", lambda: 2)
    monkeypatch.setattr(AdamW, "CHUNK", 64)  # the optimizer helper would fork too
    attempts = []
    _refuse_forks(monkeypatch, attempts)
    config = tiny_config(small_corpus, epochs=2, eval_every_batches=2, patience_rounds=1000)
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    with caplog.at_level(logging.WARNING):
        outcome = train_fold(config, data, train_idx, val_idx, 0, tmp_path)
    warnings = [r.getMessage() for r in caplog.records if "could not fork" in r.getMessage()]
    assert len(attempts) == 1
    assert len(warnings) == 1 and "nothing else in this process will fork" in warnings[0]
    assert len(outcome.history) > 2


def _group_sizes(config, data):
    named = build_model(config, len(data.vocab), np.random.default_rng(0)).tensors
    return [sum(named[n].values.size for n in g.names) for g in trainer.build_groups(config, named)]


@pytest.mark.parametrize("case", ["one core", "fast first evaluation", "fast first batch",
                                  "every group fits within one chunk", "another thread"])
def test_nothing_forks_where_it_cannot_help_or_is_unsafe(small_corpus, tmp_path, monkeypatch,
                                                         case):
    min_eval_s = {"fast first evaluation": math.inf, "fast first batch": 0.1,
                  "every group fits within one chunk": math.inf}
    monkeypatch.setattr(trainer, "FORK_MIN_EVAL_S", min_eval_s.get(case, 0.0))
    monkeypatch.setattr(native, "_cores", lambda: 1 if case == "one core" else 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("an evaluation or a helper forked"))
    config = tiny_config(small_corpus, epochs=2, patience_rounds=1000)
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    sizes = _group_sizes(config, data)
    # every group but the first, which this process steps, within one chunk; elsewhere
    # chunks small enough for the helper to fork if it could
    assert sizes[0] > max(sizes[1:]) > 64
    chunk = max(sizes[1:]) if case == "every group fits within one chunk" else 64
    if not case.startswith("fast"):
        monkeypatch.setattr(AdamW, "CHUNK", chunk)
    if case == "fast first batch":
        inner = trainer.eval_metric

        def slow_but_for_one_batch(model, data, indices, **kwargs):
            if len(indices) > trainer.EVAL_BATCH:
                time.sleep(0.2)  # a whole evaluation takes longer than FORK_MIN_EVAL_S
            return inner(model, data, indices, **kwargs)

        assert len(val_idx) > trainer.EVAL_BATCH
        monkeypatch.setattr(trainer, "eval_metric", slow_but_for_one_batch)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    if case == "another thread":
        other.start()
    try:
        outcome = train_fold(config, data, train_idx, val_idx, 0, tmp_path)
    finally:
        stop.set()
    if case == "another thread":
        other.join(10)
        assert not other.is_alive()
    assert len(outcome.history) > 2


def _optimizer_helpers(monkeypatch):
    """Give a tiny config's groups several chunks each, so a fold on two cores
    forks the optimizer helper; returns each fold's (helper, the groups it
    steps), with (None, no groups) where none forked."""
    monkeypatch.setattr(AdamW, "CHUNK", 64)
    monkeypatch.setattr(native, "_cores", lambda: 2)
    helpers, fork_helper = [], AdamW.fork_helper

    def recording(optimizer):
        fork_helper(optimizer)
        helpers.append((optimizer._helper, list(optimizer._theirs)))

    monkeypatch.setattr(AdamW, "fork_helper", recording)
    return helpers


@pytest.mark.parametrize("subtask, refused", [(1, False), (2, False), (1, True)],
                         ids=["1", "2", "1-fork refused"])
def test_the_optimizer_helper_trains_as_one_process_does(small_corpus, tmp_path, monkeypatch,
                                                         subtask, refused):
    if subtask == 1:
        config = tiny_config(small_corpus, epochs=8, eta=2e-2, eval_every_batches=3,
                             patience_rounds=1000)
    else:
        path = tmp_path / "cats.tsv"
        write_category_tsv(path, synthetic_category_records(n=60, seed=3))
        config = tiny_config(path, subtask=2, epochs=4, eta=5e-2, k_folds=2,
                             eval_every_batches=3, patience_rounds=1000)
    helpers = _optimizer_helpers(monkeypatch)
    if refused:  # the evaluation children's forks too
        _refuse_forks(monkeypatch, [])
    (one_core, two_cores), _ = _in_process_and_forked(config, tmp_path, monkeypatch)
    # upper and head; none where the fork was refused, so this process steps them
    assert helpers[0] == (None, [])
    assert helpers[1][1] == ([] if refused else [1, 2])
    assert (helpers[1][0] is None) == refused
    assert len({m for _, m in two_cores.history}) > 1  # the metric moves
    assert _summary(two_cores) == _summary(one_core)


def test_a_helper_killed_mid_fold_ends_train_with_one_error_line(small_corpus, tmp_path,
                                                                 monkeypatch, capsys):
    helpers = _optimizer_helpers(monkeypatch)
    parent, inner = os.getpid(), AdamW.step_group

    def step_or_die(self, k, multiplier, count):
        if os.getpid() != parent and count == 5:
            os.kill(os.getpid(), signal.SIGKILL)
        return inner(self, k, multiplier, count)

    monkeypatch.setattr(AdamW, "step_group", step_or_die)
    out_dir = tmp_path / "run"
    code = main(["train", "--data", str(small_corpus), "--out-dir", str(out_dir),
                 "--d-model", "16", "--n-heads", "2", "--n-layers", "2", "--d-ff", "32",
                 "--max-len", "40", "--groups", "2", "--epochs", "2",
                 "--eval-every-batches", "8", "--patience-rounds", "1000"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the optimizer helper process ended") and err.count("\n") == 1, err
    assert helpers[0][0] is not None
    assert not (out_dir / "fold0.npz").exists()


def test_a_raise_in_backward_kills_the_helper_stepping_its_groups(small_corpus, tmp_path,
                                                                  monkeypatch):
    helpers = _optimizer_helpers(monkeypatch)
    parent, inner_step, inner_backward = os.getpid(), AdamW.step_group, trainer.backward
    pids = []

    def slow_step(self, k, multiplier, count):
        if os.getpid() != parent:
            time.sleep(60)  # the helper, until it is killed
        return inner_step(self, k, multiplier, count)

    def backward_then_raise(loss, *on_done):
        inner_backward(loss, *on_done)  # hands every helper group off
        assert helpers[0][0].handed == [2, 1]  # the head, then the upper group
        pids.append(helpers[0][0]._child.pid)
        raise NumericsError("injected")

    monkeypatch.setattr(AdamW, "step_group", slow_step)
    monkeypatch.setattr(trainer, "backward", backward_then_raise)
    config = tiny_config(small_corpus, epochs=2, patience_rounds=1000)
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    started = time.monotonic()
    with pytest.raises(TrainingDivergedError, match="injected"):
        train_fold(config, data, train_idx, val_idx, 0, tmp_path)
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):  # killed and reaped
        os.waitpid(pids[0], os.WNOHANG)


def test_a_fold_that_forked_the_optimizer_helper_frees_its_optimizer(small_corpus, tmp_path,
                                                                     monkeypatch):
    """With the cycle collector off, AdamW's shared buffers go as the fold returns."""
    helpers = _optimizer_helpers(monkeypatch)
    optimizers, fork_helper = [], AdamW.fork_helper

    def recording(optimizer):
        optimizers.append(weakref.ref(optimizer))
        fork_helper(optimizer)

    monkeypatch.setattr(AdamW, "fork_helper", recording)
    config = tiny_config(small_corpus, epochs=1, patience_rounds=1000)
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    gc.disable()
    try:
        train_fold(config, data, train_idx, val_idx, 0, tmp_path)
        assert helpers[0][1] and optimizers[0]() is None
    finally:
        gc.enable()


def test_only_the_child_class_forks_waits_or_kills():
    """Every child process has the one lifecycle and the one fork policy of
    `native.Child`: only it calls these `os` functions or reads what decides
    whether this process may fork."""
    names = {"fork", "waitpid", "kill"}
    policy = {"_cores()", "threading.active_count()", "hasattr(os, 'fork')", "barred"}

    def process_calls(node):
        """(line, text) of each of `node`'s process calls and policy reads."""
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                if n.value.id == "os" and n.attr in names:
                    yield n.lineno, f"os.{n.attr}"
                elif n.attr == "barred":
                    yield n.lineno, n.attr
            elif isinstance(n, ast.Call) and ast.unparse(n) in policy:
                yield n.lineno, ast.unparse(n)

    inside, outside = set(), []
    for path in sorted(Path(trainer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if (path.name, getattr(node, "name", None)) == ("native.py", "Child"):
                inside.update(text for _, text in process_calls(node))
            else:
                outside += [f"{path.name}:{line}: {text}" for line, text in process_calls(node)]
    assert inside == {f"os.{name}" for name in names} | policy
    assert not outside


def test_only_the_optimizer_module_knows_how_its_groups_are_stepped():
    """Which process steps which AdamW group, and how large a group must be
    for its helper to pay, is AdamW's decision: no other module names
    `step_group`, `CHUNK` or an optimizer's `helper`."""
    names = {"step_group", "CHUNK"}
    outside = []
    for path in sorted(Path(trainer.__file__).parent.glob("*.py")):
        if path.name == "optim.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for n in ast.walk(tree):
            if (isinstance(n, ast.Name) and n.id in names
                    or isinstance(n, ast.Attribute) and n.attr in names | {"helper", "_helper"}):
                outside.append(f"{path.name}:{n.lineno}: {ast.unparse(n)}")
    assert not outside


def test_only_the_native_module_imports_ctypes():
    """The C-library state that training and prediction set (glibc's heap
    thresholds, OpenBLAS's thread count) has one home: only `native` loads a
    C library."""
    importers = []
    for path in sorted(Path(trainer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                modules = [alias.name for alias in n.names]
            elif isinstance(n, ast.ImportFrom):
                modules = [n.module or ""]
            else:
                continue
            importers += [f"{path.name}:{n.lineno}" for m in modules
                          if m.split(".")[0] == "ctypes"]
    assert [name.split(":")[0] for name in importers] == ["native.py"], importers
