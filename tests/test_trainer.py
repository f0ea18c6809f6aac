import dataclasses
import json
import logging
import math
import os
import shutil
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from pcldetect import blas, trainer
from pcldetect.autograd import Tape, backward
from pcldetect.cli import main
from pcldetect.data import Vocabulary, compose_input, pad_batch, tokenize
from pcldetect.encoder import encode_batch, init_arrays, load_checkpoint, pooler, save_checkpoint
from pcldetect.errors import (
    ConfigError,
    ContractError,
    NumericsError,
    TrainingDivergedError,
)
from pcldetect.trainer import (
    RunConfig,
    build_model,
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
    assert data.label_vectors.shape == (60, 7)
    assert set(data.binary_labels) == {1}
    train_idx, val_idx = make_folds(config, data).split(0)
    with caplog.at_level(logging.WARNING):
        outcome = train_fold(config, data, train_idx, val_idx, 0, tmp_path)
    assert "single class" in caplog.text
    assert 0.0 <= outcome.best_metric <= 1.0


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
    assert data.label_vectors[40:].sum() == 0
    assert set(data.strat_labels) == {0, 1}


def test_fold_seed_controls_assignment(small_corpus):
    config_a = tiny_config(small_corpus, seed=1, fold_seed=7)
    config_b = tiny_config(small_corpus, seed=2, fold_seed=7)
    data = load_training_data(config_a)
    fa = make_folds(config_a, data)
    fb = make_folds(config_b, data)
    assert np.array_equal(fa.fold_of, fb.fold_of)


def test_training_step_tape_budget():
    # the s1 recipe's shape: one step records 72 tape nodes, of which the head
    # and loss are three (transpose, linear, cross_entropy)
    config = RunConfig(d_model=64, n_heads=4, n_layers=6, d_ff=256, max_len=64, dropout=0.4)
    model = build_model(config, 53, np.random.default_rng(0))
    rows = np.random.default_rng(1).integers(6, 53, size=(4, 31))
    ids = pad_batch([row[:n].tolist() for row, n in zip(rows, (16, 22, 31, 25))])
    with Tape() as tape:
        loss = model.loss(model.forward(ids, train=True, rng=np.random.default_rng(2)),
                          [0, 1, 0, 0])
        backward(loss)
    assert len(tape) == 72


def _arrays(model):
    return {name: t.values for name, t in model.named().items()}


def _mixed_label_model(small_corpus, subtask):
    config = tiny_config(small_corpus)
    data = load_training_data(config)
    model = build_model(dataclasses.replace(config, subtask=subtask), len(data.vocab),
                        np.random.default_rng(3))
    # move the head's decision threshold between the two middle rows, so
    # both labels occur and no row sits near the boundary
    ids = pad_batch(data.token_ids, pad_id=data.vocab.pad_id)
    params = model.params
    z = pooler(encode_batch(params, ids), params).values @ params["classifier.weight"].values.T
    if subtask == 1:
        z = z[:, 1:] - z[:, :1]
    mid = len(z) // 2
    params["classifier.bias"].values[-z.shape[1]:] -= (
        np.sort(z, axis=0)[mid - 1 : mid + 1].mean(axis=0))
    return model, data


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
    save_checkpoint(path, model.params.config, _arrays(model),
                    {"subtask": 1, "vocab": data.vocab.tokens})
    records = [data.records[i] for i in np.random.default_rng(5).permutation(len(data.records))]
    par_ids, labels = predict_records(path, records)
    assert par_ids == [r.par_id for r in records]
    assert labels == [predict_records(path, [r])[1][0] for r in records]
    assert set(labels) == {0, 1}


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


@pytest.mark.parametrize("subtask", [1, 2])
def test_forked_prediction_equals_a_serial_loop(small_corpus, subtask, monkeypatch):
    model, data = _mixed_label_model(small_corpus, subtask)
    indices = np.random.default_rng(6).permutation(len(data.token_ids))
    assert len(indices) > 4 * trainer.EVAL_BATCH  # each process gets several batches
    serial = _serial_predictions(model, data, indices)
    forks = _all_forks(monkeypatch)
    for cores, children in ((1, 0), (2, 1), (8, 1)):
        monkeypatch.setattr(trainer, "_cores", lambda: cores)
        forks.clear()
        assert np.array_equal(predict_indices(model, data, indices), serial)
        assert len(forks) == children
        # one batch, or no helper asked for: nothing forks
        assert np.array_equal(predict_indices(model, data, indices[: trainer.EVAL_BATCH]),
                              serial[: trainer.EVAL_BATCH])
        assert np.array_equal(predict_indices(model, data, indices, helper=False), serial)
        assert len(forks) == children


@pytest.mark.parametrize("death", ["exit 3", "SIGKILL"])
def test_a_prediction_helper_that_dies_has_its_batches_computed_again(small_corpus, monkeypatch,
                                                                      death):
    monkeypatch.setattr(trainer, "_cores", lambda: 2)
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
    assert np.array_equal(predict_indices(model, data, indices), serial)
    assert len(forks) == 1


def test_a_raise_in_the_caller_kills_the_prediction_helper(small_corpus, monkeypatch):
    monkeypatch.setattr(trainer, "_cores", lambda: 2)
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
    monkeypatch.setattr(trainer, "_cores", lambda: 2)
    model, data = _mixed_label_model(small_corpus, 1)
    by_length = np.argsort([len(t) for t in data.token_ids], kind="stable")
    indices = by_length[: 2 * trainer.EVAL_BATCH]  # batch 0 for the caller, 1 for the helper
    caller_rows = indices[: trainer.EVAL_BATCH]
    width = max(len(data.token_ids[i]) for i in caller_rows)
    assert max(len(data.token_ids[i]) for i in indices) > width
    # a position only the helper's longer rows reach: its attention scores turn NaN
    model.params["embeddings.position"].values[width] = np.inf
    predict_indices(model, data, caller_rows)  # the caller's batch alone is finite
    with pytest.raises(NumericsError, match="attention scores"):
        predict_indices(model, data, indices)

    ckpt, tsv, out = tmp_path / "poisoned.npz", tmp_path / "data.tsv", tmp_path / "out.tsv"
    save_checkpoint(ckpt, model.params.config, _arrays(model),
                    {"subtask": 1, "vocab": data.vocab.tokens})
    write_binary_tsv(tsv, [data.records[i] for i in indices])
    code = main(["predict", "--checkpoint", str(ckpt), "--data", str(tsv), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: attention scores") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.skipif(blas.threads() is None, reason="numpy does not use its bundled OpenBLAS")
def test_blas_keeps_one_thread_in_training_and_prediction(small_corpus, tmp_path, monkeypatch):
    model, data = _mixed_label_model(small_corpus, 1)
    ckpt = tmp_path / "model.npz"
    save_checkpoint(ckpt, model.params.config, _arrays(model),
                    {"subtask": 1, "vocab": data.vocab.tokens})
    config = tiny_config(small_corpus, epochs=1)
    seen, forward = [], trainer.Model.forward

    def recording(self, ids, **kwargs):
        seen.append(blas.threads())
        if kwargs.get("train") and len(seen) > 5:
            raise KeyError("injected")
        return forward(self, ids, **kwargs)

    monkeypatch.setattr(trainer.Model, "forward", recording)
    get, set_ = blas._thread_count_calls()
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


_WIDTH_MISMATCH = "a {width}-wide classifier does not fit subtask {subtask}"


@pytest.mark.parametrize("subtask, width, doctor, message", [
    (1, 7, None, _WIDTH_MISMATCH),
    (2, 2, None, _WIDTH_MISMATCH),
    (1, 3, None, _WIDTH_MISMATCH),
    (2, 3, None, _WIDTH_MISMATCH),
    (1, 2, lambda params, meta: meta.pop("subtask"), "checkpoint metadata has no 'subtask'"),
    (1, 2, lambda params, meta: params.pop("pooler.dense.weight"),
     "checkpoint lacks pooler.dense.weight"),
    (1, 2, lambda params, meta: params.update({"layer.0.attn.q.weight": np.eye(3)}),
     "layer.0.attn.q.weight has shape (3, 3), but its config and subtask imply (16, 16)"),
    (1, 2, lambda params, meta: params.update({"pooler.extra": np.zeros(2)}),
     "checkpoint holds pooler.extra, unused by its config"),
    (1, 2, lambda params, meta: meta.update(subtask=[1]),
     "checkpoint subtask [1] is not the integer 1 or 2"),
    (1, 2, lambda params, meta: meta.update(subtask=True),
     "checkpoint subtask True is not the integer 1 or 2"),
    (1, 2, lambda params, meta: meta.update(subtask=1.0),
     "checkpoint subtask 1.0 is not the integer 1 or 2"),
    (1, 2, lambda params, meta: meta.update(vocab=5), "checkpoint vocab is not a list of strings"),
    (1, 2, lambda params, meta: meta.update(vocab=None),
     "checkpoint vocab is not a list of strings"),
    (1, 2, lambda params, meta: meta["vocab"].append("unseen"),
     "checkpoint vocab holds {longer} tokens, but its config has vocab_size {rows}"),
    (1, 2, lambda params, meta: meta["vocab"].pop(),
     "checkpoint vocab holds {shorter} tokens, but its config has vocab_size {rows}"),
], ids=["1-7", "2-2", "1-3", "2-3", "no-subtask", "no-pooler-weight", "q-weight-3x3",
        "extra-parameter", "subtask-list", "subtask-true", "subtask-float", "vocab-int",
        "vocab-null", "vocab-longer", "vocab-shorter"])
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
    if doctor is not None:
        doctor(params, meta)
    ckpt, out = tmp_path / "doctored.npz", tmp_path / "out.tsv"
    save_checkpoint(ckpt, model.params.config, params, meta)
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
    save_checkpoint(ckpt, model.params.config, _arrays(model), {"subtask": 1, "vocab": tokens})
    assert '"café", "naïve"'.encode("utf-8") in ckpt.read_bytes()  # the header is UTF-8 text
    assert load_checkpoint(ckpt)[2]["vocab"] == tokens

    records = [dataclasses.replace(r, text=f"{r.text} café naïve") for r in data.records]
    tsv, out = tmp_path / "data.tsv", tmp_path / "out.tsv"
    write_binary_tsv(tsv, records)
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(tsv), "--out", str(out)]) == 0
    vocab = Vocabulary(tokens)
    rows = [tokenize(compose_input(r), vocab, model.params.config.max_len) for r in records]
    assert all(vocab.encode_token("café") in ids and vocab.encode_token("naïve") in ids
               for ids in rows)
    labels = [int(model.predict(model.forward(pad_batch([ids], pad_id=vocab.pad_id)))[0])
              for ids in rows]
    assert out.read_text(encoding="utf-8").splitlines() == [
        f"{r.par_id}\t{label}" for r, label in zip(records, labels)
    ]
    assert len(set(labels)) > 1


def test_training_is_the_same_with_one_or_two_workers(small_corpus, tmp_path, monkeypatch):
    config = tiny_config(small_corpus, epochs=2)
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    assert len(val_idx) > trainer.EVAL_BATCH  # evaluation has two or more batches
    outcomes = []
    for cores in (1, 2):
        monkeypatch.setattr(trainer, "_cores", lambda: cores)
        outcomes.append(train_fold(config, data, train_idx, val_idx, 0, tmp_path / str(cores)))
    one, two = outcomes
    assert len(one.history) > 1
    assert (one.history, one.best_step, one.losses) == (two.history, two.best_step, two.losses)


@pytest.mark.parametrize("subtask", [1, 2])
def test_one_layout_from_build_through_checkpoint_to_load(small_corpus, tmp_path, subtask):
    path = small_corpus
    if subtask == 2:
        path = tmp_path / "cats.tsv"
        write_category_tsv(path, synthetic_category_records(n=60, seed=3))
    config = tiny_config(path, subtask=subtask, k_folds=2)
    data = load_training_data(config)
    built = [(name, t.shape) for name, t in
             build_model(config, len(data.vocab), np.random.default_rng(0)).named().items()]
    width = trainer.HEAD_WIDTH[subtask]
    assert built[-2:] == [("classifier.weight", (width, 16)), ("classifier.bias", (width,))]
    outcome = train_fold(config, data, *make_folds(config, data).split(0), 0, tmp_path)
    with np.load(outcome.checkpoint_path) as saved:
        index = json.loads(saved["header"].tobytes())["params"]
    assert [(name, tuple(shape)) for name, shape in index] == built
    loaded = load_model(outcome.checkpoint_path)[0]
    assert [(name, t.shape) for name, t in loaded.named().items()] == built


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
    evaluation children (prediction helpers are not counted)."""
    monkeypatch.setattr(trainer, "FORK_MIN_EVAL_S", 0.0)
    monkeypatch.setattr(trainer, "_cores", lambda: 2)
    forks, fork = [], trainer._Evaluation._fork

    def counting(self, snapshot):
        pid, shared = fork(self, snapshot)
        forks.append(pid)
        return pid, shared

    monkeypatch.setattr(trainer._Evaluation, "_fork", counting)
    return forks


def _in_child(action, monkeypatch):
    """Run `action(model)` before evaluating, in forked children only."""
    parent, inner = os.getpid(), trainer.eval_metric

    def eval_metric(model, data, indices, **kwargs):
        if os.getpid() != parent:
            action(model)
        return inner(model, data, indices, **kwargs)

    monkeypatch.setattr(trainer, "eval_metric", eval_metric)


def _in_process_and_forked(config, tmp_path, monkeypatch):
    """Fold 0 trained with in-process evaluations, then with forked ones."""
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
    forks = _fork_counter(monkeypatch)
    outcomes = []
    for cores in (1, 2):
        monkeypatch.setattr(trainer, "_cores", lambda: cores)
        outcomes.append(train_fold(config, data, train_idx, val_idx, 0, tmp_path / str(cores)))
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
    # every evaluation but the first and an epoch's last ran in a child
    per_epoch = forked.planned_steps // config.epochs
    here = {forked.history[0][0]} | {s for s, _ in forked.history if s % per_epoch == 0}
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

    def poisoned_snapshot(self, step):
        """Every snapshot holds an inf, so its child and its re-run here both fail."""
        values, step = take(self, step)
        values["embeddings.position"][1] = np.inf
        return values, step

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


@pytest.mark.parametrize("death", ["exit 3", "SIGKILL"])
def test_an_evaluation_child_that_dies_costs_one_evaluation(small_corpus, tmp_path, monkeypatch,
                                                             death):
    def die(model):
        if death == "exit 3":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)

    _in_child(die, monkeypatch)
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


@pytest.mark.parametrize("case", ["one core", "fast first evaluation", "another thread"])
def test_nothing_forks_where_it_cannot_help_or_is_unsafe(small_corpus, tmp_path, monkeypatch,
                                                         case):
    monkeypatch.setattr(trainer, "FORK_MIN_EVAL_S",
                        math.inf if case == "fast first evaluation" else 0.0)
    monkeypatch.setattr(trainer, "_cores", lambda: 1 if case == "one core" else 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("an evaluation forked"))
    config = tiny_config(small_corpus, epochs=2, patience_rounds=1000)
    data = load_training_data(config)
    train_idx, val_idx = make_folds(config, data).split(0)
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
