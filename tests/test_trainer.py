import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from pcldetect.autograd import Tape, backward
from pcldetect.data import pad_batch
from pcldetect.encoder import encode_batch, pooler, save_checkpoint
from pcldetect.errors import ConfigError, ContractError, TrainingDivergedError
from pcldetect.trainer import (
    RunConfig,
    build_model,
    file_sha256,
    lambda_sweep,
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
    assert (tmp_path / "vocab.txt").read_text().splitlines()[:4] == [
        "[PAD]", "[CLS]", "[SEP]", "[UNK]"
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
    # the s1 recipe's shape: one step records at most 100 tape nodes
    config = RunConfig(d_model=64, n_heads=4, n_layers=6, d_ff=256, max_len=64, dropout=0.4)
    model = build_model(config, 53, np.random.default_rng(0))
    rows = np.random.default_rng(1).integers(6, 53, size=(4, 31))
    ids = pad_batch([row[:n].tolist() for row, n in zip(rows, (16, 22, 31, 25))])
    with Tape() as tape:
        loss = model.loss(model.forward(ids, train=True, rng=np.random.default_rng(2)),
                          [0, 1, 0, 0])
        backward(loss)
    assert len(tape) <= 100


def _mixed_label_model(small_corpus, subtask):
    config = tiny_config(small_corpus)
    data = load_training_data(config)
    model = build_model(dataclasses.replace(config, subtask=subtask), len(data.vocab),
                        np.random.default_rng(3))
    # move the head's decision threshold between the two middle rows, so
    # both labels occur and no row sits near the boundary
    ids = pad_batch(data.token_ids, pad_id=data.vocab.pad_id)
    z = pooler(encode_batch(model.encoder, ids), model.encoder).values @ model.head.weight.values.T
    if subtask == 1:
        z = z[:, 1:] - z[:, :1]
    mid = len(z) // 2
    model.head.bias.values[-z.shape[1]:] -= np.sort(z, axis=0)[mid - 1 : mid + 1].mean(axis=0)
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
    save_checkpoint(path, model.encoder.config, model.named(), None,
                    {"subtask": 1, "vocab": data.vocab.tokens})
    records = [data.records[i] for i in np.random.default_rng(5).permutation(len(data.records))]
    par_ids, labels = predict_records(path, records)
    assert par_ids == [r.par_id for r in records]
    assert labels == [predict_records(path, [r])[1][0] for r in records]
    assert set(labels) == {0, 1}
