import argparse
import dataclasses
import json

import numpy as np
import pytest

from pcldetect.cli import build_parser, main
from pcldetect.trainer import RunConfig

from synthcorpus import (
    synthetic_binary_records,
    synthetic_category_records,
    write_binary_tsv,
    write_category_tsv,
)

TINY_FLAGS = [
    "--d-model", "16", "--n-heads", "2", "--n-layers", "2", "--d-ff", "32",
    "--max-len", "40", "--dropout", "0.1", "--groups", "2", "--epochs", "1",
    "--eta", "1e-3", "--eval-every-batches", "8", "--patience-rounds", "3",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "train.tsv"
    write_binary_tsv(path, synthetic_binary_records(n=60, positive_frac=0.25, seed=11))
    return path


def test_evaluate_identical_files_prints_perfect_f1(corpus, capsys):
    code = main(["evaluate", "--gold", str(corpus), "--pred", str(corpus), "--subtask", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "f1\t1.000000" in out


def test_evaluate_subtask2_identical_files(tmp_path, capsys):
    path = tmp_path / "cats.tsv"
    write_category_tsv(path, synthetic_category_records(n=25, seed=2))
    code = main(["evaluate", "--gold", str(path), "--pred", str(path), "--subtask", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "macro_f1\t1.000000" in out


def test_evaluate_against_prediction_file(corpus, tmp_path, capsys):
    records = synthetic_binary_records(n=60, positive_frac=0.25, seed=11)
    pred = tmp_path / "preds.tsv"
    lines = [f"{r.par_id}\t{1 if r.raw_label >= 2 else 0}" for r in records]
    pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["evaluate", "--gold", str(corpus), "--pred", str(pred)])
    assert code == 0
    assert "f1\t1.000000" in capsys.readouterr().out


def test_evaluate_missing_par_ids_fails(corpus, tmp_path, capsys):
    pred = tmp_path / "preds.tsv"
    pred.write_text("p00000\t1\n", encoding="utf-8")
    code = main(["evaluate", "--gold", str(corpus), "--pred", str(pred)])
    assert code == 1
    assert "missing" in capsys.readouterr().err


def test_ensemble_identical_files_is_identity(tmp_path, capsys):
    pred = tmp_path / "a.tsv"
    pred.write_text("p1\t1\np2\t0\np3\t1\n", encoding="utf-8")
    out = tmp_path / "fused.tsv"
    code = main(["ensemble", "--preds", f"{pred},{pred},{pred}", "--out", str(out)])
    assert code == 0
    assert out.read_text() == pred.read_text()


def test_ensemble_majority_and_even_count_rejected(tmp_path, capsys):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    c = tmp_path / "c.tsv"
    a.write_text("p1\t1\n", encoding="utf-8")
    b.write_text("p1\t1\n", encoding="utf-8")
    c.write_text("p1\t0\n", encoding="utf-8")
    out = tmp_path / "fused.tsv"
    assert main(["ensemble", "--preds", str(a), str(b), str(c), "--out", str(out)]) == 0
    assert out.read_text() == "p1\t1\n"
    code = main(["ensemble", "--preds", str(a), str(b), "--out", str(out)])
    assert code == 1
    assert "3 prediction files" in capsys.readouterr().err


def test_ensemble_multilabel_votes(tmp_path):
    files = []
    rows = [
        "q1\t1,0,0,0,0,0,1",
        "q1\t1,1,0,0,0,0,0",
        "q1\t0,0,0,0,0,0,1",
    ]
    for i, row in enumerate(rows):
        path = tmp_path / f"v{i}.tsv"
        path.write_text(row + "\n", encoding="utf-8")
        files.append(str(path))
    out = tmp_path / "fused.tsv"
    assert main(["ensemble", "--preds", *files, "--out", str(out)]) == 0
    assert out.read_text() == "q1\t1,0,0,0,0,0,1\n"


def test_unknown_flag_is_usage_error(corpus):
    with pytest.raises(SystemExit) as err:
        main(["kfold", "--data", str(corpus), "--frobnicate", "9"])
    assert err.value.code != 0


def test_missing_data_path_fails_cleanly(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nope.tsv"), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_kfold_command_end_to_end(corpus, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(
        ["kfold", "--data", str(corpus), "--out-dir", str(out_dir), "--k-folds", "3",
         "--seed", "21", *TINY_FLAGS]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("fold ") == 3
    assert "mean\t" in out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["seed"] == 21
    assert len(report["fold_metrics"]) == 3
    meta = json.loads((out_dir / "metadata.json").read_text())
    assert meta["config"]["k_folds"] == 3


def test_train_predict_evaluate_round_trip(corpus, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(
        ["train", "--data", str(corpus), "--out-dir", str(out_dir), "--k-folds", "3",
         "--fold", "0", *TINY_FLAGS]
    )
    assert code == 0
    ckpt = out_dir / "fold0.npz"
    assert ckpt.exists()
    preds = tmp_path / "preds.tsv"
    code = main(["predict", "--checkpoint", str(ckpt), "--data", str(corpus),
                 "--out", str(preds)])
    assert code == 0
    assert len(preds.read_text(encoding="utf-8").splitlines()) == 60
    code = main(["evaluate", "--gold", str(corpus), "--pred", str(preds)])
    assert code == 0
    assert "f1\t" in capsys.readouterr().out


def test_config_file_with_flag_override(corpus, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"data_path = {corpus}",
                "d_model = 16", "n_heads = 2", "n_layers = 2", "d_ff = 32",
                "max_len = 40", "dropout = 0.1", "groups = 2", "epochs = 1",
                "eta = 1e-3", "k_folds = 3", "eval_every_batches = 8",
                "patience_rounds = 3", "seed = 42",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--out-dir", str(out_dir), "--seed", "7"])
    assert code == 0
    meta = json.loads((out_dir / "metadata.json").read_text())
    assert meta["seed"] == 7  # flag overrides the file
    assert meta["config"]["d_model"] == 16


def test_a_config_file_that_sets_a_key_twice_is_refused(corpus, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data_path = {corpus}\nseed = 1\n# a comment\nseed = 2\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
    err = _one_line_error(capsys)
    assert "seed" in err and "lines 2 and 4" in err, err
    assert not out_dir.exists()


def test_data_dir_env_var(corpus, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PCLDETECT_DATA_DIR", str(corpus.parent))
    code = main(["evaluate", "--gold", corpus.name, "--pred", corpus.name])
    assert code == 0
    assert "f1\t1.000000" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_relative_data_path_falls_back_to_the_data_dir(corpus, tmp_path, monkeypatch, source):
    monkeypatch.setenv("PCLDETECT_DATA_DIR", str(corpus.parent))
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data_path = {corpus.name}\n" if source == "config" else "", encoding="utf-8")
    flags = ["--data", corpus.name] if source == "flag" else []
    code = main(["train", "--config", str(cfg), *flags, "--out-dir", str(tmp_path / "run"),
                 "--k-folds", "3", *TINY_FLAGS])
    assert code == 0
    meta = json.loads((tmp_path / "run" / "metadata.json").read_text())
    assert meta["config"]["data_path"] == str(corpus)


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_predict_refuses_an_empty_data_file(corpus, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "preds.tsv"
    code = main(["predict", "--checkpoint", str(tmp_path / "never-read.npz"),
                 "--data", str(empty), "--out", str(out)])
    assert code == 1
    assert "no paragraphs" in _one_line_error(capsys)
    assert not out.exists()


def test_kfold_with_a_class_smaller_than_k_fails_cleanly(tmp_path, capsys):
    data = tmp_path / "few.tsv"
    write_binary_tsv(data, synthetic_binary_records(n=30, positive_frac=0.1, seed=3))
    out_dir = tmp_path / "run"
    code = main(["kfold", "--data", str(data), "--out-dir", str(out_dir), "--k-folds", "5",
                 *TINY_FLAGS])
    assert code == 1
    _one_line_error(capsys)
    assert not (out_dir / "vocab.txt").exists()


@pytest.mark.parametrize("flags, message", [
    ("--n-layers 1 --groups 3", "groups"),
    ("--d-model 30 --n-heads 4", "divisible by n_heads"),
    ("--dropout 1.5", "dropout_rate must be in [0, 1)"),
    ("--max-len 2", "max_len must allow"),
    ("--fold 3 --k-folds 3", "fold must be in [0, 3), got 3"),
    ("--k-folds 1", "k_folds must be at least 2, got 1"),
], ids=["groups", "heads", "dropout", "max-len", "fold", "k-folds"])
def test_more_groups_than_layers_is_refused_before_writing(tmp_path, capsys, flags, message):
    out_dir = tmp_path / "run"
    # a data file that does not exist shows that nothing was read
    code = main(["train", "--data", str(tmp_path / "never-read.tsv"), "--out-dir", str(out_dir),
                 *flags.split()])
    assert code == 1
    assert message in _one_line_error(capsys)
    assert not (out_dir / "vocab.txt").exists()


def test_evaluate_refuses_a_duplicated_prediction_id(corpus, tmp_path, capsys):
    records = synthetic_binary_records(n=60, positive_frac=0.25, seed=11)
    pred = tmp_path / "preds.tsv"
    lines = [f"{r.par_id}\t0" for r in records] + [f"{records[0].par_id}\t1"]
    pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["evaluate", "--gold", str(corpus), "--pred", str(pred)])
    assert code == 1
    assert "duplicate par_id" in _one_line_error(capsys)


def test_evaluate_refuses_a_duplicated_id_in_a_labelled_file(corpus, tmp_path, capsys):
    records = synthetic_binary_records(n=60, positive_frac=0.25, seed=11)
    pred = tmp_path / "labelled.tsv"
    write_binary_tsv(pred, records + records[:1])
    code = main(["evaluate", "--gold", str(corpus), "--pred", str(pred)])
    assert code == 1
    assert "duplicate par_id" in _one_line_error(capsys)


def test_evaluate_refuses_prediction_ids_absent_from_gold(corpus, tmp_path, capsys):
    records = synthetic_binary_records(n=60, positive_frac=0.25, seed=11)
    pred = tmp_path / "preds.tsv"
    lines = [f"{r.par_id}\t0" for r in records] + ["not-in-gold\t1"]
    pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["evaluate", "--gold", str(corpus), "--pred", str(pred)])
    assert code == 1
    assert "absent from the gold file" in _one_line_error(capsys)


def _write_rows(path, rows):
    path.write_text("".join(f"{row}\n" for row in rows), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["predict", "ensemble"])
def test_an_out_in_a_missing_directory_is_refused_before_any_work(corpus, tmp_path, capsys,
                                                                  command):
    preds = _write_rows(tmp_path / "preds.tsv", ["p1\t1", "p2\t0"])
    out = tmp_path / "missing" / "out.tsv"
    argv = {
        "predict": ["--checkpoint", str(tmp_path / "never-read.npz"), "--data", str(corpus)],
        "ensemble": ["--preds", preds, preds, preds],
    }[command]
    code = main([command, *argv, "--out", str(out)])
    assert code == 1
    assert f"--out {out}: {out.parent} is not an existing directory" in _one_line_error(capsys)
    assert not out.parent.exists()


def test_ensemble_refuses_an_empty_prediction_file(tmp_path, capsys):
    empty = _write_rows(tmp_path / "empty.tsv", [])
    out = tmp_path / "fused.tsv"
    code = main(["ensemble", "--preds", empty, empty, empty, "--out", str(out)])
    assert code == 1
    assert "empty.tsv: no predictions" in _one_line_error(capsys)
    assert not out.exists()


def test_ensemble_refuses_files_of_different_label_kinds(tmp_path, capsys):
    plain = _write_rows(tmp_path / "a.tsv", ["p1\t1"])
    bits = _write_rows(tmp_path / "b.tsv", ["p1\t1,0,0,0,0,0,0"])
    out = tmp_path / "fused.tsv"
    code = main(["ensemble", "--preds", plain, bits, plain, "--out", str(out)])
    assert code == 1
    assert "mix plain labels and bit vectors" in _one_line_error(capsys)
    assert not out.exists()


def test_ensemble_refuses_a_non_integer_label(tmp_path, capsys):
    a = _write_rows(tmp_path / "a.tsv", ["p1\t1", "p2\tpositive"])
    out = tmp_path / "fused.tsv"
    code = main(["ensemble", "--preds", a, a, a, "--out", str(out)])
    assert code == 1
    assert "a.tsv: line 2: label 'positive'" in _one_line_error(capsys)
    assert not out.exists()


def test_evaluate_refuses_plain_labels_other_than_0_or_1(tmp_path, capsys):
    gold = _write_rows(tmp_path / "gold.tsv", ["p1\t1", "p2\t0"])
    pred = _write_rows(tmp_path / "preds.tsv", ["p1\t2", "p2\t7"])
    code = main(["evaluate", "--gold", gold, "--pred", pred, "--subtask", "1"])
    assert code == 1
    assert "preds.tsv: line 1: label '2'" in _one_line_error(capsys)
    assert capsys.readouterr().out == ""


def test_ensemble_refuses_plain_labels_other_than_0_or_1(tmp_path, capsys):
    a = _write_rows(tmp_path / "a.tsv", ["p1\t5", "p2\t-3"])
    out = tmp_path / "fused.tsv"
    code = main(["ensemble", "--preds", a, a, a, "--out", str(out)])
    assert code == 1
    assert "a.tsv: line 1: label '5'" in _one_line_error(capsys)
    assert not out.exists()


def test_evaluate_subtask2_refuses_plain_labels(tmp_path, capsys):
    records = synthetic_category_records(n=10, seed=2)
    gold = tmp_path / "cats.tsv"
    write_category_tsv(gold, records)
    pred = _write_rows(tmp_path / "preds.tsv", [f"{r.par_id}\t1" for r in records])
    code = main(["evaluate", "--gold", str(gold), "--pred", pred, "--subtask", "2"])
    assert code == 1
    assert "subtask 2 needs bit vectors" in _one_line_error(capsys)


def test_evaluate_subtask1_refuses_bit_vectors(tmp_path, capsys):
    gold = _write_rows(tmp_path / "gold.tsv", ["p1\t1", "p2\t0"])
    pred = _write_rows(tmp_path / "preds.tsv", ["p1\t1,0,0,0,0,0,0", "p2\t0,0,0,0,0,0,0"])
    code = main(["evaluate", "--gold", gold, "--pred", pred, "--subtask", "1"])
    assert code == 1
    assert "subtask 1 needs plain labels" in _one_line_error(capsys)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("grid", ["1.6,abc", "1.6,-1", "nan"])
def test_sweep_refuses_a_bad_grid_value_before_training(corpus, tmp_path, capsys, grid):
    out_dir = tmp_path / "run"
    code = main(["sweep", "--data", str(corpus), "--out-dir", str(out_dir),
                 "--grid", grid, *TINY_FLAGS])
    assert code == 1
    assert f"--grid value {grid.split(',')[-1]!r}" in _one_line_error(capsys)
    assert not out_dir.exists()


@pytest.mark.parametrize("grid", ["1.6,1.6", "1.6,1.6000001"])
def test_sweep_refuses_a_grid_whose_values_name_one_run_directory(corpus, tmp_path, capsys,
                                                                  grid):
    out_dir = tmp_path / "run"
    code = main(["sweep", "--data", str(corpus), "--out-dir", str(out_dir),
                 "--grid", grid, *TINY_FLAGS])
    assert code == 1
    first, second = grid.split(",")
    assert (f"lambda grid values {first} and {second} would both write lambda_1.6/"
            in _one_line_error(capsys))
    assert not (out_dir / "sweep.tsv").exists()
    assert not (out_dir / "lambda_1.6").exists()


def test_a_flag_value_of_the_wrong_type_ends_as_one_error_line(corpus, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["train", "--data", str(corpus), "--out-dir", str(out_dir), "--seed", "abc"])
    assert code == 1
    assert "cannot parse seed='abc' as int" in _one_line_error(capsys)
    assert not out_dir.exists()


def test_none_flags_are_accepted_as_in_a_config_file(corpus, tmp_path):
    out_dir = tmp_path / "run"
    code = main(["train", "--data", str(corpus), "--out-dir", str(out_dir), "--k-folds", "3",
                 "--fold-seed", "none", "--lambda", "none", *TINY_FLAGS])
    assert code == 0
    config = json.loads((out_dir / "metadata.json").read_text())["config"]
    assert config["fold_seed"] is None and config["lam"] is None
    assert config["resolved_lambda"] == 1.6


def test_config_commands_have_one_flag_per_run_config_field():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    renamed = {"data_path": ["--data"], "negatives_path": ["--negatives"], "lam": ["--lambda"],
               "wrs": ["--wrs", "--no-wrs"]}
    for command, extra in [("train", set()), ("kfold", set()), ("sweep", {"grid"})]:
        actions = [a for a in commands[command]._actions if a.dest != "help"]
        assert sorted(a.dest for a in actions) == sorted({*fields, "config", *extra})
        for action in actions:
            assert action.help, (command, action.dest)
            if action.dest in fields:
                assert action.help == fields[action.dest].metadata["help"]
                flags = renamed.get(action.dest, ["--" + action.dest.replace("_", "-")])
                assert action.option_strings == flags


@pytest.mark.parametrize("argv, message", [
    ("predict --checkpoint {missing} --data {corpus} --out {dir}", "--out {dir} is a directory"),
    ("predict --checkpoint {corpus} --data {corpus} --out {out}",
     "{corpus}: not a pcldetect checkpoint"),
    ("predict --checkpoint {array} --data {corpus} --out {out}",
     "{array}: not a pcldetect checkpoint"),
    ("predict --checkpoint {version2} --data {corpus} --out {out}",
     "{version2}: checkpoint version 2; this pcldetect reads version 3"),
    ("predict --checkpoint {name_twice} --data {corpus} --out {out}",
     "{name_twice}: checkpoint parameter index names a twice"),
    ("predict --checkpoint {negative_dim} --data {corpus} --out {out}",
     "{negative_dim}: checkpoint parameter index entry ['b', [-2, 3]] is not a name and a shape"),
    ("predict --checkpoint {fractional_dim} --data {corpus} --out {out}",
     "{fractional_dim}: checkpoint parameter index entry ['a', [1.5]] is not a name and a shape"),
    ("predict --checkpoint {short_params} --data {corpus} --out {out}",
     "{short_params}: checkpoint parameter index sizes sum to 6, but params holds 5 values"),
    ("predict --checkpoint {unknown_field} --data {corpus} --out {out}",
     "{unknown_field}: checkpoint encoder config"),
    ("predict --checkpoint {two_d_params} --data {corpus} --out {out}",
     "{two_d_params}: checkpoint params are float64 of shape (1, 2), not a 1-d float64 array"),
    ("predict --checkpoint {dir} --data {corpus} --out {out}", "Is a directory: '{dir}'"),
    ("train --data {dir} --out-dir {run}", "Is a directory: '{dir}'"),
    ("train --config {dir} --out-dir {run}", "Is a directory: '{dir}'"),
    ("train --data {latin1} --out-dir {run}", "{latin1}: line 2: not UTF-8 text"),
    ("evaluate --gold {corpus} --pred {latin1_preds}", "{latin1_preds}: line 2: not UTF-8 text"),
    ("ensemble --preds {latin1_preds} {latin1_preds} {latin1_preds} --out {out}",
     "{latin1_preds}: line 2: not UTF-8 text"),
    ("train --data {corpus} --out-dir {file}", "File exists: '{file}'"),
], ids=["predict-out-dir", "predict-checkpoint-tsv", "predict-checkpoint-npy",
        "predict-checkpoint-version-2", "predict-checkpoint-name-twice",
        "predict-checkpoint-negative-dim", "predict-checkpoint-fractional-dim",
        "predict-checkpoint-sizes", "predict-checkpoint-unknown-field",
        "predict-checkpoint-2d-params", "checkpoint-dir",
        "data-dir", "config-dir", "data-not-utf8", "evaluate-not-utf8", "ensemble-not-utf8",
        "out-dir-is-a-file"])
def test_an_unreadable_or_unwritable_path_ends_as_one_error_line(corpus, tmp_path, capsys,
                                                                 argv, message):
    paths = {name: tmp_path / name for name in
             ("missing", "dir", "out", "run", "latin1", "latin1_preds", "file")}
    paths["corpus"], paths["array"] = corpus, tmp_path / "array.npy"
    np.save(paths["array"], np.zeros(3))
    paths["version2"] = tmp_path / "version2.npz"
    with open(paths["version2"], "wb") as fh:  # laid out as version 2 wrote it
        np.savez(fh, header=np.array(json.dumps({"version": 2})), **{"param/a": np.zeros(2)})
    for name, fields, size in [
        ("name_twice", {"params": [["a", [2]], ["a", [2]]]}, 4),
        ("negative_dim", {"params": [["a", [2]], ["b", [-2, 3]]]}, 2),
        ("fractional_dim", {"params": [["a", [1.5]]]}, 1),
        ("short_params", {"params": [["a", [2]], ["b", [2, 2]]]}, 5),
        ("unknown_field", {"encoder_config": {"vocab_size": 8, "colour": 1}}, 2),
        ("two_d_params", {}, (1, 2)),
    ]:
        header = json.dumps({"version": 3, "encoder_config": {"vocab_size": 8}, "meta": {},
                             "params": [["a", [2]]], **fields})
        paths[name] = tmp_path / f"{name}.npz"
        with open(paths[name], "wb") as fh:
            np.savez(fh, header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
                     params=np.zeros(size))
    paths["dir"].mkdir()
    paths["file"].write_text("not a directory\n", encoding="utf-8")
    first_row = corpus.read_bytes().splitlines(keepends=True)[0]
    paths["latin1"].write_bytes(first_row + b"p9\ta9\tkw\tgb\tcaf\xe9 au lait\t0\n")
    paths["latin1_preds"].write_bytes(b"p1\t1\np\xe9\t0\n")
    code = main([arg.format(**paths) for arg in argv.split()])
    assert code == 1
    assert message.format(**paths) in _one_line_error(capsys)
    assert not paths["out"].exists() and not paths["run"].exists()
