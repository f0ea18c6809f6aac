"""Tests for the benchmark: a smoke run of each workload, and every checker
fed a known-wrong input.

    python -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench_run

bench_run.prepare_imports()

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import OPS  # noqa: E402

END_TO_END = set(workloads.UNITS)

PER_LAYER = {
    "data.load_ms", "data.tokenize_us_per_example", "data.padding_fraction.train",
    "data.padding_fraction.eval", "data.stratified_kfold_ms", "sampler.draw_epoch_ms",
    "autograd.tape_nodes_per_step", "autograd.backward_ms_per_step", "autograd.gc_pause_s",
    "autograd.gc_gen2_collections", "encoder.forward_train_ms_per_step",
    "encoder.forward_eval_us_per_example", "encoder.save_checkpoint_ms",
    "encoder.load_checkpoint_ms", "heads.forward_ms_per_step", "heads.loss_ms_per_step",
    "optim.step_ms", "optim.state_dict_ms_per_fold", "trainer.eval_s_per_fold",
    "trainer.eval_examples_per_s", "trainer.train_step_ms", "metrics.score_ms_per_eval",
    "cli.predict_overhead_ms", "ensemble.write_predictions_ms",
} | {f"autograd.{op}.{kind}" for op in OPS for kind in ("train_ms_per_step", "eval_ms_per_batch")}


def _smoke(workload, tmp_path, trace):
    return workloads.run(workload, seed=1, seconds=0, trace=trace, import_s=0.0,
                         out_dir=tmp_path, size=workloads.SMOKE)


@pytest.mark.parametrize("workload", sorted(workloads.RUNNERS))
def test_smoke_run_passes_its_checks(workload, tmp_path):
    result = _smoke(workload, tmp_path, trace=False)
    assert result.pop("problems") == []
    assert set(json.loads(json.dumps(result))) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not list((tmp_path / "work").iterdir()), "the work directory is left behind"


def test_smoke_traced_run_reports_every_layer(tmp_path):
    result = _smoke("s1_fold", tmp_path, trace=True)
    assert result["correct"] is True, result["problems"]
    assert set(result["metrics"]) == PER_LAYER
    assert result["metrics"]["autograd.tape_nodes_per_step"]["value"] > 0
    assert (tmp_path / "trace" / "s1_fold-seed1.npz").is_file()


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copytree(bench_run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench_run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "s1_fold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- checkers fed a known-wrong input ----------------------------------------


def test_flipped_label_breaks_metric_equality():
    golds = [1] * 10 + [0] * 90
    preds = list(golds)
    assert checks.check_equal_metric("f1", checks.f1_positive(preds, golds), 1.0) == []
    preds[0] = 0
    f1 = checks.f1_positive(preds, golds)
    assert checks.check_equal_metric("f1", f1, 1.0)
    assert checks.check_f1_at_least("f1", f1, 0.95)


def test_flipped_bit_breaks_macro_f1_equality():
    golds = [(1, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)]
    reported = checks.macro_f1(golds, golds)
    assert reported == pytest.approx(3 / 7)
    flipped = [golds[0], (0, 0, 0, 0, 0, 0, 0), golds[2]]
    assert checks.check_equal_metric("macro", checks.macro_f1(flipped, golds), reported)


def test_index_duplicated_across_folds_fails_partition():
    labels = [0, 0, 1, 1]
    vals = [[0, 2], [1, 3]]
    trains = [[1, 3], [0, 2]]
    assert checks.check_partition(4, vals, trains, labels) == []
    assert checks.check_partition(4, [[0, 2], [0, 3]], [[1, 3], [1, 2]], labels)


def test_unbalanced_fold_classes_fail_partition():
    labels = [0, 0, 1, 1]
    assert checks.check_partition(4, [[0, 1], [2, 3]], [[2, 3], [0, 1]], labels)


def test_overlapping_train_and_validation_fail_partition():
    labels = [0, 1]
    assert checks.check_partition(2, [[0], [1]], [[0, 1], [0]], labels)


def test_sampler_share_outside_binomial_bounds_fails():
    n_pos, n_neg = 160, 1440
    expected = checks.wrs_positive_share(n_pos, n_neg)
    assert expected == pytest.approx(0.25)
    assert checks.check_sampler_share(400, 1600, n_pos, n_neg) == []
    # an unweighted draw sees positives at their corpus rate, 10%
    assert checks.check_sampler_share(160, 1600, n_pos, n_neg)
    assert checks.check_sampler_share(520, 1600, n_pos, n_neg)


def test_order_dependent_label_fails_shuffle_check():
    first = {"a": 1, "b": 0, "c": 1}
    assert checks.check_same_labels(first, dict(reversed(first.items()))) == []
    assert checks.check_same_labels(first, {"a": 1, "b": 1, "c": 1})
    assert checks.check_same_labels(first, {"a": 1, "b": 0})


def test_wrong_report_mean_fails():
    assert checks.check_mean("mean", [0.1, 0.2, 0.6], 0.3) == []
    assert checks.check_mean("mean", [0.1, 0.2, 0.6], 0.3 + 1e-9)


def test_rising_loss_fails():
    assert checks.check_loss_falls("loss", [4, 4, 3, 2, 1, 1], 2) == []
    assert checks.check_loss_falls("loss", [1, 1, 2, 3, 4, 4], 2)
    assert checks.check_loss_falls("loss", [1, 1, 1], 2)


def test_short_or_early_stopped_budget_fails():
    assert checks.check_budget("fold", 400, 400, False) == []
    assert checks.check_budget("fold", 399, 400, False)
    assert checks.check_budget("fold", 400, 400, True)


def test_missing_or_unknown_par_ids_fail_cover():
    assert checks.check_labels_cover({"a": 1, "b": 0}, ["a", "b"]) == []
    assert checks.check_labels_cover({"a": 1}, ["a", "b"])
    assert checks.check_labels_cover({"a": 1, "b": 0, "z": 1}, ["a", "b"])


def test_duplicated_prediction_row_is_refused(tmp_path):
    path = tmp_path / "preds.tsv"
    path.write_text("a\t1\nb\t0,1,0,0,0,0,0\n", encoding="utf-8")
    assert checks.read_predictions(path) == {"a": 1, "b": (0, 1, 0, 0, 0, 0, 0)}
    path.write_text("a\t1\na\t0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        checks.read_predictions(path)

