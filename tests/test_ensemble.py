import itertools

import numpy as np
import pytest

from pcldetect.ensemble import (
    RunReport,
    read_predictions,
    select_top_k,
    vote_binary,
    vote_multilabel,
    write_predictions,
)
from pcldetect.errors import ConfigError, ContractError


def report(seed, metrics):
    return RunReport.create(seed, metrics, f"ckpt_{seed}.npz")


def test_run_report_mean_validated():
    r = report(13, [0.6, 0.7])
    assert r.mean_val == pytest.approx(0.65)
    with pytest.raises(ContractError):
        RunReport(13, (0.6, 0.7), 0.99, "x.npz")


def test_run_report_json_round_trip():
    r = report(42, [0.5, 0.75, 0.625])
    assert RunReport.from_json(r.to_json()) == r


def test_select_top_k_ranks_by_mean():
    reports = [report(s, [m]) for s, m in zip((13, 21, 42, 87, 100),
                                              (0.61, 0.64, 0.59, 0.63, 0.60))]
    top = select_top_k(reports, k=3)
    assert [r.seed for r in top] == [21, 87, 13]


def test_select_top_k_identity_when_k_covers_all():
    reports = [report(s, [0.5 + s / 1000]) for s in (1, 2, 3)]
    assert set(r.seed for r in select_top_k(reports, k=3)) == {1, 2, 3}


def test_select_top_k_tie_goes_to_lower_seed():
    reports = [report(21, [0.6]), report(13, [0.6]), report(42, [0.5])]
    top = select_top_k(reports, k=2)
    assert [r.seed for r in top] == [13, 21]


def test_select_top_k_needs_enough_reports():
    with pytest.raises(ConfigError):
        select_top_k([report(1, [0.5])], k=3)


def test_vote_binary_majority():
    assert vote_binary([[1], [1], [0]]) == [1]
    assert vote_binary([[0], [0], [0]]) == [0]


def test_vote_binary_idempotent_on_identical_voters():
    votes = [1, 0, 1, 1, 0]
    assert vote_binary([votes, votes, votes]) == votes


def test_vote_binary_rejects_even_voters():
    with pytest.raises(ConfigError):
        vote_binary([[1], [0]])


def test_vote_binary_rejects_ragged_voters():
    with pytest.raises(ContractError):
        vote_binary([[1, 0], [1], [0]])


def test_vote_binary_permutation_invariant():
    rng = np.random.default_rng(0)
    voters = [rng.integers(0, 2, size=12).tolist() for _ in range(3)]
    fused = vote_binary(voters)
    for perm in itertools.permutations(voters):
        assert vote_binary(list(perm)) == fused


def test_vote_multilabel_per_bit():
    a = [(1, 0, 1, 0, 0, 0, 0)]
    b = [(1, 1, 0, 0, 0, 0, 0)]
    c = [(0, 0, 0, 0, 0, 0, 0)]
    assert vote_multilabel([a, b, c]) == [(1, 0, 0, 0, 0, 0, 0)]


def test_vote_multilabel_unanimous_unchanged():
    vecs = [(1, 0, 1, 1, 0, 0, 1), (0, 0, 0, 0, 0, 0, 0)]
    assert vote_multilabel([vecs, vecs, vecs]) == vecs


def test_vote_never_invents_bits():
    rng = np.random.default_rng(1)
    voters = [[tuple(rng.integers(0, 2, size=7)) for _ in range(8)] for _ in range(3)]
    fused = vote_multilabel(voters)
    for i, vec in enumerate(fused):
        union = np.maximum.reduce([np.array(v[i]) for v in voters])
        assert np.all(np.array(vec) <= union)


def test_fused_binary_changes_only_on_disagreement():
    rng = np.random.default_rng(2)
    voters = [rng.integers(0, 2, size=30) for _ in range(3)]
    fused = np.array(vote_binary([v.tolist() for v in voters]))
    unanimous = (voters[0] == voters[1]) & (voters[1] == voters[2])
    for v in voters:
        assert np.array_equal(fused[unanimous], v[unanimous])


def test_prediction_file_round_trip_binary(tmp_path):
    path = tmp_path / "preds.tsv"
    write_predictions(path, ["p1", "p2"], [1, 0])
    assert path.read_text() == "p1\t1\np2\t0\n"
    assert read_predictions(path) == (["p1", "p2"], [1, 0])


def test_prediction_file_round_trip_multilabel(tmp_path):
    path = tmp_path / "preds.tsv"
    vectors = [(1, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)]
    write_predictions(path, ["p1", "p2"], vectors)
    par_ids, labels = read_predictions(path)
    assert par_ids == ["p1", "p2"]
    assert labels == list(vectors)


def test_read_predictions_rejects_bad_lines(tmp_path):
    path = tmp_path / "preds.tsv"
    path.write_text("p1\t1\textra\n", encoding="utf-8")
    with pytest.raises(ContractError, match="line 1"):
        read_predictions(path)


@pytest.mark.parametrize("bad", [
    "yes", "1.0", "", "1,x,0",
    # integers, but not labels: plain labels other than 0/1, and bit vectors
    # of the wrong width or with a bit other than 0/1
    "2", "-3", "7", "1,0,1", "1,0,0,0,0,0,0,0", "0,1,0,0,0,0,2", "0,-1,0,0,0,0,0",
])
def test_read_predictions_rejects_a_non_integer_label(tmp_path, bad):
    path = tmp_path / "preds.tsv"
    path.write_text(f"p1\t1\np2\t{bad}\n", encoding="utf-8")
    with pytest.raises(ContractError, match=r"preds\.tsv: line 2: label"):
        read_predictions(path)


@pytest.mark.parametrize("rows", [["1", "0,1,0,0,0,0,0"], ["0,1,0,0,0,0,0", "1"]])
def test_read_predictions_rejects_mixed_label_kinds(tmp_path, rows):
    path = tmp_path / "preds.tsv"
    path.write_text(f"p1\t{rows[0]}\np2\t{rows[1]}\n", encoding="utf-8")
    with pytest.raises(ContractError, match=r"preds\.tsv: line 2: mixes"):
        read_predictions(path)
