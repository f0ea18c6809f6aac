import numpy as np
import pytest

from pcldetect.errors import ContractError
from pcldetect.metrics import (
    f1_score,
    format_report,
    macro_average,
    macro_f1,
    prf1_positive,
)


def test_f1_reproduces_published_binary_row():
    # the reported P/R pair must regenerate the reported F1
    assert f1_score(0.6431, 0.6309) == pytest.approx(0.6369, abs=5e-5)


def test_perfect_predictions():
    preds = golds = [1, 0, 1, 1, 0]
    assert prf1_positive(preds, golds) == (1.0, 1.0, 1.0)


def test_no_predicted_positives_zero_convention():
    assert prf1_positive([0, 0, 0], [1, 0, 1]) == (0.0, 0.0, 0.0)


def test_length_mismatch_rejected():
    with pytest.raises(ContractError):
        prf1_positive([1, 0], [1])
    with pytest.raises(ContractError):
        prf1_positive([], [])


def test_permutation_invariance():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 2, size=50).tolist()
    golds = rng.integers(0, 2, size=50).tolist()
    base = prf1_positive(preds, golds)
    order = rng.permutation(50)
    assert prf1_positive([preds[i] for i in order], [golds[i] for i in order]) == base


def test_f1_is_harmonic_mean_of_reported_p_and_r():
    rng = np.random.default_rng(1)
    for _ in range(20):
        preds = rng.integers(0, 2, size=30).tolist()
        golds = rng.integers(0, 2, size=30).tolist()
        p, r, f1 = prf1_positive(preds, golds)
        assert f1 == pytest.approx(f1_score(p, r), abs=1e-15)


def test_macro_average_reproduces_published_table():
    per_class = [58.90, 50.55, 42.86, 28.07, 40.00, 49.24, 33.33]
    assert macro_average(per_class) == pytest.approx(43.28, abs=5e-3)


def test_macro_f1_perfect_match():
    golds = [(1, 0, 1, 0, 0, 1, 0), (0, 1, 0, 1, 1, 0, 1), (1, 1, 0, 0, 1, 0, 0)]
    per_class, macro = macro_f1(golds, golds)
    assert per_class == [1.0] * 7
    assert macro == 1.0


def test_macro_f1_absent_class_counts_as_zero():
    golds = [(1, 0, 0, 0, 0, 0, 0)] * 4
    per_class, macro = macro_f1(golds, golds)
    assert per_class[0] == 1.0
    assert per_class[1:] == [0.0] * 6
    assert macro == pytest.approx(1.0 / 7.0)


def test_macro_equals_mean_of_per_class():
    rng = np.random.default_rng(2)
    preds = [tuple(rng.integers(0, 2, size=7)) for _ in range(40)]
    golds = [tuple(rng.integers(0, 2, size=7)) for _ in range(40)]
    per_class, macro = macro_f1(preds, golds)
    assert abs(macro - sum(per_class) / 7) < 1e-12


def test_macro_f1_rejects_wrong_width():
    with pytest.raises(ContractError):
        macro_f1([(1, 0)], [(1, 0)])


def test_report_formats():
    metrics = {"precision": 0.5, "recall": 0.25, "f1": 1 / 3}
    report = format_report(metrics)
    assert report.splitlines() == ["precision\t0.500000", "recall\t0.250000", "f1\t0.333333"]
    assert format_report({"per_class": [1.0, 0.5]}) == "per_class\t1.000000,0.500000"
