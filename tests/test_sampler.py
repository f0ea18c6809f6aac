import math

import numpy as np
import pytest

from pcldetect.errors import ContractError, DegenerateDistributionError
from pcldetect.sampler import class_ratios, draw_epoch, wrs_weights

# corpus-scale counts used throughout: 993 positives of 10,469
N_POS, N_TOTAL = 993, 10469


def corpus_labels():
    labels = np.zeros(N_TOTAL, dtype=int)
    labels[:N_POS] = 1
    return labels


def test_class_ratios_corpus_counts():
    kp, kn = class_ratios(corpus_labels())
    assert kp == pytest.approx(0.094851, abs=5e-7)
    assert kn == pytest.approx(0.905149, abs=5e-7)
    assert kp + kn == 1.0


def test_class_ratios_balanced():
    assert class_ratios([0, 1] * 10) == (0.5, 0.5)


def test_class_ratios_order_free():
    labels = corpus_labels()
    shuffled = labels.copy()
    np.random.default_rng(0).shuffle(shuffled)
    assert class_ratios(labels) == class_ratios(shuffled)


def test_class_ratios_rejects_single_class():
    with pytest.raises(DegenerateDistributionError):
        class_ratios([1, 1, 1])
    with pytest.raises(DegenerateDistributionError):
        class_ratios([0])
    with pytest.raises(DegenerateDistributionError):
        class_ratios([])


def test_wrs_weights_corpus_values():
    weights = wrs_weights(corpus_labels())
    assert weights[0] == pytest.approx(3.2470, abs=5e-5)
    assert weights[-1] == pytest.approx(1.0511, abs=5e-5)
    assert len(set(weights[:N_POS])) == 1
    assert len(set(weights[N_POS:])) == 1


def test_wrs_weights_balanced_classes():
    assert np.allclose(wrs_weights([0, 1, 0, 1]), math.sqrt(2.0))


def test_wrs_weight_ratio_identity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        labels = rng.integers(0, 2, size=200)
        if labels.min() == labels.max():
            continue
        weights, (kappa_pos, kappa_neg) = wrs_weights(labels), class_ratios(labels)
        expected = math.sqrt(kappa_neg / kappa_pos)
        assert weights[labels == 1][0] / weights[labels == 0][0] == pytest.approx(
            expected, rel=1e-12
        )


def test_draw_epoch_uniform_case():
    n_items, draws = 20, 10**6
    idx = draw_epoch(np.ones(n_items), draws, rng_seed=123)
    counts = np.bincount(idx, minlength=n_items)
    p = 1.0 / n_items
    sigma = math.sqrt(draws * p * (1 - p))
    assert np.max(np.abs(counts - draws * p)) < 4 * sigma


def test_draw_epoch_expected_positive_fraction():
    labels = corpus_labels()
    weights, (kappa_pos, kappa_neg) = wrs_weights(labels), class_ratios(labels)
    expected = math.sqrt(kappa_pos) / (math.sqrt(kappa_pos) + math.sqrt(kappa_neg))
    assert expected == pytest.approx(0.2445, abs=1e-4)
    idx = draw_epoch(weights, N_TOTAL, rng_seed=7)
    assert len(idx) == N_TOTAL
    assert abs((idx < N_POS).mean() - expected) < 0.013


def test_draw_epoch_vanishing_weight():
    weights = np.ones(10)
    weights[3] = 1e-12
    idx = draw_epoch(weights, 10**6, rng_seed=5)
    assert (idx == 3).mean() < 1e-6


def test_draw_epoch_deterministic_given_seed():
    weights = wrs_weights([1, 0, 0, 0, 1, 0])
    a = draw_epoch(weights, 6, rng_seed=99)
    b = draw_epoch(weights, 6, rng_seed=99)
    c = draw_epoch(weights, 6, rng_seed=100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_epoch_input_validation():
    with pytest.raises(ContractError):
        draw_epoch(np.ones(4), 0, rng_seed=0)
    with pytest.raises(ContractError):
        draw_epoch(np.array([1.0, -0.5]), 3, rng_seed=0)
    with pytest.raises(ContractError):
        draw_epoch(np.array([]), 3, rng_seed=0)
