"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. The end-to-end criterion trains ten desk-scale models and
dominates the runtime (several minutes on a laptop CPU).
"""

import itertools
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pcldetect import autograd as ag
from pcldetect.autograd import Tensor
from pcldetect.data import stratified_kfold
from pcldetect.encoder import EncoderConfig, encode_batch, init_arrays, load_checkpoint, pooler
from pcldetect.ensemble import RunReport, select_top_k, vote_binary, vote_multilabel
from pcldetect.heads import (
    bce_loss,
    binary_forward,
    binary_loss,
    multilabel_forward,
)
from pcldetect.metrics import f1_score, macro_average, macro_f1, prf1_positive
from pcldetect.optim import build_grouped_llrd, cosine_warmup_multiplier
from pcldetect.sampler import class_ratios, draw_epoch, wrs_weights
from pcldetect.trainer import (
    Model,
    RunConfig,
    load_training_data,
    make_folds,
    model_shapes,
    predict_records,
    train_fold,
)

from gradcheck import check_gradients
from synthcorpus import synthetic_binary_records, write_binary_tsv

ETA = 1e-5
SEEDS = (13, 21, 42, 87, 100)
CORPUS_COUNTS = (993, 10469)  # positives, total


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


# --- 1. gradient suite -------------------------------------------------------


def _primitive_checks(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    yield "matmul", lambda: ag.matmul(a, b).sum(), [a, b]

    x = Tensor(rng.uniform(-3, 3, size=(2, 6)), requires_grad=True)
    mix = ag.constant(rng.normal(size=(2, 6)))
    yield "softmax", lambda: ag.mul(mix, ag.softmax(x)).sum(), [x]
    yield "sigmoid", lambda: ag.mul(mix, ag.sigmoid(x)).sum(), [x]
    yield "tanh", lambda: ag.mul(mix, ag.tanh(x)).sum(), [x]
    yield "gelu", lambda: ag.mul(mix, ag.gelu(x)).sum(), [x]

    gain = Tensor(rng.normal(size=6) + 1.0, requires_grad=True)
    bias = Tensor(rng.normal(size=6), requires_grad=True)
    yield "layer_norm", lambda: ag.mul(mix, ag.layer_norm(x, gain, bias)).sum(), [x, gain, bias]

    table = Tensor(rng.normal(size=(9, 5)), requires_grad=True)
    ids = np.array([[1, 4, 4], [0, 8, 2]])
    mix2 = ag.constant(rng.normal(size=(2, 3, 5)))
    yield (
        "embedding_gather",
        lambda: ag.mul(mix2, ag.embedding_gather(table, ids)).sum(),
        [table],
    )

    yield (
        "dropout",
        lambda: ag.dropout(x, 0.4, train=True, rng=np.random.default_rng(7)).sum(),
        [x],
    )

    c = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    d = Tensor(rng.normal(size=(3,)), requires_grad=True)
    yield "add/mul/scale/sub", lambda: ag.scale(
        ag.mul(ag.add(c, d), ag.sub(c, d)), 0.7
    ).sum(), [c, d]

    # logits from 15 uniform draws; the tiny models below are drawn after them
    z = Tensor(8.0 * rng.uniform(0.05, 0.95, size=(5, 3)) - 4.0, requires_grad=True)
    yield "cross_entropy", lambda: ag.cross_entropy(z, [1, 0, 2, 1, 0]), [z]
    bits = np.array([[1, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 0], [1, 0, 1]])
    yield "bce_with_logits", lambda: ag.bce_with_logits(z, bits), [z]

    e = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    mix3 = ag.constant(rng.normal(size=(4, 6)))
    yield "reshape/transpose", lambda: ag.mul(
        mix3, ag.reshape(ag.transpose(e, (2, 0, 1)), (4, 6))
    ).sum(), [e]


def _tiny_model(subtask, rng):
    config = EncoderConfig(
        vocab_size=12, d_model=8, n_heads=2, n_layers=2, d_ff=16,
        max_len=8, dropout_rate=0.0,
    )
    arrays = init_arrays(model_shapes(config, subtask), rng)
    return Model.from_arrays(config, subtask, arrays)


def test_acceptance_gradient_suite():
    with criterion("gradient suite (primitives + encoder composition, <60 s)"):
        rng = np.random.default_rng(0)
        started = time.monotonic()
        for name, loss_fn, tensors in _primitive_checks(rng):
            err = check_gradients(loss_fn, tensors)
            assert err < 1e-4, f"{name}: rel err {err}"

        # full mini encoder + binary head + loss on a 2-sample batch
        params = _tiny_model(1, rng)
        batch = np.array([[1, 5, 7, 9, 2, 0], [1, 6, 8, 2, 0, 0]])

        def binary_pipeline():
            h = pooler(encode_batch(params, batch), params)
            return binary_loss(binary_forward(h, params), [1, 0])

        tensors = list(params.tensors.values())
        err = check_gradients(binary_pipeline, tensors, floor=1e-6)
        assert err < 1e-4, f"binary pipeline rel err {err}"

        params2 = _tiny_model(2, rng)

        def multilabel_pipeline():
            h = pooler(encode_batch(params2, batch), params2)
            golds = [[1, 0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0, 1]]
            return bce_loss(multilabel_forward(h, params2), golds)

        tensors2 = list(params2.tensors.values())
        err = check_gradients(multilabel_pipeline, tensors2, floor=1e-6)
        assert err < 1e-4, f"multilabel pipeline rel err {err}"

        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# --- 2. grouped decay ratios -------------------------------------------------


def test_acceptance_grouped_llrd_ratios():
    with criterion("grouped decay ratios exact for lambda in {0.6, 1.6, 3.6, 6.6}"):
        names = [f"layer.{i}.w.weight" for i in range(6)] + [
            "embeddings.token", "pooler.dense.weight", "classifier.weight",
        ]
        for lam in (0.6, 1.6, 3.6, 6.6):
            groups = build_grouped_llrd(names, G=3, eta=ETA, lam=lam, head_multiplier=1.1)
            lrs = [g.base_lr for g in groups if g.role != "head"]
            head_lr = groups[-1].base_lr
            # the decay relation holds bit-exactly in one of its two float
            # forms (for some lambda no float divides to exactly lambda)
            for lower, upper in zip(lrs, lrs[1:]):
                assert upper / lower == lam or lower == upper / lam, (lam, lower, upper)
            # published listing (eta/lam, eta, eta*lam) with eta = 1e-5
            assert lrs[1] == ETA
            assert lrs[0] == ETA / lam
            assert lrs[2] == pytest.approx(ETA * lam, rel=1e-15)
            assert head_lr == pytest.approx(1.1 * lrs[2], rel=1e-15)
        lrs16 = [
            g.base_lr
            for g in build_grouped_llrd(names, G=3, eta=ETA, lam=1.6)
            if g.role != "head"
        ]
        assert lrs16 == pytest.approx([6.25e-6, 1.0e-5, 1.6e-5], rel=1e-12)


# --- 3. degeneracy -----------------------------------------------------------


def test_acceptance_degeneracy_bit_exact(tmp_path):
    with criterion("lambda=1 + head_multiplier=1 + no WRS == plain optimizer, 200 steps"):
        corpus = tmp_path / "train.tsv"
        write_binary_tsv(corpus, synthetic_binary_records(n=120, positive_frac=0.25, seed=3))
        common = dict(
            subtask=1, data_path=str(corpus), d_model=16, n_heads=2, n_layers=2,
            d_ff=32, max_len=40, dropout=0.4, batch_size=4, epochs=10, eta=1e-3,
            groups=2, k_folds=4, eval_every_batches=100_000, patience_rounds=100_000,
            seed=13, wrs=False, head_multiplier=1.0,
        )
        grouped = RunConfig(lam=1.0, grouping="llrd", **common)
        plain = RunConfig(grouping="single", **common)
        data = load_training_data(grouped)
        train_idx, val_idx = make_folds(grouped, data).split(0)
        a = train_fold(grouped, data, train_idx, val_idx, 0, tmp_path / "grouped")
        b = train_fold(plain, data, train_idx, val_idx, 0, tmp_path / "plain")
        assert a.steps_taken >= 200 and b.steps_taken >= 200
        assert a.losses[:200] == b.losses[:200]
        assert a.losses == b.losses
        _, params_a, _ = load_checkpoint(a.checkpoint_path)
        _, params_b, _ = load_checkpoint(b.checkpoint_path)
        for name in params_a:
            assert params_a[name].tobytes() == params_b[name].tobytes(), name


# --- 4. weighted sampler distribution ---------------------------------------


def test_acceptance_wrs_distribution():
    with criterion("weighted sampler positive rate within ±0.013 of closed form, 20 seeds"):
        n_pos, n_total = CORPUS_COUNTS
        labels = np.zeros(n_total, dtype=int)
        labels[:n_pos] = 1
        weights, (kappa_pos, kappa_neg) = wrs_weights(labels), class_ratios(labels)
        expected = math.sqrt(kappa_pos) / (math.sqrt(kappa_pos) + math.sqrt(kappa_neg))
        assert abs(expected - 0.2445) < 2e-4  # 0.24455..., printed truncated as 0.2445
        for seed in range(20):
            idx = draw_epoch(weights, n_total, rng_seed=seed)
            assert len(idx) == n_total  # epoch length equals dataset length
            frac = float((idx < n_pos).mean())
            assert abs(frac - expected) <= 0.013, (seed, frac)


# --- 5. metric oracles --------------------------------------------------------


def test_acceptance_metric_oracles():
    with criterion("metric oracles reproduce the published table arithmetic"):
        assert f1_score(0.6431, 0.6309) == pytest.approx(0.6369, abs=5e-5)
        per_class = [58.90, 50.55, 42.86, 28.07, 40.00, 49.24, 33.33]
        assert macro_average(per_class) == pytest.approx(43.28, abs=5e-3)
        rng = np.random.default_rng(1)
        preds = [tuple(rng.integers(0, 2, size=7)) for _ in range(30)]
        golds = [tuple(rng.integers(0, 2, size=7)) for _ in range(30)]
        pc, macro = macro_f1(preds, golds)
        assert abs(macro - macro_average(pc)) < 1e-12


# --- 6. schedule shape ---------------------------------------------------------


def test_acceptance_schedule():
    with criterion("schedule: 1.0 at warmup end, 0.5 at midpoint, 0.0 at final step"):
        total = 20_000_000_000  # warmup length 2e9: step granularity 1/w beats the 1e-9 joint bound
        w = round(0.10 * total)
        mult = lambda t: cosine_warmup_multiplier(t, total, 0.10)
        assert mult(w) == 1.0
        assert abs(mult(w - 1) - mult(w)) < 1e-9
        assert abs(mult(w + 1) - mult(w)) < 1e-9
        midpoint = w + (total - w) // 2
        assert mult(midpoint) == pytest.approx(0.5, abs=1e-12)
        assert mult(total) == 0.0


# --- 7. end-to-end synthetic run -----------------------------------------------


def _e2e_config(corpus, seed, full_recipe):
    return RunConfig(
        subtask=1,
        data_path=str(corpus),
        d_model=64,
        n_heads=4,
        n_layers=6,
        d_ff=256,
        max_len=64,
        dropout=0.4,
        batch_size=4,
        epochs=10,
        eta=1e-3,  # from-scratch training needs a working rate; 1e-5 targets pre-trained weights
        lam=1.6 if full_recipe else None,
        groups=3,
        k_folds=5,
        eval_every_batches=50,
        patience_rounds=10,
        seed=seed,
        fold_seed=13,  # identical splits across seeds and recipe arms
        wrs=full_recipe,
        grouping="llrd" if full_recipe else "single",
    )


def _held_out_recall(outcome, data, val_idx):
    records = [data.records[i] for i in val_idx]
    _, labels = predict_records(outcome.checkpoint_path, records)
    golds = data.binary_labels[val_idx].tolist()
    return prf1_positive(labels, golds)[1]


@pytest.mark.slow
def test_acceptance_end_to_end_synthetic(tmp_path):
    with criterion("end-to-end: full recipe F1 >= 0.95 in <10 min; ablation direction"):
        corpus = tmp_path / "train.tsv"
        write_binary_tsv(corpus, synthetic_binary_records(n=2000, positive_frac=0.10, seed=0))

        recalls = {True: [], False: []}
        headline = None
        for full_recipe in (True, False):
            for seed in SEEDS:
                config = _e2e_config(corpus, seed, full_recipe)
                data = load_training_data(config)
                train_idx, val_idx = make_folds(config, data).split(0)
                started = time.monotonic()
                outcome = train_fold(
                    config, data, train_idx, val_idx, 0,
                    tmp_path / f"{'full' if full_recipe else 'ablated'}_{seed}",
                )
                wall = time.monotonic() - started
                recalls[full_recipe].append(_held_out_recall(outcome, data, val_idx))
                if full_recipe and seed == SEEDS[0]:
                    headline = (outcome, wall)
                print(
                    f"  [{'full' if full_recipe else 'ablated'} seed {seed}] "
                    f"F1 {outcome.best_metric:.3f} recall {recalls[full_recipe][-1]:.3f} "
                    f"steps {outcome.steps_taken} wall {wall:.0f}s"
                )

        outcome, wall = headline
        assert outcome.best_metric >= 0.95, f"headline F1 {outcome.best_metric}"
        assert wall < 600.0, f"headline run took {wall:.0f}s"
        # direction of effect: removing both strategies must not beat the recipe
        assert statistics.median(recalls[False]) <= statistics.median(recalls[True]), recalls


# --- 8. ensemble properties -----------------------------------------------------


def test_acceptance_ensemble_properties():
    with criterion("ensemble: idempotence, permutation invariance, majority ⊆ union, ties"):
        rng = np.random.default_rng(4)
        base = rng.integers(0, 2, size=25).tolist()
        assert vote_binary([base, base, base]) == base  # idempotence
        voters = [rng.integers(0, 2, size=25).tolist() for _ in range(3)]
        fused = vote_binary(voters)
        for perm in itertools.permutations(voters):
            assert vote_binary(list(perm)) == fused  # permutation invariance
        vec_voters = [
            [tuple(rng.integers(0, 2, size=7)) for _ in range(10)] for _ in range(3)
        ]
        fused_vecs = vote_multilabel(vec_voters)
        for i, vec in enumerate(fused_vecs):  # majority never invents a bit
            union = np.maximum.reduce([np.array(v[i]) for v in vec_voters])
            assert np.all(np.array(vec) <= union)
        tied = [
            RunReport.create(seed, [0.6], f"ckpt_{seed}.npz") for seed in (100, 13, 42, 21, 87)
        ]
        first = select_top_k(tied, k=3)
        assert [r.seed for r in first] == [13, 21, 42]  # deterministic under ties
        assert [r.seed for r in select_top_k(list(reversed(tied)), k=3)] == [13, 21, 42]


# --- 9. stratified folds ----------------------------------------------------------


def test_acceptance_stratified_folds():
    with criterion("stratified 5-fold of 10,469/993 labels: fold positives in {198, 199}"):
        n_pos, n_total = CORPUS_COUNTS
        labels = [1] * n_pos + [0] * (n_total - n_pos)
        for seed in (0, 13):
            folds = stratified_kfold(labels, k=5, seed=seed)
            sizes = np.bincount(folds.fold_of, minlength=5)
            assert sizes.max() - sizes.min() <= 1
            for fold in range(5):
                positives = int(np.sum(folds.fold_of[:n_pos] == fold))
                assert positives in (198, 199), (seed, fold, positives)
