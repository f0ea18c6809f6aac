import numpy as np
import pytest

from pcldetect import autograd as ag
from pcldetect.autograd import Tensor
from pcldetect.encoder import (
    EncoderConfig,
    EncoderParams,
    encode_batch,
    init_arrays,
    load_checkpoint,
    param_shapes,
    pooler,
    save_checkpoint,
)
from pcldetect.errors import ConfigError, ContractError

import unfused
from gradcheck import check_gradients, clear_grads


def small_config(**kw):
    defaults = dict(
        vocab_size=16, d_model=8, n_heads=2, n_layers=2, d_ff=16,
        max_len=10, dropout_rate=0.4,
    )
    defaults.update(kw)
    return EncoderConfig(**defaults)


def fresh_params(config, seed):
    arrays = init_arrays(param_shapes(config), np.random.default_rng(seed))
    return EncoderParams(config, {n: Tensor(a, requires_grad=True) for n, a in arrays.items()})


def encode(params, tokens, **kwargs):
    """One sequence through a one-row batch; its (d_model,) [CLS] vector."""
    return encode_batch(params, np.array([tokens]), **kwargs).values[0]


@pytest.fixture()
def params():
    return fresh_params(small_config(), 0)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(d_model=9)  # not divisible by n_heads
    with pytest.raises(ConfigError):
        small_config(max_len=2)
    with pytest.raises(ConfigError):
        small_config(dropout_rate=1.0)


def test_output_shape_for_any_valid_length(params):
    for length in range(3, 11):
        tokens = [1] + [5] * (length - 2) + [2]
        out = encode(params, tokens)
        assert out.shape == (8,)


def test_rejects_over_length_input(params):
    with pytest.raises(ContractError):
        encode(params, [1] + [5] * 10 + [2])


def test_eval_forward_is_deterministic(params):
    tokens = [1, 5, 7, 9, 2]
    a = encode(params, tokens)
    b = encode(params, tokens)
    assert np.array_equal(a, b)


def test_attention_rows_sum_to_one_over_unmasked(params):
    ids = np.array([[1, 5, 7, 9, 2, 0, 0], [1, 6, 2, 0, 0, 0, 0]])
    sink = []
    encode_batch(params, ids, attn_sink=sink)
    assert len(sink) == params.config.n_layers
    real = ids != 0  # (batch, seq)
    for probs in sink:  # (batch, heads, query, key)
        sums = probs.sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-10
        masked_mass = probs[:, :, :, :][~np.broadcast_to(real[:, None, None, :], probs.shape)]
        assert np.all(masked_mass == 0.0)


def test_last_layer_attention_is_cls_row_only(params):
    ids = np.array([[1, 5, 7, 9, 2, 0, 0], [1, 6, 2, 0, 0, 0, 0]])
    sink = []
    encode_batch(params, ids, attn_sink=sink)
    assert [p.shape for p in sink] == [(2, 2, 7, 7), (2, 2, 1, 7)]


def _padded_batch():
    ids = np.random.default_rng(6).integers(3, 16, size=(3, 9))
    ids[:, 0] = 1
    ids[1, 5:] = 0
    ids[2, 3:] = 0
    return ids


@pytest.mark.parametrize("n_layers", [1, 3])
def test_fused_encoder_matches_unfused_reference_in_eval(n_layers):
    params = fresh_params(small_config(n_layers=n_layers), 1)
    ids = _padded_batch()
    fused_sink, ref_sink = [], []
    fused = encode_batch(params, ids, attn_sink=fused_sink).values
    ref = unfused.encode_batch(params, ids, attn_sink=ref_sink).values
    assert np.max(np.abs(fused - ref)) < 1e-12
    for f, r in zip(fused_sink, ref_sink):
        assert np.max(np.abs(f - r[:, :, : f.shape[2]])) < 1e-12


@pytest.mark.parametrize("n_layers", [1, 3])
def test_fused_encoder_matches_unfused_reference_in_train(n_layers):
    params = fresh_params(small_config(n_layers=n_layers), 2)
    ids = _padded_batch()
    mix = ag.constant(np.random.default_rng(3).normal(size=(3, 8)))
    tensors = [t for n, t in params.tensors.items() if not n.startswith("pooler.")]

    def run(encoder):
        rng = np.random.default_rng(4)
        clear_grads(tensors)
        with ag.Tape():
            out = encoder(params, ids, train=True, rng=rng)
            ag.backward(ag.mul(mix, out).sum())
        return out.values, [t.grad.copy() for t in tensors], rng.bit_generator.state

    fused, fused_grads, fused_rng = run(encode_batch)
    ref, ref_grads, ref_rng = run(unfused.encode_batch)
    clear_grads(tensors)
    assert np.max(np.abs(fused - ref)) < 1e-12
    assert fused_rng == ref_rng  # same dropout draws, in the same order
    for f, r in zip(fused_grads, ref_grads):
        assert np.max(np.abs(f - r)) <= 1e-12 * max(1.0, np.max(np.abs(r)))


def test_padding_invariance(params):
    tokens = [1, 5, 7, 9, 2]
    base = encode(params, tokens)
    padded = encode(params, tokens + [0, 0, 0])
    assert np.array_equal(base, padded)


def test_swapping_identical_tokens_is_identity(params):
    tokens = [1, 5, 7, 5, 2]
    swapped = [1, 5, 7, 5, 2]  # positions 1 and 3 hold the same token
    swapped[1], swapped[3] = swapped[3], swapped[1]
    assert np.array_equal(encode(params, tokens), encode(params, swapped))
    different = [1, 7, 5, 5, 2]  # genuinely different content must matter
    assert not np.array_equal(encode(params, tokens), encode(params, different))


def test_train_mode_needs_rng_and_uses_dropout(params):
    tokens = [1, 5, 7, 2]
    with pytest.raises(ContractError):
        encode(params, tokens, train=True)
    a = encode(params, tokens, train=True, rng=np.random.default_rng(1))
    b = encode(params, tokens, train=True, rng=np.random.default_rng(1))
    c = encode(params, tokens, train=True, rng=np.random.default_rng(2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_pooler_zero_params_give_zero(params):
    params.tensors["pooler.dense.weight"] = Tensor(np.zeros((8, 8)), requires_grad=True)
    params.tensors["pooler.dense.bias"] = Tensor(np.zeros(8), requires_grad=True)
    out = pooler(Tensor(np.random.default_rng(0).normal(size=8)), params)
    assert np.array_equal(out.values, np.zeros(8))


def test_pooler_outputs_bounded(params):
    # at magnitude 1e3 float64 tanh saturates to exactly +-1.0, so the bound
    # is closed there; strictly inside (-1, 1) holds at moderate magnitudes
    big = Tensor(np.random.default_rng(3).normal(size=(5, 8)) * 1e3)
    out = pooler(big, params).values
    assert np.all(np.isfinite(out)) and np.all(out >= -1.0) and np.all(out <= 1.0)
    moderate = Tensor(np.random.default_rng(4).normal(size=(5, 8)))
    out = pooler(moderate, params).values
    assert np.all(out > -1.0) and np.all(out < 1.0)


def test_pooler_gradient(params):
    rng = np.random.default_rng(4)
    h = Tensor(rng.normal(size=8), requires_grad=True)
    w = params["pooler.dense.weight"]
    b = params["pooler.dense.bias"]
    mix = ag.constant(rng.normal(size=8))
    err = check_gradients(lambda: ag.mul(mix, pooler(h, params)).sum(), [h, w, b])
    assert err < 1e-5


def test_encoder_gradcheck_small(params):
    ids = np.array([[1, 5, 7, 2], [1, 9, 2, 0]])
    tensors = list(params.tensors.values())
    mix = ag.constant(np.random.default_rng(5).normal(size=(2, 8)))

    def loss():
        return ag.mul(mix, encode_batch(params, ids)).sum()

    assert check_gradients(loss, tensors) < 1e-4


def test_checkpoint_round_trip_bit_exact(tmp_path, params):
    meta = {"subtask": 1, "note": "round trip", "schedule": {"snapshot_step": 7}}
    path = tmp_path / "ckpt.npz"
    arrays = {name: t.values for name, t in params.tensors.items()}
    save_checkpoint(path, params.config, arrays, meta)
    config2, arrays2, meta2 = load_checkpoint(path)
    assert config2 == params.config
    assert meta2 == meta
    assert list(arrays2) == list(arrays)
    for name, a in arrays.items():
        assert a.tobytes() == arrays2[name].tobytes()
    assert meta2["schedule"]["snapshot_step"] == 7


def test_checkpoint_bytes_deterministic(tmp_path, params):
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    arrays = {name: t.values for name, t in params.tensors.items()}
    save_checkpoint(p1, params.config, arrays, {"k": 1})
    save_checkpoint(p2, params.config, arrays, {"k": 1})
    assert p1.read_bytes() == p2.read_bytes()
