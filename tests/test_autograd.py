import gc
import weakref

import mpmath
import numpy as np
import pytest

from pcldetect import autograd as ag
from pcldetect.autograd import Tape, Tensor, backward, constant
from pcldetect.errors import (
    ContractError,
    GatherError,
    NumericsError,
    ShapeError,
    TapeReuseError,
)

from gradcheck import check_gradients


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(ag.matmul(a, b).values, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_row_times_column():
    out = ag.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.values, [[11.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    err = check_gradients(lambda: ag.matmul(a, b).sum(), [a, b])
    assert err < 1e-6


def test_matmul_batched_and_vector_gradients():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 5, 4)), requires_grad=True)
    err = check_gradients(lambda: ag.matmul(a, b).sum(), [a, b])
    assert err < 1e-6
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    v = Tensor(rng.normal(size=(4,)), requires_grad=True)
    err = check_gradients(lambda: ag.matmul(w, v).sum(), [w, v])
    assert err < 1e-6


def test_softmax_symmetry():
    out = ag.softmax(Tensor([0.0, 0.0]))
    assert np.allclose(out.values, [0.5, 0.5], atol=0, rtol=0)


def test_softmax_survives_large_inputs():
    out = ag.softmax(Tensor([1000.0, 1000.0, 1000.0]))
    assert np.all(np.isfinite(out.values))
    assert np.allclose(out.values, [1 / 3] * 3, atol=1e-15)


def test_softmax_matches_extended_precision():
    xs = [1.0, 2.0, 3.0]
    with mpmath.workdps(50):
        exps = [mpmath.exp(x - max(xs)) for x in xs]
        total = sum(exps)
        expected = np.array([float(e / total) for e in exps])
    out = ag.softmax(Tensor(xs))
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_softmax_slices_sum_to_one():
    rng = np.random.default_rng(7)
    out = ag.softmax(Tensor(rng.normal(size=(5, 4, 9)) * 10))
    assert np.max(np.abs(out.values.sum(axis=-1) - 1.0)) < 1e-12


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericsError):
        ag.softmax(Tensor([1.0, np.inf]))


def test_sigmoid_basics():
    assert ag.sigmoid(Tensor(0.0)).item() == 0.5
    tiny = ag.sigmoid(Tensor(-710.0)).item()
    assert 0.0 < tiny <= 1e-300  # subnormal, not flushed to zero; the loss path clamps it
    x = np.linspace(-30, 30, 13)
    s = ag.sigmoid(Tensor(x)).values + ag.sigmoid(Tensor(-x)).values
    assert np.max(np.abs(s - 1.0)) < 1e-12


def test_tanh_and_gelu_gradients():
    # uniform(-3, 3): far-tail points push gelu's gradient below the
    # finite-difference roundoff floor and the check stops being informative
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-3.0, 3.0, size=16), requires_grad=True)
    assert check_gradients(lambda: ag.gelu(x).sum(), [x]) < 1e-6
    assert check_gradients(lambda: ag.tanh(x).sum(), [x]) < 1e-6
    assert check_gradients(lambda: ag.sigmoid(x).sum(), [x]) < 1e-6


def test_gelu_values_are_the_tanh_form_near_the_erf_form():
    xs = np.linspace(-8.0, 8.0, 641)
    out = ag.gelu(Tensor(xs)).values
    with mpmath.workdps(50):
        c = mpmath.sqrt(2 / mpmath.pi)
        a, points = mpmath.mpf("0.044715"), [mpmath.mpf(x) for x in xs]
        tanh_form = np.array([float(x * (1 + mpmath.tanh(c * (x + a * x**3))) / 2) for x in points])
        erf_form = np.array([float(x * (1 + mpmath.erf(x / mpmath.sqrt(2))) / 2) for x in points])
    assert np.max(np.abs(out - tanh_form)) < 1e-14
    assert np.max(np.abs(out - erf_form)) < 5e-4


def test_layer_norm_moments():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(6, 32)) * 3 + 1)
    gain = Tensor(np.ones(32))
    bias = Tensor(np.zeros(32))
    out = ag.layer_norm(x, gain, bias).values
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-6


def test_layer_norm_gradients():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    gain = Tensor(rng.normal(size=8), requires_grad=True)
    bias = Tensor(rng.normal(size=8), requires_grad=True)
    weights = constant(rng.normal(size=(3, 8)))  # break symmetry of plain sums
    err = check_gradients(
        lambda: ag.mul(weights, ag.layer_norm(x, gain, bias)).sum(), [x, gain, bias]
    )
    assert err < 1e-5


def test_dropout_eval_is_identity():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    assert ag.dropout(x, 0.4, train=False) is x


def test_dropout_train_masks_and_rescales():
    rng = np.random.default_rng(11)
    x = Tensor(np.ones((200, 50)))
    out = ag.dropout(x, 0.4, train=True, rng=rng).values
    kept = out != 0.0
    assert np.allclose(out[kept], 1.0 / 0.6)
    assert abs(kept.mean() - 0.6) < 0.02


def test_dropout_rejects_bad_rate():
    with pytest.raises(ContractError):
        ag.dropout(Tensor([1.0]), 1.0, train=True, rng=np.random.default_rng(0))


def test_dropout_gradient_with_fixed_mask():
    x = Tensor(np.random.default_rng(2).normal(size=(4, 6)), requires_grad=True)
    err = check_gradients(
        lambda: ag.dropout(x, 0.4, train=True, rng=np.random.default_rng(99)).sum(), [x]
    )
    assert err < 1e-6


def test_embedding_gather_and_out_of_range():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = ag.embedding_gather(table, [1, 3, 1])
    assert np.array_equal(out.values, table.values[[1, 3, 1]])
    with pytest.raises(GatherError):
        ag.embedding_gather(table, [0, 4])
    with Tape():
        backward(ag.embedding_gather(table, [1, 3, 1]).sum())
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


def test_backward_sum_gives_ones():
    w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape():
        backward(w.sum())
    assert np.array_equal(w.grad, np.ones(3))


def test_backward_sum_of_squares():
    w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape():
        backward(ag.mul(w, w).sum())
    assert np.array_equal(w.grad, [2.0, -4.0, 6.0])


def test_backward_rejects_non_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        doubled = ag.scale(w, 2.0)
        with pytest.raises(ContractError):
            backward(doubled)


def test_backward_requires_a_tape():
    w = Tensor([1.0], requires_grad=True)
    loss = w.sum()  # no tape active
    with pytest.raises(ContractError):
        backward(loss)


def test_tape_consumed_once():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        loss = ag.mul(w, w).sum()
        backward(loss)
        with pytest.raises(TapeReuseError):
            backward(loss)


def test_backward_frees_the_tape():
    # outputs point back at their tape; backward must break that cycle so
    # the step's intermediates die without the cyclic collector
    w = Tensor(np.random.default_rng(3).normal(size=(3, 4)), requires_grad=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with Tape() as tape:
            hidden = ag.tanh(w)
            probe = weakref.ref(hidden.values)
            loss = ag.mul(hidden, hidden).sum()
            del hidden
            backward(loss)
        assert probe() is None
        assert len(tape) == 3  # still counts what was recorded
        with pytest.raises(TapeReuseError):
            backward(loss)
    finally:
        if was_enabled:
            gc.enable()
    assert np.allclose(w.grad, 2.0 * np.tanh(w.values) * (1.0 - np.tanh(w.values) ** 2))


def test_select_slice_keeps_axis_and_gradient():
    x = Tensor(np.random.default_rng(4).normal(size=(2, 5, 3)), requires_grad=True)
    kept = ag.select(x, slice(0, 2), axis=1)
    assert kept.shape == (2, 2, 3)
    assert np.array_equal(kept.values, x.values[:, :2])
    mix = constant(np.random.default_rng(5).normal(size=(2, 2, 3)))
    assert check_gradients(lambda: ag.mul(mix, ag.select(x, slice(0, 2), axis=1)).sum(), [x]) < 1e-6


@pytest.mark.parametrize("x_shape", [(3, 4, 5), (5,), (3, 1, 5)], ids=["batch", "vector", "one-row"])
def test_linear_matches_matmul_plus_bias_and_gradients(x_shape):
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=6), requires_grad=True)
    got, want = ag.linear(x, w, b).values, x.values @ w.values + b.values
    assert got.shape == want.shape
    if x_shape == (3, 4, 5):
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) < 1e-12
    mix = constant(rng.normal(size=x_shape[:-1] + (6,)))
    assert check_gradients(lambda: ag.mul(mix, ag.linear(x, w, b)).sum(), [x, w, b]) < 1e-6
    with pytest.raises(ShapeError):
        ag.linear(x, Tensor(np.zeros((4, 6))), b)
    with pytest.raises(ShapeError):
        ag.linear(x, w, Tensor(np.zeros(5)))


def _attention_case(n_queries):
    rng = np.random.default_rng(7)
    b, s, d = 2, 5, 6
    x = Tensor(rng.normal(size=(b, s, d)), requires_grad=True)
    weights = tuple(
        (Tensor(rng.normal(size=(d, d)) * 0.5, requires_grad=True),
         Tensor(rng.normal(size=d), requires_grad=True))
        for _ in range(4)
    )
    key_bias = np.zeros((b, s))
    key_bias[1, 3:] = -1e9  # second row has two padded keys
    mix = constant(rng.normal(size=(b, n_queries, d)))

    def loss():
        out = ag.self_attention(
            x, weights, key_bias, n_heads=2, rate=0.3, train=True,
            rng=np.random.default_rng(11), n_queries=n_queries,
        )
        return ag.mul(mix, out).sum()

    return loss, [x] + [t for pair in weights for t in pair]


@pytest.mark.parametrize("n_queries", [5, 1])
def test_self_attention_gradcheck_in_train_mode(n_queries):
    loss, tensors = _attention_case(n_queries)
    # the key bias cancels in the softmax, so its true gradient is 0 and the
    # floor holds it to absolute agreement (~1e-10 differencing noise here)
    assert check_gradients(loss, tensors, floor=1e-4) < 1e-5


def test_self_attention_refuses_non_finite_scores():
    x = Tensor(np.full((1, 3, 4), np.nan))
    weights = tuple((Tensor(np.eye(4)), Tensor(np.zeros(4))) for _ in range(4))
    with pytest.raises(NumericsError):
        ag.self_attention(x, weights, np.zeros((1, 3)), n_heads=2)


def test_dropout_draw_shape_keeps_the_leading_corner():
    x = Tensor(np.ones((2, 1, 3)))
    full = ag.dropout(Tensor(np.ones((2, 4, 3))), 0.5, True, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    part = ag.dropout(x, 0.5, True, rng, draw_shape=(2, 4, 3))
    assert np.array_equal(part.values, full.values[:, :1])
    # the stream advanced exactly as the full-size draw did
    reference = np.random.default_rng(8)
    reference.random((2, 4, 3))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_gradients_accumulate_across_shared_use():
    w = Tensor([2.0], requires_grad=True)
    with Tape():
        backward(ag.add(w.sum(), ag.mul(w, w).sum()))
    assert np.array_equal(w.grad, [5.0])  # 1 + 2w


def test_select_and_transpose_gradients():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    err = check_gradients(
        lambda: ag.select(ag.transpose(x, (1, 0, 2)), 2, axis=0).sum(), [x]
    )
    assert err < 1e-6


def test_forward_and_gradients_are_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        with Tape():
            out = ag.softmax(ag.matmul(ag.gelu(x), w))
            loss = ag.mul(out, out).sum()
            backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_tapes_are_confined_per_thread():
    import threading

    failures = []

    def work(seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.normal(size=64), requires_grad=True)
        try:
            for _ in range(200):
                with Tape():
                    backward(ag.mul(w, w).sum())
            if not np.allclose(w.grad, 2.0 * 200 * w.values):
                failures.append(f"seed {seed}: wrong accumulated gradient")
        except Exception as exc:  # cross-thread tape corruption shows up here
            failures.append(f"seed {seed}: {exc!r}")

    threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures, failures


def test_composition_gradcheck_random_pipeline():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    b1 = Tensor(rng.normal(size=8), requires_grad=True)
    gain = Tensor(rng.normal(size=8) + 1.0, requires_grad=True)
    bias = Tensor(rng.normal(size=8), requires_grad=True)
    w2 = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
    params = [x, w1, b1, gain, bias, w2]

    def loss():
        h = ag.gelu(ag.add(ag.matmul(x, w1), b1))
        h = ag.layer_norm(h, gain, bias)
        return ag.cross_entropy(ag.matmul(h, w2), [1, 0, 1, 1])

    assert check_gradients(loss, params) < 1e-4
