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


def test_matmul_batched_gradients_and_vector_operand_refused():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 5, 4)), requires_grad=True)
    err = check_gradients(lambda: ag.matmul(a, b).sum(), [a, b])
    assert err < 1e-6
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    u, v = Tensor(rng.normal(size=(3,))), Tensor(rng.normal(size=(4,)))
    for x, y in ((w, v), (u, w), (v, v), (Tensor(2.0), w)):
        with pytest.raises(ShapeError, match="at least 2-d operands"):
            ag.matmul(x, y)


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


def _values_and_grads(node, tensors, mix):
    with Tape():
        out = node(*tensors)
        backward(ag.mul(mix, out).sum())  # each node receives `mix` as its gradient
    return [out.values.tobytes()] + [t.grad.tobytes() for t in tensors]


def test_gelu_and_layer_norm_equal_their_plain_formulas_bit_for_bit():
    # the nodes compute in place; these are the expressions they must reproduce
    rng = np.random.default_rng(23)
    v, g = rng.normal(size=(2, 7, 16)) * 2.0, rng.normal(size=(2, 7, 16))
    gain, bias = rng.normal(size=16), rng.normal(size=16)
    c = np.sqrt(2.0 / np.pi)
    h = 0.5 * (1.0 + np.tanh(c * (v + 0.044715 * v * v * v)))
    dv = g * (h + 2.0 * c * v * h * (1.0 - h) * (1.0 + 3 * 0.044715 * v * v))
    x = Tensor(v, requires_grad=True)
    assert _values_and_grads(ag.gelu, [x], constant(g)) == [(v * h).tobytes(), dv.tobytes()]
    scalar = Tensor(v[0, 0, 0], requires_grad=True)
    assert _values_and_grads(ag.gelu, [scalar], constant(g[0, 0, 0])) == [
        (v * h)[0, 0, 0].tobytes(), dv[0, 0, 0].tobytes()]

    centered = v - v.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-12)
    xhat = centered * inv_std
    dxhat = g * gain
    dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    tensors = [Tensor(a, requires_grad=True) for a in (v, gain, bias)]
    want = [gain * xhat + bias, dx, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))]
    assert _values_and_grads(ag.layer_norm, tensors, constant(g)) == [a.tobytes() for a in want]


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


def test_float32_stays_float32_and_a_tape_refuses_it():
    rng = np.random.default_rng(8)
    x32 = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    w32 = Tensor(rng.normal(size=(4, 2)).astype(np.float32))
    b32 = Tensor(np.zeros(2, dtype=np.float32))
    assert x32.values.dtype == np.float32
    assert Tensor([1, 2]).values.dtype == Tensor(np.ones(2, np.float16)).values.dtype == np.float64
    assert ag.tanh(ag.linear(x32, w32, b32)).values.dtype == np.float32  # no tape: allowed
    w64 = Tensor(w32.values.astype(np.float64), requires_grad=True)
    with Tape():
        ag.linear(Tensor(x32.values.astype(np.float64)), w64, Tensor(np.zeros(2)))
        for args in ((x32, w64, Tensor(np.zeros(2))),  # a float32 operand beside a float64 one
                     (x32, Tensor(w32.values, requires_grad=True), b32)):  # float32 throughout
            with pytest.raises(ContractError, match="float64"):
                ag.linear(*args)
        assert ag.linear(x32, w32, b32).values.dtype == np.float32  # nothing tracked: not recorded


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


def _chain(rng):
    """loss = sum(tanh(x) * w * x): x is read by two nodes, w by one, z by none."""
    x, w, z = (Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(3))
    h = ag.tanh(x)  # node 0
    y = ag.mul(ag.mul(h, w), x)  # nodes 1 and 2
    return x, w, z, h, ag.reduce_sum(y)  # node 3


def test_backward_callbacks_fire_once_each_after_the_last_node_that_reads_their_set():
    events = []

    def seen(name, *tensors):
        # which gradients exist when the callback fires
        return lambda: events.append((name, [t.grad is not None for t in tensors]))

    with Tape():
        x, w, z, h, loss = _chain(np.random.default_rng(0))
        backward(loss, ([z], seen("z", h, w, x)), ([w], seen("w", h, w, x)),
                 ([x], seen("x", h, w, x)), ([w, x], seen("w+x", h, w, x)))
    assert events == [
        ("z", [False, False, False]),  # no node reads z: before the first one is replayed
        ("w", [True, True, True]),  # after node 1; node 2 already gave x a gradient
        ("x", [True, True, True]),  # after node 0, the first node that reads x
        ("w+x", [True, True, True]),
    ]


def test_a_backward_callback_sees_every_contribution_to_a_tensor_read_twice():
    seen = {}
    with Tape():
        x, w, _, _, loss = _chain(np.random.default_rng(1))
        backward(loss, ([x], lambda: seen.setdefault("x", x.grad.copy())))
    t = np.tanh(x.values)
    assert np.array_equal(seen["x"], x.grad)
    assert np.allclose(x.grad, (1.0 - t**2) * w.values * x.values + t * w.values)


def test_backward_callbacks_add_no_node_and_change_no_gradient():
    runs = []
    for with_callbacks in (False, True):
        with Tape() as tape:
            x, w, z, _, loss = _chain(np.random.default_rng(2))
            hooks = [([t], lambda: None) for t in (x, w, z)] if with_callbacks else []
            backward(loss, *hooks)
        runs.append((len(tape), x.grad.tobytes(), w.grad.tobytes()))
    assert runs[0] == runs[1] and runs[0][0] == 4


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


def _residual_case(seed=21):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
    gain = Tensor(rng.normal(size=6) + 1.0, requires_grad=True)
    bias = Tensor(rng.normal(size=6), requires_grad=True)
    return x, y, gain, bias, constant(rng.normal(size=(2, 5, 6)))


def _residual_norm_chain(x, y, gain, bias, rate, train, rng, draw_shape=None):
    return ag.layer_norm(ag.add(x, ag.dropout(y, rate, train, rng, draw_shape)), gain, bias)


@pytest.mark.parametrize("rows", [5, 1], ids=["all-rows", "last-layer"])
@pytest.mark.parametrize("rate", [0.0, 0.4])
@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
def test_residual_norm_equals_the_unfused_chain_bit_for_bit(train, rate, rows):
    # rows < 5 is the last layer: one query row of x, with the dropout mask
    # drawn at full size and cut to its leading corner
    def run(node):
        x, y, gain, bias, mix = _residual_case()
        rng = np.random.default_rng(5)
        with Tape():
            xr = ag.select(x, slice(0, rows), axis=1)
            yr = ag.select(y, slice(0, rows), axis=1)
            out = node(xr, yr, gain, bias, rate, train, rng, draw_shape=(2, 5, 6))
            backward(ag.mul(ag.select(mix, slice(0, rows), axis=1), out).sum())
        return [out.values.tobytes()] + [t.grad.tobytes() for t in (x, y, gain, bias)], \
            rng.bit_generator.state

    fused, fused_rng = run(ag.residual_norm)
    chain, chain_rng = run(_residual_norm_chain)
    assert fused == chain
    assert fused_rng == chain_rng


def test_residual_norm_gradcheck_with_dropout():
    x, y, gain, bias, mix = _residual_case()

    def loss():
        out = ag.residual_norm(x, y, gain, bias, 0.4, True, np.random.default_rng(5))
        return ag.mul(mix, out).sum()

    assert check_gradients(loss, [x, y, gain, bias]) < 1e-5
    with pytest.raises(ShapeError):
        ag.residual_norm(x, ag.select(y, slice(0, 1), axis=1), gain, bias, 0.0, False)


def _feed_forward_case(rows):
    rng = np.random.default_rng(22)
    x = Tensor(rng.normal(size=(2, rows, 6)), requires_grad=True)
    w_in, w_out = (Tensor(rng.normal(size=s) * 0.5, requires_grad=True)
                   for s in ((6, 8), (8, 6)))
    b_in, b_out = (Tensor(rng.normal(size=n), requires_grad=True) for n in (8, 6))
    return [x, w_in, b_in, w_out, b_out], constant(rng.normal(size=(2, rows, 6)))


@pytest.mark.parametrize("rows", [5, 1], ids=["all-rows", "last-layer"])
def test_feed_forward_equals_the_unfused_chain_bit_for_bit(rows):
    def run(node):
        tensors, mix = _feed_forward_case(rows)
        with Tape():
            out = node(*tensors)
            backward(ag.mul(mix, out).sum())
        return [out.values.tobytes()] + [t.grad.tobytes() for t in tensors]

    def chain(x, w_in, b_in, w_out, b_out):
        return ag.linear(ag.gelu(ag.linear(x, w_in, b_in)), w_out, b_out)

    assert run(ag.feed_forward) == run(chain)


def test_feed_forward_gradcheck():
    tensors, mix = _feed_forward_case(3)
    assert check_gradients(lambda: ag.mul(mix, ag.feed_forward(*tensors)).sum(), tensors) < 1e-6
    x, w_in, b_in, w_out, b_out = tensors
    with pytest.raises(ShapeError):
        ag.feed_forward(x, w_in, b_in, w_in, b_out)


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


def _shared_use(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    return {"a": a, "x": x, "aa": ag.mul(a, a), "xx": ag.add(x, x)}, ("aa", "xx")


def _shared_g(rng):
    p = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    q = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    return {"p": p, "q": q, "pq": ag.add(p, q)}, ("pq",)


def _views(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    h = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)  # reached through `linear` only
    r = ag.reshape(x, (6, 4))
    t = ag.transpose(r, (1, 0))
    hv = ag.reshape(ag.transpose(ag.linear(h, w, b), (1, 0, 2)), (3, 10))
    return {"x": x, "w": w, "b": b, "h": h, "r": r, "t": t, "hv": hv}, ("t", "hv")


def _fused(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    gain = Tensor(rng.normal(size=4), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    w_in, w_out = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((4, 6), (6, 4)))
    b_in, b_out = (Tensor(rng.normal(size=n), requires_grad=True) for n in (6, 4))
    n = ag.residual_norm(x, y, gain, bias, 0.0, False)  # hands one array to x and y
    return {"x": x, "y": y, "gain": gain, "bias": bias, "n": n,
            "ff": ag.feed_forward(n, w_in, b_in, w_out, b_out)}, ("ff",)


@pytest.mark.parametrize("build", [_shared_use, _shared_g, _views, _fused],
                         ids=["used-twice", "add-shared-g", "views", "fused"])
def test_adopted_gradients_never_alias_and_equal_accumulation_into_zeros(build):
    def run(zeroed):
        rng = np.random.default_rng(3)
        with Tape():
            tensors, out_names = build(rng)
            outs = [tensors[name] for name in out_names]
            mixes = [constant(rng.normal(size=t.shape)) for t in outs]
            loss = ag.mul(mixes[0], outs[0]).sum()
            for mix, out in zip(mixes[1:], outs[1:]):
                loss = ag.add(loss, ag.mul(mix, out).sum())
            if zeroed:  # every tensor accumulates into zeros, as before adoption
                for t in tensors.values():
                    t.grad = np.zeros(t.shape)
            backward(loss)
        return tensors

    adopted, reference = run(zeroed=False), run(zeroed=True)
    for name, t in adopted.items():
        assert t.grad is not None, name  # intermediates keep their gradients
        assert t.grad.tobytes() == reference[name].grad.tobytes(), name
    named = list(adopted.items())
    for i, (name, t) in enumerate(named):
        for other, u in named[i + 1:]:
            assert not np.shares_memory(t.grad, u.grad), (name, other)
        assert not np.shares_memory(t.grad, t.values), name


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
