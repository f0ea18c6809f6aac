import math

import numpy as np
import pytest

from pcldetect import autograd as ag
from pcldetect.autograd import Tape, Tensor, backward
from pcldetect.data import NUM_CATEGORIES
from pcldetect.encoder import init_arrays
from pcldetect.errors import ContractError, NumericsError
from pcldetect.heads import (
    bce_loss,
    binary_forward,
    binary_loss,
    multilabel_forward,
    predict_binary,
    predict_multilabel,
)

from gradcheck import check_gradients


def head_shapes(d, width):
    return {"classifier.weight": (width, d), "classifier.bias": (width,)}


def fresh_head(d, width, rng):
    """A classifier table as a model holds it, drawn by the model's init rule."""
    return {name: Tensor(a, requires_grad=True)
            for name, a in init_arrays(head_shapes(d, width), rng).items()}


def zero_head(width, d=8):
    return {name: Tensor(np.zeros(shape), requires_grad=True)
            for name, shape in head_shapes(d, width).items()}


def loss_and_grad(loss_fn, z, golds):
    z = Tensor(np.asarray(z, dtype=np.float64), requires_grad=True)
    with Tape():
        loss = loss_fn(z, golds)
        backward(loss)
    return loss.item(), z.grad


def test_head_init_keeps_the_stored_layout_and_draws():
    for width in (2, NUM_CATEGORIES):
        head = init_arrays(head_shapes(8, width), np.random.default_rng(0))
        expected = np.random.default_rng(0).normal(0.0, 0.02, size=(width, 8))
        assert np.array_equal(head["classifier.weight"], expected)
        assert np.array_equal(head["classifier.bias"], np.zeros(width))


def test_binary_forward_zero_params():
    out = binary_forward(Tensor(np.random.default_rng(0).normal(size=8)), zero_head(2))
    assert np.array_equal(out.values, [0.0, 0.0])


def test_binary_forward_analytic_logits():
    head = zero_head(2, d=1)
    head["classifier.bias"] = Tensor(np.array([0.0, math.log(3.0)]), requires_grad=True)
    out = binary_forward(Tensor(np.zeros(1)), head)
    assert np.array_equal(out.values, [0.0, math.log(3.0)])
    # the implied probability of the positive class is 3 / (1 + 3)
    assert abs(math.exp(-binary_loss(ag.reshape(out, (1, 2)), [1]).item()) - 0.75) < 1e-15


def test_binary_forward_sums_to_one():
    # the class probabilities implied by the loss sum to one for every row
    rng = np.random.default_rng(1)
    head = fresh_head(8, 2, rng)
    z = binary_forward(Tensor(rng.normal(size=(100, 8)) * 5), head).values
    for row in z:
        p0, p1 = (math.exp(-binary_loss(Tensor(row[None]), [c]).item()) for c in (0, 1))
        assert abs(p0 + p1 - 1.0) < 1e-12 and p0 > 0 and p1 > 0


def test_binary_argmax_invariant_to_logit_shift():
    rng = np.random.default_rng(2)
    head = fresh_head(4, 2, rng)
    h = Tensor(rng.normal(size=(20, 4)))
    base = predict_binary(binary_forward(h, head))
    shifted = {**head, "classifier.bias": ag.add(head["classifier.bias"],
                                                 ag.constant(np.full(2, 3.7)))}
    assert np.array_equal(base, predict_binary(binary_forward(h, shifted)))


def test_binary_loss_perfect_predictions_near_zero():
    z = Tensor(np.array([[-40.0, 40.0], [40.0, -40.0]]))
    assert binary_loss(z, [1, 0]).item() < 1e-10


def test_binary_loss_coin_flip_is_ln2():
    z = Tensor(np.zeros((4, 2)))
    assert abs(binary_loss(z, [0, 1, 1, 0]).item() - math.log(2.0)) < 1e-12


def test_binary_loss_two_sample_oracle():
    # logits giving p1 = 0.9 and p0 = 0.8: -(ln 0.9 + ln 0.8) / 2
    z = Tensor(np.array([[0.0, math.log(9.0)], [math.log(4.0), 0.0]]))
    assert abs(binary_loss(z, [1, 0]).item() - 0.164252) < 1e-6


def test_binary_loss_rejects_empty_batch():
    with pytest.raises(ContractError):
        binary_loss(Tensor(np.zeros((0, 2))), [])


@pytest.mark.parametrize("golds", [[1, 2], [-1, 0]])
def test_binary_loss_rejects_golds_other_than_0_or_1(golds):
    with pytest.raises(ContractError, match="0/1 golds"):
        binary_loss(Tensor(np.zeros((2, 2))), golds)


def test_multilabel_forward_zero_params():
    out = multilabel_forward(Tensor(np.random.default_rng(3).normal(size=8)),
                             zero_head(NUM_CATEGORIES))
    assert np.array_equal(out.values, np.zeros(NUM_CATEGORIES))


def test_multilabel_threshold_gives_bits():
    rng = np.random.default_rng(4)
    head = fresh_head(8, NUM_CATEGORIES, rng)
    z = multilabel_forward(Tensor(rng.normal(size=(5, 8))), head)
    bits = predict_multilabel(z)
    assert bits.shape == (5, 7)
    assert set(np.unique(bits)) <= {0, 1}
    assert np.array_equal(bits, (ag.sigmoid(z).values >= 0.5).astype(int))
    assert np.array_equal(predict_multilabel(Tensor([-1e-300, 0.0, 1e-300])), [0, 1, 1])


def test_multilabel_bias_monotonicity():
    rng = np.random.default_rng(5)
    head = fresh_head(8, NUM_CATEGORIES, rng)
    h = Tensor(rng.normal(size=8))
    base = multilabel_forward(h, head).values
    bumped_bias = head["classifier.bias"].values.copy()
    bumped_bias[3] += 0.5
    bumped = multilabel_forward(h, {**head, "classifier.bias": Tensor(bumped_bias)}).values
    assert bumped[3] > base[3]
    keep = np.arange(7) != 3
    assert np.array_equal(bumped[keep], base[keep])


def test_bce_loss_perfect_confident_predictions():
    golds = np.array([[1, 0, 1, 0, 0, 1, 0], [0, 1, 0, 0, 1, 0, 1]])
    z = Tensor(np.where(golds == 1, 40.0, -40.0))
    assert bce_loss(z, golds).item() < 1e-10


def test_bce_loss_all_half_is_seven_ln2():
    golds = np.array([[1, 0, 0, 1, 0, 1, 0]])
    assert abs(bce_loss(Tensor(np.zeros((1, 7))), golds).item() - 7 * math.log(2.0)) < 1e-12


def test_bce_loss_two_sample_oracle():
    # direct evaluation of the sum-over-classes, mean-over-batch definition
    # at the logits of p = 0.8, 0.3, 0.6, 0.9:
    # 0.5 * [(-ln 0.8 - ln 0.7) + (-ln 0.4 - ln 0.9)] = 0.800735
    z = Tensor(np.log(np.array([[0.8 / 0.2, 0.3 / 0.7], [0.6 / 0.4, 0.9 / 0.1]])))
    golds = [[1, 0], [0, 1]]
    expected = 0.5 * ((-math.log(0.8) - math.log(0.7)) + (-math.log(0.4) - math.log(0.9)))
    assert abs(expected - 0.800735) < 1e-6
    assert abs(bce_loss(z, golds).item() - expected) < 1e-12


def test_bce_loss_rejects_wrong_width():
    with pytest.raises(ContractError):
        bce_loss(Tensor(np.zeros((2, 7))), [[1, 0], [0, 1]])


def test_losses_nonnegative_and_zero_iff_match():
    rng = np.random.default_rng(6)
    for _ in range(20):
        z = rng.uniform(-3.0, 3.0, size=(3, 2))
        golds = rng.integers(0, 2, size=3)
        assert binary_loss(Tensor(z), golds).item() > 0.0
        bits = rng.integers(0, 2, size=(3, 7))
        assert bce_loss(Tensor(rng.uniform(-3.0, 3.0, size=(3, 7))), bits).item() > 0.0
        # saturated logits that agree with the golds cost (almost) nothing
        onehot = np.eye(2)[golds]
        assert binary_loss(Tensor(80.0 * onehot - 40.0), golds).item() < 1e-10
        assert bce_loss(Tensor(80.0 * bits - 40.0), bits).item() < 1e-10


def test_saturated_wrong_binary_prediction_keeps_its_gradient():
    loss, grad = loss_and_grad(binary_loss, [[20.0, -20.0]], [1])
    assert loss == 40.0
    assert np.array_equal(grad, [[1.0, -1.0]])
    loss, grad = loss_and_grad(binary_loss, [[20.0, -20.0], [0.0, 0.0]], [1, 0])
    assert np.allclose(grad[0], [0.5, -0.5], rtol=0, atol=1e-15)


def test_saturated_wrong_multilabel_prediction_keeps_its_gradient():
    loss, grad = loss_and_grad(bce_loss, np.full((1, 7), -40.0), np.ones((1, 7)))
    assert loss == 280.0
    assert np.array_equal(grad, np.full((1, 7), -1.0))
    _, grad = loss_and_grad(bce_loss, np.full((2, 7), -40.0), np.ones((2, 7)))
    assert np.array_equal(grad, np.full((2, 7), -0.5))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_losses_are_finite_with_nonzero_gradients_at_saturation(sign):
    z = sign * np.array([[40.0, -40.0], [-40.0, 40.0]])
    for golds in ([0, 1], [1, 0], [1, 1]):
        loss, grad = loss_and_grad(binary_loss, z, golds)
        wrong = predict_binary(Tensor(z)) != golds
        assert math.isfinite(loss) and np.all(np.isfinite(grad))
        assert np.all(grad[wrong] != 0.0)
    zm = sign * np.tile([40.0, -40.0, 40.0, -40.0, 40.0, -40.0, 40.0], (2, 1))
    for bits in (np.ones((2, 7)), np.zeros((2, 7)), np.eye(2, 7)):
        loss, grad = loss_and_grad(bce_loss, zm, bits)
        wrong = predict_multilabel(Tensor(zm)) != bits
        assert math.isfinite(loss) and np.all(np.isfinite(grad))
        assert wrong.any() and np.all(grad[wrong] != 0.0)


def test_cross_entropy_node_gradient():
    rng = np.random.default_rng(10)
    z = Tensor(rng.normal(scale=3.0, size=(5, 3)), requires_grad=True)
    assert check_gradients(lambda: ag.cross_entropy(z, [0, 2, 1, 1, 0]), [z]) < 1e-6


def test_bce_with_logits_node_gradient():
    rng = np.random.default_rng(11)
    z = Tensor(rng.normal(scale=3.0, size=(4, 7)), requires_grad=True)
    y = rng.integers(0, 2, size=(4, 7))
    assert check_gradients(lambda: ag.bce_with_logits(z, y), [z]) < 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_losses_and_predictions_reject_non_finite_logits(bad):
    z = np.zeros((2, 2))
    z[1, 0] = bad
    with pytest.raises(NumericsError, match="cross_entropy"):
        binary_loss(Tensor(z), [0, 1])
    with pytest.raises(NumericsError, match="predict_binary"):
        predict_binary(Tensor(z))
    zm = np.zeros((2, 7))
    zm[0, 3] = bad
    with pytest.raises(NumericsError, match="bce_with_logits"):
        bce_loss(Tensor(zm), np.zeros((2, 7)))
    with pytest.raises(NumericsError, match="predict_multilabel"):
        predict_multilabel(Tensor(zm))


def test_binary_loss_gradient_through_head():
    rng = np.random.default_rng(7)
    head = fresh_head(6, 2, rng)
    h = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    golds = [1, 0, 1]

    def loss():
        return binary_loss(binary_forward(h, head), golds)

    assert check_gradients(loss, [h, *head.values()]) < 1e-5


def test_bce_loss_gradient_through_head():
    rng = np.random.default_rng(8)
    head = fresh_head(6, NUM_CATEGORIES, rng)
    h = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    golds = rng.integers(0, 2, size=(3, 7))

    def loss():
        return bce_loss(multilabel_forward(h, head), golds)

    assert check_gradients(loss, [h, *head.values()]) < 1e-5
