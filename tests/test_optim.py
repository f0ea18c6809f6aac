import math

import numpy as np
import pytest

from pcldetect.autograd import Tensor
from pcldetect.errors import ConfigError, ContractError
from pcldetect.optim import (
    AdamW,
    ParamGroup,
    ScheduleState,
    build_grouped_llrd,
    build_single_group,
    cosine_warmup_multiplier,
    decays,
    group_learning_rates,
    split_layers,
)
from pcldetect.trainer import RunConfig, build_groups, build_model

ETA = 1e-5


def fake_names(n_layers=6):
    names = ["embeddings.token", "embeddings.position",
             "embeddings.ln.gain", "embeddings.ln.bias"]
    for i in range(n_layers):
        names += [f"layer.{i}.attn.q.weight", f"layer.{i}.attn.q.bias",
                  f"layer.{i}.ff.in.weight", f"layer.{i}.ff.ln.gain"]
    names += ["pooler.dense.weight", "pooler.dense.bias",
              "classifier.weight", "classifier.bias"]
    return names


def encoder_group_lrs(groups):
    return [g.base_lr for g in groups if g.role != "head"]


def test_lambda_16_matches_published_listing():
    groups = build_grouped_llrd(fake_names(), G=3, eta=ETA, lam=1.6)
    lrs = encoder_group_lrs(groups)
    assert lrs == pytest.approx([6.25e-6, 1.0e-5, 1.6e-5], rel=1e-12)
    assert lrs[1] == ETA  # middle group anchored exactly
    head = groups[-1]
    assert head.role == "head"
    assert head.base_lr == pytest.approx(1.76e-5, rel=1e-12)


def test_lambda_36_matches_published_listing():
    lrs = encoder_group_lrs(build_grouped_llrd(fake_names(), G=3, eta=ETA, lam=3.6))
    assert lrs == pytest.approx([2.7778e-6, 1.0e-5, 3.6e-5], rel=1e-4)
    assert lrs[1] == ETA


@pytest.mark.parametrize("lam", [0.6, 1.6, 2.6, 3.6, 4.6, 5.6, 6.6])
def test_adjacent_ratio_exact(lam):
    # the decay relation must hold bit-exactly in at least one float form:
    # upper/lower == lam, or lower == upper/lam (the recurrence as published)
    for G in (2, 3, 4):
        lrs = group_learning_rates(G, ETA, lam)
        for lower, upper in zip(lrs, lrs[1:]):
            assert upper / lower == lam or lower == upper / lam


def test_lambda_one_disables_decay():
    lrs = encoder_group_lrs(build_grouped_llrd(fake_names(), G=3, eta=ETA, lam=1.0))
    assert lrs == [ETA, ETA, ETA]


def test_groups_partition_all_parameters():
    names = fake_names()
    groups = build_grouped_llrd(names, G=3, eta=ETA, lam=1.6)
    seen = [n for g in groups for n in g.names]
    assert sorted(seen) == sorted(names)
    assert len(seen) == len(set(seen))
    # embeddings ride with the bottom group, pooler+classifier with the head
    assert all(n in groups[0].names for n in names if n.startswith("embeddings."))
    assert set(groups[-1].names) == {
        "pooler.dense.weight", "pooler.dense.bias", "classifier.weight", "classifier.bias"
    }


def test_layer_split_contiguous_bottom_up_with_remainder_low():
    assert split_layers(6, 3) == [[0, 1], [2, 3], [4, 5]]
    assert split_layers(7, 3) == [[0, 1, 2], [3, 4], [5, 6]]
    assert split_layers(8, 3) == [[0, 1, 2], [3, 4, 5], [6, 7]]


def test_too_many_groups_rejected():
    with pytest.raises(ConfigError):
        build_grouped_llrd(fake_names(n_layers=2), G=3, eta=ETA, lam=1.6)
    with pytest.raises(ConfigError):
        group_learning_rates(0, ETA, 1.6)
    with pytest.raises(ConfigError):
        group_learning_rates(3, ETA, 0.0)


def test_unknown_parameter_name_rejected():
    with pytest.raises(ConfigError):
        build_grouped_llrd(["mystery.weight"], G=1, eta=ETA, lam=1.0)


def make_param(value, requires_grad=True):
    t = Tensor(np.asarray(value, dtype=float), requires_grad=requires_grad)
    return t


def test_adamw_zero_grad_zero_decay_keeps_params():
    p = make_param([1.5, -2.0])
    p.grad = np.zeros(2)
    opt = AdamW([ParamGroup(("classifier.weight",), 0.1, 0.0, "head")],
                {"classifier.weight": p})
    opt.step()
    assert np.array_equal(p.values, [1.5, -2.0])


def test_adamw_first_step_hand_case():
    # theta=1, g=1, lr=0.1, wd=0: bias-corrected first step moves by ~lr
    p = make_param([1.0])
    p.grad = np.ones(1)
    opt = AdamW([ParamGroup(("classifier.weight",), 0.1, 0.0, "head")],
                {"classifier.weight": p})
    opt.step()
    assert abs(p.values[0] - 0.9) < 1e-8


def test_adamw_displacement_ratio_equals_lambda():
    lam = 1.6
    pa = make_param(np.full(4, 0.5))
    pb = make_param(np.full(4, 0.5))
    pa.grad = np.full(4, 0.3)
    pb.grad = np.full(4, 0.3)
    groups = [
        ParamGroup(("layer.0.attn.q.weight",), ETA, 0.0, "embeddings+lower"),
        ParamGroup(("layer.1.attn.q.weight",), ETA * lam, 0.0, "upper"),
    ]
    opt = AdamW(groups, {"layer.0.attn.q.weight": pa, "layer.1.attn.q.weight": pb})
    opt.step()
    da = 0.5 - pa.values
    db = 0.5 - pb.values
    assert np.max(np.abs(db / da - lam)) < 1e-9


def test_adamw_weight_decay_skips_bias_and_gain():
    w = make_param([1.0])
    b = make_param([1.0])
    g = make_param([1.0])
    for p in (w, b, g):
        p.grad = np.zeros(1)
    params = {"layer.0.ff.in.weight": w, "layer.0.ff.in.bias": b, "layer.0.ff.ln.gain": g}
    opt = AdamW([ParamGroup(tuple(params), 0.5, 0.01, "embeddings+lower")], params)
    opt.step()
    assert w.values[0] == pytest.approx(1.0 - 0.5 * 0.01)
    assert b.values[0] == 1.0
    assert g.values[0] == 1.0


def test_adamw_missing_grad_raises():
    p = make_param([1.0])
    opt = AdamW([ParamGroup(("classifier.weight",), 0.1, 0.0, "head")],
                {"classifier.weight": p})
    with pytest.raises(ContractError):
        opt.step()


def _two_params_one_bad(bad_grad):
    w, b = make_param([1.0, 2.0, 3.0, 4.0]), make_param([0.5, -0.5])
    w.grad, b.grad = np.ones(4), bad_grad
    params = {"layer.0.ff.in.weight": w, "layer.0.ff.in.bias": b}
    opt = AdamW([ParamGroup(tuple(params), 0.1, 0.01, "embeddings+lower")], params)
    return opt, w, b


def test_adamw_missing_grad_names_the_parameter_and_updates_nothing():
    opt, w, b = _two_params_one_bad(None)
    with pytest.raises(ContractError, match="layer.0.ff.in.bias"):
        opt.step()
    assert opt.step_count == 0
    assert np.array_equal(w.values, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(b.values, [0.5, -0.5])


def test_adamw_refuses_a_gradient_of_another_shape():
    # the flat gather would take any array of the right size
    opt, w, b = _two_params_one_bad(np.ones((2, 1)))
    with pytest.raises(ContractError, match=r"layer.0.ff.in.bias.*\(2, 1\).*\(2,\)"):
        opt.step()
    assert opt.step_count == 0
    assert np.array_equal(w.values, [1.0, 2.0, 3.0, 4.0])


def test_adamw_group_partition_enforced():
    p = make_param([1.0])
    q = make_param([2.0])
    params = {"classifier.weight": p, "classifier.bias": q}
    with pytest.raises(ConfigError):
        AdamW([ParamGroup(("classifier.weight",), 0.1, 0.0, "head")], params)
    with pytest.raises(ConfigError):
        AdamW(
            [ParamGroup(("classifier.weight", "classifier.bias"), 0.1, 0.0, "head"),
             ParamGroup(("classifier.bias",), 0.1, 0.0, "head")],
            params,
        )


def test_adamw_state_round_trip():
    p = make_param([1.0, 2.0])
    opt = AdamW([ParamGroup(("classifier.weight",), 0.1, 0.0, "head")],
                {"classifier.weight": p})
    p.grad = np.array([0.1, -0.2])
    opt.step()
    state = opt.state_dict()
    p2 = make_param([1.0, 2.0])
    opt2 = AdamW([ParamGroup(("classifier.weight",), 0.1, 0.0, "head")],
                 {"classifier.weight": p2})
    opt2.load_state_dict(state)
    assert opt2.step_count == 1
    assert np.array_equal(opt2._m["classifier.weight"], opt._m["classifier.weight"])


class LoopAdamW:
    """The per-tensor AdamW loop the flat optimizer must reproduce bit for bit."""

    def __init__(self, groups, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.groups, self.params = groups, params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._m = {n: np.zeros(params[n].shape) for g in groups for n in g.names}
        self._v = {n: np.zeros(params[n].shape) for g in groups for n in g.names}

    def step(self, schedule_multiplier=1.0):
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for group in self.groups:
            lr = group.base_lr * schedule_multiplier
            for name in group.names:
                p = self.params[name]
                g = p.grad
                m = self._m[name]
                v = self._v[name]
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * (g * g)
                if group.weight_decay and decays(name):
                    p.values *= 1.0 - lr * group.weight_decay
                mhat = m / bc1
                vhat = v / bc2
                p.values -= lr * mhat / (np.sqrt(vhat) + self.eps)


S1_MODEL = dict(subtask=1, d_model=64, n_heads=4, n_layers=6, d_ff=256, max_len=64,
                eta=1e-3, lam=1.6, groups=3)
S1_VOCAB = 53  # 311,810 parameters, as in the benchmark's s1_fold model


def s1_model_params(seed=5, **overrides):
    config = RunConfig(**{**S1_MODEL, **overrides})
    named = build_model(config, S1_VOCAB, np.random.default_rng(seed)).named()
    return build_groups(config, named), named


def chunk_straddling_params(seed=5):
    # decayed first: 20000 + 12000 elements, so the decay boundary (32000)
    # falls inside the second 16384-element chunk of a 3-chunk group
    shapes = {"layer.0.ff.in.bias": (3000,), "layer.0.ff.in.weight": (100, 200),
              "layer.0.ff.ln.gain": (2000,), "layer.0.attn.q.weight": (120, 100)}
    rng = np.random.default_rng(seed)
    named = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
    groups = [ParamGroup(tuple(shapes), 3e-3, 0.05, "embeddings+lower")]
    assert 32000 % AdamW.CHUNK and sum(t.values.size for t in named.values()) > 2 * AdamW.CHUNK
    return groups, named


def zero_decay_params(seed=5):
    groups, named = s1_model_params(seed)
    return [ParamGroup(g.names, g.base_lr, 0.0, g.role) for g in groups], named


def s1_single_group_params(seed=5):
    return s1_model_params(seed, grouping="single")


def _fill_grads(rng, a, b):
    for name, t in a.items():
        grad = rng.normal(scale=0.1, size=t.shape[::-1]).T  # some grads not C-contiguous
        t.grad, b[name].grad = grad, grad.copy()


def _assert_same_bits(opt, ref):
    assert opt.step_count == ref.step_count
    for name, t in opt.params.items():
        assert t.values.tobytes() == ref.params[name].values.tobytes(), name
        assert opt._m[name].tobytes() == ref._m[name].tobytes(), name
        assert opt._v[name].tobytes() == ref._v[name].tobytes(), name


def _steps(opts, rng, first, last, total):
    for t in range(first, last):
        mult = cosine_warmup_multiplier(ScheduleState(t + 1, total, 0.1))
        _fill_grads(rng, opts[0].params, opts[1].params)
        for opt in opts:
            opt.step(mult)


@pytest.mark.parametrize("make", [s1_model_params, chunk_straddling_params,
                                  zero_decay_params, s1_single_group_params])
def test_flat_adamw_matches_the_per_tensor_loop_bit_for_bit(make):
    groups, named = make()
    _, ref_named = make()
    opt, ref = AdamW(groups, named), LoopAdamW(groups, ref_named)
    _steps((opt, ref), np.random.default_rng(11), 0, 60, 60)
    _assert_same_bits(opt, ref)


def _assert_views_of_flat_buffers(opt):
    for names, _, p, _, m, v in opt._flat:
        for name in names:
            assert np.shares_memory(opt.params[name].values, p)
            assert np.shares_memory(opt._m[name], m) and np.shares_memory(opt._v[name], v)


def test_load_state_dict_resumes_exactly_and_keeps_views():
    groups, named = chunk_straddling_params()
    _, ref_named = chunk_straddling_params()
    first, ref = AdamW(groups, named), LoopAdamW(groups, ref_named)
    rng = np.random.default_rng(12)
    _steps((first, ref), rng, 0, 25, 50)
    state = first.state_dict()
    resumed_named = {n: Tensor(t.values.copy(), requires_grad=True) for n, t in named.items()}
    resumed = AdamW(groups, resumed_named)
    resumed.load_state_dict(state)
    _assert_views_of_flat_buffers(resumed)
    _steps((resumed, ref), rng, 25, 50, 50)
    _assert_same_bits(resumed, ref)
    _assert_views_of_flat_buffers(resumed)



def test_single_group_covers_everything():
    names = fake_names()
    (group,) = build_single_group(names, ETA)
    assert sorted(group.names) == sorted(names)
    assert group.base_lr == ETA


def test_schedule_peak_midpoint_end():
    T = 1000
    state = lambda t: ScheduleState(t, T, 0.10)
    w = round(0.10 * T)
    assert cosine_warmup_multiplier(state(w)) == 1.0
    mid = w + (T - w) // 2
    assert abs(cosine_warmup_multiplier(state(mid)) - 0.5) < 1e-12
    assert cosine_warmup_multiplier(state(T)) == 0.0


def test_schedule_warmup_is_linear():
    T = 1000
    assert cosine_warmup_multiplier(ScheduleState(0, T, 0.10)) == 0.0
    assert cosine_warmup_multiplier(ScheduleState(50, T, 0.10)) == 0.5


def test_schedule_monotone_after_warmup():
    T = 500
    w = round(0.10 * T)
    values = [cosine_warmup_multiplier(ScheduleState(t, T, 0.10)) for t in range(w, T + 1)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_schedule_rejects_overrun():
    with pytest.raises(ContractError):
        cosine_warmup_multiplier(ScheduleState(11, 10, 0.10))
    with pytest.raises(ConfigError):
        ScheduleState(0, 0, 0.10)


def test_schedule_zero_warmup():
    assert cosine_warmup_multiplier(ScheduleState(0, 100, 0.0)) == 1.0
    assert cosine_warmup_multiplier(ScheduleState(100, 100, 0.0)) == 0.0
