"""Grouped layer-wise learning-rate decay, AdamW, and the cosine warmup schedule.

The encoder's hidden layers are split into G contiguous groups (embeddings
ride with the lowest group) and adjacent groups' learning rates differ by
the decay factor lambda; the pooler and classifier form an extra head group
with a slightly higher rate than the top hidden group.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError

_LAYER_RE = re.compile(r"^layer\.(\d+)\.")

NO_DECAY_SUFFIXES = (".bias", ".gain")  # biases and layer-norm parameters


@dataclass(frozen=True)
class ParamGroup:
    """A set of parameter names sharing one base learning rate."""

    names: tuple[str, ...]
    base_lr: float
    weight_decay: float
    role: str  # "embeddings+lower" | "middle" | "upper" | "head"


@dataclass
class ScheduleState:
    """Progress through a cosine-with-warmup schedule."""

    step: int
    total_steps: int
    warmup_frac: float = 0.10

    def __post_init__(self):
        if self.total_steps <= 0:
            raise ConfigError("total_steps must be positive")
        if self.step < 0:
            raise ContractError("step must be non-negative")


def cosine_warmup_multiplier(state: ScheduleState) -> float:
    """Linear ramp to 1.0 over the first warmup fraction, cosine decay to 0.0."""
    t, total = state.step, state.total_steps
    if t > total:
        raise ContractError(f"step {t} is past total_steps {total}")
    w = int(round(state.warmup_frac * total))
    if t <= w and w > 0:
        return t / w
    return 0.5 * (1.0 + math.cos(math.pi * (t - w) / (total - w)))


def _ratio_exact_product(lower: float, lam: float) -> float:
    # Prefer a product that reproduces `lower` under float division by lam
    # (the decay relation eta_{g-1} = eta_g / lam held bit-exactly). For some
    # (lam, lower) no such float exists; then the plain product is used.
    cand = lower * lam
    lo = hi = cand
    for _ in range(8):
        for c in (lo, hi):
            if c / lam == lower:
                return c
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
    return cand


def group_learning_rates(G: int, eta: float, lam: float) -> list[float]:
    """Per-group rates eta * lam^(g - ceil(G/2)); the middle group gets eta itself."""
    if G < 1:
        raise ConfigError("G must be at least 1")
    if lam <= 0:
        raise ConfigError("lambda must be positive")
    if eta <= 0:
        raise ConfigError("eta must be positive")
    center = math.ceil(G / 2)  # 1-based index of the group anchored at eta
    lrs = [0.0] * G
    lrs[center - 1] = eta
    for g in range(center - 2, -1, -1):
        lrs[g] = lrs[g + 1] / lam
    for g in range(center, G):
        lrs[g] = _ratio_exact_product(lrs[g - 1], lam)
    return lrs


def split_layers(n_layers: int, G: int) -> list[list[int]]:
    """Contiguous bottom-up layer sets; lower groups absorb any remainder."""
    if G > n_layers:
        raise ConfigError(f"cannot split {n_layers} layers into {G} groups")
    base, rem = divmod(n_layers, G)
    sizes = [base + 1] * rem + [base] * (G - rem)
    out, start = [], 0
    for size in sizes:
        out.append(list(range(start, start + size)))
        start += size
    return out


def _role(g: int, G: int) -> str:
    if g == 0:
        return "embeddings+lower"
    if g == G - 1:
        return "upper"
    return "middle"


def build_grouped_llrd(
    model_params,
    G: int = 3,
    eta: float = 1e-5,
    lam: float = 1.6,
    head_multiplier: float = 1.1,
    weight_decay: float = 0.01,
) -> list[ParamGroup]:
    """Partition parameters into G encoder groups plus a head group.

    `model_params` is a name -> Tensor mapping (or an iterable of names).
    Embeddings join the bottom group; "pooler.*" and "classifier.*" form the
    head group at head_multiplier times the top group's rate. Every parameter
    lands in exactly one group.
    """
    names = list(model_params)
    embeddings, head = [], []
    by_layer: dict[int, list[str]] = {}
    for name in names:
        m = _LAYER_RE.match(name)
        if m:
            by_layer.setdefault(int(m.group(1)), []).append(name)
        elif name.startswith("embeddings."):
            embeddings.append(name)
        elif name.startswith(("pooler.", "classifier.")):
            head.append(name)
        else:
            raise ConfigError(f"cannot assign parameter {name!r} to a group")
    n_layers = max(by_layer) + 1 if by_layer else 0
    if sorted(by_layer) != list(range(n_layers)):
        raise ConfigError("layer indices are not contiguous from 0")

    lrs = group_learning_rates(G, eta, lam)
    layer_sets = split_layers(n_layers, G)
    groups = []
    for g, (lr, layers) in enumerate(zip(lrs, layer_sets)):
        member_names = list(embeddings) if g == 0 else []
        for i in layers:
            member_names.extend(by_layer[i])
        groups.append(
            ParamGroup(tuple(member_names), lr, weight_decay, _role(g, G))
        )
    groups.append(
        ParamGroup(tuple(head), head_multiplier * lrs[-1], weight_decay, "head")
    )
    return groups


def build_single_group(model_params, eta: float, weight_decay: float = 0.01) -> list[ParamGroup]:
    """One flat group: the plain-optimizer baseline that grouped decay degenerates to."""
    if eta <= 0:
        raise ConfigError("eta must be positive")
    return [ParamGroup(tuple(model_params), eta, weight_decay, "all")]


def decays(name: str) -> bool:
    return not name.endswith(NO_DECAY_SUFFIXES)


class AdamW:
    """Decoupled-weight-decay Adam over parameter groups.

    beta1=0.9, beta2=0.999, eps=1e-8 with bias correction. Weight decay is
    applied as theta <- theta - lr * wd * theta (decoupled from the adaptive
    step) and skipped for biases and layer-norm parameters.

    Each group keeps one flat buffer apiece for parameters, gradients and
    the two moments, decayed tensors first, so weight decay covers one
    contiguous prefix. Every parameter's `values` (and its moments in `_m`,
    `_v`) become views into these buffers. `step` applies the per-element
    arithmetic over chunks of at most CHUNK elements whose temporaries stay
    in cache, so a step issues a few ufunc calls per chunk, not per tensor.
    """

    CHUNK = 16384

    def __init__(self, groups: list[ParamGroup], params: dict,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        grouped = [n for g in groups for n in g.names]
        if len(grouped) != len(set(grouped)):
            raise ConfigError("parameter groups overlap")
        if set(grouped) != set(params):
            missing = set(params) ^ set(grouped)
            raise ConfigError(f"groups do not partition the parameters: {sorted(missing)}")
        self.groups = groups
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._m, self._v = {}, {}
        self._flat = []  # per group: (names, decayed prefix length, p, g, m, v)
        for group in groups:
            names = sorted(group.names, key=lambda n: not decays(n))  # decayed first
            sizes = [params[n].values.size for n in names]
            n_decayed = sum(s for n, s in zip(names, sizes) if group.weight_decay and decays(n))
            total = sum(sizes)
            p, g = np.empty(total), np.empty(total)
            m, v = np.zeros(total), np.zeros(total)
            offset = 0
            for name, size in zip(names, sizes):
                t, view = params[name], slice(offset, offset + size)
                p[view] = t.values.reshape(-1)
                t.values = p[view].reshape(t.shape)
                self._m[name] = m[view].reshape(t.shape)
                self._v[name] = v[view].reshape(t.shape)
                offset += size
            self._flat.append((names, n_decayed, p, g, m, v))
        self._scratch = np.empty((2, self.CHUNK))

    def _gather_grads(self, names, g) -> None:
        grads = []
        for name in names:
            t = self.params[name]
            if t.grad is None:
                raise ContractError(f"missing gradient for parameter {name!r}")
            if t.grad.shape != t.shape:
                raise ContractError(
                    f"gradient for parameter {name!r} has shape {t.grad.shape}, "
                    f"expected {t.shape}"
                )
            grads.append(t.grad.reshape(-1))
        if grads:
            np.concatenate(grads, out=g)

    def step(self, schedule_multiplier: float = 1.0) -> None:
        for names, _, _, g, _, _ in self._flat:
            self._gather_grads(names, g)
        self.step_count += 1
        b1, b2, eps = self.beta1, self.beta2, self.eps
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for group, (_, n_decayed, p, g, m, v) in zip(self.groups, self._flat):
            lr = group.base_lr * schedule_multiplier
            shrink = 1.0 - lr * group.weight_decay
            # each element sees the operations, operands and order of the
            # per-tensor update (the reference in tests/test_optim.py), so the
            # results are bit-identical to it
            for lo in range(0, p.size, self.CHUNK):
                hi = min(lo + self.CHUNK, p.size)
                pc, gc, mc, vc = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
                a, b = self._scratch[0, : hi - lo], self._scratch[1, : hi - lo]
                mc *= b1
                np.multiply(gc, 1.0 - b1, out=a)
                mc += a
                vc *= b2
                np.multiply(gc, gc, out=a)
                a *= 1.0 - b2
                vc += a
                if lo < n_decayed:
                    pc[: n_decayed - lo] *= shrink
                np.divide(mc, bc1, out=a)
                a *= lr
                np.divide(vc, bc2, out=b)
                np.sqrt(b, out=b)
                b += eps
                a /= b
                pc -= a

    def state_dict(self) -> dict:
        return {
            "step_count": self.step_count,
            "m": {n: a.copy() for n, a in self._m.items()},
            "v": {n: a.copy() for n, a in self._v.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        """Copy saved moments into the flat buffers; parameters stay views."""
        self.step_count = int(state["step_count"])
        for n in self._m:
            self._m[n][...] = state["m"][n]
            self._v[n][...] = state["v"][n]
