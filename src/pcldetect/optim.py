"""Grouped layer-wise learning-rate decay, AdamW, and the cosine warmup schedule.

The encoder's hidden layers are split into G contiguous groups (embeddings
ride with the lowest group) and adjacent groups' learning rates differ by
the decay factor lambda; the pooler and classifier form an extra head group
with a slightly higher rate than the top hidden group. Every group's rate is
scaled by `cosine_warmup_multiplier(step, total_steps, warmup_frac)`.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from . import native
from .errors import ConfigError, ContractError, HelperError

_LAYER_RE = re.compile(r"^layer\.(\d+)\.")

NO_DECAY_SUFFIXES = (".bias", ".gain")  # biases and layer-norm parameters


@dataclass(frozen=True)
class ParamGroup:
    """A set of parameter names sharing one base learning rate."""

    names: tuple[str, ...]
    base_lr: float
    weight_decay: float
    role: str  # "embeddings+lower" | "middle" | "upper" | "head"


def cosine_warmup_multiplier(step: int, total_steps: int, warmup_frac: float) -> float:
    """Linear ramp to 1.0 over the first warmup fraction, cosine decay to 0.0."""
    if total_steps <= 0:
        raise ConfigError("total_steps must be positive")
    if step < 0:
        raise ContractError("step must be non-negative")
    if step > total_steps:
        raise ContractError(f"step {step} is past total_steps {total_steps}")
    w = int(round(warmup_frac * total_steps))
    if step <= w and w > 0:
        return step / w
    return 0.5 * (1.0 + math.cos(math.pi * (step - w) / (total_steps - w)))


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

    BETA1=0.9, BETA2=0.999, EPS=1e-8 with bias correction. Weight decay is
    applied as theta <- theta - lr * wd * theta (decoupled from the adaptive
    step) and skipped for biases and layer-norm parameters.

    Each group keeps one flat buffer apiece for parameters, gradients and
    the two moments, decayed tensors first, so weight decay covers one
    contiguous prefix. Every parameter's `values` (and its moments in `_m`,
    `_v`) become views into these buffers, which all live in one shared
    anonymous mapping, so a forked helper process and this one step the same
    memory. `zero_grad` clears the gradient buffers and binds every
    parameter's `grad` to its view of them, so a backward pass accumulates
    there; `step` copies a `grad` assigned any other way into the buffer.
    `step` applies the per-element arithmetic over chunks of at most CHUNK
    elements whose temporaries stay in cache, so a step issues a few ufunc
    calls per chunk, not per tensor.

    `fork_helper()` may fork an `_OptimizerHelper` that steps and zeroes
    every group but the first through `step_group`, while this process
    steps the first; `close()` kills it. `handoffs(multiplier)` gives
    `backward` callbacks that hand each helper group off, with the step's
    count and multiplier, as soon as backward is done with its parameters;
    `step` hands off any group not yet handed, steps this process's groups
    and waits for the helper.
    """

    CHUNK = 16384
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, groups: list[ParamGroup], params: dict):
        grouped = [n for g in groups for n in g.names]
        if len(grouped) != len(set(grouped)):
            raise ConfigError("parameter groups overlap")
        if set(grouped) != set(params):
            missing = set(params) ^ set(grouped)
            raise ConfigError(f"groups do not partition the parameters: {sorted(missing)}")
        self.groups = groups
        self.params = params
        self.step_count = 0
        self._helper = None
        self._own, self._theirs = range(len(groups)), range(0)  # stepped here; by the helper
        self._m, self._v, self._grads = {}, {}, {}
        self._flat = []  # per group: (names, decayed prefix length, p, g, m, v)
        total = sum(params[n].values.size for n in grouped)
        # zero-filled, so the gradients and moments start cleared
        buffers = np.frombuffer(mmap.mmap(-1, 8 * max(4 * total, 1)), dtype=np.float64)
        start = 0
        for group in groups:
            names = sorted(group.names, key=lambda n: not decays(n))  # decayed first
            sizes = [params[n].values.size for n in names]
            n_decayed = sum(s for n, s in zip(names, sizes) if group.weight_decay and decays(n))
            size = sum(sizes)
            p, g, m, v = buffers[start : start + 4 * size].reshape(4, size)
            start += 4 * size
            offset = 0
            for name, n in zip(names, sizes):
                t, view = params[name], slice(offset, offset + n)
                p[view] = t.values.reshape(-1)
                t.values = p[view].reshape(t.shape)
                self._m[name] = m[view].reshape(t.shape)
                self._v[name] = v[view].reshape(t.shape)
                self._grads[name] = g[view].reshape(t.shape)
                offset += n
            self._flat.append((names, n_decayed, p, g, m, v))
        self._scratch = np.empty((2, self.CHUNK))

    def fork_helper(self) -> None:
        """Fork a helper for every group but the first if one of those spans more
        than one CHUNK (a smaller group costs more to hand off than to step).
        The first group holds the embeddings, which the first tape nodes read,
        so backward finishes it last and this process steps it meanwhile."""
        theirs = range(1, len(self.groups))
        if max((self._flat[k][2].size for k in theirs), default=0) <= self.CHUNK:
            return
        helper = _OptimizerHelper(self)
        if helper._child.pid is not None:
            self._helper, self._own, self._theirs = helper, range(1), theirs
        else:
            helper.close()

    def close(self) -> None:
        """Kill and reap the helper, if one forked; this process then steps every group."""
        if self._helper is not None:
            self._helper.close()
            self._helper, self._own, self._theirs = None, range(len(self.groups)), range(0)

    def zero_grad(self) -> None:
        """Clear this process's gradient buffers and bind each parameter's `grad` to its view."""
        for k in self._own:
            self._flat[k][3].fill(0.0)
        for name, view in self._grads.items():
            self.params[name].grad = view

    def _gather_grads(self, ks) -> None:
        """Copy into groups `ks`' buffers any `grad` not bound by `zero_grad`;
        every one is checked before any is copied."""
        outside = []
        for k in ks:
            for name in self._flat[k][0]:
                view, grad = self._grads[name], self.params[name].grad
                if grad is view:
                    continue
                if grad is None:
                    raise ContractError(f"missing gradient for parameter {name!r}")
                if grad.shape != view.shape:
                    raise ContractError(
                        f"gradient for parameter {name!r} has shape {grad.shape}, "
                        f"expected {view.shape}"
                    )
                outside.append((view, grad))
        for view, grad in outside:
            view[...] = grad

    def handoffs(self, schedule_multiplier: float) -> list:
        """`backward`'s (tensors, callback) pairs that hand each helper group
        off for the coming `step(schedule_multiplier)`; none without a helper."""
        return [([self.params[n] for n in self._flat[k][0]],
                 functools.partial(self._hand_off, k, schedule_multiplier))
                for k in self._theirs]

    def _hand_off(self, k: int, schedule_multiplier: float) -> None:
        self._gather_grads([k])
        self._helper.hand(k, schedule_multiplier, self.step_count + 1)

    def step(self, schedule_multiplier: float = 1.0) -> None:
        self._gather_grads(self._own)
        for k in self._theirs:
            if k not in self._helper.handed:
                self._hand_off(k, schedule_multiplier)
        self.step_count += 1
        for k in self._own:
            self._update(k, schedule_multiplier, self.step_count)
        if self._helper is not None:
            self._helper.wait()

    def step_group(self, k: int, schedule_multiplier: float, count: int) -> None:
        """Step group k as `step` does at step `count`, then zero its gradients:
        the helper's share of a step."""
        self._update(k, schedule_multiplier, count)
        self._flat[k][3].fill(0.0)

    def _update(self, k: int, schedule_multiplier: float, count: int) -> None:
        group, (_, n_decayed, p, g, m, v) = self.groups[k], self._flat[k]
        b1, b2, eps = self.BETA1, self.BETA2, self.EPS
        bc1 = 1.0 - b1 ** count
        bc2 = 1.0 - b2 ** count
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


class _OptimizerHelper:
    """A forked child that steps AdamW groups while this process runs backward.

    `hand(k, multiplier, count)` sends group k's index, the step's count and
    its multiplier down a pipe in one 17-byte write, atomic below PIPE_BUF.
    The child steps the group and zeroes its gradients in the optimizer's
    shared buffers (`AdamW.step_group`), then returns the index on a second
    pipe. `wait` reads one index per group handed; a child that ended reads
    as end of file and raises HelperError, as does a hand-off to it: it may
    have left a group partly stepped, so its work is not redone here.
    """

    MESSAGE = struct.Struct("=Bqd")  # group index, step count, multiplier

    def __init__(self, optimizer: AdamW):
        self.handed = []
        their_cmd, self._cmd = os.pipe()
        self._done, their_done = os.pipe()
        try:
            self._child = native.Child("optimizer helper",
                                       lambda _: self._serve(optimizer, their_cmd, their_done), 1)
        except BaseException:
            os.close(self._cmd)
            os.close(self._done)
            raise
        finally:
            os.close(their_cmd)
            os.close(their_done)

    def _serve(self, optimizer: AdamW, cmd: int, done: int) -> None:
        """The child's loop, until this process closes its end of the pipe."""
        os.close(self._cmd)
        os.close(self._done)
        while message := os.read(cmd, self.MESSAGE.size):
            k, count, multiplier = self.MESSAGE.unpack(message)
            optimizer.step_group(k, multiplier, count)
            os.write(done, bytes([k]))

    def hand(self, k: int, multiplier: float, count: int) -> None:
        try:
            os.write(self._cmd, self.MESSAGE.pack(k, count, multiplier))
        except BrokenPipeError:
            raise self._ended() from None
        self.handed.append(k)

    def wait(self) -> None:
        while self.handed:
            done = os.read(self._done, len(self.handed))
            if not done:
                raise self._ended()
            del self.handed[: len(done)]

    @staticmethod
    def _ended() -> HelperError:
        return HelperError("the optimizer helper process ended before stepping its groups")

    def close(self) -> None:
        """Kill and reap the child and close this process's pipe ends."""
        self._child.close()
        os.close(self._cmd)
        os.close(self._done)
