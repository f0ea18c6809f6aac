"""Dense tensors with tape-based reverse-mode differentiation.

Small by design: just enough primitives to express a transformer encoder,
classification heads and their losses. Forward values are plain numpy
arrays; when a `Tape` is active, every primitive appends a node so that
`backward` can replay the recording in reverse execution order (which is
a valid reverse-topological order by construction).

Values are float64, or float32 where a tensor is made from float32 data:
the primitives keep their operands' dtype, so a forward over float32
parameters runs in float32. Only float64 tensors may be recorded on a
tape, so gradients are float64 throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ContractError,
    GatherError,
    NumericsError,
    ShapeError,
    TapeReuseError,
)

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class Tensor:
    """A dense float64 or float32 array plus gradient bookkeeping.

    Float32 data stays float32; anything else is stored as float64. `grad`
    is populated (same shape as `values`) after a backward pass for every
    tensor that requires grad or sits on the path to the loss.
    """

    __slots__ = ("values", "requires_grad", "grad", "_tape")

    def __init__(self, values, requires_grad: bool = False):
        values = np.asarray(values)
        if values.dtype != np.float32:
            values = values.astype(np.float64, copy=False)
        self.values = values
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tape = None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)


def constant(values) -> Tensor:
    """Wrap raw data as a non-differentiable tensor."""
    return Tensor(values, requires_grad=False)


class Tape:
    """Ordered record of primitive ops; consumed by exactly one backward pass."""

    def __init__(self):
        self._nodes = []
        self._consumed = False
        self._freed = 0  # nodes recorded before backward released them

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def __len__(self):
        """Number of ops recorded, including those a backward pass released."""
        return self._freed + len(self._nodes)


_TAPES: list = []  # the active tapes, innermost last


def _active_tape():
    return _TAPES[-1] if _TAPES else None


def _tracked(t: Tensor, tape: Tape) -> bool:
    return t.requires_grad or t._tape is tape


def _make(values, inputs, backward_fn) -> Tensor:
    """Create the output tensor, recording the op if a tape is listening.

    Raises ContractError if the op would be recorded with a float32 operand
    or output: gradients and their finite-difference checks are float64.
    """
    out = Tensor(values)
    tape = _active_tape()
    if tape is not None and any(_tracked(t, tape) for t in inputs):
        if out.values.dtype != np.float64 or any(t.values.dtype != np.float64 for t in inputs):
            raise ContractError("a tape records float64 tensors only; run float32 "
                                "forwards outside a tape")
        out._tape = tape
        tape._nodes.append((out, inputs, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(loss: Tensor, *on_done) -> None:
    """Populate gradients of everything reachable from a scalar loss.

    A tensor that has no `grad` yet adopts the array its consumer's backward
    function returned, unless that array is the incoming gradient, a view,
    or already given to another input of the node; those are added into a
    fresh zero array. So a backward function returns arrays it allocated
    itself, or the incoming gradient and views of it. A tensor that has a `grad` (such as a
    parameter bound to an optimizer's buffer) accumulates into it in place.

    Each of `on_done` is a (tensors, callback) pair. `callback()` is called
    once, as soon as no node left to replay reads any of `tensors`: right
    after the last such node, or before the first node if none reads them.
    From then on backward neither reads nor writes their values or `grad`.
    """
    if loss.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise ContractError("loss was not produced under an active tape")
    if tape._consumed:
        raise TapeReuseError("tape already consumed by a previous backward pass")
    tape._consumed = True
    # output tensors point back at the tape, so the tape lets go of its nodes
    # (each one as soon as it is replayed) for the step's intermediates to be
    # freed without waiting for the cyclic garbage collector
    nodes, tape._nodes = tape._nodes, []
    tape._freed += len(nodes)
    due = _callbacks_by_node(nodes, on_done)
    for callback in due.get(len(nodes), ()):
        callback()
    loss.grad = np.ones((), dtype=np.float64)
    while nodes:
        out, inputs, fn = nodes.pop()
        g = out.grad
        if g is not None:
            adopted = []
            for t, gi in zip(inputs, fn(g)):
                if gi is None or not _tracked(t, tape):
                    continue
                if t.grad is not None:
                    t.grad += gi
                elif (type(gi) is np.ndarray and gi.base is None and gi.shape == t.shape
                      and gi is not g and not any(gi is a for a in adopted)):
                    t.grad = gi
                    adopted.append(gi)
                else:
                    t.grad = np.zeros(t.shape, dtype=np.float64)
                    t.grad += gi
        for callback in due.get(len(nodes), ()):  # len(nodes) is the replayed node's index
            callback()


def _callbacks_by_node(nodes, on_done) -> dict:
    """Index of the first node that reads a tensor of each pair (len(nodes)
    where none does) -> the callbacks due once that node is replayed."""
    due: dict = {}
    for tensors, callback in on_done:
        ids = {id(t) for t in tensors}
        first = next((i for i, (_, inputs, _) in enumerate(nodes)
                      if any(id(t) in ids for t in inputs)), len(nodes))
        due.setdefault(first, []).append(callback)
    return due


# ---------------------------------------------------------------------------
# arithmetic primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(a.values + b.values, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(a.values - b.values, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (
            _unbroadcast(g * b.values, a.shape),
            _unbroadcast(g * a.values, b.shape),
        )

    return _make(a.values * b.values, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g):
        return (g * s,)

    return _make(a.values * s, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of operands of 2 or more axes (batched dims broadcast)."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs at least 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")

    def bwd(g):
        ga = g @ b.values.swapaxes(-1, -2)
        gb = a.values.swapaxes(-1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make(a.values @ b.values, (a, b), bwd)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`x @ w + b`, adding the bias in place."""
    y = x @ w
    y += b
    return y


def _affine_param_grads(x: np.ndarray, g: np.ndarray):
    """Weight and bias gradients of `x @ w + b` for output gradient `g`.

    The leading axes are flattened, so the weight gradient is one 2-d GEMM.
    """
    g2 = g.reshape(-1, g.shape[-1])
    return x.reshape(-1, x.shape[-1]).T @ g2, g2.sum(axis=0)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map `x @ w + b` over the trailing axis, recorded as one node.

    `x` is (..., d_in), `w` (d_in, d_out) and `b` (d_out,). The rows of `x`
    are multiplied as one 2-d GEMM, forward and backward.
    """
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ShapeError(
            "linear needs x (..., d_in), w (d_in, d_out) and b (d_out,); "
            f"got {x.shape}, {w.shape} and {b.shape}"
        )
    d_in, d_out = w.shape

    def bwd(g):
        gx = g.reshape(-1, d_out) @ w.values.T
        return (gx.reshape(x.shape), *_affine_param_grads(x.values, g))

    y = _affine(x.values.reshape(-1, d_in), w.values, b.values)
    return _make(y.reshape(x.shape[:-1] + (d_out,)), (x, w, b), bwd)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.shape).copy(),)

    return _make(a.values.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    def bwd(g):
        return (g.reshape(a.shape),)

    return _make(a.values.reshape(shape), (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)

    def bwd(g):
        return (g.transpose(inverse),)

    return _make(a.values.transpose(axes), (a,), bwd)


def select(a: Tensor, index, axis: int = 0) -> Tensor:
    """Pick a subtensor along an axis.

    An integer index drops the axis; a slice keeps it.
    """
    key = [slice(None)] * a.ndim
    key[axis] = index
    key = tuple(key)

    def bwd(g):
        ga = np.zeros(a.shape, dtype=np.float64)
        ga[key] = g
        return (ga,)

    return _make(a.values[key], (a,), bwd)


# ---------------------------------------------------------------------------
# nonlinearities and layers
# ---------------------------------------------------------------------------


def check_finite(x: Tensor, op: str) -> np.ndarray:
    """The values of `x`; raises NumericsError, naming `op`, if any is not finite."""
    if not np.all(np.isfinite(x.values)):
        raise NumericsError(f"{op} received non-finite input")
    return x.values


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function that takes exp of non-positive values only."""
    y = np.empty_like(v)
    pos = v >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    y[~pos] = ev / (1.0 + ev)
    return y


def softmax(x: Tensor) -> Tensor:
    """Stable softmax over the trailing axis; rejects non-finite input."""
    if x.shape[-1] < 1:
        raise ShapeError("softmax needs a non-empty trailing axis")
    v = check_finite(x, "softmax")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _make(y, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.values)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return _make(y, (x,), bwd)


def cross_entropy(z: Tensor, golds) -> Tensor:
    """Mean over the batch of -log softmax(z)[gold], as one node.

    `z` is (batch, classes) logits, `golds` class indices. The loss is
    log-sum-exp minus the gold logit, the gradient (softmax(z) - onehot) /
    batch. Rejects non-finite logits.
    """
    v = check_finite(z, "cross_entropy")
    rows, idx = np.arange(v.shape[0]), np.asarray(golds, dtype=np.intp)
    top = v.max(axis=-1, keepdims=True)
    e = np.exp(v - top)
    total = e.sum(axis=-1, keepdims=True)

    def bwd(g):
        grad = e / total
        grad[rows, idx] -= 1.0
        return (grad * (g / v.shape[0]),)

    return _make(((top[:, 0] - v[rows, idx]) + np.log(total[:, 0])).mean(), (z,), bwd)


def bce_with_logits(z: Tensor, y) -> Tensor:
    """Binary cross-entropy of (batch, classes) logits against 0/1 targets.

    One node: log(1 + e^z) - y z per element, summed over classes and
    averaged over the batch; the gradient is (sigmoid(z) - y) / batch.
    Rejects non-finite logits.
    """
    v = check_finite(z, "bce_with_logits")
    y = np.asarray(y, dtype=np.float64)

    def bwd(g):
        return ((_sigmoid(v) - y) * (g / v.shape[0]),)

    return _make((np.logaddexp(0.0, v) - y * v).sum(axis=-1).mean(), (z,), bwd)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.values)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return _make(y, (x,), bwd)


# The helpers below update one or two temporaries in place rather than
# allocate one array per operation. Each applies its formula's operations
# in the formula's order (IEEE addition and multiplication commute
# exactly), so the results equal the plain expressions bit for bit.


def _gelu(v: np.ndarray):
    """(gelu(v), h): GELU in BERT's tanh form, v * h with
    h = 0.5 * (1 + tanh(sqrt(2/pi) * (v + 0.044715 * v * v * v)))."""
    h = np.multiply(0.044715, v, out=np.empty_like(v))  # an array even for 0-d `v`
    h *= v
    h *= v
    h += v
    h *= _SQRT_2_OVER_PI
    np.tanh(h, out=h)
    h += 1.0
    h *= 0.5
    return v * h, h


def _gelu_backward(g: np.ndarray, v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Input gradient of `_gelu`, using 1 - tanh^2 = 4 h (1 - h):
    g * (h + 2 sqrt(2/pi) * v * h * (1 - h) * (1 + 3 * 0.044715 * v * v))."""
    t = (2.0 * _SQRT_2_OVER_PI) * v
    t *= h
    t *= 1.0 - h
    u = (3 * 0.044715) * v
    u *= v
    u += 1.0
    t *= u
    t += h
    t *= g
    return t


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit in BERT's tanh form (see `_gelu`)."""
    v = x.values
    y, h = _gelu(v)

    def bwd(g):
        return (_gelu_backward(g, v, h),)

    return _make(y, (x,), bwd)


def _layer_norm(v: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """(gain * xhat + bias, xhat, 1 / std) over the trailing axis of `v`, where
    xhat = (v - mean) / std and std = sqrt(mean((v - mean)^2) + eps)."""
    mu = v.mean(axis=-1, keepdims=True)
    xhat = v - mu
    out = xhat * xhat  # squared deviations, then the output
    inv_std = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv_std
    np.multiply(xhat, gain, out=out)
    out += bias
    return out, xhat, inv_std


def _layer_norm_backward(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                         inv_std: np.ndarray):
    """Input, gain and bias gradients of `_layer_norm` for output gradient `g`.

    With dxhat = g * gain, the input gradient is
    (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / std.
    """
    dx = g * gain
    t = dx * xhat
    dx -= dx.mean(axis=-1, keepdims=True)
    np.multiply(xhat, t.mean(axis=-1, keepdims=True), out=t)
    dx -= t
    dx *= inv_std
    lead = tuple(range(g.ndim - 1))
    return dx, np.multiply(g, xhat, out=t).sum(axis=lead), g.sum(axis=lead)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then affine."""
    y, xhat, inv_std = _layer_norm(x.values, gain.values, bias.values, eps)

    def bwd(g):
        return _layer_norm_backward(g, gain.values, xhat, inv_std)

    return _make(y, (x, gain, bias), bwd)


def residual_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor, rate: float,
                  train: bool, rng=None, draw_shape=None, eps: float = 1e-12) -> Tensor:
    """`layer_norm(add(x, dropout(y, rate, train, rng, draw_shape)), gain, bias)`
    as one node: a post-norm residual connection."""
    if x.shape != y.shape:
        raise ShapeError(f"residual_norm needs equal shapes, got {x.shape} and {y.shape}")
    mask = _dropout_mask(y.shape, rate, train, rng, draw_shape)
    if mask is None:
        s = x.values + y.values
    else:
        s = y.values * mask
        s += x.values
    out, xhat, inv_std = _layer_norm(s, gain.values, bias.values, eps)

    def bwd(g):
        dx, dgain, dbias = _layer_norm_backward(g, gain.values, xhat, inv_std)
        return dx, dx if mask is None else dx * mask, dgain, dbias

    return _make(out, (x, y, gain, bias), bwd)


def feed_forward(x: Tensor, w_in: Tensor, b_in: Tensor, w_out: Tensor, b_out: Tensor) -> Tensor:
    """`linear(gelu(linear(x, w_in, b_in)), w_out, b_out)` as one node.

    `x` is (..., d), `w_in` (d, f) and `w_out` (f, d); the rows of `x` go
    through both projections as 2-d GEMMs, forward and backward.
    """
    d, f = w_in.shape
    shapes = (x.shape[-1:], b_in.shape, w_out.shape, b_out.shape)
    if shapes != ((d,), (f,), (f, d), (d,)):
        raise ShapeError(f"feed_forward with w_in (d, f) = {w_in.shape} needs x (..., d), "
                         f"b_in (f,), w_out (f, d) and b_out (d,); got {shapes}")
    x2 = x.values.reshape(-1, d)
    a = _affine(x2, w_in.values, b_in.values)
    u, h = _gelu(a)

    def bwd(g):
        g2 = g.reshape(-1, d)
        da = _gelu_backward(g2 @ w_out.values.T, a, h)
        dx = da @ w_in.values.T
        return (dx.reshape(x.shape), *_affine_param_grads(x2, da), *_affine_param_grads(u, g2))

    return _make(_affine(u, w_out.values, b_out.values).reshape(x.shape),
                 (x, w_in, b_in, w_out, b_out), bwd)


def embedding_gather(table: Tensor, ids) -> Tensor:
    """Look up rows of `table`; output shape is ids.shape + (width,)."""
    idx = np.asarray(ids, dtype=np.intp)
    rows = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise GatherError(
            f"gather index out of range for table with {rows} rows "
            f"(got min {int(idx.min())}, max {int(idx.max())})"
        )

    def bwd(g):
        gt = np.zeros(table.shape, dtype=np.float64)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (gt,)

    return _make(table.values[idx], (table,), bwd)


def _dropout_mask(shape, rate: float, train: bool, rng, draw_shape=None):
    """Inverted-dropout mask for `shape`, or None when dropout is off.

    The mask is drawn at `draw_shape` (default `shape`) and cut to its
    leading `shape` corner, so computing fewer rows leaves the random stream
    exactly where the full computation would.
    """
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return None
    if rng is None:
        raise ContractError("training-mode dropout needs an rng")
    drawn = tuple(shape) if draw_shape is None else tuple(draw_shape)
    mask = (rng.random(drawn) >= rate) / (1.0 - rate)
    if drawn != tuple(shape):
        mask = mask[tuple(slice(0, n) for n in shape)]
    return mask


def dropout(x: Tensor, rate: float, train: bool, rng=None, draw_shape=None) -> Tensor:
    """Inverted dropout: scales survivors by 1/(1-rate); identity in eval mode.

    `draw_shape` draws the mask at a larger shape and keeps its leading
    corner (see `_dropout_mask`).
    """
    mask = _dropout_mask(x.shape, rate, train, rng, draw_shape)
    if mask is None:
        return x

    def bwd(g):
        return (g * mask,)

    return _make(x.values * mask, (x,), bwd)


def _merge_heads(t: np.ndarray) -> np.ndarray:
    """(batch, heads, rows, d_head) -> (batch, rows, heads * d_head)."""
    b, h, r, dh = t.shape
    return t.transpose(0, 2, 1, 3).reshape(b, r, h * dh)


def self_attention(
    x: Tensor,
    weights,
    key_bias: np.ndarray,
    n_heads: int,
    rate: float = 0.0,
    train: bool = False,
    rng=None,
    n_queries: int | None = None,
    sink: list | None = None,
) -> Tensor:
    """Multi-head scaled dot-product self-attention as one node.

    `x` is (batch, seq, d). `weights` holds the q, k, v and output
    projections as (weight, bias) tensor pairs in that order, weights
    (d, d) and biases (d,). `key_bias` is a (batch, seq) additive score
    bias per key position (0 to attend, a large negative value to mask).
    Only the first `n_queries` positions (default: all) are queries; keys
    and values always use every position. Scores must be finite. In train
    mode the probabilities get inverted dropout, with the mask drawn at the
    full (batch, heads, seq, seq) shape. When `sink` is a list, the
    (batch, heads, n_queries, seq) probabilities before dropout are appended.
    Returns (batch, n_queries, d).
    """
    (wq, bq), (wk, bk), (wv, bv), (wo, bo) = weights
    bsz, s, d = x.shape
    if d % n_heads:
        raise ShapeError(f"width {d} does not split into {n_heads} heads")
    if key_bias.shape != (bsz, s):
        raise ShapeError(f"key_bias must be {(bsz, s)}, got {key_bias.shape}")
    nq = s if n_queries is None else n_queries
    h, dh = n_heads, d // n_heads
    scale = 1.0 / math.sqrt(dh)  # a Python float, so it keeps float32 scores float32
    xv = x.values
    xq = xv[:, :nq]

    def split(t):
        return t.reshape(bsz, -1, h, dh).transpose(0, 2, 1, 3)

    q = split(_affine(xq, wq.values, bq.values))
    k = split(_affine(xv, wk.values, bk.values))
    v = split(_affine(xv, wv.values, bv.values))
    p = q @ k.transpose(0, 1, 3, 2)  # scores, then softmax(scores) in place
    p *= scale
    p += key_bias[:, None, None, :]
    if not np.all(np.isfinite(p)):
        raise NumericsError("attention scores are non-finite")
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)  # (b, h, nq, s)
    if sink is not None:
        sink.append(p.copy())
    mask = _dropout_mask(p.shape, rate, train, rng, draw_shape=(bsz, h, s, s))
    pd = p if mask is None else p * mask
    ctx = _merge_heads(pd @ v)  # (b, nq, d)

    def bwd(g):
        dctx = split(g @ wo.values.T)
        dp = dctx @ v.transpose(0, 1, 3, 2)
        dv = _merge_heads(pd.transpose(0, 1, 3, 2) @ dctx)
        if mask is not None:
            dp *= mask
        dz = dp  # p * (dp - sum(dp * p)) * scale, in place
        dz -= (dp * p).sum(axis=-1, keepdims=True)
        dz *= p
        dz *= scale
        dq = _merge_heads(dz @ k)
        dk = _merge_heads((q.transpose(0, 1, 3, 2) @ dz).transpose(0, 1, 3, 2))
        dx = dv @ wv.values.T
        dx += dk @ wk.values.T
        dx[:, :nq] += dq @ wq.values.T
        return (
            dx,
            *_affine_param_grads(xq, dq),
            *_affine_param_grads(xv, dk),
            *_affine_param_grads(xv, dv),
            *_affine_param_grads(ctx, g),
        )

    out = _affine(ctx, wo.values, bo.values)
    return _make(out, (x, wq, bq, wk, bk, wv, bv, wo, bo), bwd)
