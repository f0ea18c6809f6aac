"""Central finite-difference gradient checking shared by the test modules."""

import numpy as np

from pcldetect.autograd import Tape, backward

STEP = 1e-5


def clear_grads(tensors):
    for t in tensors:
        t.grad = None


def finite_difference(loss_fn, tensors, step=STEP):
    """Numeric gradients of a forward-only scalar function per tensor element."""
    grads = []
    for t in tensors:
        flat = t.values.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = loss_fn().item()
            flat[i] = keep - step
            down = loss_fn().item()
            flat[i] = keep
            g[i] = (up - down) / (2.0 * step)
        grads.append(g.reshape(t.shape))
    return grads


def max_rel_error(analytic, numeric, floor=1e-8):
    """Worst elementwise relative error, with a floor against division blowups."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def check_gradients(loss_fn, tensors, step=STEP, floor=1e-8):
    """Backprop loss_fn once, compare against central differences.

    `loss_fn` takes no arguments, must be deterministic, and returns the
    scalar loss Tensor; outside a tape it runs forward-only. `floor` bounds
    the relative-error denominator: central differences of an O(1) function
    carry ~1e-11 absolute noise, so gradients below the floor are held to
    absolute rather than relative agreement.
    """
    clear_grads(tensors)
    with Tape():
        backward(loss_fn())
    analytic = [t.grad.copy() if t.grad is not None else np.zeros(t.shape) for t in tensors]
    numeric = finite_difference(loss_fn, tensors, step=step)
    clear_grads(tensors)
    return max_rel_error(analytic, numeric, floor=floor)
