"""Central finite-difference gradient oracle, independent of backprop.

A coordinate is excluded when its +/- eps perturbation switches any ReLU
candidate g = relu(g_pre) on or off (the finite difference then straddles a
kink and is not comparable to the one-sided analytic derivative). The cell
state is structurally non-negative (sigmoid gates, ReLU candidate), so the
cell output h = o c has no kink of its own.

The loss is the sum over the network's vessels of each one's batch-mean
MSE, whose gradient in a vessel's parameters is that vessel's own loss's,
as `lstm.backward` gives it.
"""

import numpy as np

from _lstm_oracle import batch_major
from aistrack import lstm


def _g_active(cache):
    return np.concatenate([(batch_major(lc).g > 0).ravel() for lc in cache.layer_caches])


def _loss(pred, tgt):
    return float(np.mean((pred - tgt) ** 2, axis=(-2, -1)).sum())


def numeric_grad_at(net, win, tgt, array_idx, flat_idx, eps=1e-5):
    """Central difference at one parameter coordinate.

    Returns (gradient, kink_crossed)."""
    p = net.param_arrays()[array_idx].ravel()
    orig = p[flat_idx]
    p[flat_idx] = orig + eps
    pred_p, cache_p = lstm.forward_batch(net, win)
    lp = _loss(pred_p, tgt)
    p[flat_idx] = orig - eps
    pred_m, cache_m = lstm.forward_batch(net, win)
    lm = _loss(pred_m, tgt)
    p[flat_idx] = orig
    crossed = bool(np.any(_g_active(cache_p) != _g_active(cache_m)))
    return (lp - lm) / (2 * eps), crossed


# Below this gradient magnitude the central difference is dominated by
# float64 cancellation noise (~1e-12 absolute at eps=1e-5) and cannot resolve
# a 1e-4 relative tolerance; such coordinates are skipped like kink crossings.
NOISE_FLOOR = 1e-7


def check_network(net, win, tgt, rng, coords_per_array=20, eps=1e-5, tol=1e-4):
    """Compare analytic gradients against central differences at randomly
    sampled coordinates of every parameter array. Returns (checked, worst)."""
    _, cache = lstm.forward_batch(net, win)
    grads = lstm.backward(net, cache, tgt)
    checked = 0
    worst = 0.0
    for ai, (param, grad) in enumerate(zip(net.param_arrays(), grads)):
        flat = grad.ravel()
        done = 0
        for fi in rng.permutation(param.size):
            if done >= min(coords_per_array, flat.size):
                break
            num, crossed = numeric_grad_at(net, win, tgt, ai, fi, eps)
            if crossed or max(abs(num), abs(flat[fi])) < NOISE_FLOOR:
                continue
            rel = abs(num - flat[fi]) / max(abs(num), abs(flat[fi]), 1e-8)
            worst = max(worst, rel)
            checked += 1
            done += 1
            assert rel < tol, f"array {ai} coord {fi}: rel err {rel:.2e}"
    return checked, worst
