"""Central finite-difference gradient oracle, independent of backprop.

A coordinate is excluded when its +/- eps perturbation flips the sign of any
ReLU candidate pre-activation (the finite difference then straddles a kink and
is not comparable to the one-sided analytic derivative). The cell state is
structurally non-negative here (sigmoid gates, ReLU candidate), so relu(c)
cannot cross its kink under a small perturbation and needs no exclusion.
"""

import numpy as np

from _lstm_oracle import batch_major, mse_loss
from aistrack import lstm


def _g_pre_signs(cache):
    return np.concatenate([np.sign(batch_major(lc).g_pre).ravel() for lc in cache.layer_caches])


def numeric_grad_at(net, win, tgt, array_idx, flat_idx, eps=1e-5):
    """Central difference at one parameter coordinate.

    Returns (gradient, kink_crossed)."""
    p = net.param_arrays()[array_idx].ravel()
    orig = p[flat_idx]
    p[flat_idx] = orig + eps
    pred_p, cache_p = lstm.forward_batch(net, win)
    lp = mse_loss(pred_p, tgt)
    p[flat_idx] = orig - eps
    pred_m, cache_m = lstm.forward_batch(net, win)
    lm = mse_loss(pred_m, tgt)
    p[flat_idx] = orig
    crossed = bool(np.any(_g_pre_signs(cache_p) != _g_pre_signs(cache_m)))
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
