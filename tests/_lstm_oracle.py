"""LSTM helpers that only the tests use, and the per-timestep reference loop.

`reference_layer_forward` is the cell loop as it was before the input
projection was hoisted out of it: `x_t @ W.T` is taken inside the loop, one
timestep at a time, and each gate gets its own sigmoid. `lstm.forward_batch`
is checked against it.

`predict_sequence` is the rollout as a sliding window: one `forward_batch`
per step on the whole latest window. `lstm.roll_step`, which keeps the m
windows in flight and steps each layer once per prediction, is checked
against it; `rollout` is the loop over `roll_step` that the checks run.
"""

import numpy as np

from aistrack import lstm


def reference_layer_forward(layer: lstm.LstmLayerParams, x: np.ndarray) -> tuple[np.ndarray, lstm.LayerCache]:
    *lead, m, _ = x.shape
    h = layer.hidden
    i_a, f_a, gp_a, o_a, c_a = (np.empty((*lead, m, h)) for _ in range(5))
    h_seq = np.empty((*lead, m, h))
    h_prev = np.zeros((*lead, h))
    c_prev = np.zeros((*lead, h))
    for t in range(m):
        pre = x[..., t, :] @ layer.W.mT + h_prev @ layer.U.mT + layer.b
        i_t = lstm.sigmoid(pre[..., :h])
        f_t = lstm.sigmoid(pre[..., h : 2 * h])
        gp_t = pre[..., 2 * h : 3 * h]
        g_t = lstm.relu(gp_t)
        o_t = lstm.sigmoid(pre[..., 3 * h :])
        c_t = f_t * c_prev + i_t * g_t
        h_t = o_t * lstm.relu(c_t)
        i_a[..., t, :], f_a[..., t, :], gp_a[..., t, :], o_a[..., t, :] = i_t, f_t, gp_t, o_t
        c_a[..., t, :] = c_t
        h_seq[..., t, :] = h_t
        h_prev, c_prev = h_t, c_t
    return h_seq, lstm.LayerCache(x=x, i=i_a, f=f_a, g_pre=gp_a, o=o_a, c=c_a)


def reference_forward(net: lstm.LstmNetwork, windows: np.ndarray) -> tuple[np.ndarray, list[lstm.LayerCache]]:
    """Inference-mode `forward_batch` built on `reference_layer_forward`:
    the predictions and each layer's cache."""
    seq = np.asarray(windows, dtype=np.float64)
    caches = []
    for li, layer in enumerate(net.layers):
        out, lc = reference_layer_forward(layer, seq)
        if li > 0:
            out = out + seq
        caches.append(lc)
        seq = out
    return seq[..., -1, :] @ net.dense_W.mT + net.dense_b, caches


def count_params(d_in: int, h: int) -> int:
    """Trainable scalars in one LSTM layer: 4*((d_in + h)*h + h)."""
    return 4 * ((d_in + h) * h + h)


def forward(net, window, train=False, rng=None):
    """`lstm.forward_batch` on one (m, k) window: (out_dim,) prediction and cache."""
    pred, cache = lstm.forward_batch(net, np.asarray(window)[None, ...], train=train, rng=rng)
    return pred[0], cache


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over output dims (and batch) of squared error."""
    return float(np.mean((pred - target) ** 2))


def evaluate_loss(net, inputs: np.ndarray, targets: np.ndarray) -> float:
    pred, _ = lstm.forward_batch(net, inputs)
    return mse_loss(pred, targets)


def predict_sequence(net, seed_window: np.ndarray, steps: int, fed: np.ndarray | None = None) -> np.ndarray:
    """Recursive multi-step rollout in scaled units, one `forward_batch` per
    step on the latest (..., m, k) window: each clamped prediction becomes
    the position part of the newest window row, speed and course hold the
    window's last known values. Returns (steps, ..., 2).

    With `fed` (steps, ..., 2), step s feeds back fed[s] in place of its
    own prediction, so prediction s is `forward_batch` on the window that
    a rollout which predicted `fed` saw at step s."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    window = np.array(seed_window, dtype=np.float64)
    preds = np.empty((steps, *window.shape[:-2], net.out_dim))
    for s in range(steps):
        pred, _ = lstm.forward_batch(net, window[..., None, :, :])
        preds[s] = pred[..., 0, :]
        fed_back = np.clip(preds[s] if fed is None else fed[s], lstm.FEEDBACK_MIN, lstm.FEEDBACK_MAX)
        newest = np.concatenate((fed_back, window[..., -1, 2:]), axis=-1)
        window = np.concatenate((window[..., 1:, :], newest[..., None, :]), axis=-2)
    return preds


def rollout(net, seed_window: np.ndarray, steps: int) -> np.ndarray:
    """`steps` predictions of `lstm.roll_step` from `lstm.rollout_start` on
    the seed window: (steps, ..., 2)."""
    state = lstm.rollout_start(net, seed_window)
    preds = []
    for _ in range(steps):
        pred, state = lstm.roll_step(net, state)
        preds.append(pred)
    return np.array(preds)
