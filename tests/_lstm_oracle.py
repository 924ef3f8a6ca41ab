"""LSTM helpers that only the tests use, and the oracles `lstm` is checked
against.

`reference_layer_forward` is the cell loop as it was before the input
projection was hoisted out of it: `x_t @ W.T` is taken inside the loop, one
timestep at a time, and each gate gets its own sigmoid. `lstm.forward_batch`
is checked against it.

`before_forward_batch` and `before_backward` are the training path as it was
before its caches went time-major: batch-major (*lead, m, .) caches, one
fresh array per operation, and products against the `.mT` views of the
weights. The time-major path must give the same bits at the batch sizes the
fleets train with, and agree to a relative 1e-12 at the others.

`predict_sequence` is the rollout as a sliding window: one `forward_batch`
per step on the whole latest window. `lstm.roll_step`, which keeps the m
windows in flight and steps each layer once per prediction, is checked
against it; `rollout` is the loop over `roll_step` that the checks run.

`allocating_rollout` is the ring rollout as it was before it advanced its
state in place: every step takes fresh gate, product and candidate arrays
and new h and c arrays for each layer, in the network's dtype. The
in-place `lstm.roll_step` must give its bits, in float64 and in float32.
"""

from dataclasses import dataclass, field

import numpy as np

from aistrack import lstm


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def relu(x):
    return np.maximum(x, 0.0)


@dataclass
class BatchMajorCache:
    """One layer's cache in the batch-major layout: (*lead, m, .) arrays.
    `g` is the candidate relu(g_pre), as in `lstm.LayerCache`'s g slot."""

    x: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray


def batch_major(lc: lstm.LayerCache) -> BatchMajorCache:
    """Batch-major views of a time-major `lstm.LayerCache`."""
    h = lc.c.shape[-1]
    a = np.moveaxis(lc.gates, 0, -2)
    return BatchMajorCache(
        x=np.moveaxis(lc.x, 0, -2),
        i=a[..., :h],
        f=a[..., h : 2 * h],
        g=a[..., 2 * h : 3 * h],
        o=a[..., 3 * h :],
        c=np.moveaxis(lc.c, 0, -2),
    )


def reference_layer_forward(layer: lstm.LstmLayerParams, x: np.ndarray) -> tuple[np.ndarray, BatchMajorCache]:
    *lead, m, _ = x.shape
    h = layer.hidden
    i_a, f_a, g_a, o_a, c_a = (np.empty((*lead, m, h)) for _ in range(5))
    h_seq = np.empty((*lead, m, h))
    h_prev = np.zeros((*lead, h))
    c_prev = np.zeros((*lead, h))
    for t in range(m):
        pre = x[..., t, :] @ layer.W.mT + h_prev @ layer.U.mT + layer.b
        i_t = sigmoid(pre[..., :h])
        f_t = sigmoid(pre[..., h : 2 * h])
        g_t = relu(pre[..., 2 * h : 3 * h])
        o_t = sigmoid(pre[..., 3 * h :])
        c_t = f_t * c_prev + i_t * g_t
        h_t = o_t * relu(c_t)
        i_a[..., t, :], f_a[..., t, :], g_a[..., t, :], o_a[..., t, :] = i_t, f_t, g_t, o_t
        c_a[..., t, :] = c_t
        h_seq[..., t, :] = h_t
        h_prev, c_prev = h_t, c_t
    return h_seq, BatchMajorCache(x=x, i=i_a, f=f_a, g=g_a, o=o_a, c=c_a)


def reference_forward(net: lstm.LstmNetwork, windows: np.ndarray) -> tuple[np.ndarray, list[BatchMajorCache]]:
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


def _before_cell(xw, h_prev, c_prev, U_T, b):
    h = U_T.shape[-2]
    pre = xw + h_prev @ U_T + b
    gates = sigmoid(pre)
    i, f, o = gates[..., :h], gates[..., h : 2 * h], gates[..., 3 * h :]
    g = relu(pre[..., 2 * h : 3 * h])
    c = f * c_prev + i * g
    return i, f, g, o, c, o * relu(c)


def _before_layer_forward(layer: lstm.LstmLayerParams, x: np.ndarray) -> tuple[np.ndarray, BatchMajorCache]:
    *lead, m, d = x.shape
    h = layer.hidden
    xw = (x.reshape(*lead[:-1], -1, d) @ layer.W.mT).reshape(*lead, m, 4 * h)
    U_T, b = layer.U.mT, layer.b
    i_a, f_a, g_a, o_a, c_a, h_seq = (np.empty((*lead, m, h)) for _ in range(6))
    h_prev = np.zeros((*lead, h))
    c_prev = np.zeros((*lead, h))
    for t in range(m):
        i_t, f_t, g_t, o_t, c_prev, h_prev = _before_cell(xw[..., t, :], h_prev, c_prev, U_T, b)
        i_a[..., t, :], f_a[..., t, :], g_a[..., t, :], o_a[..., t, :] = i_t, f_t, g_t, o_t
        c_a[..., t, :], h_seq[..., t, :] = c_prev, h_prev
    return h_seq, BatchMajorCache(x=x, i=i_a, f=f_a, g=g_a, o=o_a, c=c_a)


@dataclass
class BeforeCache:
    layer_caches: list[BatchMajorCache] = field(default_factory=list)
    dropout_masks: list[np.ndarray | None] = field(default_factory=list)
    final_seq: np.ndarray | None = None
    prediction: np.ndarray | None = None


def before_cache(cache: lstm.ForwardCache) -> BeforeCache:
    """Batch-major views of a `lstm.forward_batch` cache, for `before_backward`."""
    return BeforeCache(
        layer_caches=[batch_major(lc) for lc in cache.layer_caches],
        dropout_masks=[None if mask is None else np.moveaxis(mask, 0, -2) for mask in cache.dropout_masks],
        final_seq=np.moveaxis(cache.final_seq, 0, -2),
        prediction=cache.prediction,
    )


def before_forward_batch(net, windows, train=False, rngs=None, workspace=None):
    """`lstm.forward_batch` on batch-major caches; same arguments, and a
    fresh array for every result whatever `workspace` is."""
    windows = np.asarray(windows, dtype=np.float64)
    cache = BeforeCache()
    seq = windows
    for li, layer in enumerate(net.layers):
        out, lc = _before_layer_forward(layer, seq)
        if li > 0:
            out = out + seq
        mask = None
        if li > 0 and train and net.dropout_rate > 0:
            keep = 1.0 - net.dropout_rate
            mask = (lstm._per_vessel(rngs, lambda r: r.random(out.shape[-3:])) < keep) / keep
            out = out * mask
        cache.layer_caches.append(lc)
        cache.dropout_masks.append(mask)
        seq = out
    pred = seq[..., -1, :] @ net.dense_W.mT + net.dense_b
    cache.final_seq = seq
    cache.prediction = pred
    return pred, cache


def _before_layer_backward(layer: lstm.LstmLayerParams, lc: BatchMajorCache, d_out: np.ndarray):
    *lead, m, h = d_out.shape
    dW = np.zeros_like(layer.W)
    dU = np.zeros_like(layer.U)
    db = np.zeros_like(layer.b)
    dX = np.empty_like(lc.x)
    zeros = np.zeros((*lead, h))
    dh_next = zeros
    dc_next = zeros
    for t in range(m - 1, -1, -1):
        i_t, f_t, o_t, c_t = lc.i[..., t, :], lc.f[..., t, :], lc.o[..., t, :], lc.c[..., t, :]
        g_t = lc.g[..., t, :]
        c_prev = lc.c[..., t - 1, :] if t > 0 else zeros
        h_prev = lc.o[..., t - 1, :] * relu(c_prev) if t > 0 else zeros
        dh = d_out[..., t, :] + dh_next
        do = dh * relu(c_t)
        dc = dc_next + dh * o_t * (c_t > 0)
        dg = dc * i_t
        di = dc * g_t
        df = dc * c_prev
        dpre = np.concatenate(
            (di * i_t * (1 - i_t), df * f_t * (1 - f_t), dg * (g_t > 0), do * o_t * (1 - o_t)),
            axis=-1,
        )
        dW += dpre.mT @ lc.x[..., t, :]
        dU += dpre.mT @ h_prev
        db += dpre.sum(axis=-2, keepdims=True)
        dX[..., t, :] = dpre @ layer.W
        dh_next = dpre @ layer.U
        dc_next = dc * f_t
    return dX, dW, dU, db


def before_backward(net, cache: BeforeCache, targets, workspace=None):
    """`lstm.backward` on a `before_forward_batch` cache; `workspace` is
    ignored, as in `before_forward_batch`."""
    targets = np.asarray(targets, dtype=np.float64)
    pred = cache.prediction
    B = pred.shape[-2]
    d_pred = 2.0 * (pred - targets) / (B * net.out_dim)
    d_dense_W = d_pred.mT @ cache.final_seq[..., -1, :]
    d_dense_b = d_pred.sum(axis=-2, keepdims=True)
    d_seq = np.zeros_like(cache.final_seq)
    d_seq[..., -1, :] = d_pred @ net.dense_W
    grads = []
    for li in range(len(net.layers) - 1, -1, -1):
        mask = cache.dropout_masks[li]
        if mask is not None:
            d_seq = d_seq * mask
        dX, dW, dU, db = _before_layer_backward(net.layers[li], cache.layer_caches[li], d_seq)
        if li > 0:
            dX = dX + d_seq
        grads[:0] = [dW, dU, db]
        d_seq = dX
    return grads + [d_dense_W, d_dense_b]


def count_params(d_in: int, h: int) -> int:
    """Trainable scalars in one LSTM layer: 4*((d_in + h)*h + h)."""
    return 4 * ((d_in + h) * h + h)


def forward(net, window, train=False, rng=None):
    """`lstm.forward_batch` of a one-vessel network on one (m, k) window, with
    generator `rng` in train mode: the (out_dim,) prediction and the cache."""
    rngs = None if rng is None else [rng]
    pred, cache = lstm.forward_batch(net, np.asarray(window)[None, None], train=train, rngs=rngs)
    return pred[0, 0], cache


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over output dims (and batch) of squared error."""
    return float(np.mean((pred - target) ** 2))


def evaluate_loss(net, inputs: np.ndarray, targets: np.ndarray) -> float:
    pred, _ = lstm.forward_batch(net, inputs)
    return mse_loss(pred, targets)


def predict_sequence(net, seed_window: np.ndarray, steps: int, fed: np.ndarray | None = None) -> np.ndarray:
    """Recursive multi-step rollout in scaled units, one `forward_batch` per
    step on the Z vessels' latest (Z, m, k) windows: each clamped prediction
    becomes the position part of the newest window row, speed and course
    hold the window's last known values. Returns (steps, Z, 2).

    With `fed` (steps, Z, 2), step s feeds back fed[s] in place of its
    own prediction, so prediction s is `forward_batch` on the window that
    a rollout which predicted `fed` saw at step s."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    window = np.array(seed_window, dtype=np.float64)
    preds = np.empty((steps, len(window), net.out_dim))
    for s in range(steps):
        pred, _ = lstm.forward_batch(net, window[:, None])
        preds[s] = pred[:, 0]
        fed_back = np.clip(preds[s] if fed is None else fed[s], lstm.FEEDBACK_MIN, lstm.FEEDBACK_MAX)
        newest = np.concatenate((fed_back, window[..., -1, 2:]), axis=-1)
        window = np.concatenate((window[..., 1:, :], newest[..., None, :]), axis=-2)
    return preds


def rollout(net, seed_window: np.ndarray, steps: int) -> np.ndarray:
    """`steps` predictions of `lstm.roll_step` from `lstm.rollout_start` on
    the Z vessels' (Z, m, k) seed windows: (steps, Z, 2)."""
    state = lstm.rollout_start(net, seed_window)
    preds = []
    for _ in range(steps):
        pred, state = lstm.roll_step(net, state)
        preds.append(pred)
    return np.array(preds)


def _allocating_cell(xw, h_prev, c_prev, U_T, b):
    """`lstm._cell` with a fresh array for each product and the candidate,
    and new c and h: returns (h, c)."""
    n = U_T.shape[-2]
    gates = xw + h_prev @ U_T
    gates += b
    g = np.maximum(gates[..., 2 * n : 3 * n], 0.0)
    np.exp(gates, out=gates)
    gates += 1.0
    np.divide(1.0, gates, out=gates)
    gates[..., 2 * n : 3 * n] = g
    g *= gates[..., :n]
    c = gates[..., n : 2 * n] * c_prev
    c += g
    return gates[..., 3 * n :] * c, c


def allocating_rollout(net, seed_window: np.ndarray, steps: int) -> np.ndarray:
    """`rollout` as the allocating ring rollout gives it: (steps, Z, 2)."""
    window = np.asarray(seed_window, dtype=net.dtype)
    Z, m, _ = window.shape
    ws = lstm.Workspace(net.dtype)
    weights = [lstm._cell_weights(layer, (Z, m, 4 * layer.hidden), ws, li) for li, layer in enumerate(net.layers)]
    hs = [np.zeros((Z, m, layer.hidden), net.dtype) for layer in net.layers]
    cs = [np.zeros((Z, m, layer.hidden), net.dtype) for layer in net.layers]
    x, slot, preds = window[..., 0, :], 1 % m, []
    for t in range(1, m + steps):  # m - 1 ticks to start, then one per prediction
        seq = x[..., None, :]
        for li, (W_T, U_T, b) in enumerate(weights):
            hs[li], cs[li] = _allocating_cell(seq @ W_T, hs[li], cs[li], U_T, b)
            seq = hs[li] + seq if li > 0 else hs[li]
        if t < m:
            x = window[..., t, :]
        else:
            pred = (seq[:, slot : slot + 1] @ net.dense_W.mT + net.dense_b)[:, 0]
            x = np.concatenate((np.clip(pred, lstm.FEEDBACK_MIN, lstm.FEEDBACK_MAX), x[..., 2:]), axis=-1)
            preds.append(pred)
        for a in (*hs, *cs):  # the completed slot starts the newest window
            a[..., slot, :] = 0.0
        slot = (slot + 1) % m
    return np.array(preds)
