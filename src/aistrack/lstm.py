"""From-scratch stacked LSTM: forward, backpropagation through time, Adam.

Cell recurrence (per layer, gate order i, f, g, o):

    pre     = W x + U h_prev + b
    i, f, o = sigmoid(pre)   (their slices)
    g       = relu(pre)      (its slice)
    c       = f * c_prev + i * g
    h       = o * relu(c)

The architecture is defined here once: `N_LAYERS` = 3 layers (hidden size 32
by default) on `INPUT_DIM` = 4 inputs (lat, lon, speed, course), and a dense
head of `OUT_DIM` = 2 outputs (lat, lon) that reads the last timestep. Every
layer after the first adds its input to its output (an identity residual
connection, as in the paper's stack), followed in train mode by inverted
dropout. `param_shapes(hidden)` gives the parameter shapes in
`param_arrays()` order, and `network_from_arrays` builds a network from
arrays in that order; `init_network`, `stack_networks`, `unstack_network`
and the model file reader (`fleet`) all go through them, so only the hidden
size varies between networks. A fleet is one stack: `fleet.load_fleet`
rejects a model directory that mixes hidden sizes or windows, or lists a
vessel twice. All math is float64 so the finite-difference gradient check
is tight.

All forward/backward internals are batched over windows; batch size 1
recovers the single-window contract. Everything also takes a leading vessel
axis: `stack_networks` gives every parameter one, and `forward_batch`,
`backward`, `AdamState.step` and `train_epoch` then run Z vessel models on
(Z, B, m, k) windows with batched matmuls (`x[..., t, :]`, `.mT`,
`sum(axis=-2)`). Each vessel's slice goes through the same BLAS call and
the same elementwise operations in the same order as an unstacked call, so a
stack trains bit for bit as Z separate networks would; in train mode each
vessel draws its shuffles and dropout masks from its own generator.

`_layer_forward` computes `W x` for all m timesteps before the recurrence,
as one GEMM over the B*m rows of the layer input (Appleyard et al. 2016,
arXiv:1604.01946). The cell loop then does only `h_prev @ U`, the adds in
the order `(W x + U h_prev) + b`, one sigmoid over the whole pre-activation
and the elementwise cell. BLAS may round one product over B*m rows apart
from m products over B rows. It does at B = 1, where each timestep was a
matrix-vector call, and at GEMM tail sizes such as 2 or 7, but not at the
batches the benchmark fleets train with (10, 128 and a tail of 18): hoisting
kept every trained weight bit and moved rollout predictions (B = 1) in
their last bits.

`_layer_forward` and the rollout share one cell function, `_cell`, so the
equations above are written once.

The rollout (`rollout_start`, `roll_step`) predicts recursively: each
prediction, clamped, becomes the position of the next input row, and speed
and course hold the window's last known values. Window s + 1 shares m - 1
inputs with window s, so rather than rerun a whole window per prediction,
the rollout keeps the m windows in flight as one batch, in a ring of m
slots holding each layer's (h, c). Each step feeds the newest input to all
of them: one cell step per layer on (..., m, h) rows, where rerunning the
window would take m cell steps on one row each (Appleyard et al. 2016
again). The window that has now taken m inputs gives the prediction, and
its slot is zeroed to start the newest window. Every window still starts
from zero state and sees the same m inputs as in `forward_batch`; only the
grouping of rows in the matrix products differs, so predictions agree to
a relative 1e-12, not bit for bit. A stacked rollout still computes each
vessel's slice exactly as that vessel's own rollout would.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CacheMismatch, NonFiniteActivation


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def relu(x):
    return np.maximum(x, 0.0)


@dataclass
class LstmLayerParams:
    """One layer's weights: W (4h, d_in), U (4h, h), b (4h,); stacked,
    W (Z, 4h, d_in), U (Z, 4h, h), b (Z, 1, 4h)."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @property
    def hidden(self) -> int:
        return self.U.shape[-1]

    @property
    def d_in(self) -> int:
        return self.W.shape[-1]


@dataclass
class LstmNetwork:
    """Stacked LSTM with dense (lat, lon) head."""

    layers: list[LstmLayerParams]
    dense_W: np.ndarray  # (out_dim, h)
    dense_b: np.ndarray  # (out_dim,)
    dropout_rate: float = 0.2

    @property
    def hidden(self) -> int:
        return self.layers[0].hidden

    @property
    def input_dim(self) -> int:
        return self.layers[0].d_in

    @property
    def out_dim(self) -> int:
        return self.dense_b.shape[-1]

    def param_arrays(self) -> list[np.ndarray]:
        arrays = []
        for layer in self.layers:
            arrays.extend([layer.W, layer.U, layer.b])
        arrays.extend([self.dense_W, self.dense_b])
        return arrays


# The one architecture: three layers, on (lat, lon, speed, course) inputs,
# with a dense (lat, lon) head. Model files must declare exactly these.
N_LAYERS = 3
INPUT_DIM = 4
OUT_DIM = 2


def param_shapes(hidden: int) -> list[tuple[int, ...]]:
    """The shape of each parameter array, in `param_arrays()` order."""
    layers = [[(4 * hidden, d_in), (4 * hidden, hidden), (4 * hidden,)] for d_in in (INPUT_DIM, hidden, hidden)]
    return [shape for layer in layers for shape in layer] + [(OUT_DIM, hidden), (OUT_DIM,)]


def network_from_arrays(arrays: list[np.ndarray], dropout_rate: float) -> LstmNetwork:
    """The network whose `param_arrays()` are `arrays`."""
    *layer_arrays, dense_W, dense_b = arrays
    layers = [LstmLayerParams(*layer_arrays[i : i + 3]) for i in range(0, len(layer_arrays), 3)]
    return LstmNetwork(layers=layers, dense_W=dense_W, dense_b=dense_b, dropout_rate=dropout_rate)


def init_network(
    hidden: int = 32,
    dropout_rate: float = 0.2,
    rng: np.random.Generator | None = None,
) -> LstmNetwork:
    """The paper's three residual layers and (lat, lon) head: Glorot-uniform
    weights, zero biases except forget gate bias = 1."""
    rng = rng or np.random.default_rng(0)
    arrays = []
    for shape in param_shapes(hidden):
        lim = np.sqrt(6.0 / sum(shape))
        arrays.append(rng.uniform(-lim, lim, size=shape) if len(shape) == 2 else np.zeros(shape))
    net = network_from_arrays(arrays, dropout_rate)
    for layer in net.layers:
        layer.b[hidden : 2 * hidden] = 1.0  # forget gate
    return net


def stack_networks(nets: list[LstmNetwork]) -> LstmNetwork:
    """Stack same-shaped networks along a leading vessel axis: W (Z, 4h, d),
    U (Z, 4h, h), b (Z, 1, 4h), dense_W (Z, out, h), dense_b (Z, 1, out).
    forward_batch, backward and train_epoch on the result take (Z, B, m, k)
    windows; `unstack_network` takes one vessel's network back out. Networks
    of different shapes or layer counts are a ValueError."""
    params = zip(*(n.param_arrays() for n in nets), strict=True)
    return network_from_arrays([np.stack([np.atleast_2d(a) for a in p]) for p in params], nets[0].dropout_rate)


def unstack_network(stacked: LstmNetwork, z: int) -> LstmNetwork:
    """Copy vessel z's network out of a `stack_networks` result."""
    shapes = param_shapes(stacked.hidden)
    arrays = [a[z].reshape(shape).copy() for a, shape in zip(stacked.param_arrays(), shapes, strict=True)]
    return network_from_arrays(arrays, stacked.dropout_rate)


@dataclass
class LayerCache:
    x: np.ndarray  # (*lead, m, d_in) layer input sequence
    i: np.ndarray  # gate activations, each (*lead, m, h)
    f: np.ndarray
    g_pre: np.ndarray  # candidate pre-activation; the candidate is relu(g_pre)
    o: np.ndarray
    c: np.ndarray


@dataclass
class ForwardCache:
    layer_caches: list[LayerCache] = field(default_factory=list)
    dropout_masks: list[np.ndarray | None] = field(default_factory=list)
    final_seq: np.ndarray | None = None  # (*lead, m, h) after last block
    prediction: np.ndarray | None = None  # (*lead, out_dim)


def _cell(xw, h_prev, c_prev, U_T, b):
    """One cell step from the input projection xw = W x, on any number of
    rows at once: (i, f, g_pre, o, c, h), each (..., h)."""
    h = U_T.shape[-2]
    pre = xw + h_prev @ U_T + b
    gates = sigmoid(pre)  # i, f and o are read from it; g is relu(g_pre)
    i, f, o = gates[..., :h], gates[..., h : 2 * h], gates[..., 3 * h :]
    g_pre = pre[..., 2 * h : 3 * h]
    c = f * c_prev + i * relu(g_pre)
    return i, f, g_pre, o, c, o * relu(c)


def _layer_forward(layer: LstmLayerParams, x: np.ndarray) -> tuple[np.ndarray, LayerCache]:
    *lead, m, d = x.shape
    h = layer.hidden
    # W x for all m timesteps: one GEMM over B*m rows (per vessel if stacked)
    xw = (x.reshape(*lead[:-1], -1, d) @ layer.W.mT).reshape(*lead, m, 4 * h)
    U_T, b = layer.U.mT, layer.b
    i_a, f_a, gp_a, o_a, c_a, h_seq = (np.empty((*lead, m, h)) for _ in range(6))
    h_prev = np.zeros((*lead, h))
    c_prev = np.zeros((*lead, h))
    for t in range(m):
        i_t, f_t, gp_t, o_t, c_prev, h_prev = _cell(xw[..., t, :], h_prev, c_prev, U_T, b)
        i_a[..., t, :], f_a[..., t, :], gp_a[..., t, :], o_a[..., t, :] = i_t, f_t, gp_t, o_t
        c_a[..., t, :], h_seq[..., t, :] = c_prev, h_prev
    return h_seq, LayerCache(x=x, i=i_a, f=f_a, g_pre=gp_a, o=o_a, c=c_a)


def _per_vessel(rng: np.random.Generator | list[np.random.Generator], draw) -> np.ndarray:
    """draw(rng) for one network; for a stack, one draw from each vessel's own
    generator in a list, stacked along the leading vessel axis."""
    if isinstance(rng, np.random.Generator):
        return draw(rng)
    return np.stack([draw(r) for r in rng])


def forward_batch(
    net: LstmNetwork,
    windows: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | list[np.random.Generator] | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the stack on windows of shape (B, m, k), or (Z, B, m, k) for a
    stacked network; returns (B, out_dim) or (Z, B, out_dim) predictions
    and the cache `backward` reads. Train-mode dropout on a stacked network
    takes a list of Z generators."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != net.dense_W.ndim + 1 or windows.shape[-1] != net.input_dim:
        lead = "Z, " * (net.dense_W.ndim - 2)
        raise CacheMismatch(f"expected ({lead}B, m, {net.input_dim}) input, got {windows.shape}")
    cache = ForwardCache()
    seq = windows
    for li, layer in enumerate(net.layers):
        out, lc = _layer_forward(layer, seq)
        if li > 0:
            out = out + seq
        mask = None
        if li > 0 and train and net.dropout_rate > 0:
            if rng is None:
                raise ValueError("train-mode forward with dropout needs an rng")
            keep = 1.0 - net.dropout_rate
            mask = (_per_vessel(rng, lambda r: r.random(out.shape[-3:])) < keep) / keep
            out = out * mask
        cache.layer_caches.append(lc)
        cache.dropout_masks.append(mask)
        seq = out
    pred = seq[..., -1, :] @ net.dense_W.mT + net.dense_b
    if not np.all(np.isfinite(pred)):
        raise NonFiniteActivation("non-finite prediction")
    cache.final_seq = seq
    cache.prediction = pred
    return pred, cache


def _layer_backward(
    layer: LstmLayerParams, lc: LayerCache, d_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BPTT through one layer. d_out is dL/d(h_seq), shape (*lead, B, m, h).
    Returns (dX, dW, dU, db). ReLU derivative is 0 at the kink."""
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
        gp_t = lc.g_pre[..., t, :]
        c_prev = lc.c[..., t - 1, :] if t > 0 else zeros
        h_prev = lc.o[..., t - 1, :] * relu(c_prev) if t > 0 else zeros
        dh = d_out[..., t, :] + dh_next
        do = dh * relu(c_t)
        dc = dc_next + dh * o_t * (c_t > 0)
        dg = dc * i_t
        di = dc * relu(gp_t)
        df = dc * c_prev
        dpre = np.concatenate(
            (
                di * i_t * (1 - i_t),
                df * f_t * (1 - f_t),
                dg * (gp_t > 0),
                do * o_t * (1 - o_t),
            ),
            axis=-1,
        )
        dW += dpre.mT @ lc.x[..., t, :]
        dU += dpre.mT @ h_prev
        db += dpre.sum(axis=-2).reshape(db.shape)
        dX[..., t, :] = dpre @ layer.W
        dh_next = dpre @ layer.U
        dc_next = dc * f_t
    return dX, dW, dU, db


def backward(net: LstmNetwork, cache: ForwardCache, targets: np.ndarray) -> list[np.ndarray]:
    """Exact gradients of the batch-mean MSE loss, same ordering (and shapes)
    as net.param_arrays(). A stacked network takes (Z, B, out_dim) targets
    and returns each vessel's gradients of its own loss."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    pred = cache.prediction
    if pred is None or pred.shape != targets.shape:
        raise CacheMismatch(f"prediction {None if pred is None else pred.shape} vs targets {targets.shape}")
    B = pred.shape[-2]
    # loss = mean over batch and output dims of (pred - target)^2
    d_pred = 2.0 * (pred - targets) / (B * net.out_dim)
    d_dense_W = d_pred.mT @ cache.final_seq[..., -1, :]
    d_dense_b = d_pred.sum(axis=-2).reshape(net.dense_b.shape)
    d_seq = np.zeros_like(cache.final_seq)
    d_seq[..., -1, :] = d_pred @ net.dense_W
    grads: list[np.ndarray] = []
    for li in range(len(net.layers) - 1, -1, -1):
        mask = cache.dropout_masks[li]
        if mask is not None:
            d_seq = d_seq * mask
        dX, dW, dU, db = _layer_backward(net.layers[li], cache.layer_caches[li], d_seq)
        if li > 0:
            dX = dX + d_seq
        grads[:0] = [dW, dU, db]
        d_seq = dX
    return grads + [d_dense_W, d_dense_b]


# Adam (Kingma & Ba 2015) moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adaptive moment estimation state, one slot per parameter array, and
    the learning rate."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    lr: float
    t: int = 0

    @classmethod
    def for_network(cls, net: LstmNetwork, lr: float) -> "AdamState":
        arrays = net.param_arrays()
        return cls(m=[np.zeros_like(a) for a in arrays], v=[np.zeros_like(a) for a in arrays], lr=lr)

    def step(self, net: LstmNetwork, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
        correction = np.sqrt(1 - b2**self.t) / (1 - b1**self.t)
        for param, grad, m, v in zip(net.param_arrays(), grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad**2
            param -= self.lr * correction * m / (np.sqrt(v) + eps)


def train_epoch(
    net: LstmNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    batch_size: int,
    rng: np.random.Generator | list[np.random.Generator],
    opt: AdamState,
) -> float | list[float]:
    """One pass over all windows: shuffle, batch, Adam step per batch.
    Returns the mean per-window loss (computed before each update).

    A stacked network trains in lockstep on (Z, n, m, k) inputs and
    (Z, n, out_dim) targets with a list of Z generators; each vessel is
    shuffled by its own generator and the Z losses come back as a list."""
    n = inputs.shape[-3]
    if n == 0:
        raise ValueError("no training windows")
    order = _per_vessel(rng, lambda r: r.permutation(n))
    total = np.zeros(order.shape[:-1])
    for start in range(0, n, batch_size):
        idx = order[..., start : start + batch_size]
        x = np.take_along_axis(inputs, idx[..., None, None], axis=-3)
        y = np.take_along_axis(targets, idx[..., None], axis=-2)
        pred, cache = forward_batch(net, x, train=True, rng=rng)
        total += np.sum(np.mean((pred - y) ** 2, axis=-1), axis=-1)
        grads = backward(net, cache, y)
        opt.step(net, grads)
    return (total / n).tolist()


# Fed-back predictions are clamped to this band (scaled units; training data
# lives in [0, 1], the test horizon extends somewhat past it). Without the
# clamp a slightly expansive learned map turns the recursion into a positive
# feedback loop and the rollout diverges. Reported predictions stay raw.
FEEDBACK_MIN = -0.5
FEEDBACK_MAX = 1.5


@dataclass(frozen=True)
class Rollout:
    """The m windows of a rollout that are in flight, in a ring of m slots.

    Slot `slot` holds the window that takes its m-th input on the next step,
    the slot after it the window one input behind, and so on around the
    ring. Each layer keeps every slot's cell output and cell state in `h`
    and `c`, (..., m, hidden) each. Every window takes the next input `x`
    (..., k). `W_T` and `U_T` are contiguous copies of each layer's W.mT
    and U.mT, against which a stacked matmul runs about 2.5x faster than
    against the transposed view."""

    W_T: list[np.ndarray]
    U_T: list[np.ndarray]
    h: list[np.ndarray]
    c: list[np.ndarray]
    x: np.ndarray
    slot: int
    step: int = 0  # predictions made so far


def _tick(net: LstmNetwork, state: Rollout) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Feed state.x to every window in flight: one cell step per layer on
    all m slots. Returns the last layer's output (..., m, hidden) and each
    layer's new h and c."""
    seq = state.x[..., None, :]  # one input row, broadcast across the slots
    hs, cs = [], []
    for li, layer in enumerate(net.layers):
        *_, c, h = _cell(seq @ state.W_T[li], state.h[li], state.c[li], state.U_T[li], layer.b)
        seq = h + seq if li > 0 else h
        hs.append(h)
        cs.append(c)
    return seq, hs, cs


def _next(state: Rollout, hs: list[np.ndarray], cs: list[np.ndarray], x: np.ndarray, step: int) -> Rollout:
    """The state after a tick: the slot that completed is zeroed and starts
    the window whose first input is x, and the slot after it completes
    next."""
    for a in (*hs, *cs):
        a[..., state.slot, :] = 0.0
    return replace(state, h=hs, c=cs, x=x, slot=(state.slot + 1) % hs[0].shape[-2], step=step)


def rollout_start(net: LstmNetwork, window: np.ndarray) -> Rollout:
    """The rollout of an (m, k) window, or (Z, m, k) for a stacked network,
    before its first prediction: every window starts from zero state, and
    the first m - 1 rows have gone through the ring."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != net.dense_W.ndim or window.shape[-1] != net.input_dim:
        lead = "Z, " * (net.dense_W.ndim - 2)
        raise CacheMismatch(f"expected ({lead}m, {net.input_dim}) window, got {window.shape}")
    *lead, m, _ = window.shape
    state = Rollout(
        W_T=[np.ascontiguousarray(layer.W.mT) for layer in net.layers],
        U_T=[np.ascontiguousarray(layer.U.mT) for layer in net.layers],
        h=[np.zeros((*lead, m, layer.hidden)) for layer in net.layers],
        c=[np.zeros((*lead, m, layer.hidden)) for layer in net.layers],
        x=window[..., 0, :],
        slot=1 % m,
    )
    for t in range(1, m):
        _, hs, cs = _tick(net, state)
        state = _next(state, hs, cs, window[..., t, :], 0)
    return state


def roll_step(net: LstmNetwork, state: Rollout) -> tuple[np.ndarray, Rollout]:
    """One rollout step: every window in flight takes state.x, and the one
    that has now taken m inputs predicts the next row. Returns the raw
    prediction (..., out_dim) and the state of the next step, whose input
    is the clamped prediction followed by the carried speed and course."""
    seq, hs, cs = _tick(net, state)
    s, step = state.slot, state.step + 1
    pred = (seq[..., s : s + 1, :] @ net.dense_W.mT + net.dense_b)[..., 0, :]
    finite = np.isfinite(pred).all(axis=-1)
    if not finite.all():
        row = int(np.flatnonzero(~finite)[0]) if finite.ndim else None
        raise NonFiniteActivation(f"non-finite prediction at rollout step {step}", row)
    x = np.concatenate((np.clip(pred, FEEDBACK_MIN, FEEDBACK_MAX), state.x[..., 2:]), axis=-1)
    return pred, _next(state, hs, cs, x, step)
