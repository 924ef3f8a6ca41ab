"""From-scratch stacked LSTM: forward, backpropagation through time, Adam.

Cell recurrence (per layer, gate order i, f, g, o):

    pre     = W x + U h_prev + b
    i, f, o = sigmoid(pre)   (their slices)
    g       = relu(pre)      (its slice)
    c       = f * c_prev + i * g
    h       = o * c

The cell state is never negative (sigmoid gates, ReLU candidate), so h
needs no relu of its own.

The architecture is defined here once: `N_LAYERS` = 3 layers (hidden size 32
by default) on `INPUT_DIM` = 4 inputs (lat, lon, speed, course), and a dense
head of `OUT_DIM` = 2 outputs (lat, lon) that reads the last timestep. Every
layer after the first adds its input to its output (an identity residual
connection, as in the paper's stack), followed in train mode by inverted
dropout.

A network holds Z vessels' models, one per slice of a leading vessel axis
on every parameter; `init_network` draws slice z from generator z alone.
`param_shapes(hidden)` gives one vessel's slice of each parameter in
`param_arrays()` order, and `network_from_arrays` builds a network from
arrays in that order; `init_network`, `fleet.join_fleets` and the fleet
file reader (`fleet`) all go through them, so only the hidden size varies
between networks. A fleet is one stack (`fleet.Fleet`), saved as one file
of whole (Z, ...) arrays, so it has one hidden size by construction.
All math is float64 so the finite-difference gradient check is tight.

`forward_batch`, `backward`, `AdamState.step` and `train_epoch` run the Z
models on (Z, B, m, k) windows with batched matmuls (`x[t]`, `.mT`,
`sum(axis=-2)`). Each vessel's slice goes through the same BLAS call and
the same elementwise operations in the same order whatever Z is, so a stack
trains bit for bit as Z one-vessel networks would; in train mode each
vessel draws its shuffles and dropout masks from its own generator.

The interface is batch-major, but training runs time-major (Appleyard et
al. 2016, arXiv:1604.01946): `forward_batch` moves the windows to
(m, Z, B, k) once, so every timestep's rows are one contiguous slice
`x[t]`. Each layer takes its `LayerCache` before its time loop: `gates`
(m, Z, B, 4h) holds i, f, g = relu(g_pre) and o, and `c` and `h`
(m, Z, B, h) the cell state and output.
`_layer_forward` takes `W x` for all m timesteps before the recurrence, in
one call into `gates`, and each cell step then adds `U h_prev` and `b` in
place in the order `(W x + U h_prev) + b`, takes one sigmoid over the whole
slice and writes c and h into their slices: nothing is copied into the
cache afterwards. The products run against `_cell_weights`: contiguous
copies of `W.mT` and `U.mT`, and `b` broadcast to a step's rows, each with
the i, f and o columns negated, so that the sigmoid needs no negation pass.
The rollout multiplies by the same copies. The dropout masks are drawn
batch-major, in the shape and order of each generator's draws, and moved to
time-major.

The backward pass walks the steps back and keeps only what the recurrence
needs in its loop: each step writes dL/d(pre) over its spent gates and
takes `dL/d(pre) @ U` for the step before. After the loop, each layer's
dW, dU, db and input gradient (none for layer 0) are one product or sum
over all m*B rows per vessel, where a per-step product would have only B
rows. The sums behind those gradients are grouped differently from a sum
of m per-step products, so the trained weights differ from the per-step
form's in their last bits, and the gradients agree with it to a relative
1e-12 (`tests/_lstm_oracle.py` keeps that form). The forward gives that
form's bits from 10 rows per step on; at 8 rows or fewer BLAS groups its
products differently, and it too agrees to a relative 1e-12.

The arrays `forward_batch` and `backward` write, the caches, dropout
masks, weight copies and backward scratch, come from a `Workspace`, which
hands back the array it gave last time for the same name and shape.
Training keeps one per training length for all its stacks, batches and
epochs (`train_epoch` takes it), so a step after the first of each batch
shape allocates nothing large; the results are written with `out=` into the layouts a fresh array
would have, so every product and elementwise operation sees the same data
and the bits do not change. The gradients `backward` returns are new
arrays; a prediction and cache are valid until the next `forward_batch` on
their workspace. Called without one, each pass takes a fresh workspace.

The rollout (`rollout_start`, `roll_step`) predicts recursively: each
prediction, clamped, becomes the position of the next input row, and speed
and course hold the window's last known values. Window s + 1 shares m - 1
inputs with window s, so rather than rerun a whole window per prediction,
the rollout keeps the m windows in flight as one batch, in a ring of m
slots holding each layer's (h, c). Each step feeds the newest input to all
of them: one cell step per layer on (Z, m, h) rows, where rerunning the
window would take m cell steps on one row each (Appleyard et al. 2016
again). The window that has now taken m inputs gives the prediction, and
its slot is zeroed to start the newest window. Every window still starts
from zero state and sees the same m inputs as in `forward_batch`; only the
grouping of rows in the matrix products differs, so predictions agree to
a relative 1e-12, not bit for bit. A rollout of Z vessels still computes
each vessel's slice exactly as that vessel's own rollout would.
`rollout_start` builds the state, which holds what the steps read: every
layer's h and c as one (n_layers, Z, m, h) array each, the next input, and
each layer's `_cell_weights` copies. Only one cell step's scratch, which
the layers share and the first cell step allocates, lives in a `Workspace`,
as training's does. `roll_step` then advances that state in place, and
`_cell` writes its products into the scratch its caller passes; a step
allocates only its (Z, out_dim) prediction, which it returns raw, finite or
not: its caller, `associate.rollout_positions`, checks the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CacheMismatch, NonFiniteActivation


@dataclass
class LstmLayerParams:
    """One layer's weights for each of Z vessels: W (Z, 4h, d_in),
    U (Z, 4h, h), b (Z, 1, 4h)."""

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
    """Z vessels' stacked LSTMs with dense (lat, lon) heads."""

    layers: list[LstmLayerParams]
    dense_W: np.ndarray  # (Z, out_dim, h)
    dense_b: np.ndarray  # (Z, 1, out_dim)
    dropout_rate: float

    @property
    def vessels(self) -> int:
        return len(self.dense_W)

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
    """One vessel's slice of each parameter array, in `param_arrays()`
    order; the biases are (1, n) rows."""
    layers = [[(4 * hidden, d_in), (4 * hidden, hidden), (1, 4 * hidden)] for d_in in (INPUT_DIM, hidden, hidden)]
    return [shape for layer in layers for shape in layer] + [(OUT_DIM, hidden), (1, OUT_DIM)]


def network_from_arrays(arrays: list[np.ndarray], dropout_rate: float) -> LstmNetwork:
    """The network whose `param_arrays()` are `arrays`."""
    *layer_arrays, dense_W, dense_b = arrays
    layers = [LstmLayerParams(*layer_arrays[i : i + 3]) for i in range(0, len(layer_arrays), 3)]
    return LstmNetwork(layers=layers, dense_W=dense_W, dense_b=dense_b, dropout_rate=dropout_rate)


def init_network(hidden: int, dropout_rate: float, rngs: list[np.random.Generator]) -> LstmNetwork:
    """The paper's three residual layers and (lat, lon) head for each of
    Z = len(rngs) vessels: Glorot-uniform weights, each vessel's drawn from
    its own generator, zero biases except forget gate bias = 1."""
    arrays = []
    for shape in param_shapes(hidden):
        lim = np.sqrt(6.0 / sum(shape))
        arrays.append(_per_vessel(rngs, lambda r: np.zeros(shape) if shape[0] == 1 else r.uniform(-lim, lim, shape)))
    net = network_from_arrays(arrays, dropout_rate)
    for layer in net.layers:
        layer.b[..., hidden : 2 * hidden] = 1.0  # forget gate
    return net


@dataclass
class LayerCache:
    """One layer's forward pass, time-major: index t is timestep t, and each
    timestep's rows are contiguous."""

    x: np.ndarray  # (m, Z, B, d_in) layer input
    gates: np.ndarray  # (m, Z, B, 4h) i, f, g = relu(g_pre) and o; `backward` overwrites it
    c: np.ndarray  # (m, Z, B, h) cell state
    h: np.ndarray  # (m, Z, B, h) cell output


@dataclass
class ForwardCache:
    layer_caches: list[LayerCache] = field(default_factory=list)
    dropout_masks: list[np.ndarray | None] = field(default_factory=list)  # (m, Z, B, h)
    final_seq: np.ndarray | None = None  # (m, Z, B, h) after last block
    prediction: np.ndarray | None = None  # (Z, B, out_dim)


class Workspace:
    """The float64 arrays that `forward_batch`, `backward` and a rollout
    write, kept from one call or step to the next. `array(name, shape)`
    returns the array it last gave for that name and shape, holding whatever
    was last written to it, or makes one; another shape, such as an epoch's
    last, shorter batch, gets its own arrays under the same names. Training
    keeps one per training length for all its stacks, batches and epochs,
    so that after the first batch of each shape a step allocates nothing
    large: at batch 128, arrays allocated and freed every batch are handed
    back to the kernel by the C library and faulted in again on the next."""

    def __init__(self) -> None:
        self._arrays: dict[tuple, np.ndarray] = {}

    def array(self, name, shape: tuple[int, ...]) -> np.ndarray:
        key = (name, shape)
        a = self._arrays.get(key)
        if a is None:
            a = self._arrays[key] = np.empty(shape)
        return a

    def zeros(self, name, shape: tuple[int, ...]) -> np.ndarray:
        """`array(name, shape)`, zeroed."""
        a = self.array(name, shape)
        a.fill(0.0)
        return a


def _cell_weights(
    layer: LstmLayerParams, rows: tuple[int, ...], ws: Workspace, li: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What `_cell` multiplies by, layer li's arrays in `ws`: contiguous
    copies of W.mT and U.mT, and b broadcast to the (..., 4h) `rows` shape
    of one cell step, each with its i, f and o columns negated. The products
    then give -pre in those columns, and each sigmoid is 1 / (1 + exp(-pre))
    without a negation pass; negation is exact, so the bits are those of
    negating pre."""
    n = layer.hidden
    signs = np.full(4 * n, -1.0)
    signs[2 * n : 3 * n] = 1.0
    W_T = np.multiply(layer.W.mT, signs, out=ws.array(("W_T", li), layer.W.mT.shape))
    U_T = np.multiply(layer.U.mT, signs, out=ws.array(("U_T", li), layer.U.mT.shape))
    return W_T, U_T, np.multiply(layer.b, signs, out=ws.array(("b", li), rows))


def _cell(xw, h_prev, c_prev, U_T, b, gates, c, h, rec, cand):
    """One cell step from the input projection xw = W x, on any number of
    rows at once, written into the caller's arrays: gates (..., 4h) takes i,
    f, g = relu(g_pre) and o, c and h (..., h) the cell state and output.
    rec (..., 4h) and cand (..., h) are scratch for U h_prev and the
    candidate. xw may be gates itself, and c and h may be c_prev and h_prev.
    U_T, b and the product behind xw are `_cell_weights`'. The cell state is
    never negative (c = f c_prev + i g with every factor >= 0), so h = o c
    needs no relu."""
    n = U_T.shape[-2]
    np.matmul(h_prev, U_T, out=rec)
    np.add(xw, rec, out=gates)
    gates += b
    np.maximum(gates[..., 2 * n : 3 * n], 0.0, out=cand)
    np.exp(gates, out=gates)  # i, f and o hold exp(-pre); g's slot is rewritten below
    gates += 1.0
    np.divide(1.0, gates, out=gates)
    gates[..., 2 * n : 3 * n] = cand
    cand *= gates[..., :n]
    np.multiply(gates[..., n : 2 * n], c_prev, out=c)
    c += cand
    np.multiply(gates[..., 3 * n :], c, out=h)


def _layer_forward(layer: LstmLayerParams, x: np.ndarray, ws: Workspace, li: int) -> LayerCache:
    """Layer li on a time-major (m, Z, B, d_in) input sequence, its cache
    written into `ws`."""
    m, Z, B, _ = x.shape
    n = layer.hidden
    gates = ws.array(("gates", li), (m, Z, B, 4 * n))
    c = ws.array(("c", li), (m, Z, B, n))
    h = ws.array(("h", li), (m, Z, B, n))
    W_T, U_T, b = _cell_weights(layer, (Z, B, 4 * n), ws, li)
    np.matmul(x, W_T, out=gates)  # W x for all m timesteps
    zeros = ws.zeros("zeros", (Z, B, n))
    rec, cand = ws.array("rec", (Z, B, 4 * n)), ws.array("cand", (Z, B, n))
    for t in range(m):  # gates[t] holds W x until its cell step overwrites it
        h_prev, c_prev = (h[t - 1], c[t - 1]) if t else (zeros, zeros)
        _cell(gates[t], h_prev, c_prev, U_T, b, gates[t], c[t], h[t], rec, cand)
    return LayerCache(x=x, gates=gates, c=c, h=h)


def _per_vessel(rngs: list[np.random.Generator], draw) -> np.ndarray:
    """One draw(rng) from each vessel's own generator, stacked along the
    vessel axis."""
    return np.stack([draw(r) for r in rngs])


def forward_batch(
    net: LstmNetwork,
    windows: np.ndarray,
    train: bool = False,
    rngs: list[np.random.Generator] | None = None,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the Z vessels' networks on (Z, B, m, k) windows; returns
    (Z, B, out_dim) predictions and the cache `backward` reads. Train-mode
    dropout takes one generator per vessel. The cache's arrays live in
    `workspace` (None: a fresh one), so the prediction and cache are valid
    until the next `forward_batch` on that workspace."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 4 or windows.shape[0] != net.vessels or windows.shape[-1] != net.input_dim:
        raise CacheMismatch(f"expected ({net.vessels}, B, m, {net.input_dim}) input, got {windows.shape}")
    ws = Workspace() if workspace is None else workspace
    cache = ForwardCache()
    Z, B, m, k = windows.shape
    seq = ws.array("x", (m, Z, B, k))
    np.copyto(seq, np.moveaxis(windows, -2, 0))
    for li, layer in enumerate(net.layers):
        lc = _layer_forward(layer, seq, ws, li)
        out = lc.h
        mask = None
        if li > 0:
            out = np.add(out, seq, out=ws.array(("out", li), out.shape))
            if train and net.dropout_rate > 0:
                if rngs is None or len(rngs) != net.vessels:
                    raise ValueError("train-mode forward with dropout needs one generator per vessel")
                # drawn batch-major, (B, m, h) per vessel, then moved to
                # time-major; each draw d becomes (d < keep) / keep in place
                n = out.shape[-1]
                keep = 1.0 - net.dropout_rate
                draws = ws.array(("mask", li), (Z, B, m, n))
                for z, r in enumerate(rngs):
                    r.random(out=draws[z])
                np.less(draws, keep, out=draws)
                np.divide(draws, keep, out=draws)
                mask = np.moveaxis(draws, -2, 0)
                out *= mask
        cache.layer_caches.append(lc)
        cache.dropout_masks.append(mask)
        seq = out
    pred = seq[-1] @ net.dense_W.mT + net.dense_b
    finite = np.isfinite(pred).all(axis=(1, 2))
    if not finite.all():  # named by its first vessel
        raise NonFiniteActivation("non-finite prediction", int(np.argmin(finite)))
    cache.final_seq = seq
    cache.prediction = pred
    return pred, cache


def _vessel_rows(a: np.ndarray, ws: Workspace, name: str) -> np.ndarray:
    """A time-major (m, Z, B, d) array as each vessel's m*B rows,
    timestep-major, (Z, m*B, d): one vessel's rows are already in that
    order, a view; several vessels' are copied into `ws`."""
    m, Z, B, d = a.shape
    rows = np.moveaxis(a, 0, 1)
    if Z > 1:
        copy = ws.array(name, rows.shape)
        np.copyto(copy, rows)
        rows = copy
    return rows.reshape(Z, m * B, d)


def _layer_backward(
    layer: LstmLayerParams, lc: LayerCache, d_out: np.ndarray, ws: Workspace, li: int
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """BPTT through layer li, its scratch in `ws`. d_out is dL/d(h),
    time-major (m, Z, B, h) as in the cache. Returns (dX, dW, dU, db); dX,
    dL/d(x) as (m, Z, B, d_in) in `ws`, is None for layer 0, whose input is
    the windows. ReLU derivative is 0 at the kink.

    Each step writes dL/d(pre) over its spent gates, so this consumes the
    cache. The recurrence only needs dL/d(pre) @ U; the weight gradients
    and dX are then one product per vessel over all m*B rows (Appleyard et
    al. 2016). h = o c carries no relu' factor: where c_t = 0, c_prev and g
    are 0 too (f > 0), so every path that dc feeds at t is multiplied by
    zero, down to t = 0, where nothing flows on."""
    m, Z, B, n = d_out.shape
    dact = ws.array("dact", (Z, B, 4 * n))  # dL/d(i, f, g, o)
    d_i, d_f, d_g, d_o = (dact[..., k * n : (k + 1) * n] for k in range(4))
    factor = ws.array("factor", (Z, B, 4 * n))
    dh, dc = ws.array("dh", (Z, B, n)), ws.array("dc", (Z, B, n))
    zeros, dh_next, dc_next = (ws.zeros(name, (Z, B, n)) for name in ("zeros", "dh_next", "dc_next"))
    for t in range(m - 1, -1, -1):
        a_t, c_t = lc.gates[t], lc.c[t]
        i_t, f_t, g_t, o_t = a_t[..., :n], a_t[..., n : 2 * n], a_t[..., 2 * n : 3 * n], a_t[..., 3 * n :]
        np.add(d_out[t], dh_next, out=dh)
        np.multiply(dh, c_t, out=d_o)
        np.multiply(dh, o_t, out=dc)
        dc += dc_next
        np.multiply(dc, g_t, out=d_i)
        np.multiply(dc, lc.c[t - 1] if t > 0 else zeros, out=d_f)
        np.multiply(dc, i_t, out=d_g)
        if t > 0:
            np.multiply(dc, f_t, out=dc_next)
        # dL/d(pre) = dact s (1 - s) in the i, f and o slots and dact relu'
        # in g's, where g > 0 exactly where g_pre > 0: the factors are 1 and
        # the mask there
        np.subtract(1.0, a_t, out=factor)
        np.greater(g_t, 0.0, out=factor[..., 2 * n : 3 * n])
        g_t[...] = 1.0
        a_t *= dact
        a_t *= factor
        if t > 0:  # h_prev and c_prev are zero at t = 0
            np.matmul(a_t, layer.U, out=dh_next)
    dpre = _vessel_rows(lc.gates, ws, "dpre")
    dW = dpre.mT @ _vessel_rows(lc.x, ws, "x_rows")
    dU = dpre[:, B:].mT @ _vessel_rows(lc.h[:-1], ws, "h_rows")  # rows from t = 1 on
    db = dpre.sum(axis=-2, keepdims=True)
    dX = None
    if li > 0:  # back to time-major: a view, which only elementwise operations read
        dX_rows = np.matmul(dpre, layer.W, out=ws.array(("dX", li), (Z, m * B, layer.d_in)))
        dX = np.moveaxis(dX_rows.reshape(Z, m, B, -1), 1, 0)
    return dX, dW, dU, db


def backward(
    net: LstmNetwork, cache: ForwardCache, targets: np.ndarray, workspace: Workspace | None = None
) -> list[np.ndarray]:
    """Each vessel's exact gradients of its own batch-mean MSE loss on
    (Z, B, out_dim) targets, same ordering (and shapes) as
    net.param_arrays(), each a new array; the scratch lives in `workspace`
    (None: a fresh one). The cache's gates are overwritten, so a cache backs
    one call: a second is a CacheMismatch."""
    targets = np.asarray(targets, dtype=np.float64)
    pred = cache.prediction
    if pred is None:
        raise CacheMismatch("no prediction in the cache: a forward cache backs one backward call")
    if pred.shape != targets.shape:
        raise CacheMismatch(f"prediction {pred.shape} vs targets {targets.shape}")
    cache.prediction = None
    ws = Workspace() if workspace is None else workspace
    B = pred.shape[-2]
    # loss = mean over batch and output dims of (pred - target)^2
    d_pred = 2.0 * (pred - targets) / (B * net.out_dim)
    d_dense_W = d_pred.mT @ cache.final_seq[-1]
    d_dense_b = d_pred.sum(axis=-2, keepdims=True)
    d_seq = ws.zeros("d_seq", cache.final_seq.shape)
    d_seq[-1] = d_pred @ net.dense_W
    grads: list[np.ndarray] = []
    for li in range(len(net.layers) - 1, -1, -1):
        mask = cache.dropout_masks[li]
        if mask is not None:
            d_seq *= mask
        dX, dW, dU, db = _layer_backward(net.layers[li], cache.layer_caches[li], d_seq, ws, li)
        if li > 0:
            dX += d_seq
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
    rngs: list[np.random.Generator],
    opt: AdamState,
    workspace: Workspace | None = None,
) -> list[float]:
    """One pass over all windows: shuffle, batch, Adam step per batch, for
    the Z vessels in lockstep on (Z, n, m, k) inputs and (Z, n, out_dim)
    targets. Each vessel is shuffled by its own generator. Every batch's
    forward and backward pass write into `workspace`, which a caller keeps
    across epochs (None: each pass takes a fresh one). Returns each
    vessel's mean per-window loss (computed before each update)."""
    n = inputs.shape[-3]
    if n == 0:
        raise ValueError("no training windows")
    order = _per_vessel(rngs, lambda r: r.permutation(n))
    total = np.zeros(len(order))
    for start in range(0, n, batch_size):
        idx = order[:, start : start + batch_size]
        x = np.take_along_axis(inputs, idx[..., None, None], axis=-3)
        y = np.take_along_axis(targets, idx[..., None], axis=-2)
        pred, cache = forward_batch(net, x, train=True, rngs=rngs, workspace=workspace)
        total += np.sum(np.mean((pred - y) ** 2, axis=-1), axis=-1)
        grads = backward(net, cache, y, workspace=workspace)
        opt.step(net, grads)
    return (total / n).tolist()


# Fed-back predictions are clamped to this band (scaled units; training data
# lives in [0, 1], the test horizon extends somewhat past it). Without the
# clamp a slightly expansive learned map turns the recursion into a positive
# feedback loop and the rollout diverges. Reported predictions stay raw.
FEEDBACK_MIN = -0.5
FEEDBACK_MAX = 1.5


@dataclass
class Rollout:
    """The m windows of a rollout that are in flight, in a ring of m slots:
    `roll_step` advances it in place.

    Slot `slot` holds the window that takes its m-th input on the next step,
    the slot after it the window one input behind, and so on around the
    ring. `h` and `c` (n_layers, Z, m, hidden) hold every layer's cell
    output and cell state for every slot, and every window takes the next
    input `x` (Z, k). `weights` holds each layer's `_cell_weights` (a
    stacked matmul runs about 2.5x faster against a contiguous copy of W.mT
    than against the transposed view), and `workspace` one cell step's
    scratch, which the layers share: the first layer's input product `xw0`
    (Z, 1, 4h), `gates` and the recurrent product `rec` (Z, m, 4h), and the
    candidate `cand` and residual sum `res` (Z, m, hidden)."""

    weights: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    h: np.ndarray
    c: np.ndarray
    x: np.ndarray
    slot: int
    workspace: Workspace


def _tick(state: Rollout) -> np.ndarray:
    """Feed state.x to every window in flight: one cell step per layer on
    all m slots, in place. Returns the last layer's output (Z, m, hidden)."""
    ws = state.workspace
    _, Z, m, n = state.h.shape
    gates, rec = ws.array("gates", (Z, m, 4 * n)), ws.array("rec", (Z, m, 4 * n))
    cand, res = ws.array("cand", (Z, m, n)), ws.array("res", (Z, m, n))
    seq = state.x[..., None, :]  # one input row, broadcast across the slots
    for li, (h, c, (W_T, U_T, b)) in enumerate(zip(state.h, state.c, state.weights)):
        # the first layer's product is one row, which the cell broadcasts;
        # the others' go straight into gates
        xw = np.matmul(seq, W_T, out=gates if li else ws.array("xw0", (Z, 1, 4 * n)))
        _cell(xw, h, c, U_T, b, gates, c, h, rec, cand)
        seq = np.add(h, seq, out=res) if li > 0 else h
    return seq


def _advance(state: Rollout) -> None:
    """Zero the slot that completed, to start the window whose first input
    is the next x, and move on to the slot after it, which completes next."""
    state.h[..., state.slot, :] = 0.0
    state.c[..., state.slot, :] = 0.0
    state.slot = (state.slot + 1) % state.h.shape[-2]


def rollout_start(net: LstmNetwork, window: np.ndarray) -> Rollout:
    """The rollout of the Z vessels' (Z, m, k) windows before its first
    prediction: every window starts from zero state, and the first m - 1
    rows have gone through the ring."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 3 or window.shape[0] != net.vessels or window.shape[-1] != net.input_dim:
        raise CacheMismatch(f"expected ({net.vessels}, m, {net.input_dim}) window, got {window.shape}")
    Z, m, _ = window.shape
    n = net.hidden
    # the state holds the weight copies; the workspaces they are made in are dropped
    weights = [_cell_weights(layer, (Z, m, 4 * n), Workspace(), li) for li, layer in enumerate(net.layers)]
    h, c = np.zeros((2, len(net.layers), Z, m, n))
    state = Rollout(weights=weights, h=h, c=c, x=window[..., 0, :].copy(), slot=1 % m, workspace=Workspace())
    for t in range(1, m):
        _tick(state)
        _advance(state)
        state.x[...] = window[..., t, :]
    return state


def roll_step(net: LstmNetwork, state: Rollout) -> tuple[np.ndarray, Rollout]:
    """One rollout step, in place: every window in flight takes state.x, and
    the one that has now taken m inputs predicts the next row. Returns the
    raw prediction (Z, out_dim), a new array that may hold non-finite
    values, and `state` itself, now the state of the next step, whose input
    is the clamped prediction followed by the carried speed and course."""
    seq = _tick(state)
    s = state.slot
    pred = (seq[:, s : s + 1] @ net.dense_W.mT + net.dense_b)[:, 0]
    np.clip(pred, FEEDBACK_MIN, FEEDBACK_MAX, out=state.x[..., :2])
    _advance(state)
    return pred, state
