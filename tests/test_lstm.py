import math
import tracemalloc

import numpy as np
import pytest

from _gradcheck import check_network
from _lstm_oracle import (
    allocating_rollout,
    batch_major,
    before_backward,
    before_cache,
    before_forward_batch,
    count_params,
    evaluate_loss,
    forward,
    mse_loss,
    predict_sequence,
    reference_forward,
    rollout,
)
from aistrack import lstm
from aistrack.errors import CacheMismatch, NonFiniteActivation
from aistrack.lstm import (
    AdamState,
    LstmLayerParams,
    LstmNetwork,
    forward_batch,
    init_network,
    network_from_arrays,
    roll_step,
    rollout_start,
    train_epoch,
)


def small_net(seed=1, hidden=8, dtype=np.float64):
    """One vessel's network, or with a tuple of seeds one vessel's per seed."""
    seeds = seed if isinstance(seed, tuple) else (seed,)
    return init_network(hidden=hidden, rngs=[np.random.default_rng(s) for s in seeds], dtype=dtype)


def vessel_count(several):
    """Z for a test parametrized on `several`: three vessels in one stack, or
    one, as `fleet` trains each vessel at large batch sizes."""
    return 3 if several else 1


def zero_net(**kwargs):
    net = small_net(**kwargs)
    for a in net.param_arrays():
        a[:] = 0.0
    return net


class TestCountParams:
    def test_table_values(self):
        assert count_params(32, 32) == 8320
        assert count_params(4, 32) == 4736
        assert count_params(5, 32) == 4864

    def test_matches_stored_scalars(self):
        net = init_network(hidden=32, rngs=[np.random.default_rng(0)])
        for li, layer in enumerate(net.layers):
            d_in = 4 if li == 0 else 32
            stored = layer.W.size + layer.U.size + layer.b.size
            assert count_params(d_in, 32) == stored


class TestForward:
    def test_zero_network_predicts_origin(self):
        pred, _ = forward(zero_net(), np.random.default_rng(3).random((10, 4)))
        np.testing.assert_array_equal(pred, [0.0, 0.0])

    def test_infer_mode_deterministic(self):
        net = small_net()
        win = np.random.default_rng(4).random((10, 4))
        p1, _ = forward(net, win)
        p2, _ = forward(net, win)
        np.testing.assert_array_equal(p1, p2)

    def test_single_cell_hand_evaluation(self):
        # one layer, h=1, W=U=0, b=(0, 0, ln3, 0): gates 0.5, g=ln3,
        # c = 0.5*ln3 ~ 0.549306, h = 0.5*relu(c) ~ 0.274653
        b = np.array([[[0.0, 0.0, np.log(3), 0.0]]])
        layer = LstmLayerParams(W=np.zeros((1, 4, 1)), U=np.zeros((1, 4, 1)), b=b)
        net = LstmNetwork(layers=[layer], dense_W=np.ones((1, 1, 1)), dense_b=np.zeros((1, 1, 1)))
        pred, cache = forward(net, np.array([[1.0]]))
        assert cache.layer_caches[0].c[0, 0, 0, 0] == pytest.approx(0.5493061443, abs=1e-9)
        assert pred[0] == pytest.approx(0.2746530722, abs=1e-9)

    def test_dropout_zero_train_equals_infer(self):
        # rate 0 with a generator is the call without one, and draws nothing
        net = small_net()
        win = np.random.default_rng(5).random((10, 4))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        p_train, cache = forward(net, win, dropout=0.0, rng=rng)
        assert rng.bit_generator.state == before
        assert cache.dropout_masks == [None, None, None]
        p_infer, _ = forward(net, win)
        np.testing.assert_array_equal(p_train, p_infer)

    def test_wrong_width_rejected(self):
        with pytest.raises(CacheMismatch):
            forward(small_net(), np.zeros((10, 5)))


class TestBackward:
    def test_zero_gradient_at_minimum(self):
        net = small_net()
        win = np.random.default_rng(6).random((1, 1, 6, 4))
        pred, cache = forward_batch(net, win)
        grads = lstm.backward(net, cache, pred)
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(7)
        net = init_network(hidden=8, rngs=[rng])
        win = rng.random((1, 1, 6, 4))
        tgt = rng.random((1, 1, 2))
        checked, worst = check_network(net, win, tgt, rng, coords_per_array=10)
        assert checked > 0
        assert worst < 1e-4

    @pytest.mark.parametrize("several", [False, True])
    def test_finite_difference_oracle_batched(self, several):
        # B = 3 windows for each of Z vessels: each weight gradient is one
        # product over a vessel's m*B rows
        rng = np.random.default_rng(17)
        Z = vessel_count(several)
        net = init_network(hidden=8, rngs=[rng] * Z)
        win = rng.random((Z, 3, 6, 4))
        tgt = rng.random((Z, 3, 2))
        checked, worst = check_network(net, win, tgt, rng, coords_per_array=10)
        assert checked > 0
        assert worst < 1e-4

    def test_zero_cell_state_matches_masked_oracle(self):
        # c_t = 0 at t = 0 and 1, where g_pre = -0.5 and exactly 0, and c_t > 0
        # from t = 2 on. The oracle multiplies dc by (c_t > 0); the backward
        # drops that factor, because where c_t = 0 every path that dc feeds
        # is multiplied by zero, so the gradients must be the same. Input
        # row 2 is zero and h_1 = 0, so each weight gradient element is one
        # product or a sum of two, and summing over m*B rows at once
        # rounds no differently from the oracle's per-step sums.
        rng = np.random.default_rng(23)
        n = 3
        W = rng.uniform(-0.5, 0.5, (1, 4 * n, 4))
        U = rng.uniform(-0.5, 0.5, (1, 4 * n, n))
        b = rng.uniform(-0.5, 0.5, (1, 1, 4 * n))
        W[:, 2 * n : 3 * n] = 0.0
        W[:, 2 * n : 3 * n, 0] = 1.0  # g_pre = x_0 + U_g h_prev + 0.5
        U[:, 2 * n : 3 * n] *= 0.1
        b[..., 2 * n : 3 * n] = 0.5
        layer = LstmLayerParams(W=W, U=U, b=b)
        dense_W = rng.uniform(-1, 1, (1, 2, n))
        net = LstmNetwork(layers=[layer], dense_W=dense_W, dense_b=np.zeros((1, 1, 2)))
        win = rng.random((1, 1, 4, 4))
        win[0, 0, :3, 0] = [-1.0, -0.5, 0.0]
        win[0, 0, 2, 1:] = 0.0
        win[0, 0, 3, 0] = 0.5
        tgt = rng.random((1, 1, 2))
        _, cache = forward_batch(net, win)
        c = cache.layer_caches[0].c[:, 0, 0]
        assert np.all(c[:2] == 0.0) and np.all(c[2:] > 0.0)
        assert np.all(batch_major(cache.layer_caches[0]).g[0, 0, 1] == 0.0)
        want = before_backward(net, before_cache(cache), tgt)
        got = lstm.backward(net, forward_batch(net, win)[1], tgt)
        assert all(np.any(g != 0.0) for g in got[:3])
        for g, ref in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, ref)

    def test_dense_bias_gradient_linear_in_residual(self):
        net = small_net()
        win = np.random.default_rng(8).random((1, 1, 6, 4))
        pred, cache = forward_batch(net, win)
        g1 = lstm.backward(net, cache, pred - np.array([0.1, 0.2]))
        g2 = lstm.backward(net, forward_batch(net, win)[1], pred - np.array([0.2, 0.4]))
        np.testing.assert_allclose(g2[-1], 2 * g1[-1], rtol=1e-12)

    def test_second_backward_on_one_cache_rejected(self):
        # backward writes dL/d(pre) over the cache's gates
        net = small_net()
        pred, cache = forward_batch(net, np.random.default_rng(8).random((1, 1, 6, 4)))
        lstm.backward(net, cache, pred)
        with pytest.raises(CacheMismatch, match="one backward call"):
            lstm.backward(net, cache, pred)

    def test_shape_mismatch_rejected(self):
        net = small_net()
        _, cache = forward(net, np.zeros((6, 4)))
        with pytest.raises(CacheMismatch):
            lstm.backward(net, cache, np.zeros((1, 3, 2)))

    def test_float32_backward_agrees_with_float64(self):
        # the dtype training runs in against float64 on the same weights,
        # widened exactly, and the same float32 windows and targets, at
        # paper_fleet's stack size. The prediction and each gradient are
        # within 1e-5 of their array's largest magnitude, about 84 float32
        # eps: rounding adds up over 10 steps, 3 layers and the m*B = 100
        # rows of each product (ten draws gave at most 3 eps).
        seeds = tuple(range(200, 205))
        net = small_net(seed=seeds, hidden=32, dtype=np.float32)
        # drawn as in float64, then cast
        for a, b in zip(net.param_arrays(), small_net(seed=seeds, hidden=32).param_arrays(), strict=True):
            assert a.dtype == np.float32 and np.array_equal(a, b.astype(np.float32))
        widened = network_from_arrays([a.astype(np.float64) for a in net.param_arrays()])
        data = np.random.default_rng(210)
        x, y = data.random((5, 10, 10, 4)).astype(np.float32), data.random((5, 10, 2)).astype(np.float32)
        pred, cache = forward_batch(net, x)
        want_pred, want_cache = forward_batch(widened, x)
        assert {lc.gates.dtype for lc in cache.layer_caches} == {np.dtype(np.float32)}
        grads, want = lstm.backward(net, cache, y), lstm.backward(widened, want_cache, y)
        for got, expected in zip([pred, *grads], [want_pred, *want], strict=True):
            assert got.dtype == np.float32
            assert np.abs(got - expected).max() <= 1e-5 * np.abs(expected).max()


def _toy_data(rng, n=24, m=6):
    """One vessel's n windows and targets."""
    inputs = rng.random((1, n, m, 4))
    targets = rng.random((1, n, 2))
    return inputs, targets


class TestTrainEpoch:
    def test_zero_learning_rate_leaves_params(self):
        net = small_net()
        before = [a.copy() for a in net.param_arrays()]
        inputs, targets = _toy_data(np.random.default_rng(9))
        loss = train_epoch(net, inputs, targets, 5, 0.0, [np.random.default_rng(0)], AdamState.for_network(net, 0.0))
        for a, b in zip(net.param_arrays(), before):
            np.testing.assert_array_equal(a, b)
        assert loss == [pytest.approx(evaluate_loss(net, inputs, targets), rel=1e-9)]

    def test_same_seed_identical_trajectories(self):
        inputs, targets = _toy_data(np.random.default_rng(10))
        results = []
        for _ in range(2):
            net = small_net()
            opt = AdamState.for_network(net, 1e-3)
            rngs = [np.random.default_rng(123)]
            losses = [train_epoch(net, inputs, targets, 4, 0.2, rngs, opt) for _ in range(3)]
            results.append((losses, [a.copy() for a in net.param_arrays()]))
        assert results[0][0] == results[1][0]
        for a, b in zip(results[0][1], results[1][1]):
            np.testing.assert_array_equal(a, b)

    def test_overfit_single_window(self):
        rng = np.random.default_rng(11)
        net = small_net()
        inputs = rng.random((1, 1, 6, 4))
        targets = rng.random((1, 1, 2))
        opt = AdamState.for_network(net, 1e-2)
        train_rngs = [np.random.default_rng(0)]
        for _ in range(200):
            train_epoch(net, inputs, targets, 1, 0.0, train_rngs, opt)
        assert evaluate_loss(net, inputs, targets) < 1e-4

    def test_sine_track_loss_drops(self):
        # noiseless sine-wave series: epoch-100 loss < 10% of epoch-1 loss
        t = np.arange(140)
        feats = np.column_stack(
            [
                0.5 + 0.4 * np.sin(2 * np.pi * t / 40),
                0.5 + 0.4 * np.cos(2 * np.pi * t / 40),
                np.full_like(t, 0.5, dtype=float),
                np.full_like(t, 0.5, dtype=float),
            ]
        )
        m = 10
        inputs = np.stack([feats[i : i + m] for i in range(len(feats) - m)])[None]
        targets = feats[None, m:, :2]
        net = init_network(hidden=16, rngs=[np.random.default_rng(12)])
        opt = AdamState.for_network(net, 1e-3)
        rngs = [np.random.default_rng(0)]
        (first,), *_, (last,) = [train_epoch(net, inputs, targets, 10, 0.0, rngs, opt) for _ in range(100)]
        assert last < 0.1 * first


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_keeps_the_parameter_dtype(dtype):
    # every moment and update is computed in its parameter's dtype: with an
    # np.float64 bias correction, a float32 parameter's update was a
    # float64 array, rounded to float32 only by the in-place subtraction
    net = small_net(seed=220, dtype=dtype)
    opt = AdamState.for_network(net, 1e-3)
    data = np.random.default_rng(221)
    want = [a.copy() for a in net.param_arrays()]
    m, v = [np.zeros_like(a) for a in want], [np.zeros_like(a) for a in want]
    b1, b2 = lstm.ADAM_BETA1, lstm.ADAM_BETA2
    for t in (1, 2):
        grads = [data.standard_normal(a.shape).astype(dtype) for a in want]
        opt.step(net, grads)
        rate = 1e-3 * (math.sqrt(1 - b2**t) / (1 - b1**t))
        for p, g, m_p, v_p in zip(want, grads, m, v):
            m_p[...] = m_p * dtype(b1) + dtype(1 - b1) * g
            v_p[...] = v_p * dtype(b2) + dtype(1 - b2) * g**2
            p -= dtype(rate) * m_p / (np.sqrt(v_p) + dtype(lstm.ADAM_EPSILON))
        for got, expected in [(net.param_arrays(), want), (opt.m, m), (opt.v, v)]:
            for a, b in zip(got, expected, strict=True):
                assert a.dtype == dtype and np.array_equal(a, b)


class TestWorkspace:
    @pytest.mark.parametrize("several", [False, True])
    def test_one_workspace_trains_as_a_fresh_one_per_batch(self, several):
        # 23 windows in batches of 5: four full batches and a tail of 3,
        # whose arrays the workspace keeps beside the full batches'
        Z = vessel_count(several)
        data = np.random.default_rng(40)
        inputs, targets = data.random((Z, 23, 6, 4)), data.random((Z, 23, 2))

        def two_epochs(workspace):
            net = small_net(seed=tuple(range(41, 41 + Z)))
            opt, rngs = AdamState.for_network(net, 1e-2), [np.random.default_rng(42 + z) for z in range(Z)]
            losses = [train_epoch(net, inputs, targets, 5, 0.2, rngs, opt, workspace) for _ in range(2)]
            return net, losses

        kept, kept_losses = two_epochs(lstm.Workspace())
        fresh, fresh_losses = two_epochs(None)
        assert kept_losses == fresh_losses
        for a, b in zip(kept.param_arrays(), fresh.param_arrays(), strict=True):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("several", [False, True])
    def test_reused_workspace_gives_a_fresh_calls_results(self, several):
        # the zero state, the backward's zeros and d_seq must not carry
        # anything from the call before, at the same shape or another
        Z = vessel_count(several)
        net = small_net(seed=tuple(range(43, 43 + Z)))
        data = np.random.default_rng(44)
        workspace = lstm.Workspace()
        for B in (5, 3, 5):
            x, y = data.random((Z, B, 6, 4)), data.random((Z, B, 2))

            def step(ws):
                rngs = [np.random.default_rng(45 + z) for z in range(Z)]
                pred, cache = forward_batch(net, x, dropout=0.2, rngs=rngs, workspace=ws)
                return pred.copy(), lstm.backward(net, cache, y, workspace=ws)

            pred, grads = step(workspace)
            want_pred, want_grads = step(None)
            np.testing.assert_array_equal(pred, want_pred)
            for g, want in zip(grads, want_grads, strict=True):
                np.testing.assert_array_equal(g, want)

    def test_epoch_after_the_first_allocates_nothing_large(self):
        # fresh arrays for one batch's caches, masks and backward scratch
        # come to 15 MB at batch 128
        rng = np.random.default_rng(46)
        inputs, targets = rng.random((1, 530, 10, 4)), rng.random((1, 530, 2))
        net = small_net(seed=47, hidden=32)
        opt, rngs, workspace = AdamState.for_network(net, 1e-3), [np.random.default_rng(48)], lstm.Workspace()
        train_epoch(net, inputs, targets, 128, 0.2, rngs, opt, workspace)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            train_epoch(net, inputs, targets, 128, 0.2, rngs, opt, workspace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 2_000_000


class TestPredictSequence:
    def test_single_step_equals_forward(self):
        net = small_net()
        win = np.random.default_rng(13).random((6, 4))
        roll = rollout(net, win[None], 1)
        pred, _ = forward(net, win)
        np.testing.assert_allclose(roll[0, 0], pred, rtol=1e-12, atol=0)

    def test_zero_network_rolls_out_zeros(self):
        roll = rollout(zero_net(), np.random.default_rng(14).random((1, 6, 4)), 5)
        np.testing.assert_array_equal(roll, np.zeros((5, 1, 2)))

    def test_three_steps_match_manual_unroll(self):
        net = small_net()
        win = np.random.default_rng(15).random((6, 4))
        roll = rollout(net, win[None], 3)
        window = win.copy()
        for s in range(3):
            pred, _ = forward(net, window)
            np.testing.assert_allclose(roll[s, 0], pred, rtol=1e-12, atol=0)
            fed_back = np.clip(pred, lstm.FEEDBACK_MIN, lstm.FEEDBACK_MAX)
            window = np.vstack((window[1:], np.concatenate((fed_back, window[-1, 2:]))))

    def test_expansive_network_rollout_stays_bounded(self):
        # a learned map with gain > 1 must not turn the recursion into a
        # runaway feedback loop
        net = small_net(seed=21)
        net.dense_W *= 25.0
        roll = rollout(net, np.random.default_rng(22).random((1, 6, 4)), 200)
        assert np.all(np.isfinite(roll))
        assert np.max(np.abs(roll)) < 1e3

    def test_speed_course_held_from_seed_window(self):
        net = small_net()
        win = np.random.default_rng(16).random((1, 6, 4))
        state = rollout_start(net, win)
        for _ in range(4):
            pred, state = roll_step(net, state)
        assert pred.shape == (1, 2)
        np.testing.assert_array_equal(state.x[:, 2:], win[:, -1, 2:])


def _expansive(net, z):
    net.dense_W[z] *= 25.0  # vessel z's feedback clamps


# (window m, horizon): horizons 1, m - 1, m, m + 1, 3m and 200
ROLLOUT_CASES = [(m, steps) for m in (1, 2, 6) for steps in sorted({1, m - 1, m, m + 1, 3 * m, 200} - {0})]


@pytest.mark.parametrize("m, steps", ROLLOUT_CASES)
@pytest.mark.parametrize("several", [False, True])
@pytest.mark.parametrize("clamped", [False, True])
def test_rollout_matches_sliding_window_oracle(m, steps, several, clamped):
    Z = vessel_count(several)
    net = small_net(seed=tuple(range(100, 100 + Z)))
    if clamped:
        _expansive(net, Z // 2)  # of three vessels, only the middle one's feedback clamps
    win = np.random.default_rng(110 + m).random((3, m, 4))[:Z]
    roll = rollout(net, win, steps)
    # each prediction is forward_batch on the window the rollout fed itself
    np.testing.assert_allclose(roll, predict_sequence(net, win, steps, fed=roll), rtol=1e-12, atol=0)
    oracle = predict_sequence(net, win, steps)
    if clamped and steps == 200:
        # An expansive map amplifies last-bit differences between the two
        # free-running rollouts: they drift apart by up to 1e-10
        # relative over 200 steps, while every step above stays within
        # 2e-13 of forward_batch on its own input.
        assert ((oracle < lstm.FEEDBACK_MIN) | (oracle > lstm.FEEDBACK_MAX)).any()
        return
    np.testing.assert_allclose(roll, oracle, rtol=1e-12, atol=0)


@pytest.mark.parametrize("Z", [1, 3])
@pytest.mark.parametrize("m", [1, 10])
@pytest.mark.parametrize("clamped", [False, True])
def test_in_place_rollout_gives_the_allocating_rollouts_bits(Z, m, clamped):
    net = small_net(seed=tuple(range(120, 120 + Z)), hidden=16)
    if clamped:
        _expansive(net, Z // 2)
    win = np.random.default_rng(130 + m).random((Z, m, 4))
    oracle = allocating_rollout(net, win, 60)
    if clamped:
        assert ((oracle < lstm.FEEDBACK_MIN) | (oracle > lstm.FEEDBACK_MAX)).any()
    np.testing.assert_array_equal(rollout(net, win, 60), oracle)


@pytest.mark.parametrize("clamped", [False, True])
def test_float32_network_rolls_out_in_float32(clamped):
    # the rollout's state, weight copies, scratch and predictions take the
    # network's dtype; the in-place ring gives the allocating ring's bits,
    # and a stack each vessel's own rollout's
    net = small_net(seed=(150, 151, 152), hidden=16, dtype=np.float32)
    if clamped:
        _expansive(net, 1)
    win = np.random.default_rng(153).random((3, 10, 4))
    state = rollout_start(net, win)
    assert {a.dtype for a in _state_arrays(state)} == {np.dtype(np.float32)}
    roll = rollout(net, win, 60)
    assert roll.dtype == np.float32
    np.testing.assert_array_equal(roll, allocating_rollout(net, win, 60))
    for z in range(3):
        one = lstm.network_from_arrays([a[z : z + 1] for a in net.param_arrays()])
        np.testing.assert_array_equal(roll[:, z], rollout(one, win[z : z + 1], 60)[:, 0])
    if clamped:
        assert ((roll < lstm.FEEDBACK_MIN) | (roll > lstm.FEEDBACK_MAX)).any()


def _state_arrays(state):
    """Every array a rollout state holds: h, c, x, each layer's weight
    copies, then the scratch in its workspace, in key order."""
    weights = [a for layer in state.weights for a in layer]
    return [state.h, state.c, state.x, *weights, *state.workspace._arrays.values()]


def test_roll_step_advances_its_state_in_place():
    net = small_net(seed=(141, 142))
    state = rollout_start(net, np.random.default_rng(143).random((2, 6, 4)))
    arrays = _state_arrays(state)
    for step in range(1, 8):
        pred, after = roll_step(net, state)
        assert after is state
        assert not any(np.shares_memory(pred, a) for a in arrays)  # the caller may keep it
        if step == 1:
            keys = list(state.workspace._arrays)
    assert list(state.workspace._arrays) == keys
    assert all(a is b for a, b in zip(_state_arrays(state), arrays, strict=True))


class TestStackNetworks:
    def test_stacked_forward_equals_each_network(self):
        nets = [small_net(seed=s) for s in (31, 32, 33)]
        wins = np.random.default_rng(34).random((3, 5, 6, 4))
        stacked, _ = forward_batch(small_net(seed=(31, 32, 33)), wins)
        assert stacked.shape == (3, 5, 2)
        for z, net in enumerate(nets):
            single, _ = forward_batch(net, wins[z : z + 1])
            assert np.array_equal(stacked[z], single[0])

    def test_stacked_rollout_equals_each_rollout(self):
        nets = [small_net(seed=s) for s in (41, 42, 43)]
        stacked = small_net(seed=(41, 42, 43))
        _expansive(nets[1], 0)  # this vessel's feedback clamps, the others' do not
        _expansive(stacked, 1)
        wins = np.random.default_rng(44).random((3, 6, 4))
        roll = rollout(stacked, wins, 30)
        assert roll.shape == (30, 3, 2)
        for z, net in enumerate(nets):
            assert np.array_equal(roll[:, z], rollout(net, wins[z : z + 1], 30)[:, 0])

    def test_non_finite_forward_names_row(self):
        stacked = small_net(seed=(75, 76, 77))
        stacked.dense_W[2, 1, 0] = np.inf
        with pytest.raises(NonFiniteActivation, match="^non-finite prediction$") as info:
            forward_batch(stacked, np.random.default_rng(78).random((3, 5, 6, 4)))
        assert info.value.row == 2

    def test_stacked_backward_equals_each_backward(self):
        nets = [small_net(seed=s) for s in (51, 52, 53)]
        wins = np.random.default_rng(54).random((3, 5, 6, 4))
        tgts = np.random.default_rng(55).random((3, 5, 2))
        stacked = small_net(seed=(51, 52, 53))
        _, cache = forward_batch(stacked, wins, dropout=0.3, rngs=[np.random.default_rng(60 + z) for z in range(3)])
        grads = lstm.backward(stacked, cache, tgts)
        assert [g.shape for g in grads] == [a.shape for a in stacked.param_arrays()]
        for z, net in enumerate(nets):
            _, own = forward_batch(net, wins[z : z + 1], dropout=0.3, rngs=[np.random.default_rng(60 + z)])
            for g, g_own in zip(grads, lstm.backward(net, own, tgts[z : z + 1])):
                assert np.array_equal(g[z : z + 1], g_own)

    def test_train_mode_needs_a_generator_per_vessel(self):
        stacked = small_net(seed=(56, 57, 58))
        with pytest.raises(ValueError, match="one generator per vessel"):
            forward_batch(stacked, np.zeros((3, 5, 6, 4)), dropout=0.3, rngs=[np.random.default_rng(59)])

    def test_stack_holds_each_network(self):
        # each vessel's slice is drawn from its own generator as when it is
        # initialised alone
        rngs = [np.random.default_rng(s) for s in (61, 62, 63)]
        stacked = init_network(hidden=8, rngs=rngs)
        assert stacked.vessels == 3
        for z, s in enumerate((61, 62, 63)):
            own = init_network(hidden=8, rngs=[np.random.default_rng(s)])
            for a, b in zip(stacked.param_arrays(), own.param_arrays(), strict=True):
                assert a[z : z + 1].shape == b.shape and np.array_equal(a[z : z + 1], b)

    @pytest.mark.parametrize("several", [False, True])
    def test_input_without_vessel_axis_rejected(self, several):
        # (B, m, k) windows and an (m, k) rollout window lack the vessel axis,
        # even where B or m equals Z
        Z = vessel_count(several)
        net = small_net(seed=tuple(range(Z)))
        for windows in (np.zeros((5, 6, 4)), np.zeros((Z, 6, 4))):
            with pytest.raises(CacheMismatch, match=f"expected \\({Z}, B, m, 4\\) input"):
                forward_batch(net, windows)
        for window in (np.zeros((6, 4)), np.zeros((Z, 4))):
            with pytest.raises(CacheMismatch, match=f"expected \\({Z}, m, 4\\) window"):
                rollout_start(net, window)

    def test_stacked_network_needs_vessel_axis(self):
        # of its own length: one vessel's windows do not run on two
        stacked = small_net(seed=(1, 2))
        with pytest.raises(CacheMismatch):
            forward_batch(stacked, np.zeros((1, 5, 6, 4)))
        with pytest.raises(CacheMismatch):
            rollout_start(stacked, np.zeros((1, 6, 4)))


def test_mse_loss_definition():
    assert mse_loss(np.array([[1.0, 3.0]]), np.array([[0.0, 1.0]])) == pytest.approx(2.5)


def test_forward_batch_matches_loop():
    net = small_net()
    wins = np.random.default_rng(17).random((7, 6, 4))
    batch_pred, _ = forward_batch(net, wins[None])
    for i in range(7):
        single, _ = forward(net, wins[i])
        np.testing.assert_allclose(batch_pred[0, i], single, rtol=1e-12)


@pytest.mark.parametrize("batch", [1, 2, 7, 10, 128])
@pytest.mark.parametrize("several", [False, True])
@pytest.mark.parametrize("cached", [True, False])
def test_forward_batch_matches_reference_loop(batch, several, cached):
    # the per-timestep loop takes x_t @ W.T inside the recurrence; at B = 1
    # and at GEMM tail sizes such as 2 or 7 BLAS rounds it differently from
    # the hoisted product, so the last bits may move but no more. The
    # training path (cached) is forward_batch with its per-timestep cache;
    # the inference path is the rollout's first prediction from each window.
    Z = vessel_count(several)
    net = init_network(hidden=32, rngs=[np.random.default_rng(80 + z) for z in range(Z)])
    x = np.random.default_rng(90 + batch).random((3, batch, 10, 4))[:Z]
    ref_pred, ref_caches = reference_forward(net, x)
    if not cached:
        for b in range(batch):
            pred, _ = roll_step(net, rollout_start(net, x[:, b]))
            np.testing.assert_allclose(pred, ref_pred[:, b], rtol=1e-12, atol=0)
        return
    pred, cache = forward_batch(net, x)
    np.testing.assert_allclose(pred, ref_pred, rtol=1e-12, atol=0)
    for lc, ref in zip(map(batch_major, cache.layer_caches), ref_caches, strict=True):
        for name in ("i", "f", "o", "c"):
            np.testing.assert_allclose(getattr(lc, name), getattr(ref, name), rtol=1e-12, atol=0)
        # the candidate relu(g_pre) is a sum that can cancel to near 0, so
        # its error is bounded relative to the layer's scale, not per element
        scale = np.abs(ref.g).max()
        np.testing.assert_allclose(lc.g, ref.g, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("batch", [1, 2, 7, 10, 18, 64, 128])
@pytest.mark.parametrize("several", [False, True])
def test_training_path_matches_batch_major_oracle(batch, several, monkeypatch):
    # The training path keeps the oracle's elementwise operations, but its
    # products group the sums differently: W x per timestep in place of one
    # product over B*m rows, and contiguous copies of W.mT and U.mT in place
    # of the views, which BLAS rounds apart at 8 rows or fewer; and each
    # weight gradient as one product over all m*B rows in place of a sum of
    # m per-timestep products, at every batch size. So predictions keep
    # every bit from 10 rows on, and otherwise the two agree to a relative
    # 1e-12, where an element that is a sum which cancels to near 0 (a
    # gradient, a pre-activation) is bounded relative to its array's scale.
    def same(actual, desired):
        np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=1e-12 * np.abs(desired).max())

    same_prediction = np.testing.assert_array_equal if batch > 8 else same

    Z = vessel_count(several)
    net = init_network(hidden=32, rngs=[np.random.default_rng(60 + z) for z in range(Z)])
    data = np.random.default_rng(70 + batch)
    x, y = data.random((3, 2 * batch, 10, 4))[:Z], data.random((3, 2 * batch, 2))[:Z]

    def rngs(seed):
        return [np.random.default_rng(seed + z) for z in range(Z)]

    xb, yb = x[:, :batch], y[:, :batch]
    same_prediction(forward_batch(net, xb)[0], before_forward_batch(net, xb)[0])
    pred, cache = forward_batch(net, xb, dropout=0.2, rngs=rngs(5))
    ref_pred, ref_cache = before_forward_batch(net, xb, dropout=0.2, rngs=rngs(5))
    same_prediction(pred, ref_pred)
    grads = lstm.backward(net, cache, yb)
    ref_grads = before_backward(net, ref_cache, yb)
    assert len(grads) == len(ref_grads) == 11
    for g, ref in zip(grads, ref_grads, strict=True):
        same(g, ref)

    def two_epochs(oracle):
        trained = network_from_arrays([a.copy() for a in net.param_arrays()])
        opt, rng = AdamState.for_network(trained, 1e-3), rngs(9)
        with monkeypatch.context() as patch:
            if oracle:
                patch.setattr(lstm, "forward_batch", before_forward_batch)
                patch.setattr(lstm, "backward", before_backward)
            losses = [train_epoch(trained, x, y, batch, 0.2, rng, opt) for _ in range(2)]
        return trained, np.array(losses)

    trained, losses = two_epochs(oracle=False)
    ref_trained, ref_losses = two_epochs(oracle=True)
    same(losses, ref_losses)
    for p, ref in zip(trained.param_arrays(), ref_trained.param_arrays(), strict=True):
        same(p, ref)
