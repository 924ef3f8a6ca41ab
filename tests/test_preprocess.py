import numpy as np
import pytest
from hypothesis import given, strategies as st

from aistrack.errors import GridTooLong, TrackTooShort
from aistrack.ingest import AisMessage, RawTrack
from aistrack.preprocess import (
    MAX_GRID_SAMPLES,
    RegularTrack,
    ScalerParams,
    fit_scaler,
    make_windows,
    resample,
    scale,
    unscale,
)


def _track(times, lats=None, lons=None, speeds=None, courses=None, vid="v"):
    n = len(times)
    lats = lats or [0.0] * n
    lons = lons or [0.0] * n
    speeds = speeds or [0.0] * n
    courses = courses or [0.0] * n
    msgs = [
        AisMessage(object_id=i + 1, vessel_id=vid, t=t, lat=la, lon=lo, speed=sp, course=co)
        for i, (t, la, lo, sp, co) in enumerate(zip(times, lats, lons, speeds, courses))
    ]
    return RawTrack(vessel_id=vid, messages=msgs)


def test_resample_hand_interpolation_oracle():
    # raw times {0, 7, 12} with lat {10.0, 10.7, 11.2} on a 5 s grid:
    # 10 + (5/7)*0.7 = 10.5 and 10.7 + (3/5)*0.5 = 11.0
    track = _track([0, 7, 12], lats=[10.0, 10.7, 11.2])
    reg = resample(track, 5.0)
    assert reg.start_time == 0
    np.testing.assert_array_equal(reg.features[:, 0], [10.0, 10.5, 11.0])


def test_resample_identity_on_regular_input():
    track = _track(
        [0, 5, 10, 15],
        lats=[1.0, 2.0, 3.5, 3.0],
        lons=[-1.0, 0.5, 0.25, 9.0],
        speeds=[0.0, 3.0, 2.0, 1.0],
        courses=[10.0, 350.0, 3599.0, 1800.0],
    )
    reg = resample(track, 5.0)
    expected = np.array(
        [[1.0, -1.0, 0.0, 10.0], [2.0, 0.5, 3.0, 350.0], [3.5, 0.25, 2.0, 3599.0], [3.0, 9.0, 1.0, 1800.0]]
    )
    np.testing.assert_array_almost_equal(reg.features, expected, decimal=10)


def test_course_wraps_through_north():
    # 3550 -> 50 tenths across one 10 s interval: midpoint is 0, not 1800
    track = _track([0, 10], courses=[3550.0, 50.0])
    reg = resample(track, 5.0)
    assert reg.features[1, 3] == pytest.approx(0.0, abs=1e-9)


def test_course_wraps_downward_too():
    track = _track([0, 10], courses=[50.0, 3550.0])
    reg = resample(track, 5.0)
    assert reg.features[1, 3] == pytest.approx(0.0, abs=1e-9)


def test_resample_rejects_single_message():
    with pytest.raises(TrackTooShort):
        resample(_track([0]), 5.0)


@pytest.mark.parametrize(
    "times, period, samples",
    [
        ([0, 745], 1e-300, "7.45e+302"),  # the quotient is finite
        ([0, 745], 5e-324, "inf"),  # it overflows
        ([0, MAX_GRID_SAMPLES], 1.0, "1000001"),  # one sample past the bound
    ],
)
def test_resample_grid_past_bound_rejected(times, period, samples, monkeypatch):
    # rejected before the grid is allocated
    monkeypatch.setattr(np, "arange", lambda *a: pytest.fail("the grid was allocated"))
    with pytest.raises(GridTooLong) as exc:
        resample(_track(times, vid="aa"), period)
    assert str(exc.value).startswith(f"vessel aa: period {period!r} s puts {samples} samples on its")
    assert str(exc.value).endswith(f"; the bound is {MAX_GRID_SAMPLES}")


def test_resample_grid_stays_within_raw_span():
    track = _track([0, 7, 12])
    reg = resample(track, 5.0)
    assert len(reg) == 3  # grid {0, 5, 10}, last point <= 12
    assert reg.time_of(len(reg) - 1) <= 12


@given(
    st.lists(
        st.tuples(st.integers(0, 1000), st.floats(-80, 80, allow_nan=False)),
        min_size=2,
        max_size=20,
        unique_by=lambda p: p[0],
    )
)
def test_resample_convexity(points):
    points = sorted(points)
    track = _track([p[0] for p in points], lats=[p[1] for p in points])
    reg = resample(track, 5.0)
    times = [p[0] for p in points]
    vals = [p[1] for p in points]
    for i in range(len(reg)):
        t = reg.time_of(i)
        j = max(k for k in range(len(times)) if times[k] <= t)
        lo = min(vals[j : j + 2])
        hi = max(vals[j : j + 2])
        assert lo - 1e-9 <= reg.features[i, 0] <= hi + 1e-9


def _regular(features, vid="v"):
    return RegularTrack(vessel_id=vid, start_time=0, period=5.0, features=np.asarray(features, dtype=float))


def test_fit_scaler_on_training_prefix_only():
    features = _regular([[10, 0, 0, 0], [12, 0, 0, 0], [11, 0, 0, 0], [99, 0, 0, 0]]).features
    p = fit_scaler(features[:3])
    assert p.min[0] == 10 and p.max[0] == 12  # the 99 in the suffix is not among its rows


def test_fit_scaler_single_sample():
    p = fit_scaler(np.array([[7.0, 1, 2, 3]]))
    np.testing.assert_array_equal(p.min, p.max)


def test_scale_basics():
    p = ScalerParams(min=np.array([0.0, 0, 0, 0]), max=np.array([10.0, 1, 1, 1]))
    rows = np.array([[5.0, 0, 0, 0], [0.0, 0, 0, 0], [10.0, 1, 1, 1]])
    np.testing.assert_array_equal(scale(rows, p)[:, 0], [0.5, 0.0, 1.0])


def test_scale_degenerate_feature_maps_to_zero():
    p = ScalerParams(min=np.array([7.0, 0, 0, 0]), max=np.array([7.0, 1, 1, 1]))
    assert scale(np.array([[7.0, 0.5, 0, 0]]), p)[0, 0] == 0.0


@given(
    st.tuples(
        st.floats(-100, 100, allow_nan=False),
        st.floats(-100, 100, allow_nan=False),
    ),
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
)
def test_unscale_scale_round_trip(bounds, a, b):
    lo, hi = sorted(bounds)
    if hi - lo < 1e-6:
        hi = lo + 1.0
    p = ScalerParams(min=np.array([lo, lo, 0.0, 0.0]), max=np.array([hi, hi, 1.0, 1.0]))
    x = np.array([lo + a * (hi - lo), lo + b * (hi - lo), 0.5, 0.5])
    back = unscale(scale(x[None], p)[0, :2], p)
    np.testing.assert_allclose(back, x[:2], rtol=1e-12, atol=np.spacing(max(abs(lo), abs(hi))))


def test_make_windows_count_formula():
    scaled = np.arange(30 * 4, dtype=float).reshape(30, 4)
    ws = make_windows(scaled[:20], 10)
    assert len(ws) == 10


def test_make_windows_minimal_case():
    scaled = np.arange(12 * 4, dtype=float).reshape(12, 4)
    ws = make_windows(scaled[:11], 10)
    assert len(ws) == 1
    np.testing.assert_array_equal(ws.inputs[0], scaled[0:10])
    np.testing.assert_array_equal(ws.targets[0], scaled[10, :2])


def test_make_windows_shape():
    scaled = np.zeros((25, 4))
    ws = make_windows(scaled, 10)
    assert ws.inputs.shape == (15, 10, 4)
    assert ws.targets.shape == (15, 2)


def test_make_windows_rejects_short_train():
    with pytest.raises(TrackTooShort):
        make_windows(np.zeros((10, 4)), 10)


def test_windows_cover_series_rows():
    scaled = np.arange(20 * 4, dtype=float).reshape(20, 4)
    ws = make_windows(scaled, 5)
    # interior rows appear in exactly m windows
    counts = np.zeros(20)
    for w in ws.inputs:
        for row in w:
            counts[int(row[0] // 4)] += 1
    assert all(counts[5:15] == 5)


class TestStack:
    """A (3, n, 4) stack of training prefixes is scaled and windowed as each
    vessel's prefix would be alone, bit for bit."""

    N, M = 40, 6

    def _stack(self):
        rng = np.random.default_rng(8)
        stack = rng.normal([37.0, 23.0, 50.0, 1800.0], [0.1, 0.1, 5.0, 500.0], size=(3, self.N, 4))
        stack[1, :, 2] = 12.5  # a constant feature: its span is 0
        return stack

    def test_fit_scaler_and_scale_equal_each_vessel(self):
        stack = self._stack()
        p = fit_scaler(stack)
        assert p.min.shape == p.max.shape == (3, 4)
        scaled = scale(stack, p)
        for z in range(3):
            own = fit_scaler(stack[z])
            assert np.array_equal(p.min[z], own.min) and np.array_equal(p.max[z], own.max)
            assert np.array_equal(scaled[z], scale(stack[z], own))
        assert (scaled[1, :, 2] == 0.0).all()

    def test_make_windows_equals_each_vessel(self):
        scaled = scale(self._stack(), fit_scaler(self._stack()))
        ws = make_windows(scaled, self.M)
        assert ws.inputs.shape == (3, self.N - self.M, self.M, 4)
        assert ws.targets.shape == (3, self.N - self.M, 2)
        assert len(ws) == 3 * (self.N - self.M)  # the windows of every vessel
        for z in range(3):
            own = make_windows(scaled[z], self.M)
            assert np.array_equal(ws.inputs[z], own.inputs) and np.array_equal(ws.targets[z], own.targets)
            for t in (0, self.N - self.M - 1):
                assert np.array_equal(ws.inputs[z, t], scaled[z, t : t + self.M])
                assert np.array_equal(ws.targets[z, t], scaled[z, t + self.M, :2])

    def test_make_windows_rejects_short_stack(self):
        with pytest.raises(TrackTooShort):
            make_windows(np.zeros((3, self.M, 4)), self.M)
