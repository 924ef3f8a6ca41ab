import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _geodesic
from _geodesic import GeoPoint
from _lstm_oracle import forward, predict_sequence, rollout
from aistrack import associate as assoc_module
from aistrack.associate import (
    EARTH_RADIUS_KM,
    MAX_ROLLOUT_STEPS,
    NEW_TRACK,
    Decisions,
    associate,
    associate_batch,
    decisions_from_csv,
    decisions_to_csv,
    predict_positions,
    rollout_positions,
)
from aistrack.cli import main
from aistrack.config import RunConfig
from aistrack.errors import NonFiniteActivation, RolloutTooLong, TimeBeforeTraining
from aistrack.fleet import Fleet, join_fleets, load_fleet, save_fleet
from aistrack.ingest import AisMessage, parse_csv, serialize_csv, time_order
from aistrack.lstm import init_network, network_from_arrays
from aistrack.preprocess import ScalerParams, unscale

geo = st.builds(
    GeoPoint,
    lat=st.floats(-90, 90, allow_nan=False),
    lon=st.floats(-180, 180, allow_nan=False),
)


def haversine(p, q):
    """The package's array haversine on one pair of points."""
    return assoc_module.haversine(p.lat, p.lon, q.lat, q.lon)


class TestHaversine:
    def test_coincident_points(self):
        p = GeoPoint(37.85, 23.53)
        assert haversine(p, p) == 0.0

    def test_one_degree_equatorial(self):
        d = haversine(GeoPoint(0, 0), GeoPoint(0, 1))
        assert d == pytest.approx(111.1949266, abs=1e-6)

    def test_antipodal_half_circumference(self):
        d = haversine(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-12)

    @given(geo, geo)
    def test_symmetry(self, p, q):
        assert haversine(p, q) == pytest.approx(haversine(q, p), abs=1e-9)

    @given(geo, geo)
    def test_range(self, p, q):
        d = haversine(p, q)
        assert 0 <= d <= math.pi * EARTH_RADIUS_KM + 1e-9

    @settings(max_examples=200)
    @given(geo, geo, geo)
    def test_triangle_inequality(self, p, q, r):
        assert haversine(p, r) <= haversine(p, q) + haversine(q, r) + 1e-9

    def test_array_within_bound_of_scalar_oracle(self):
        rng = np.random.default_rng(17)
        lat1, lat2 = rng.uniform(-90, 90, (2, 20000))
        lon1, lon2 = rng.uniform(-180, 180, (2, 20000))
        # near-coincident and exactly antipodal pairs, where the rounding of
        # the squares and the arcsine matters most
        lat2[:5000], lon2[:5000] = lat1[:5000] + rng.normal(0, 1e-6, 5000), lon1[:5000]
        lat2[5000:10000], lon2[5000:10000] = -lat1[5000:10000], lon1[5000:10000] + 180.0
        got = assoc_module.haversine(lat1, lon1, lat2, lon2)
        want = np.array([
            _geodesic.haversine(GeoPoint(*p), GeoPoint(*q))
            for p, q in zip(zip(lat1.tolist(), lon1.tolist()), zip(lat2.tolist(), lon2.tolist()))
        ])
        assert got.shape == (20000,)
        np.testing.assert_allclose(got, want, rtol=_geodesic.RTOL, atol=_geodesic.atol())
        # away from the antipode the relative part alone holds
        for part in (slice(0, 5000), slice(10000, None)):
            np.testing.assert_allclose(got[part], want[part], rtol=_geodesic.RTOL, atol=0)

    @given(geo, geo)
    def test_broadcast_within_bound_of_scalar_oracle(self, p, q):
        grid = assoc_module.haversine([[p.lat], [q.lat]], [[p.lon], [q.lon]], [p.lat, q.lat], [p.lon, q.lon])
        want = [[_geodesic.haversine(a, b) for b in (p, q)] for a in (p, q)]
        np.testing.assert_allclose(grid, want, rtol=_geodesic.RTOL, atol=_geodesic.atol())


def _obs(oid, lat, lon, t=1000):
    return AisMessage(object_id=oid, vessel_id="", t=t, lat=lat, lon=lon, speed=0, course=0)


class TestAssociate:
    PREDS = np.array([[[37.90, 23.60], [37.95, 23.70]]])
    STEPS = np.array([[1, 2]])

    def test_nearest_prediction_wins(self):
        d = associate([_obs(1, 37.91, 23.61)], self.PREDS, self.STEPS, ["A", "B"])
        assert d.vessel_ids == ["A", "B"]
        assert d.assigned == ["A"]
        assert d.distances_km[0, 0] == pytest.approx(1.41, abs=0.05)
        assert d.distances_km[0, 1] == pytest.approx(9.02, abs=0.05)
        assert decisions_to_csv(d).splitlines()[1].split(",")[2:4] == ["1", "%.17g" % min(d.distances_km[0])]

    def test_tie_breaks_lexicographically(self):
        # columns follow the sorted ids, so the first of equal minima is the smallest id
        d = associate([_obs(1, 10, 10)], np.full((1, 2, 2), 10.0), np.ones((1, 2), int), ["a", "b"])
        assert d.assigned == ["a"]

    def test_tau_threshold_declares_new_track(self):
        d = associate([_obs(1, 37.91, 23.61)], self.PREDS, self.STEPS, ["A", "B"], tau=0.5)
        assert d.assigned == [NEW_TRACK]
        assert d.distances_km[0].min() > 0.5


def _vessel(vid, seed=1, lat_range=(30.0, 40.0), lon_range=(20.0, 30.0), train_end=1000):
    """A one-vessel fleet, float32 as trained ones are."""
    net = init_network(hidden=8, rngs=[np.random.default_rng(seed)], dtype=np.float32)
    scaler = ScalerParams(
        min=np.array([[lat_range[0], lon_range[0], 0.0, 0.0]]),
        max=np.array([[lat_range[1], lon_range[1], 10.0, 3600.0]]),
    )
    last_window = np.random.default_rng(seed + 100).random((1, 10, 4))
    return Fleet(
        vessel_ids=[vid],
        network=net,
        scaler=scaler,
        period=5.0,
        train_end_time=np.array([train_end], dtype=np.float64),
        last_training_window=last_window,
    )


def _float32_positions(fleet, steps):
    """(steps, Z, 2) positions of `lstm`'s rollout of the fleet's float32
    network, unscaled in float64: what association gives, bit for bit."""
    return unscale(rollout(fleet.network, fleet.last_training_window, steps), fleet.scaler)


# The float32 rollout against a float64 oracle, in degrees over a 10-degree
# scaler span: float32's eps is 1.2e-7, and a few roundings of a scaled
# value below 1 move its position by about 1e-6 degrees. `lstm`'s float64
# rollout agrees with these oracles to a relative 1e-12 (tests/test_lstm.py).
FLOAT32_ATOL_DEG = 1e-5


class TestPredictPositions:
    def test_single_step_equals_forward_unscaled(self):
        b = _vessel("v1")
        preds, steps = predict_positions(b, [1005])
        assert preds.shape == (1, 1, 2) and steps.tolist() == [[1]]
        assert preds.dtype == np.float64
        np.testing.assert_array_equal(preds[0], _float32_positions(b, 1)[0])
        raw, _ = forward(b.network, b.last_training_window[0])
        np.testing.assert_allclose(preds[0, 0], unscale(raw, b.scaler)[0], rtol=0, atol=FLOAT32_ATOL_DEG)

    def test_zero_network_unscales_to_min(self):
        b = _vessel("v1", lat_range=(30.0, 40.0))
        for a in b.network.param_arrays():
            a[:] = 0.0
        assert predict_positions(b, [1005])[0].tolist() == [[[30.0, 20.0]]]

    def test_multi_step_matches_predict_sequence(self):
        b = _vessel("v1")
        preds, _ = predict_positions(b, [1020])  # 4 periods later
        np.testing.assert_array_equal(preds[0], _float32_positions(b, 4)[-1])
        roll = predict_sequence(b.network, b.last_training_window, 4)
        np.testing.assert_allclose(preds[0], unscale(roll[-1], b.scaler), rtol=0, atol=FLOAT32_ATOL_DEG)

    def test_every_horizon_matches_predict_sequence(self):
        b = _vessel("v1")
        positions = _float32_positions(b, 6)
        roll = unscale(predict_sequence(b.network, b.last_training_window, 6), b.scaler)
        horizons = (3, 1, 6, 2, 2, 5)  # decreasing targets must not return a stale rollout
        for steps in horizons:
            preds, _ = predict_positions(b, [1000 + 5 * steps])
            np.testing.assert_array_equal(preds[0], positions[steps - 1])
            np.testing.assert_allclose(preds[0], roll[steps - 1], rtol=0, atol=FLOAT32_ATOL_DEG)
        # one call, its times in any order, gathers each time's own step
        preds, steps = predict_positions(b, [1000 + 5 * steps for steps in horizons])
        np.testing.assert_array_equal(preds[:, 0], [positions[steps - 1, 0] for steps in horizons])
        assert steps.dtype == np.int64 and steps[:, 0].tolist() == list(horizons)

    def test_time_before_training_rejected(self):
        with pytest.raises(TimeBeforeTraining, match="^vessel v1: target 1000 <= train end 1000.0$"):
            predict_positions(_vessel("v1"), [1005, 1000])


class TestAssociateBatch:
    def test_empty_observations(self):
        d = associate_batch([], _vessel("v1"))
        assert len(d) == 0 and d.assigned == [] and d.distances_km.shape == d.steps.shape == (0, 1)
        assert decisions_to_csv(d) == "OBJECT_ID,ASSIGNED_VID,STEP,WINNING_DISTANCE_KM,MARGIN_KM\n"

    def test_single_observation_composition(self):
        b = _vessel("v1")
        obs = _obs(1, 35.0, 25.0, t=1005)
        d = associate_batch([obs], b)
        assert len(d) == 1
        expected = associate([obs], *predict_positions(b, [1005]), b.vessel_ids)
        assert d.assigned == expected.assigned
        assert np.array_equal(d.distances_km, expected.distances_km)
        assert np.array_equal(d.steps, expected.steps)

    def test_batch_runs_the_modules_two_steps_once_each(self, monkeypatch):
        # looked up in the module at call time, so a wrapper sees every batch
        calls = {"predict_positions": 0, "associate": 0}

        def counted(name, step):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return step(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(assoc_module, name, counted(name, getattr(assoc_module, name)))
        fleet = TestStackedRollout.FLEET
        for batch in (1, 2):
            associate_batch(_mixed_observations(20), fleet)
            assert calls == {"predict_positions": batch, "associate": batch}
        associate_batch([], fleet)
        assert calls == {"predict_positions": 3, "associate": 3}

    def test_shuffled_observations_keep_each_row(self):
        fleet = TestStackedRollout.FLEET
        obs = _mixed_observations(20)
        shuffled = [obs[i] for i in np.random.default_rng(3).permutation(len(obs))]
        d, s = associate_batch(obs, fleet), associate_batch(shuffled, fleet)
        rows = {oid: row for oid, *row in zip(s.object_ids, s.assigned, s.distances_km.tolist(), s.steps.tolist())}
        for oid, *row in zip(d.object_ids, d.assigned, d.distances_km.tolist(), d.steps.tolist()):
            assert rows[oid] == row

    def test_observations_at_predictions_assign_perfectly(self):
        fleet = join_fleets([
            _vessel("aaa", seed=1, lat_range=(30, 31), lon_range=(20, 21)),
            _vessel("bbb", seed=2, lat_range=(50, 51), lon_range=(-10, -9)),
        ])
        preds = predict_positions(fleet, [1005])[0][0].tolist()
        obs = [_obs(i + 1, lat, lon, t=1005) for i, (lat, lon) in enumerate(preds)]
        decisions = associate_batch(obs, fleet)
        assert decisions.assigned == fleet.vessel_ids == ["aaa", "bbb"]

    def test_exact_tie_goes_to_smallest_id(self):
        # two copies of one model predict the same position for every step
        twins = [_vessel("bbb", seed=1), _vessel("aaa", seed=1), _vessel("ccc", seed=3)]
        obs = [_obs(i + 1, 30.0 + i, 25.0, t=1005 + 5 * i) for i in range(4)]
        d = associate_batch(obs, join_fleets(twins))
        assert d.vessel_ids == ["aaa", "bbb", "ccc"]
        assert np.array_equal(d.distances_km[:, 0], d.distances_km[:, 1])
        assert [a for a in d.assigned if a != "ccc"] and "bbb" not in d.assigned

    def test_tau_gives_new_above_it_only(self):
        fleet = TestStackedRollout.FLEET
        obs = _mixed_observations(20)
        free = associate_batch(obs, fleet)
        winning = free.distances_km.min(axis=1)
        tau = float(np.median(winning))
        capped = associate_batch(obs, fleet, tau=tau)
        assert np.array_equal(capped.distances_km, free.distances_km)
        expected = [NEW_TRACK if w > tau else a for a, w in zip(free.assigned, winning)]
        assert capped.assigned == expected
        assert 0 < expected.count(NEW_TRACK) < len(obs)

    @pytest.mark.parametrize("order", [[4, 3, 2, 1, 0], [2, 0, 4, 1, 3]], ids=["reversed", "shuffled"])
    def test_join_order_does_not_change_fleet_or_csv(self, order):
        vessels = TestStackedRollout.VESSELS
        joined = join_fleets([vessels[i] for i in order])
        fleet = TestStackedRollout.FLEET
        assert joined.vessel_ids == fleet.vessel_ids == sorted(joined.vessel_ids)
        for a, b in zip(
            [*joined.network.param_arrays(), joined.scaler.min, joined.scaler.max, joined.train_end_time,
             joined.last_training_window],
            [*fleet.network.param_arrays(), fleet.scaler.min, fleet.scaler.max, fleet.train_end_time,
             fleet.last_training_window],
            strict=True,
        ):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert joined.period == fleet.period == 5.0
        obs = _mixed_observations(20)
        assert decisions_to_csv(associate_batch(obs, joined)) == decisions_to_csv(associate_batch(obs, fleet))


def _mixed_observations(n, seed=9):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.integers(1014, 1200, size=n))
    return [
        _obs(i + 1, float(lat), float(lon), t=int(t))
        for i, (t, lat, lon) in enumerate(zip(times, rng.uniform(30, 31, n), rng.uniform(20, 21, n)))
    ]


def _oracle(observations, vessels):
    """Each one-vessel fleet's float32 network rolled out on its own, afresh for
    every observation: the predicted GeoPoint per vessel_id for each
    observation. A stacked rollout computes each vessel's slice as its own
    rollout does, bit for bit."""
    predictions = []
    for obs in observations:
        row = {}
        for v in vessels:
            steps = max(1, round((obs.t - v.train_end_time[0]) / v.period))
            lat, lon = _float32_positions(v, steps)[-1, 0]
            row[v.vessel_ids[0]] = GeoPoint(lat=float(lat), lon=float(lon))
        predictions.append(row)
    return predictions


class TestStackedRollout:
    VESSELS = [
        _vessel("aaa", seed=1, lat_range=(30, 31), lon_range=(20, 21), train_end=1000),
        _vessel("bbb", seed=2, lat_range=(30.2, 31.2), lon_range=(20.1, 21.1), train_end=1013),
        _vessel("ccc", seed=3, lat_range=(29.9, 30.9), lon_range=(19.8, 20.8), train_end=990),
        _vessel("ddd", seed=4, lat_range=(30.1, 31.1), lon_range=(20.2, 21.2)),
        _vessel("eee", seed=5, lat_range=(30.0, 30.8), lon_range=(20.0, 20.9)),
    ]
    FLEET = join_fleets(VESSELS)

    def test_matches_per_vessel_oracle(self, monkeypatch):
        gathered = []
        decide = assoc_module.associate
        monkeypatch.setattr(assoc_module, "associate", lambda *a: gathered.append(a[1]) or decide(*a))
        obs = _mixed_observations(40)
        decisions = associate_batch(obs, self.FLEET)
        assert decisions.vessel_ids == sorted(v.vessel_ids[0] for v in self.VESSELS)
        oracle = _oracle(obs, self.VESSELS)
        assert gathered[0].tolist() == [[list(row[v]) for v in decisions.vessel_ids] for row in oracle]

    def test_decisions_match_scalar_haversine(self):
        obs = _mixed_observations(40)
        decisions = associate_batch(obs, self.FLEET)
        assert decisions.object_ids == [m.object_id for m in obs]
        vids = decisions.vessel_ids
        want = np.array([
            [_geodesic.haversine(GeoPoint(m.lat, m.lon), row[v]) for v in vids]
            for m, row in zip(obs, _oracle(obs, self.VESSELS))
        ])
        np.testing.assert_allclose(decisions.distances_km, want, rtol=_geodesic.RTOL, atol=_geodesic.atol())
        best = [min(range(len(vids)), key=lambda z: (d[z], vids[z])) for d in want.tolist()]
        assert decisions.assigned == [vids[z] for z in best]
        assert len(set(decisions.assigned)) > 1
        assert decisions.distances_km.min(axis=1).tolist() == decisions.distances_km[np.arange(len(obs)), best].tolist()
        by_id = {v.vessel_ids[0]: v for v in self.VESSELS}
        want_steps = [[max(1, round((m.t - by_id[v].train_end_time[0]) / 5.0)) for v in vids] for m in obs]
        assert decisions.steps.dtype == np.int64 and decisions.steps.tolist() == want_steps

    def test_observation_at_train_end_rejected(self):
        obs = [_obs(1, 30.5, 20.5, t=1020), _obs(2, 30.5, 20.5, t=1013)]
        with pytest.raises(TimeBeforeTraining, match="bbb"):
            associate_batch(sorted(obs, key=lambda m: m.t), self.FLEET)

    def test_observation_at_train_end_is_cli_data_error(self, tmp_path):
        save_fleet(self.FLEET, tmp_path / "models", RunConfig(), {})
        msg = AisMessage(object_id=1, vessel_id="x", t=1013, lat=30.5, lon=20.5, speed=0, course=0)
        (tmp_path / "obs.csv").write_text(serialize_csv([msg]))
        argv = ["associate", "--models", tmp_path / "models", "--obs", tmp_path / "obs.csv"]
        assert main([str(a) for a in argv + ["--out", tmp_path / "d.csv"]]) == 2

    def test_whole_fleet_rolls_out_as_one_stack(self, monkeypatch):
        nets = []
        start = assoc_module.rollout_start
        monkeypatch.setattr(assoc_module, "rollout_start", lambda net, window: nets.append(net) or start(net, window))
        associate_batch(_mixed_observations(10), self.FLEET)
        # the fleet's own float32 network: no cast, no copy
        assert len(nets) == 1 and nets[0] is self.FLEET.network and nets[0].dtype == np.float32

    def test_repeated_batch_gives_equal_decisions(self):
        # each call starts its own rollout: nothing one call advances in
        # place carries over to the next
        obs = _mixed_observations(40)
        first, second = (associate_batch(obs, self.FLEET) for _ in range(2))
        assert (first.object_ids, first.assigned, first.vessel_ids) == (
            second.object_ids,
            second.assigned,
            second.vessel_ids,
        )
        assert np.array_equal(first.distances_km, second.distances_km)

    def test_non_finite_prediction_names_vessel_and_step(self):
        fleet = join_fleets([_vessel(vid, seed=s) for vid, s in (("aaa", 1), ("bbb", 2), ("ccc", 3))])
        fleet.network.dense_b[1] = np.inf
        with pytest.raises(NonFiniteActivation, match="^vessel bbb: non-finite prediction at rollout step 1$"):
            associate_batch([_obs(1, 30.5, 20.5, t=1010)], fleet)

    def test_position_that_overflows_names_vessel_and_step(self):
        # a finite float32 prediction of 1e30 unscales past the largest
        # double with a LAT span of 1e300, which only a fleet built in
        # memory holds (a model file's scaler is checked): the error, not
        # numpy's overflow warning, reports it
        fleet = _three_vessels()
        _overflow_positions(fleet, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteActivation, match="^vessel ccc: non-finite position at rollout step 1$"):
                associate_batch([_obs(1, 30.5, 20.5, t=1010)], fleet)

    def test_non_finite_rollout_names_vessel_and_step(self, monkeypatch):
        fleet = _three_vessels()
        _head_turns_non_finite(monkeypatch, {5: [(1, np.inf)]})
        with pytest.raises(NonFiniteActivation, match="^vessel bbb: non-finite prediction at rollout step 5$") as info:
            rollout_positions(fleet, 8)
        assert info.value.row == 1
        single = _vessel("aaa")
        single.network.dense_b[0, 0, 1] = np.nan
        with pytest.raises(NonFiniteActivation, match="^vessel aaa: non-finite prediction at rollout step 1$") as info:
            rollout_positions(single, 1)
        assert info.value.row == 0

    def test_earliest_step_named_before_lowest_vessel(self, monkeypatch):
        _head_turns_non_finite(monkeypatch, {3: [(2, np.nan)], 5: [(0, np.nan)]})
        with pytest.raises(NonFiniteActivation, match="^vessel ccc: non-finite prediction at rollout step 3$") as info:
            rollout_positions(_three_vessels(), 6)
        assert info.value.row == 2

    def test_prediction_named_before_an_earlier_position_overflow(self, monkeypatch):
        # vessel ccc's positions overflow from step 1 on, vessel aaa's
        # prediction only turns non-finite at step 4
        fleet = _three_vessels()
        _overflow_positions(fleet, 2)
        _head_turns_non_finite(monkeypatch, {4: [(0, np.nan)]})
        with pytest.raises(NonFiniteActivation, match="^vessel aaa: non-finite prediction at rollout step 4$"):
            rollout_positions(fleet, 6)


def _three_vessels():
    return join_fleets([_vessel(vid, seed=s) for vid, s in (("aaa", 1), ("bbb", 2), ("ccc", 3))])


def _overflow_positions(fleet, z):
    """Make vessel z's predictions finite in float32 but its positions
    overflow float64 from rollout step 1 on: a LAT prediction of about 1e30
    times a LAT span of 1e300."""
    fleet.network.dense_b[z, 0, 0] = 1e30
    fleet.scaler.max[z, 0] = 1e300


def _head_turns_non_finite(monkeypatch, faults):
    """Make associate's rollout set vessel z's dense bias to `value` just
    before step s, for each (z, value) in faults[s]: that vessel's
    predictions are non-finite from step s on."""
    roll_step, steps = assoc_module.roll_step, itertools.count(1)

    def poisoned(net, state):
        for z, value in faults.get(next(steps), []):
            net.dense_b[z] = value
        return roll_step(net, state)

    monkeypatch.setattr(assoc_module, "roll_step", poisoned)


class TestRolloutBound:
    def test_bound_checked_before_any_rollout(self, monkeypatch):
        b = _vessel("v1")
        monkeypatch.setattr(assoc_module, "MAX_ROLLOUT_STEPS", 3)
        rolled = []
        monkeypatch.setattr(assoc_module, "roll_step", lambda net, state: rolled.append(1) or (np.zeros(2), state))
        with pytest.raises(RolloutTooLong, match="v1.*bound is 3"):
            associate_batch([_obs(1, 30, 20, t=1005), _obs(2, 30, 20, t=1020)], b)
        assert rolled == []
        predict_positions(b, [1015])  # exactly 3 steps is allowed
        assert len(rolled) == 3

    def test_year_out_observation_is_fast_cli_data_error(self, tmp_path, capsys):
        save_fleet(TestStackedRollout.FLEET, tmp_path / "models", RunConfig(), {})
        msg = AisMessage(object_id=1, vessel_id="x", t=1000 + 365 * 86400, lat=30.5, lon=20.5, speed=0, course=0)
        (tmp_path / "obs.csv").write_text(serialize_csv([msg]))
        argv = ["associate", "--models", tmp_path / "models", "--obs", tmp_path / "obs.csv", "--out", tmp_path / "d.csv"]
        capsys.readouterr()
        start = time.perf_counter()
        rc = main([str(a) for a in argv])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert rc == 2 and elapsed < 1.0
        assert err.startswith("error: observation at 1971-01-01T00:16:40Z") and err.count("\n") == 1
        assert "vessel aaa" in err and f"bound is {MAX_ROLLOUT_STEPS}" in err
        assert not (tmp_path / "d.csv").exists()


def test_decisions_csv_round_trip():
    b1 = _vessel("aaa", seed=1, lat_range=(30, 31), lon_range=(20, 21))
    b2 = _vessel("bbb", seed=2, lat_range=(50, 51), lon_range=(-10, -9), train_end=990)
    decisions = associate_batch([_obs(5, 30.5, 20.5, t=1005)], join_fleets([b2, b1]))
    lines = decisions_to_csv(decisions).splitlines()
    assert lines[0] == "OBJECT_ID,ASSIGNED_VID,STEP,WINNING_DISTANCE_KM,MARGIN_KM"
    near, far = decisions.distances_km[0].tolist()
    assert lines[1] == "5,aaa,1,%.17g,%.17g" % (near, far - near)
    assert decisions_from_csv("\n".join(lines)) == [(5, "aaa")]


DISTANCES = st.sampled_from([0.0, 5e-324, 0.1, 20015.086796020572, 1e300]) | st.floats(allow_nan=False)


@st.composite
def decision_records(draw):
    vids = draw(st.lists(st.sampled_from(["aaa", "bbb", "c1", "v_10"]), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 5))
    distances = draw(st.lists(st.lists(DISTANCES, min_size=len(vids), max_size=len(vids)), min_size=n, max_size=n))
    steps = draw(st.lists(st.lists(st.integers(1, MAX_ROLLOUT_STEPS), min_size=len(vids), max_size=len(vids)),
                          min_size=n, max_size=n))
    return Decisions(
        object_ids=draw(st.lists(st.integers(0, 2**63), min_size=n, max_size=n, unique=True)),
        assigned=draw(st.lists(st.sampled_from([*vids, NEW_TRACK]), min_size=n, max_size=n)),
        distances_km=np.array(distances, dtype=np.float64).reshape(n, len(vids)),
        steps=np.array(steps, dtype=np.int64).reshape(n, len(vids)),
        vessel_ids=vids,
    )


def _record(distances, steps, vids):
    n = len(distances)
    return Decisions(list(range(1, n + 1)), [vids[0]] * n, np.array(distances, dtype=np.float64).reshape(n, len(vids)),
                     np.array(steps, dtype=np.int64).reshape(n, len(vids)), vids)


@given(decision_records())
@example(_record([[0.1, 20015.086796020572], [1e300, 5e-324]], [[1, 2], [3, 4]], ["aaa", "bbb"]))
@example(_record([[7.5, 2.25, 2.25]], [[1, 9, 4]], ["aaa", "bbb", "c1"]))  # a tie: margin 0, the first one's step
@example(_record([[3.0], [0.0]], [[6], [7]], ["aaa"]))  # one vessel: margin inf
@example(_record([], [], ["aaa", "bbb"]))  # no observation: the header alone
@example(_record([[0.0, -math.inf, -math.inf]], [[1, 2, 3]], ["aaa", "bbb", "c1"]))  # a NaN margin
# a margin past float64's range: inf
@example(_record([[1e300, 1e300, -1.7976931348623157e308]], [[1, 2, 3]], ["aaa", "bbb", "c1"]))
@settings(max_examples=200, deadline=None)
def test_decisions_csv_distances_parse_back_exactly(decisions):
    distances = decisions.distances_km
    lines = decisions_to_csv(decisions).splitlines()
    assert lines[0] == "OBJECT_ID,ASSIGNED_VID,STEP,WINNING_DISTANCE_KM,MARGIN_KM"
    assert len(lines) == len(decisions) + 1
    winning = distances.min(axis=1)
    if distances.shape[1] > 1:
        with np.errstate(over="ignore", invalid="ignore"):
            margin = np.partition(distances, 1, axis=1)[:, 1] - winning
    else:
        margin = np.full(len(distances), np.inf)
    step = decisions.steps[np.arange(len(distances)), distances.argmin(axis=1)]
    for line, *want in zip(lines[1:], decisions.object_ids, decisions.assigned, step, winning, margin):
        object_id, assigned, got_step, got_winning, got_margin = line.split(",")
        assert (int(object_id), assigned, int(got_step)) == tuple(want[:3])
        # inf - inf gives a NaN margin, written "nan"
        assert np.array_equal([float(got_winning), float(got_margin)], want[3:], equal_nan=True)
    assert decisions_from_csv("\n".join(lines)) == list(zip(decisions.object_ids, decisions.assigned))


def test_decisions_csv_margin_is_zero_for_a_tie_and_inf_for_one_vessel():
    tie = _record([[7.5, 2.25, 2.25]], [[1, 9, 4]], ["aaa", "bbb", "c1"])
    assert decisions_to_csv(tie).splitlines()[1] == "1,aaa,9,2.25,0"
    alone = _record([[3.0]], [[6]], ["aaa"])
    assert decisions_to_csv(alone).splitlines()[1] == "1,aaa,6,3,inf"


# (synth, train) settings of the benchmark's paper_fleet and wide_horizon workloads
BENCHMARK_FLEETS = {
    "paper_fleet": (["--vessels", 5, "--points", 648], ["--test-len", 108, "--epochs", 3, "--min-points", 500]),
    "wide_horizon": (["--vessels", 24, "--points", 400], ["--test-len", 250, "--epochs", 1, "--min-points", 400]),
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_FLEETS))
def test_float32_rollout_stays_within_half_a_metre_of_float64(tmp_path, workload):
    # over the whole held-out horizon of a fleet trained at a benchmark
    # workload's settings, against a float64 rollout of its weights widened
    # exactly. Its decisions are far from ties, so they are the float64
    # rollout's.
    synth_args, train_args = BENCHMARK_FLEETS[workload]
    data, models = tmp_path / "data", tmp_path / "models"
    assert main([str(a) for a in ["synth", "--out", data, "--seed", 1, *synth_args]]) == 0
    train = ["train", "--data", data / "fleet.csv", "--out", models, "--seed", 1, "--batch", 10, "--lr", 1e-4]
    assert main([str(a) for a in train + train_args]) == 0
    fleet = load_fleet(models)
    obs = sorted(parse_csv((models / "holdout.csv").read_text()), key=time_order)
    decisions = associate_batch(obs, fleet)
    horizon = int(decisions.steps.max())
    float32 = rollout_positions(fleet, horizon)
    widened = network_from_arrays([a.astype(np.float64) for a in fleet.network.param_arrays()])
    float64 = unscale(rollout(widened, fleet.last_training_window, horizon), fleet.scaler)
    metres = 1000 * assoc_module.haversine(float32[..., 0], float32[..., 1], float64[..., 0], float64[..., 1])
    assert horizon >= 100 and metres.max() <= 0.5
    exact = associate(obs, float64[decisions.steps - 1, np.arange(len(fleet.vessel_ids))], decisions.steps,
                      fleet.vessel_ids)
    fields = [line.split(",")[:3] for line in decisions_to_csv(decisions).splitlines()]
    assert fields == [line.split(",")[:3] for line in decisions_to_csv(exact).splitlines()]
