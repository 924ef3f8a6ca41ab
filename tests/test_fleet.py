import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from _lstm_oracle import forward
from aistrack import fleet
from aistrack.config import RunConfig
from aistrack.errors import (
    BadConfig,
    BadManifest,
    BadModel,
    ChecksumMismatch,
    MissingFile,
    OutOfRange,
    TrackTooShort,
    VersionMismatch,
)
from aistrack.fleet import (
    Fleet,
    fleet_from_json,
    fleet_to_json,
    load_fleet,
    save_fleet,
    train_fleet,
    vessel_seed,
)
from aistrack.ingest import LAT_LON_BOUNDS, AisMessage
from aistrack.lstm import AdamState, backward, forward_batch, init_network
from aistrack.preprocess import RegularTrack, ScalerParams, fit_scaler, make_windows, scale


def _series(vid="v", n=60, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    feats = np.column_stack(
        [
            37.0 + 0.001 * t + 0.0001 * rng.standard_normal(n),
            23.0 + 0.0005 * t + 0.0001 * rng.standard_normal(n),
            50.0 + rng.standard_normal(n),
            1800.0 + 10 * rng.standard_normal(n),
        ]
    )
    return RegularTrack(vessel_id=vid, start_time=0, period=5.0, features=feats)


def _train_one(series, cfg):
    trained, histories = train_fleet([series], cfg)
    return trained, histories[series.vessel_id]


def _cfg(epochs=2):
    return RunConfig(window=5, hidden=8, lr=1e-3, batch=8, epochs=epochs, seed=77)


class TestTrainFleet:
    def test_one_bundle_per_track(self):
        tracks = [_series(vid=f"v{i}", seed=i) for i in range(5)]
        trained, histories = train_fleet(tracks, _cfg())
        assert trained.vessel_ids == [f"v{i}" for i in range(5)] and trained.network.vessels == 5
        assert sorted(histories) == [f"v{i}" for i in range(5)]

    def test_empty_fleet(self):
        with pytest.raises(TrackTooShort, match="^no track to train$"):
            train_fleet([], _cfg())

    def test_loss_history_length_equals_epochs(self):
        _, histories = train_fleet([_series()], _cfg(epochs=3))
        assert len(histories["v"]) == 3

    def test_short_track_raises_or_skips(self):
        # every track given trains, so one of `window` samples or fewer
        # raises, alone or in a fleet; skipping one is `cli`'s decision
        short = _series(n=5)
        for tracks in ([short], [_series(vid="w"), short]):
            with pytest.raises(TrackTooShort, match="^vessel v: 5 samples <= window 5$"):
                train_fleet(tracks, _cfg())

    @pytest.mark.parametrize(
        "bad",
        [{"epochs": 0}, {"batch": 0}, {"lr": -1e-3}, {"window": 0}, {"dropout": 1.0}, {"hidden": 513},
         {"hidden": -(10**40)}],
    )
    def test_setting_out_of_range_is_bad_config(self, bad):
        (key,) = bad
        with pytest.raises(BadConfig, match=f"{key} must be in") as info:
            train_fleet([_series()], dataclasses.replace(_cfg(), **bad))
        # an int is not written out, which may have any number of digits
        assert "0" * 10 not in str(info.value)

    def test_track_of_another_period_is_bad_config(self):
        # a fleet has one period, the run's: a model stamped with any other
        # would roll out at the wrong times
        assert _cfg().period == 5.0
        other = dataclasses.replace(_series(vid="w"), period=10.0)
        with pytest.raises(BadConfig, match="^vessel w: period 10.0 s, not the run's 5.0 s$"):
            train_fleet([_series(vid="v"), other], _cfg())

    def test_determinism_and_order_invariance(self):
        tracks = [_series(vid=f"v{i}", seed=i) for i in range(3)]
        f1, _ = train_fleet(tracks, _cfg())
        f2, _ = train_fleet(list(reversed(tracks)), _cfg())
        assert f1.vessel_ids == f2.vessel_ids
        for a, b in zip(f1.network.param_arrays(), f2.network.param_arrays(), strict=True):
            np.testing.assert_array_equal(a, b)

    def test_bundle_window_and_end_time(self):
        series = _series(n=60)
        trained, _ = _train_one(series, _cfg())
        assert trained.last_training_window.shape == (1, 5, 4)
        assert trained.train_end_time.tolist() == [series.time_of(59)]


def _files(trained):
    """The fleet file text of `trained` and its weights file's bytes, as
    `save_fleet` writes them."""
    arrays = trained.network.param_arrays()
    return fleet_to_json(trained), bytearray(b"".join(a.astype("<f4").tobytes() for a in arrays))


def _scaler_set(bound: str, feature: int, value: float, vessel: int = 0):
    """A corruption that sets a vessel's scaler `bound` ("min" or "max") of
    one feature to `value`."""
    return lambda doc, weights: doc["scaler"][bound][vessel].__setitem__(feature, value)


def _lat_span_1e308(doc, weights):
    """A LAT scaler from -1.7e308 to 1.7e308: finite, but unscaling any
    prediction with it overflows."""
    _scaler_set("min", 0, -1.7e308)(doc, weights)
    _scaler_set("max", 0, 1.7e308)(doc, weights)


def _k_1(doc, weights):
    """Format 4's input width key set to one feature, with a scaler and
    window of that shape."""
    doc.update(k=1)
    doc["scaler"] = {key: [row[:1] for row in rows] for key, rows in doc["scaler"].items()}
    doc["last_training_window"] = [[row[:1] for row in window] for window in doc["last_training_window"]]


def _weight_set(name: str, at: int, value: float):
    """A corruption that sets value `at` of weight array `name`, flat over
    its vessels, to `value`."""

    def corrupt(doc, weights):
        arrays = fleet._weight_arrays(weights, len(doc["vessel_ids"]), doc["hidden"])
        arrays[fleet.WEIGHT_NAMES.index(name)].flat[at] = value

    return corrupt


def _save_two(directory):
    """Save a trained fleet of vessels v0 and v1 into `directory`."""
    trained, histories = train_fleet([_series(vid=f"v{i}", seed=i) for i in range(2)], _cfg())
    save_fleet(trained, directory, _cfg(), histories)
    return trained


def _resign(directory, doc, weights=None):
    """Write `doc` as the directory's fleet.json, and `weights`, if given,
    as its weights.bin, with the sha256 of each in the manifest, so that the
    checksums pass."""
    manifest = json.loads((directory / "manifest.json").read_text())
    for entry, raw in zip(manifest["models"], [json.dumps(doc).encode(), weights]):
        if raw is not None:
            (directory / entry["file"]).write_bytes(raw)
            entry["sha256"] = hashlib.sha256(raw).hexdigest()
    (directory / "manifest.json").write_text(json.dumps(manifest))


class TestPersistence:
    def test_bundle_json_round_trip_predictions(self):
        trained, _ = _train_one(_series(), _cfg())
        restored = fleet_from_json(*_files(trained))
        probe = np.random.default_rng(5).random((5, 4))
        p1, _ = forward(trained.network, probe)
        p2, _ = forward(restored.network, probe)
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize(
        "key, value",
        [("input_form", "displacement"), ("network", {"hidden": 8, "dropout_rate": 0.2}), ("dropout_rate", 0.2)],
        ids=["top", "network", "dropout_rate"],
    )
    def test_key_the_format_lacks_rejected(self, key, value):
        # a reader never drops a field that a later format adds, nor reads
        # one that an earlier format had, such as format 4's "network" or
        # format 5's "dropout_rate"
        text, weights = _files(_train_one(_series(), _cfg())[0])
        doc = json.loads(text)
        doc[key] = value
        with pytest.raises(BadModel, match=f"holds '{key}', a key format 7 does not have"):
            fleet_from_json(json.dumps(doc), weights)

    def test_version_mismatch_rejected(self):
        trained, _ = _train_one(_series(), _cfg())
        text, weights = _files(trained)
        doc = json.loads(text)
        doc["format_version"] = 99
        with pytest.raises(VersionMismatch):
            fleet_from_json(json.dumps(doc), weights)

    def test_save_load_round_trip(self, tmp_path):
        tracks = [_series(vid=f"v{i}", seed=i) for i in range(2)]
        trained, histories = train_fleet(tracks, _cfg())
        save_fleet(trained, tmp_path, _cfg(), histories)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fleet.json", "manifest.json", "train_report.json",
                                                              "weights.bin"]
        loaded = load_fleet(tmp_path)
        assert loaded.vessel_ids == trained.vessel_ids
        probe = np.random.default_rng(6).random((2, 1, 5, 4))
        p1, _ = forward_batch(trained.network, probe)
        p2, _ = forward_batch(loaded.network, probe)
        np.testing.assert_array_equal(p1, p2)
        for a, b in zip(trained.network.param_arrays(), loaded.network.param_arrays(), strict=True):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert loaded.period == trained.period == 5.0
        for key in ("train_end_time", "last_training_window"):
            assert np.array_equal(getattr(loaded, key), getattr(trained, key))
        assert np.array_equal(loaded.scaler.min, trained.scaler.min)
        assert np.array_equal(loaded.scaler.max, trained.scaler.max)
        assert (tmp_path / "train_report.json").exists()

    def test_tampered_model_detected(self, tmp_path):
        trained, histories = train_fleet([_series()], _cfg())
        save_fleet(trained, tmp_path, _cfg(), histories)
        victim = tmp_path / "fleet.json"
        victim.write_text(victim.read_text().replace("0.", "1.", 1))
        with pytest.raises(ChecksumMismatch):
            load_fleet(tmp_path)

    def test_missing_model_file_detected(self, tmp_path):
        trained, histories = train_fleet([_series()], _cfg())
        save_fleet(trained, tmp_path, _cfg(), histories)
        (tmp_path / "fleet.json").unlink()
        with pytest.raises(MissingFile, match=f"^{re.escape(str(tmp_path))} is not a model directory: it holds no"
                           " readable fleet.json"):
            load_fleet(tmp_path)

    def test_missing_manifest_detected(self, tmp_path):
        with pytest.raises(MissingFile, match=f"^{re.escape(str(tmp_path))} is not a model directory: it holds no"
                           " readable manifest.json .*; `aistrack train --out` writes one$"):
            load_fleet(tmp_path)

    @pytest.mark.parametrize(
        "manifest",
        ["{not json", "[]", '{"format_version": 1}', '{"format_version": 1, "models": 3}',
         '{"format_version": 1, "models": [{"vessel_id": "v"}]}'],
    )
    def test_manifest_without_models_list_rejected(self, tmp_path, manifest):
        (tmp_path / "manifest.json").write_text(manifest)
        with pytest.raises(BadManifest):
            load_fleet(tmp_path)

    @pytest.mark.parametrize("name", ["../m1/model_v.json", "sub/model_v.json", "/tmp/model_v.json", "..", ""])
    def test_model_file_outside_directory_rejected(self, tmp_path, name):
        # a manifest lists the one file its directory holds, fleet.json
        trained, histories = train_fleet([_series()], _cfg())
        save_fleet(trained, tmp_path / "m1", _cfg(), histories)
        manifest = json.loads((tmp_path / "m1" / "manifest.json").read_text())
        manifest["models"][0]["file"] = name
        (tmp_path / "m2").mkdir()
        (tmp_path / "m2" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadManifest, match="where a model directory lists fleet.json and weights.bin$"):
            load_fleet(tmp_path / "m2")

    def test_manifest_with_no_models_rejected(self, tmp_path):
        trained, histories = train_fleet([_series()], _cfg())
        manifest = json.loads(save_fleet(trained, tmp_path, _cfg(), histories).read_text())
        manifest["models"] = []
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadManifest, match="lists no models"):
            load_fleet(tmp_path)

    def test_vessel_listed_twice_rejected(self, tmp_path):
        _save_two(tmp_path)
        doc = json.loads((tmp_path / "fleet.json").read_text())
        doc["vessel_ids"] = ["v0", "v0"]
        _resign(tmp_path, doc)
        with pytest.raises(BadModel, match="fleet.json: vessel_ids lists vessel v0 more than once$"):
            load_fleet(tmp_path)

    def test_weights_round_trip_bit_for_bit(self, tmp_path):
        # signed zero, the smallest subnormal, the largest float32, a negative
        # subnormal, in big-endian input order
        f32 = np.finfo(np.float32)
        values = np.array([-0.0, f32.smallest_subnormal, f32.max, -1e-40], dtype=">f4")
        trained, histories = train_fleet([_series()], _cfg())
        dense_W = trained.network.dense_W.astype(">f4")  # (1, 2, 8)
        dense_W[0, 0, :4] = values
        trained.network.dense_W = dense_W
        save_fleet(trained, tmp_path, _cfg(), histories)
        loaded = load_fleet(tmp_path)
        back = loaded.network.dense_W
        assert back.dtype == np.float32 and back.dtype.isnative and back.flags.writeable
        np.testing.assert_array_equal(back[0, 0, :4].view("<u4"), values.astype("<f4").view("<u4"))
        np.testing.assert_array_equal(back, dense_W)
        # the arrays are views of the one buffer the file was read into
        arrays = loaded.network.param_arrays()
        assert all(a.flags.writeable and np.shares_memory(a, arrays[0].base) for a in arrays)

    def test_format_version_1_rejected(self, tmp_path):
        trained, history = _train_one(_series(), _cfg())
        save_fleet(trained, tmp_path, _cfg(), {"v": history})
        for name in ("manifest.json", "fleet.json"):
            doc = json.loads((tmp_path / name).read_text())
            doc["format_version"] = 1
            (tmp_path / name).write_text(json.dumps(doc))
        weights = bytearray((tmp_path / "weights.bin").read_bytes())
        with pytest.raises(VersionMismatch, match="format 1, expected 7: retrain with `aistrack train`$"):
            fleet_from_json((tmp_path / "fleet.json").read_text(), weights)
        with pytest.raises(VersionMismatch, match="format 1, expected 7: retrain with `aistrack train`$"):
            load_fleet(tmp_path)

    @pytest.mark.parametrize(
        "corrupt, file, named",
        [
            (lambda doc, w: doc.pop("hidden"), "fleet.json", "'hidden'"),  # a missing key
            (lambda doc, w: w.extend(bytes(4)), "weights.bin",
             "holds 12180 bytes, where 2 vessels of hidden 8 need 12176"),
            # format 4's architecture keys, at any value: format 7 pins `lstm`'s one architecture
            (lambda doc, w: doc.update(n_layers=0), "fleet.json", "holds 'n_layers', a key format 7 does not have"),
            (lambda doc, w: doc.update(residual=False), "fleet.json", "holds 'residual', a key format 7"),
            (lambda doc, w: doc.update(period="5.0"), "fleet.json", "period"),
            # an int no float can hold, not written out
            (lambda doc, w: doc.update(period=10**400), "fleet.json",
             "config key 'period' is an int out of float range"),
            (lambda doc, w: doc["scaler"]["min"][0].__setitem__(0, 10**400), "fleet.json", "OverflowError"),
            (lambda doc, w: doc["vessel_ids"].__setitem__(0, "a,b"), "fleet.json", "vessel_ids: VID 'a,b' holds ','"),
            (lambda doc, w: doc["vessel_ids"].__setitem__(1, "v "), "fleet.json",
             "vessel_ids: VID 'v ' has surrounding whitespace"),
            (lambda doc, w: doc["vessel_ids"].reverse(), "fleet.json", "vessel_ids lists vessel v0 after v1"),
            # one vessel short of the arrays
            (lambda doc, w: doc["vessel_ids"].pop(), "fleet.json", "train_end_time has shape (2,), expected (1,)"),
            # one period for the fleet, not one per vessel
            (lambda doc, w: doc.update(period=[5.0, 5.0]), "fleet.json", "config key 'period' must be float, got list"),
            (lambda doc, w: doc["scaler"]["max"].pop(), "fleet.json", "scaler.max has shape (1, 4), expected (2, 4)"),
            (lambda doc, w: doc.update(last_training_window=[[0.5] * 4] * 2), "fleet.json",
             "last_training_window"),  # window 5
            (_weight_set("layers[1].U", 0, np.nan), "weights.bin", "vessel v0: layers[1].U holds a non-finite value"),
            (_weight_set("dense_b", -1, np.nan), "weights.bin", "vessel v1: dense_b holds a non-finite value"),
            # JSON NaN and Infinity, as Python writes them
            (lambda doc, w: doc["scaler"]["max"][1].__setitem__(2, float("nan")), "fleet.json",
             "vessel v1: scaler.max holds a non-finite value"),
            (lambda doc, w: doc["last_training_window"][0][0].__setitem__(0, float("inf")), "fleet.json",
             "vessel v0: last_training_window holds a non-finite value"),
            (lambda doc, w: doc.update(period=0), "fleet.json", "fleet.json: period must be in (0, inf), got 0.0"),
            (lambda doc, w: doc.update(period=-1), "fleet.json", "fleet.json: period must be in (0, inf), got -1.0"),
            (lambda doc, w: doc.update(period=-10**300), "fleet.json",
             "fleet.json: period must be in (0, inf), got -1e+300"),
            (lambda doc, w: doc.update(period=math.nan), "fleet.json",
             "fleet.json: period must be in (0, inf), got nan"),
            (_lat_span_1e308, "fleet.json",
             "vessel v0: scaler LAT range [-1.7e+308, 1.7e+308] is not one AIS rows can give"),
            (_scaler_set("max", 1, 180.5, vessel=1), "fleet.json", "vessel v1: scaler LON range"),
            (_scaler_set("min", 2, 1e6), "fleet.json", "scaler SPEED range [1000000.0, "),  # min above max
            (lambda doc, w: doc.update(out_dim=3), "fleet.json", "holds 'out_dim', a key format 7 does not have"),
            (_k_1, "fleet.json", "holds 'k', a key format 7 does not have"),
            (lambda doc, w: doc.update(n_layers=2), "fleet.json", "holds 'n_layers', a key format 7 does not have"),
        ],
        ids=["missing_key", "wrong_length", "no_layers", "not_residual",
             "period_string", "period_huge_int", "scaler_huge_int", "vessel_id_comma", "vessel_id_whitespace",
             "ids_out_of_order", "ids_short", "period_short", "scaler_short", "window_shape",
             "nan_weight", "nan_bias", "nan_scaler", "infinite_window", "period_zero", "period_minus_1",
             "period_minus_huge_int", "period_nan", "scaler_lat_span_1e308", "scaler_lon_past_180",
             "scaler_min_above_max", "out_dim_3", "k_1", "two_layers"],
    )
    def test_malformed_model_with_matching_checksum_rejected(self, tmp_path, corrupt, file, named):
        _save_two(tmp_path)
        doc = json.loads((tmp_path / "fleet.json").read_text())
        weights = bytearray((tmp_path / "weights.bin").read_bytes())
        corrupt(doc, weights)
        _resign(tmp_path, doc, weights)
        with pytest.raises(BadModel) as info:
            load_fleet(tmp_path)
        assert str(info.value).startswith(f"{tmp_path / file}: ") and named in str(info.value)

    @pytest.mark.parametrize("feature", [0, 1], ids=["LAT", "LON"])
    def test_scaler_may_span_what_rows_may_hold(self, feature):
        # rows at both of a feature's bounds parse, and a scaler fitted on
        # them loads; a step past the bound fails in both places
        bound = LAT_LON_BOUNDS[feature]
        past = np.nextafter(bound, np.inf)
        row = [1, "v", 0, 0.0, 0.0, 0.0, 0.0]
        for value in (-bound, bound):
            row[3 + feature] = value
            AisMessage(*row).validate(2)
        row[3 + feature] = past
        with pytest.raises(OutOfRange):
            AisMessage(*row).validate(2)
        text, weights = _files(train_fleet([_series()], _cfg())[0])
        doc = json.loads(text)
        doc["scaler"]["min"][0][feature], doc["scaler"]["max"][0][feature] = -bound, bound
        fleet_from_json(json.dumps(doc), weights)
        doc["scaler"]["max"][0][feature] = past
        with pytest.raises(BadModel, match=re.escape("(min <= max; LAT within [-90, 90], LON within [-180, 180])")):
            fleet_from_json(json.dumps(doc), weights)


def _reference_training(series, cfg):
    """One vessel trained alone, in float32 as `fleet` trains, with its own
    loop of forward_batch, backward and AdamState.step: what a lockstep
    stack must reproduce."""
    windows = make_windows(scale(series.features, fit_scaler(series.features)), cfg.window)
    inputs, targets = windows.inputs.astype(np.float32), windows.targets.astype(np.float32)
    rng = np.random.default_rng(vessel_seed(cfg.seed, series.vessel_id))
    net = init_network(hidden=cfg.hidden, rngs=[rng], dtype=np.float32)
    opt = AdamState.for_network(net, cfg.lr)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(windows))
        total = 0.0
        for start in range(0, len(windows), cfg.batch):
            idx = order[start : start + cfg.batch]
            x, y = inputs[idx][None], targets[idx][None]
            pred, cache = forward_batch(net, x, cfg.dropout, [rng])
            total += float(np.sum(np.mean((pred - y) ** 2, axis=-1)))
            opt.step(net, backward(net, cache, y))
        history.append(total / len(windows))
    return net, history


class TestLockstep:
    # batch 24 puts 64 // 24 = 2 vessels in a stack, so the three 60-sample
    # tracks train as a stack of two and a stack of one, and the two
    # 52-sample tracks as one stack; 55 and 47 windows leave a short last batch
    TRACKS = [(f"v{i}", n) for i, n in enumerate((60, 52, 60, 60, 52))]

    def _cfg(self):
        return RunConfig(window=5, hidden=8, lr=1e-2, batch=24, epochs=3, seed=5)

    def test_equals_per_vessel_reference_loop(self, monkeypatch):
        stack_sizes = []
        train_stack = fleet._train_stack

        def counting(stack, cfg, workspace):
            stack_sizes.append(len(stack))
            return train_stack(stack, cfg, workspace)

        monkeypatch.setattr(fleet, "_train_stack", counting)
        tracks = [_series(vid, n=n, seed=i) for i, (vid, n) in enumerate(self.TRACKS)]
        trained, histories = train_fleet(tracks, self._cfg())
        assert sorted(stack_sizes) == [1, 2, 2]
        assert trained.vessel_ids == sorted(vid for vid, _ in self.TRACKS)
        for series in tracks:
            net, history = _reference_training(series, self._cfg())
            z = trained.vessel_ids.index(series.vessel_id)
            assert histories[series.vessel_id] == history
            for a, b in zip(trained.network.param_arrays(), net.param_arrays()):
                assert a[z : z + 1].shape == b.shape and np.array_equal(a[z : z + 1], b)

    def test_short_track_error_and_order_invariance_across_groups(self):
        tracks = [_series(vid, n=n, seed=i) for i, (vid, n) in enumerate(self.TRACKS)]
        with pytest.raises(TrackTooShort, match="^vessel short: 5 samples"):
            train_fleet([*tracks, _series("short", n=5)], self._cfg())
        f1, h1 = train_fleet(tracks, self._cfg())
        f2, h2 = train_fleet(tracks[::-1], self._cfg())
        assert f1.vessel_ids == f2.vessel_ids == ["v0", "v1", "v2", "v3", "v4"]
        assert h1 == h2
        assert _files(f1) == _files(f2)


def test_vessel_seed_is_stable_and_distinct():
    assert vessel_seed(42, "abc") == vessel_seed(42, "abc")
    assert vessel_seed(42, "abc") != vessel_seed(42, "abd")
    assert 0 <= vessel_seed(42, "abc") < 2**64


def test_save_and_load_peak_memory_stays_near_the_weights(tmp_path):
    # the wide_horizon fleet: 24 vessels of hidden 32, about 2.05 MB of
    # float32 weights; each file is written from and read into one buffer
    # of its own, so neither stage holds a second copy of the weights
    z, window = 24, 10
    net = init_network(hidden=32, rngs=[np.random.default_rng(i) for i in range(z)], dtype=np.float32)
    stack = Fleet(
        vessel_ids=[f"v{i:02d}" for i in range(z)],
        network=net,
        scaler=ScalerParams(min=np.zeros((z, 4)), max=np.ones((z, 4))),
        period=5.0,
        train_end_time=np.zeros(z),
        last_training_window=np.full((z, window, 4), 0.5),
    )
    weights = sum(a.nbytes for a in net.param_arrays())
    cfg = dataclasses.replace(_cfg(), hidden=32, window=window)
    peaks = {}
    tracemalloc.start()
    try:
        for stage, call in [("save_fleet", lambda: save_fleet(stack, tmp_path, cfg, {})),
                            ("load_fleet", lambda: load_fleet(tmp_path))]:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            peaks[stage] = (tracemalloc.get_traced_memory()[1] - before) / weights
    finally:
        tracemalloc.stop()
    assert weights > 2_000_000
    assert peaks["save_fleet"] < 1.5 and peaks["load_fleet"] < 1.5, peaks
