import dataclasses
import re
import warnings
from collections import Counter

import numpy as np
import pytest

import _geodesic
from aistrack.associate import haversine
from aistrack.config import RunConfig
from aistrack.errors import BadConfig, MalformedRow
from aistrack.ingest import AisMessage, group_tracks, parse_csv, serialize_csv
from aistrack.preprocess import resample
from aistrack import synth
from aistrack.synth import (
    BASE_EPOCH,
    KNOT_KM_H,
    MAX_FLEET_ROWS,
    VesselMotion,
    _derived_speed_course,
    default_motions,
    fleet_motions,
    generate,
    truth_from_csv,
    truth_to_csv,
)


def _generate(**settings):
    """generate() for a RunConfig of `settings`, on its fleet_motions."""
    cfg = RunConfig(**settings)
    return generate(cfg, fleet_motions(cfg))



def _generate_per_sample(cfg, motions):
    """`generate` as it was first written: each sample's position in numpy
    scalar math, and the rows ordered by a Python sort on (time, vessel)."""
    rng = np.random.default_rng(cfg.seed)
    vids = [bytes(rng.integers(0, 256, size=4, dtype=np.uint8)).hex() for _ in motions]
    rows = []  # (t, vessel_index, lat, lon, speed, course)
    for vi, motion in enumerate(motions):
        jitter = rng.uniform(-0.5, 0.5, size=cfg.points) * cfg.jitter * cfg.period
        times = np.round(BASE_EPOCH + np.arange(cfg.points) * cfg.period + jitter).astype(np.int64)
        noise = rng.normal(0.0, cfg.noise, size=(cfg.points, 2)) if cfg.noise else np.zeros((cfg.points, 2))
        theta = np.radians(motion.course_deg)
        coslat = np.cos(np.radians(motion.start_lat))
        lats, lons = [], []
        for i in range(cfg.points):
            along_deg = motion.speed_knots * (float(times[i] - BASE_EPOCH) / 3600.0) / 60.0
            cross_deg = motion.wave_amp_deg * np.sin(2 * np.pi * i / motion.wave_period)
            lat = motion.start_lat + along_deg * np.cos(theta) - cross_deg * np.sin(theta)
            lon = motion.start_lon + (along_deg * np.sin(theta) + cross_deg * np.cos(theta)) / coslat
            lats.append(float(lat) + noise[i, 0])
            lons.append(float(lon) + noise[i, 1])
        speed, course = _derived_speed_course(np.array(lats), np.array(lons), times.astype(float))
        for i in range(cfg.points):
            rows.append((int(times[i]), vi, lats[i], lons[i], float(speed[i]), float(course[i])))
    rows.sort(key=lambda r: (r[0], r[1]))
    messages = [
        AisMessage(object_id=oid, vessel_id=vids[vi], t=t, lat=lat, lon=lon, speed=sp, course=co)
        for oid, (t, vi, lat, lon, sp, co) in enumerate(rows, start=1)
    ]
    return serialize_csv(messages), {m.object_id: m.vessel_id for m in messages}


@pytest.mark.parametrize(
    "settings",
    [
        {},
        {"vessels": 3, "points": 200, "seed": 10, "crossing": "0,1,120"},
        {"vessels": 30, "points": 150},
        {"vessels": 4, "points": 100, "noise": 0.0, "seed": 7},
        {"vessels": 3, "points": 150, "period": 0.5, "jitter": 0.9, "seed": 3},
    ],
    ids=["default", "crossing", "vessels_30", "noise_0", "tied_times"],
)
def test_generate_equals_per_sample_oracle(settings):
    cfg = RunConfig(**settings)
    csv_text, truth = generate(cfg, fleet_motions(cfg))
    assert (csv_text, truth) == _generate_per_sample(cfg, fleet_motions(cfg))
    if cfg.period == 0.5:
        # rows of one vessel at one timestamp keep their sample order
        ties = Counter((m.vessel_id, m.t) for m in parse_csv(csv_text))
        assert sum(n > 1 for n in ties.values()) == 175


def test_same_seed_byte_identical():
    cfg = RunConfig(vessels=3, points=50, jitter=0.2, noise=1e-4, seed=9)
    assert generate(cfg, fleet_motions(cfg)) == _generate(vessels=3, points=50, jitter=0.2, noise=1e-4, seed=9)


def test_different_seed_differs():
    a, _ = _generate(vessels=2, points=30, jitter=0, noise=0, seed=1)
    b, _ = _generate(vessels=2, points=30, jitter=0, noise=0, seed=2)
    assert a != b


def test_output_parses_strict():
    csv_text, truth = _generate(vessels=5, points=40, jitter=0.3, noise=1e-4, seed=3)
    msgs = parse_csv(csv_text)
    assert len(msgs) == 200
    assert {m.object_id for m in msgs} == set(truth)


def test_fleet_past_26_vessels_parses_strict():
    # vessel i starts at latitude 37 + 2i only up to i = 25; later vessels
    # repeat those motions 5 degrees further east per band of 26
    csv_text, truth = _generate(vessels=200, points=20, jitter=0.2, noise=1e-4, seed=6)
    msgs = parse_csv(csv_text)
    assert len(msgs) == 200 * 20 and len(set(truth.values())) == 200
    motions = default_motions(200)
    assert motions[27] == dataclasses.replace(motions[1], start_lon=motions[1].start_lon + 5.0)
    assert motions[199] == dataclasses.replace(motions[199 % 26], start_lon=motions[199 % 26].start_lon + 35.0)


def test_truth_covers_every_object_id_once():
    csv_text, truth = _generate(vessels=4, points=25, jitter=0, noise=0, seed=4)
    msgs = parse_csv(csv_text)
    assert sorted(truth) == [m.object_id for m in msgs]
    assert len(set(truth)) == len(msgs)


def test_row_count_matches_paper_scale():
    csv_text, _ = _generate(vessels=5, points=648, jitter=0, noise=0, seed=5)
    assert len(parse_csv(csv_text)) == 3240


def test_straight_track_resamples_exactly():
    # no jitter, no noise, no wobble: positions are affine in time, so linear
    # interpolation onto the 5 s grid reproduces the generating line
    motion = VesselMotion(start_lat=37.0, start_lon=23.0, course_deg=45.0, speed_knots=10.0, wave_amp_deg=0.0)
    csv_text, _ = generate(RunConfig(points=50, jitter=0.0, noise=0.0, seed=6), [motion])
    (track,) = group_tracks(parse_csv(csv_text))
    reg = resample(track, 5.0)
    theta = np.radians(45.0)
    deg_per_s = 10.0 / 3600.0 / 60.0
    for i in range(len(reg)):
        elapsed = reg.time_of(i) - track.messages[0].t
        lat = 37.0 + deg_per_s * elapsed * np.cos(theta)
        assert reg.features[i, 0] == pytest.approx(lat, abs=1e-9)


def test_vessel_ids_are_hex_tokens():
    _, truth = _generate(vessels=3, points=10, jitter=0, noise=0, seed=7)
    for vid in set(truth.values()):
        assert len(vid) == 8
        int(vid, 16)


def test_truth_csv_round_trip():
    _, truth = _generate(vessels=2, points=10, jitter=0, noise=0, seed=8)
    assert truth_from_csv(truth_to_csv(truth)) == truth


def test_truth_repeated_object_id_names_both_lines():
    with pytest.raises(MalformedRow, match=r"^line 5: duplicate OBJECT_ID 1 \(first on line 2\)$"):
        truth_from_csv("OBJECT_ID,VID\n1,aa\n2,bb\n\n1,cc\n")


def test_derived_speed_course_equals_scalar_loop():
    rng = np.random.default_rng(3)
    lats = 37.0 + np.cumsum(rng.normal(0, 1e-3, 60))
    lons = 23.0 + np.cumsum(rng.normal(0, 1e-3, 60))
    times = np.round(np.arange(60) * 5.0 + rng.uniform(-1, 1, 60))
    times[10] = times[9]  # a repeated time: dt floors at one second
    speed, course = _derived_speed_course(lats, lons, times)
    coslat = np.cos(np.radians(np.mean(lats)))
    for i in range(1, 60):
        dt = max(1.0, times[i] - times[i - 1])
        km = _geodesic.haversine(_geodesic.GeoPoint(lats[i - 1], lons[i - 1]), _geodesic.GeoPoint(lats[i], lons[i]))
        # the distance's bound, carried through the four roundings to tenths
        # of knots; they add at most 4 * eps / 2 relative on each side
        scale = 3600.0 / KNOT_KM_H * 10.0 / dt
        bound = (_geodesic.RTOL + 4 * 2.0**-52) * km * scale + _geodesic.atol() * scale
        assert abs(speed[i] - km / dt * 3600.0 / KNOT_KM_H * 10.0) <= bound
        dlat, dlon = lats[i] - lats[i - 1], (lons[i] - lons[i - 1]) * coslat
        assert course[i] == np.degrees(np.arctan2(dlon, dlat)) % 360.0 * 10.0
    assert (speed[0], course[0]) == (speed[1], course[1])


class TestOverlapScenario:
    def test_tracks_cross_near_requested_sample(self):
        csv_text, truth = _generate(vessels=3, points=200, jitter=0, noise=0, seed=10, crossing="0,1,120")
        msgs = parse_csv(csv_text)
        # vessel 0 emits object_id 1 first; scan its distance to every other track
        track0 = [m for m in msgs if truth[m.object_id] == truth[1]]
        other_vids = [v for v in {truth[o] for o in truth} if v != truth[1]]
        best = np.inf
        for v in other_vids:
            track1 = [m for m in msgs if truth[m.object_id] == v]
            n = min(len(track0), len(track1))
            lat0, lon0 = np.array([(m.lat, m.lon) for m in track0[:n]]).T
            lat1, lon1 = np.array([(m.lat, m.lon) for m in track1[:n]]).T
            best = min(best, haversine(lat0, lon0, lat1, lon1).min())
        assert best < 0.1

    def test_no_crossing_returns_spec_unchanged(self):
        # without a crossing the motions are the default ones
        assert fleet_motions(RunConfig(vessels=2, points=20, seed=11)) == default_motions(2)

    def test_self_crossing_rejected(self):
        with pytest.raises(BadConfig, match="crossing"):
            fleet_motions(RunConfig(vessels=2, points=20, seed=12, crossing="1,1,5"))

    def test_crossing_indices_validated(self):
        for crossing in ("0,5,5", "0,1,20", "0,1", "0,-1,5", "a,b,c"):
            with pytest.raises(BadConfig, match="crossing"):
                fleet_motions(RunConfig(vessels=2, points=20, seed=13, crossing=crossing))


def test_spec_validation():
    for bad in ({"vessels": 0}, {"points": 1}, {"jitter": 1.0}, {"noise": -1.0}):
        (key,) = bad
        with pytest.raises(BadConfig, match=f"{key} must be in"):
            generate(RunConfig(**bad), default_motions(2))


@pytest.mark.parametrize(
    "settings, named",
    [
        ({"period": 1e10}, "150 points 1e+10 s apart with jitter 0.2 run outside"),
        ({"period": 1e17}, "150 points 1e+17 s apart with jitter 0.2 run outside"),
        # the first sample's jitter alone reaches back before year 1
        ({"points": 2, "period": 1.5e11, "jitter": 0.99}, "2 points 1.5e+11 s apart with jitter 0.99 run outside"),
        ({"period": 1e7}, "sample 1: position (398.772, 187.874) is outside |LAT| <= 90, |LON| <= 180"),
        ({"noise": 1e300}, "sample 0: position (-1.58635e+299, -1.03565e+300) is outside"),
    ],
)
def test_times_or_positions_no_row_could_carry_rejected_before_any_warning(settings, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadConfig, match=re.escape(named)):
            _generate(**{"vessels": 3, "points": 150, **settings})


@pytest.mark.parametrize("vessels, points", [(1, MAX_FLEET_ROWS + 1), (2, MAX_FLEET_ROWS // 2 + 1), (10**12, 2)])
def test_fleet_past_the_row_bound_rejected_before_anything_is_built(monkeypatch, vessels, points):
    # 10**10 points once asked numpy for 373 GiB; neither the motions nor
    # the rows of such a fleet are built, and no int is written out
    cfg = RunConfig(vessels=vessels, points=points)
    monkeypatch.setattr(synth, "default_motions", lambda z: pytest.fail("built the motions"))
    with pytest.raises(BadConfig, match=f"^vessels x points must be at most {MAX_FLEET_ROWS} rows$"):
        fleet_motions(cfg)
    if vessels <= 2:  # generate counts the motions it is given
        with pytest.raises(BadConfig, match=f"^vessels x points must be at most {MAX_FLEET_ROWS} rows$"):
            generate(cfg, [VesselMotion(37.0, 23.0, 0.0, 8.0)] * vessels)


def test_fleet_at_the_row_bound_passes_the_check():
    # exactly MAX_FLEET_ROWS rows is allowed: the settings reach the next
    # check, which rejects this period for its times
    cfg = RunConfig(vessels=2, points=MAX_FLEET_ROWS // 2, period=1e6)
    with pytest.raises(BadConfig, match="run outside"):
        generate(cfg, default_motions(2))
