"""Acceptance gate: one test per criterion, each printing a PASS line.

The PASS lines bypass pytest's capture, so a plain `pytest -v` shows them,
and so do the TRACKED lines: numbers the output records but no test gates.
The end-to-end fleet criterion trains five full-size models and takes a few
minutes.
"""

import csv
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from _gradcheck import check_network
from _lstm_oracle import count_params, evaluate_loss
from _reference import error_ratios
from aistrack.associate import EARTH_RADIUS_KM, associate_batch, haversine
from aistrack.cli import main
from aistrack.evaluate import confusion, macro_averages, metrics
from aistrack.config import RunConfig
from aistrack.fleet import load_fleet, train_fleet
from aistrack.ingest import AisMessage, RawTrack, group_tracks, parse_csv
from aistrack.lstm import AdamState, init_network, train_epoch
from aistrack.preprocess import ScalerParams, resample, scale, unscale
from aistrack.synth import fleet_motions, generate


@pytest.fixture
def report(capsys):
    def emit(name):
        with capsys.disabled():
            print(f"ACCEPTANCE {name}: PASS", flush=True)

    return emit


@pytest.fixture
def tracked(capsys):
    def emit(name, value):
        with capsys.disabled():
            print(f"TRACKED {name}: {value}", flush=True)

    return emit


def test_gradient_fidelity(report):
    start = time.time()
    rng = np.random.default_rng(20240301)
    net = init_network(hidden=32, rngs=[rng])
    total = 0
    worst = 0.0
    for _ in range(5):
        win = rng.random((1, 1, 10, 4))
        tgt = rng.random((1, 1, 2))
        checked, w = check_network(net, win, tgt, rng, coords_per_array=20, eps=1e-5, tol=1e-4)
        assert checked >= 20 * 3  # at least 20 surviving coordinates per layer
        total += checked
        worst = max(worst, w)
    elapsed = time.time() - start
    assert elapsed < 60
    report(f"gradient fidelity ({total} coords, worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_parameter_count_reproduction(report):
    assert count_params(32, 32) == 8320
    dense_one_output = 1 * 32 + 1
    assert dense_one_output == 33
    k4_first_layer = count_params(4, 32)
    assert k4_first_layer == 4736
    printed_first_layer = 4864
    assert count_params(5, 32) == printed_first_layer
    # the printed 4864 implies a 5th input feature the text never names;
    # the pipeline uses the four stated features, hence 4736
    report(
        "parameter counts (8320, 33; k=4 layer gives "
        f"{k4_first_layer}, printed table says {printed_first_layer})"
    )


def test_haversine_analytic_suite(report):
    start = time.time()
    assert haversine(37.85, 23.53, 37.85, 23.53) == 0.0
    one_degree = haversine(0, 0, 0, 1)
    assert abs(one_degree - 111.1949266) / 111.1949266 < 1e-6
    antipodal = haversine(0, 0, 0, 180)
    assert abs(antipodal - math.pi * EARTH_RADIUS_KM) / antipodal < 1e-6
    rng = np.random.default_rng(1)
    lats = rng.uniform(-90, 90, size=(10000, 3))
    lons = rng.uniform(-180, 180, size=(10000, 3))
    a, b, c = ((lats[:, i], lons[:, i]) for i in range(3))
    ab = haversine(*a, *b)
    assert np.all(np.abs(ab - haversine(*b, *a)) < 1e-9)
    assert np.all(ab <= haversine(*a, *c) + haversine(*c, *b) + 1e-9)
    elapsed = time.time() - start
    assert elapsed < 5
    report(f"haversine analytic suite ({elapsed:.1f}s)")


def test_preprocessing_oracle(report):
    msgs = [
        AisMessage(object_id=i + 1, vessel_id="v", t=t, lat=la, lon=0, speed=0, course=0)
        for i, (t, la) in enumerate([(0, 10.0), (7, 10.7), (12, 11.2)])
    ]
    reg = resample(RawTrack(vessel_id="v", messages=msgs), 5.0)
    np.testing.assert_array_equal(reg.features[:, 0], [10.0, 10.5, 11.0])

    regular = [
        AisMessage(object_id=i + 1, vessel_id="v", t=5 * i, lat=float(i), lon=2.0 * i, speed=i, course=10.0 * i)
        for i in range(6)
    ]
    reg2 = resample(RawTrack(vessel_id="v", messages=regular), 5.0)
    expected = np.array([[i, 2.0 * i, i, 10.0 * i] for i in range(6)], dtype=float)
    np.testing.assert_array_equal(reg2.features, expected)

    p = ScalerParams(min=np.array([10.0, -5.0, 0.0, 0.0]), max=np.array([20.0, 5.0, 100.0, 3600.0]))
    rng = np.random.default_rng(2)
    for _ in range(1000):
        x = p.min + rng.random(4) * (p.max - p.min)
        back = unscale(scale(x[None], p)[0, :2], p)
        for j in range(2):
            assert abs(back[j] - x[j]) <= np.spacing(max(abs(p.min[j]), abs(p.max[j])))
    report("preprocessing oracle")


def test_overfit_sanity(report):
    rng = np.random.default_rng(3)
    net = init_network(hidden=32, rngs=[rng])
    inputs = rng.random((1, 1, 10, 4))
    targets = rng.random((1, 1, 2))
    opt = AdamState.for_network(net, 1e-2)
    train_rngs = [np.random.default_rng(0)]
    for _ in range(200):
        train_epoch(net, inputs, targets, 1, 0.0, train_rngs, opt)
    final = evaluate_loss(net, inputs, targets)
    assert final < 1e-4
    report(f"overfit sanity (final MSE {final:.2e})")


def _run_cli(argv):
    return main([str(a) for a in argv])


@pytest.mark.slow
def test_synthetic_fleet_end_to_end(tmp_path, report, tracked):
    start = time.time()
    data = tmp_path / "data"
    models = tmp_path / "models"
    assert _run_cli(
        ["synth", "--out", data, "--vessels", 5, "--points", 648, "--period", 5,
         "--jitter", 0.2, "--noise", 1e-4, "--seed", 42]
    ) == 0
    assert _run_cli(
        ["train", "--data", data / "fleet.csv", "--out", models, "--min-points", 500,
         "--period", 5, "--window", 10, "--hidden", 32, "--epochs", 100, "--batch", 10,
         "--lr", 0.0001, "--test-len", 108, "--seed", 42]
    ) == 0
    decisions = tmp_path / "decisions.csv"
    assert _run_cli(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", decisions]) == 0
    report_path = tmp_path / "report.json"
    assert _run_cli(
        ["evaluate", "--decisions", decisions, "--truth", models / "holdout_truth.csv", "--out", report_path]
    ) == 0
    doc = json.loads(report_path.read_text())
    assert sum(sum(row) for row in doc["confusion_matrix"]) == 540
    per_vessel_f1 = {m["vessel_id"]: m["f1"] for m in doc["per_vessel"]}
    assert len(per_vessel_f1) == 5
    assert all(f1 >= 0.90 for f1 in per_vessel_f1.values()), per_vessel_f1
    assert doc["macro"]["f1"] >= 0.95
    elapsed = time.time() - start
    assert elapsed < 15 * 60
    # each held-out observation's distance to its own vessel's prediction:
    # the matrix's rows are decisions.csv's, its columns the meta's vessel_ids
    holdout = parse_csv((models / "holdout.csv").read_text())
    with open(decisions, newline="") as fh:
        row = {int(r["OBJECT_ID"]): i for i, r in enumerate(csv.DictReader(fh))}
    column = {vid: z for z, vid in enumerate(json.loads(decisions.with_suffix(".meta.json").read_text())["vessel_ids"])}
    distances = np.load(decisions.with_suffix(".distances.npy"), allow_pickle=False)
    lstm_km = [distances[row[m.object_id], column[m.vessel_id]].item() for m in holdout]
    for name, (first, last) in error_ratios(load_fleet(models), holdout, lstm_km, (1, 108)).items():
        tracked(f"LSTM / {name} mean error at rollout steps 1 and 108", f"{first:.2f} {last:.2f}")
    report(
        f"synthetic fleet end-to-end (macro F1 {doc['macro']['f1']:.3f}, "
        f"min vessel F1 {min(per_vessel_f1.values()):.3f}, {elapsed / 60:.1f} min)"
    )


@pytest.mark.slow
def test_overlap_stress(report, tracked):
    # the crossing sample 590 is inside the held-out suffix (samples 540..647)
    synth_cfg = RunConfig(vessels=5, points=648, period=5.0, jitter=0.2, noise=1e-4, seed=43, crossing="0,1,590")
    motions = fleet_motions(synth_cfg)
    csv_text, truth = generate(synth_cfg, motions)
    tracks = group_tracks(parse_csv(csv_text))
    series = [resample(t, 5.0) for t in tracks]
    cfg = RunConfig(window=10, test_len=108, hidden=32, lr=1e-4, batch=10, epochs=30, seed=43)
    fleet, _ = train_fleet([dataclasses.replace(s, features=s.features[:-108]) for s in series], cfg)
    # held-out observations: test suffix of each resampled series
    observations = []
    oid = 1
    obs_truth = {}
    for s in series:
        for i in range(len(s) - 108, len(s)):
            lat, lon, speed, course = s.features[i]
            observations.append(
                AisMessage(object_id=oid, vessel_id=s.vessel_id, t=int(round(s.time_of(i))),
                           lat=lat, lon=lon, speed=speed, course=course)
            )
            obs_truth[oid] = s.vessel_id
            oid += 1
    observations.sort(key=lambda m: (m.t, m.object_id))
    decisions = associate_batch(observations, fleet)
    cm = confusion(list(zip(decisions.object_ids, decisions.assigned)), obs_truth)
    per_vessel = metrics(cm)
    # identify the crossing pair by matching first observed positions to motion starts
    first_pos = {}
    for t in tracks:
        m0 = t.messages[0]
        first_pos[t.vessel_id] = (m0.lat, m0.lon)
    crossing_vids = set()
    for idx in (0, 1):
        motion = motions[idx]
        best = min(
            first_pos,
            key=lambda vid: (first_pos[vid][0] - motion.start_lat) ** 2
            + (first_pos[vid][1] - motion.start_lon) ** 2,
        )
        crossing_vids.add(best)
    assert len(crossing_vids) == 2
    clear = [m for m in per_vessel if m["vessel_id"] not in crossing_vids]
    crossed = [m for m in per_vessel if m["vessel_id"] in crossing_vids]
    macro_clear = macro_averages(clear)
    assert macro_clear["f1"] >= 0.95, macro_clear
    tracked("crossing pair F1", " ".join(f"{m['f1']:.3f}" for m in crossed))
    report(
        f"overlap stress (non-crossing macro F1 {macro_clear['f1']:.3f}; "
        f"crossing pair F1 {[round(m['f1'], 3) for m in crossed]})"
    )


def test_determinism(tmp_path, report):
    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        data = base / "data"
        models = base / "models"
        assert _run_cli(
            ["synth", "--out", data, "--vessels", 3, "--points", 150, "--jitter", 0.2,
             "--noise", 1e-4, "--seed", 42]
        ) == 0
        assert _run_cli(
            ["train", "--data", data / "fleet.csv", "--out", models, "--min-points", 100,
             "--epochs", 3, "--test-len", 25, "--seed", 42]
        ) == 0
        decisions = base / "decisions.csv"
        assert _run_cli(
            ["associate", "--models", models, "--obs", models / "holdout.csv", "--out", decisions]
        ) == 0
        report_path = base / "report.json"
        assert _run_cli(
            ["evaluate", "--decisions", decisions, "--truth", models / "holdout_truth.csv", "--out", report_path]
        ) == 0
        blobs = {"decisions": decisions.read_bytes(), "report": report_path.read_bytes()}
        for model_file in sorted(models.glob("*.json")):
            blobs[model_file.name] = model_file.read_bytes()
        outputs.append(blobs)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between identical runs"
    report("determinism (byte-identical models, decisions, reports)")
