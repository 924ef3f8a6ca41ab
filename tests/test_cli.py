import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aistrack import cli
from aistrack.associate import associate_batch
from aistrack.cli import build_parser, main
from aistrack.config import FIELD_TYPES, RunConfig
from aistrack.fleet import WEIGHT_NAMES, _weight_arrays, load_fleet, save_fleet, train_fleet
from aistrack.ingest import AisMessage, group_tracks, parse_csv, serialize_csv, time_order
from aistrack.lstm import init_network
from aistrack.preprocess import resample
from aistrack.synth import fleet_motions, generate

FAST = [
    "--vessels", "3",
    "--points", "120",
    "--seed", "42",
]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def pipeline_dirs(tmp_path):
    data = tmp_path / "data"
    models = tmp_path / "models"
    return data, models, tmp_path


def _synth(data):
    assert run(["synth", "--out", data, *FAST]) == 0


def _train(data, models, epochs=3):
    assert (
        run(
            [
                "train",
                "--data", data / "fleet.csv",
                "--out", models,
                "--min-points", 100,
                "--epochs", epochs,
                "--test-len", 20,
                "--seed", 42,
            ]
        )
        == 0
    )


def test_synth_writes_fleet_and_truth(pipeline_dirs):
    data, _, _ = pipeline_dirs
    _synth(data)
    assert (data / "fleet.csv").exists()
    assert (data / "truth.csv").exists()
    assert (data / "run_config.json").exists()


def test_synth_is_idempotent(pipeline_dirs):
    data, _, _ = pipeline_dirs
    _synth(data)
    first = (data / "fleet.csv").read_bytes()
    _synth(data)
    assert (data / "fleet.csv").read_bytes() == first


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["synth"])
    assert exc.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "aistrack" in capsys.readouterr().out


def test_full_pipeline_and_report(pipeline_dirs):
    data, models, tmp = pipeline_dirs
    _synth(data)
    _train(data, models)
    assert (models / "manifest.json").exists()
    assert (models / "train_report.json").exists()
    assert (models / "holdout.csv").exists()
    decisions = tmp / "decisions.csv"
    assert run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", decisions]) == 0
    report = tmp / "report.json"
    assert (
        run(["evaluate", "--decisions", decisions, "--truth", models / "holdout_truth.csv", "--out", report]) == 0
    )
    doc = json.loads(report.read_text())
    assert len(doc["per_vessel"]) == 3
    assert doc["meta"]["seed"] == 42
    assert "config_sha256" in doc["meta"]
    assert report.with_suffix(".txt").exists()


def test_corrupted_model_is_data_error(pipeline_dirs):
    data, models, tmp = pipeline_dirs
    _synth(data)
    _train(data, models)
    victim = models / "fleet.json"
    victim.write_text(victim.read_text().replace("0.", "1.", 1))
    rc = run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp / "d.csv"])
    assert rc == 2


def test_mismatched_truth_is_data_error(pipeline_dirs):
    data, models, tmp = pipeline_dirs
    _synth(data)
    _train(data, models)
    decisions = tmp / "decisions.csv"
    run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", decisions])
    (tmp / "bad_truth.csv").write_text("OBJECT_ID,VID\n999999,zz\n")
    rc = run(["evaluate", "--decisions", decisions, "--truth", tmp / "bad_truth.csv", "--out", tmp / "r.json"])
    assert rc == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vessels": 2, "points": 60, "seed": 7}))
    assert run(["synth", "--config", cfg, "--out", tmp_path / "d", "--seed", "9"]) == 0
    meta = json.loads((tmp_path / "d" / "run_config.json").read_text())
    assert meta["config"]["vessels"] == 2
    assert meta["seed"] == 9  # flag beats config file


def test_unknown_config_key_is_data_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run(["synth", "--config", cfg, "--out", tmp_path / "d"]) == 2


# Each bad --config file's content (None: no file), and text its error line holds.
BAD_CONFIGS = {
    None: "cannot read",
    "{not json": "is not valid JSON",
    b"\xff\xfe": "cannot read",
    "[1, 2]": "must hold a JSON object",
    '{"vessels": "5"}': "config key 'vessels' must be int, got str",
    '{"epochs": 2.5}': "config key 'epochs' must be int, got float",
    '{"lenient": 1}': "config key 'lenient' must be bool, got int",
    '{"seed": true}': "config key 'seed' must be int, got bool",
    '{"crossing": 3}': "config key 'crossing' must be str, got int",
    '{"lr": null}': "config key 'lr' must be float, got NoneType",
    '{"radius": 6371.0}': "unknown config key 'radius'",
    '{"lr": 1%s}' % ("0" * 400): "config key 'lr' is an int out of float range",
    # an int may have any number of digits and is not written out
    '{"hidden": -1%s}' % ("0" * 40): "error: hidden must be in [1, 512]\n",
}


@pytest.mark.parametrize("content", list(BAD_CONFIGS))
def test_bad_config_file_is_data_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if isinstance(content, bytes):
        cfg.write_bytes(content)
    elif content is not None:
        cfg.write_text(content)
    assert run(["synth", "--config", cfg, "--out", tmp_path / "d"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert BAD_CONFIGS[content] in err
    assert not (tmp_path / "d").exists()


def test_config_int_for_float_field_echoed_as_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vessels": 2, "points": 60, "jitter": 0, "lenient": False}))
    assert run(["synth", "--config", cfg, "--out", tmp_path / "d"]) == 0
    meta = json.loads((tmp_path / "d" / "run_config.json").read_text())
    assert meta["config"]["jitter"] == 0.0 and isinstance(meta["config"]["jitter"], float)


def test_short_track_excluded_with_warning(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["synth", "--out", data, "--vessels", "2", "--points", "120", "--seed", "1"]) == 0
    # append a vessel with too few points
    extra = "\n".join(
        f"{9000 + i},feedf00d,2020-03-01T01:{i:02d}:00Z,10.0,10.0,0.0,0.0" for i in range(5)
    )
    fleet = data / "fleet.csv"
    fleet.write_text(fleet.read_text() + extra + "\n")
    assert (
        run(
            [
                "train",
                "--data", fleet,
                "--out", tmp_path / "m",
                "--min-points", 100,
                "--epochs", 1,
                "--test-len", 20,
            ]
        )
        == 0
    )
    assert "feedf00d" in capsys.readouterr().err
    assert len(json.loads((tmp_path / "m" / "fleet.json").read_text())["vessel_ids"]) == 2


def test_lenient_run_names_a_track_too_short_to_train_once(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["synth", "--out", data, "--vessels", "2", "--points", "120", "--seed", "1"]) == 0
    # enough points for --min-points, but four seconds of them: one sample
    # on the 5 s grid, too few for a window once 20 are held out
    extra = "\n".join(f"{9000 + i},feedf00d,2020-03-01T01:00:0{i}Z,10.0,10.0,0.0,0.0" for i in range(5))
    fleet = data / "fleet.csv"
    fleet.write_text(fleet.read_text() + extra + "\n")
    argv = ["train", "--data", fleet, "--out", tmp_path / "m", "--min-points", 5, "--epochs", 1, "--test-len", 20]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: vessel feedf00d: 1 samples leave train_len -19")
    assert run(argv + ["--lenient"]) == 0
    err = capsys.readouterr().err
    assert err.count("feedf00d") == 1
    assert ("warning: vessel feedf00d has 1 resampled samples, too few for one window of 10"
            " once the last 20 are held out, excluded\n") in err
    assert len(json.loads((tmp_path / "m" / "fleet.json").read_text())["vessel_ids"]) == 2
    assert "feedf00d" not in (tmp_path / "m" / "holdout.csv").read_text()


def test_lenient_run_names_its_excluded_track_before_training_fails(tmp_path, capsys):
    # the exclusion is decided before training, so a run whose training then
    # diverges still names the track it left out
    data = tmp_path / "data"
    assert run(["synth", "--out", data, "--vessels", "2", "--points", "120", "--seed", "1"]) == 0
    extra = "\n".join(f"{9000 + i},feedf00d,2020-03-01T01:00:0{i}Z,10.0,10.0,0.0,0.0" for i in range(5))
    fleet = data / "fleet.csv"
    fleet.write_text(fleet.read_text() + extra + "\n")
    capsys.readouterr()
    argv = ["train", "--data", fleet, "--out", tmp_path / "m", "--min-points", 5, "--epochs", 1, "--test-len", 20,
            "--lenient", "--lr", 1e300]
    assert run(argv) == 2
    warning, error, *rest = capsys.readouterr().err.splitlines()
    assert warning == ("warning: vessel feedf00d has 1 resampled samples, too few for one window of 10"
                       " once the last 20 are held out, excluded")
    assert error.startswith("error: vessel ") and "feedf00d" not in error and rest == []


def test_training_is_given_each_kept_track_without_its_held_out_samples(trained, tmp_path, monkeypatch):
    fleet_csv = trained / "data" / "fleet.csv"
    given = []

    def recording(tracks, cfg):
        given.extend(tracks)
        return train_fleet(tracks, cfg)

    monkeypatch.setattr(cli, "train_fleet", recording)
    assert run(["train", "--data", fleet_csv, "--out", tmp_path / "m", "--min-points", 100, "--epochs", 1,
                "--test-len", 20]) == 0
    series_list = [resample(t) for t in group_tracks(parse_csv(fleet_csv.read_text()))]
    assert [s.vessel_id for s in given] == [s.vessel_id for s in series_list]
    for prefix, series in zip(given, series_list):
        assert (prefix.start_time, prefix.period) == (series.start_time, series.period)
        assert np.array_equal(prefix.features, series.features[: len(series) - 20])


def test_min_points_keeps_tracks_of_that_many_rows(capsys):
    rows = [(vid, i) for vid, n in (("a", 499), ("b", 500), ("c", 501)) for i in range(n)]
    tracks = group_tracks([AisMessage(oid, vid, 5 * i, 10.0, 10.0, 0.0, 0.0) for oid, (vid, i) in enumerate(rows, 1)])
    kept = cli._trained_series(tracks, RunConfig(min_points=500))
    assert [(s.vessel_id, len(s)) for s in kept] == [("b", 500), ("c", 501)]
    assert capsys.readouterr().err == "warning: vessel a has 499 < 500 points, excluded\n"


def test_tracks_ending_at_different_times(tmp_path, capsys):
    # three of seven vessels stop early, so their last samples fall before
    # the other vessels' train ends and are left out of the holdout
    data, models = tmp_path / "data", tmp_path / "models"
    assert run(["synth", "--out", data, "--vessels", 7, "--points", 200, "--seed", 42]) == 0
    header, *rows = (data / "fleet.csv").read_text().splitlines()
    limit = dict(zip(sorted({r.split(",")[1] for r in rows}), (180, 180, 160)))
    seen = Counter()
    kept = [header]
    for r in rows:  # in time order
        vid = r.split(",")[1]
        seen[vid] += 1
        if seen[vid] <= limit.get(vid, 200):
            kept.append(r)
    (data / "fleet.csv").write_text("\n".join(kept) + "\n")
    capsys.readouterr()
    assert run(["train", "--data", data / "fleet.csv", "--out", models, "--min-points", 100, "--epochs", 1,
                "--test-len", 25, "--seed", 42]) == 0
    err = capsys.readouterr().err
    decisions, report = tmp_path / "decisions.csv", tmp_path / "report.json"
    assert run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", decisions]) == 0
    assert run(["evaluate", "--decisions", decisions, "--truth", models / "holdout_truth.csv", "--out", report]) == 0
    doc = json.loads(report.read_text())
    assert doc["macro"]["f1"] >= 0.95
    held_out = sum(map(sum, doc["confusion_matrix"]))
    left_out = int(err.split("left ")[1].split()[0])
    assert left_out > 0 and left_out + held_out == 7 * 25


@pytest.mark.parametrize("year", ["0001", "0999"])
def test_fleet_before_year_1000_associates_its_own_holdout(tmp_path, capsys, year):
    # train writes holdout.csv's timestamps with a four-digit year, which
    # associate then reads back
    data, models = tmp_path / "fleet.csv", tmp_path / "models"
    data.write_text(
        "OBJECT_ID,VID,SEQUENCE_DTTM,LAT,LON,SPEED,COURSE\n"
        f"1,aaa,{year}-01-01T00:00:00Z,30.0,20.0,0,0\n"
        f"2,aaa,{year}-01-01T00:10:00Z,30.1,20.1,0,0\n"
    )
    assert run(["train", "--data", data, "--out", models, "--min-points", 1, "--test-len", 1, "--window", 1,
                "--period", 300, "--epochs", 1]) == 0
    assert f",{year}-01-01T00:10:00Z," in (models / "holdout.csv").read_text()
    capsys.readouterr()
    assert run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp_path / "d.csv"]) == 0
    assert capsys.readouterr().err == ""



def _holdout_per_row(series_list, fleet, test_len):
    """`cli._holdout_messages` as it was first written: each held-out
    sample's numpy scalars unpacked one row at a time."""
    latest_end = max(fleet.train_end_time.tolist())
    rows, left_out = [], 0
    for s in series_list:
        for i in range(len(s) - test_len, len(s)):
            lat, lon, speed, course = s.features[i]
            t = int(round(s.time_of(i)))
            if t > latest_end:
                rows.append((t, s.vessel_id, lat, lon, speed, course))
            else:
                left_out += 1
    rows.sort(key=lambda r: (r[0], r[1]))
    return [
        AisMessage(object_id=oid, vessel_id=vid, t=t, lat=lat, lon=lon, speed=speed, course=course)
        for oid, (t, vid, lat, lon, speed, course) in enumerate(rows, start=1)
    ], left_out


@pytest.mark.parametrize("ends", [(), (180, 180, 160)], ids=["equal_ends", "unequal_ends"])
def test_holdout_messages_equal_per_row_form(ends):
    cfg = RunConfig(vessels=6, points=200, seed=42)
    tracks = group_tracks(parse_csv(generate(cfg, fleet_motions(cfg))[0]))
    for track, end in zip(tracks, ends):
        del track.messages[end:]
    series_list = [resample(t, cfg.period) for t in tracks[:-1]]  # the last vessel does not train
    test_len = 25
    fleet = SimpleNamespace(train_end_time=np.array([s.time_of(len(s) - test_len - 1) for s in series_list]))
    holdout, left_out = cli._holdout_messages(series_list, fleet, test_len)
    expected, expected_left_out = _holdout_per_row(series_list, fleet, test_len)
    assert serialize_csv(holdout) == serialize_csv(expected)
    assert left_out == expected_left_out
    assert len(holdout) + left_out == 5 * test_len
    assert (left_out > 0) == bool(ends)


def test_report_out_that_is_its_own_text_report_is_data_error(trained, tmp_path, capsys):
    # the text report goes to --out with its suffix set to .txt, which for
    # report.txt is the JSON report itself
    report = tmp_path / "report.txt"
    capsys.readouterr()
    rc = run(["evaluate", "--decisions", trained / "decisions.csv", "--truth", trained / "models" / "holdout_truth.csv",
              "--out", report])
    assert rc == 2
    assert capsys.readouterr().err == f"error: cannot write report {report}: its text report {report} is the same file\n"
    assert not report.exists()


# Each subcommand's option strings, in the order its --help lists them.
OPTIONS = {
    "synth": "--config --out --seed --vessels --points --period --jitter --noise --crossing",
    "train": "--config --data --out --seed --min-points --period --window --hidden --epochs --batch --lr"
    " --dropout --test-len --lenient",
    "associate": "--config --models --obs --out --seed --tau --lenient",
    "evaluate": "--config --decisions --truth --out --seed",
}


def test_subcommand_options_derived_from_run_config():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(OPTIONS)
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
        assert [s for a in actions for s in a.option_strings] == OPTIONS[name].split()
        for a in actions:
            if a.dest in types:
                assert a.option_strings == ["--" + a.dest.replace("_", "-")] and not a.required
                assert (a.const is True) if types[a.dest] == "bool" else a.type.__name__ == types[a.dest]
            else:
                assert a.required == (a.dest != "config")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    _synth(root / "data")
    _train(root / "data", root / "models", epochs=1)
    models = root / "models"
    decisions = root / "decisions.csv"
    assert run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", decisions]) == 0
    return root


@pytest.mark.parametrize(
    "argv, named",
    [
        ("train --data {fleet} --out {new} --epochs 0", "epochs"),
        ("train --data {fleet} --out {new} --batch 0", "batch"),
        ("train --data {fleet} --out {new} --lr -1", "lr"),
        ("train --data {fleet} --out {new} --period 0", "period"),
        ("train --data {fleet} --out {new} --period -1", "period"),
        ("train --data {fleet} --out {new} --period 1e-300 --min-points 100", "period 1e-300 s puts"),
        ("train --data {fleet} --out {new} --window 0", "window"),
        ("train --data {fleet} --out {new} --hidden 0", "hidden"),
        # the bounds that keep a size setting from asking for unbounded memory
        ("train --data {fleet} --out {new} --hidden 513", "hidden must be in [1, 512]"),
        ("train --data {fleet} --out {new} --hidden 100000", "hidden must be in [1, 512]"),
        ("train --data {fleet} --out {new} --hidden -1" + "0" * 60, "error: hidden must be in [1, 512]\n"),
        ("train --data {fleet} --out {new} --min-points 0", "min_points"),
        ("train --data {fleet} --out {new} --test-len -5", "test_len"),
        ("train --data {fleet} --out {new} --dropout 1.0", "dropout"),
        ("synth --out {new} --vessels 0", "vessels"),
        ("synth --out {new} --points 1", "points"),
        ("synth --out {new} --points 10000000000", "vessels x points must be at most 1000000 rows"),
        ("synth --out {new} --vessels 2 --points 500001", "vessels x points must be at most 1000000 rows"),
        ("synth --out {new} --vessels 1000000000000 --points 2", "vessels x points must be at most 1000000 rows"),
        ("synth --out {new} --jitter 1.5", "jitter"),
        ("synth --out {new} --crossing 1,2", "crossing"),
        ("synth --out {new} --crossing a,b,c", "crossing"),
        ("synth --out {new} --crossing 0,9,5", "crossing"),
        ("synth --out {new} --vessels 3 --points 150 --period 1e10", "9999-12-31T23:59:59Z"),
        ("synth --out {new} --vessels 3 --points 150 --period 1e17", "9999-12-31T23:59:59Z"),
        ("synth --out {new} --vessels 3 --points 150 --period 1e7", "position (398.772, "),
        ("synth --out {new} --vessels 3 --points 150 --noise 1e300", "sample 0: position"),
        ("train --data {missing} --out {new}", "missing.csv"),
        ("associate --models {models} --obs {missing} --out {new}/d.csv", "missing.csv"),
        ("evaluate --decisions {missing} --truth {truth} --out {new}/r.json", "missing.csv"),
        ("evaluate --decisions {decisions} --truth {missing} --out {new}/r.json", "missing.csv"),
        ("train --data {binary} --out {new}", "binary.csv"),
        ("associate --models {models} --obs {binary} --out {new}/d.csv", "binary.csv"),
        ("evaluate --decisions {binary} --truth {truth} --out {new}/r.json", "binary.csv"),
        ("evaluate --decisions {decisions} --truth {binary} --out {new}/r.json", "binary.csv"),
        # an --out under a file cannot be created
        ("synth --out {binary}/data", "binary.csv"),
        ("train --data {fleet} --out {binary}/models --min-points 100 --test-len 20", "binary.csv"),
        ("associate --models {models} --obs {holdout} --out {binary}/d.csv", "binary.csv"),
        ("evaluate --decisions {decided} --truth {truth} --out {binary}/r.json", "binary.csv"),
    ],
)
def test_bad_value_or_missing_input_is_data_error(trained, tmp_path, capsys, monkeypatch, argv, named):
    (tmp_path / "decisions.csv").write_text("OBJECT_ID,ASSIGNED_VID,STEP,WINNING_DISTANCE_KM,MARGIN_KM\n")
    (tmp_path / "binary.csv").write_bytes(b"OBJECT_ID,VID\n1,\xff\n")  # not UTF-8

    def train_fleet(*args):
        raise AssertionError("train started training before it found the error")

    monkeypatch.setattr(cli, "train_fleet", train_fleet)
    paths = {
        "fleet": trained / "data" / "fleet.csv",
        "models": trained / "models",
        "holdout": trained / "models" / "holdout.csv",
        "truth": trained / "models" / "holdout_truth.csv",
        "decisions": tmp_path / "decisions.csv",
        "decided": trained / "decisions.csv",
        "missing": tmp_path / "missing.csv",
        "binary": tmp_path / "binary.csv",
        "new": tmp_path / "new",
    }
    capsys.readouterr()
    assert run(argv.format(**paths).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and named in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize(
    "bad, row",
    [
        ("decisions", "1"),  # one field
        ("decisions", "x,v0,0.5"),
        ("truth", "1,a,b"),  # three fields
        ("truth", "1"),
        ("truth", "1.5,a"),
        ("decisions", '1,""'),  # an empty label, which would be scored as a vessel named ""
        ("truth", "1,"),
    ],
)
def test_malformed_decisions_or_truth_row_is_data_error(trained, tmp_path, capsys, bad, row):
    paths = {"decisions": trained / "decisions.csv", "truth": trained / "models" / "holdout_truth.csv"}
    paths[bad] = tmp_path / "bad.csv"
    header = {"decisions": "OBJECT_ID,ASSIGNED_VID", "truth": "OBJECT_ID,VID"}[bad]
    paths[bad].write_text(f"{header}\n\n{row}\n")
    capsys.readouterr()
    rc = run(["evaluate", "--decisions", paths["decisions"], "--truth", paths["truth"],
              "--out", tmp_path / "r.json"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith(f"error: {paths[bad]}: line 3:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "both, column",
    [("models/holdout_truth.csv", "ASSIGNED_VID"), ("decisions.csv", "VID")],
    ids=["truth_as_decisions", "decisions_as_truth"],
)
def test_decisions_and_truth_files_need_their_own_header(trained, tmp_path, capsys, both, column):
    # scoring the truth file as decisions would compare the truth with itself
    capsys.readouterr()
    rc = run(["evaluate", "--decisions", trained / both, "--truth", trained / both, "--out", tmp_path / "r.json"])
    assert rc == 2 and capsys.readouterr().err == f"error: {trained / both}: line 1: missing column {column}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda oid, vid: f'{oid},"{vid}"',
        lambda oid, vid: f"{oid}, {vid}",
        lambda oid, vid: f"{vid},{oid}",
    ],
    ids=["quoted", "space_after_comma", "columns_swapped"],
)
def test_truth_read_as_csv_scores_as_the_plain_file(trained, tmp_path, rewrite):
    plain = trained / "models" / "holdout_truth.csv"
    truth = tmp_path / "truth.csv"
    truth.write_text("".join(rewrite(*line.split(",")) + "\n" for line in plain.read_text().splitlines()))
    for name, path in [("plain", plain), ("variant", truth)]:
        assert run(["evaluate", "--decisions", trained / "decisions.csv", "--truth", path,
                    "--out", tmp_path / f"{name}.json"]) == 0
    assert (tmp_path / "variant.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_truth_header_naming_a_column_twice_is_data_error(trained, tmp_path, capsys):
    lines = (trained / "models" / "holdout_truth.csv").read_text().splitlines()
    truth = tmp_path / "truth.csv"
    truth.write_text("\n".join([lines[0] + ",vid"] + [line + ",x" for line in lines[1:]]) + "\n")
    capsys.readouterr()
    rc = run(["evaluate", "--decisions", trained / "decisions.csv", "--truth", truth, "--out", tmp_path / "r.json"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {truth}: line 1: column VID appears 2 times\n"
    assert not (tmp_path / "r.json").exists()


def test_decisions_row_narrower_than_its_header_is_data_error(trained, tmp_path, capsys):
    lines = (trained / "decisions.csv").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]
    decisions = tmp_path / "decisions.csv"
    decisions.write_text("\n".join(lines) + "\n")
    width = len(lines[0].split(","))
    capsys.readouterr()
    rc = run(["evaluate", "--decisions", decisions, "--truth", trained / "models" / "holdout_truth.csv",
              "--out", tmp_path / "r.json"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {decisions}: line 4: expected {width} fields, got {width - 1}\n"
    assert not (tmp_path / "r.json").exists()


def test_associate_writes_its_matrices_beside_the_decisions_the_same_twice(trained, tmp_path):
    models = trained / "models"
    observations = parse_csv((models / "holdout.csv").read_text())
    observations.sort(key=time_order)
    want = associate_batch(observations, load_fleet(models))
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name / "decisions.csv"
        assert run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", out]) == 0
        runs.append({suffix: out.with_suffix(suffix).read_bytes() for suffix in (".csv", ".distances.npy",
                                                                                   ".steps.npy", ".meta.json")})
    assert runs[0] == runs[1]
    out = tmp_path / "first" / "decisions.csv"
    distances = np.load(out.with_suffix(".distances.npy"), allow_pickle=False)
    steps = np.load(out.with_suffix(".steps.npy"), allow_pickle=False)
    shape = (len(observations), len(want.vessel_ids))
    assert (distances.dtype, distances.shape, steps.dtype, steps.shape) == (np.float64, shape, np.int64, shape)
    assert distances.tobytes() == want.distances_km.tobytes() and np.array_equal(steps, want.steps)
    assert json.loads(out.with_suffix(".meta.json").read_text())["vessel_ids"] == want.vessel_ids
    # the rows of decisions.csv are the matrices' rows, in order
    _, *rows = (line.split(",") for line in out.read_text().splitlines())
    best = distances.argmin(axis=1)
    assert [int(r[0]) for r in rows] == want.object_ids
    assert [(int(r[2]), float(r[3])) for r in rows] == list(zip(steps[np.arange(len(rows)), best].tolist(),
                                                                 distances.min(axis=1).tolist()))


@pytest.mark.parametrize("stage", ["train", "associate"])
def test_lenient_counts_skipped_rows(trained, tmp_path, capsys, stage):
    source = trained / "data" / "fleet.csv" if stage == "train" else trained / "models" / "holdout.csv"
    lines = source.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], "1,aa,not a time,0,0,0,0", *lines[2:]]) + "\n")
    argv = {
        "train": ["train", "--data", bad, "--out", tmp_path / "m", "--min-points", 100, "--epochs", 1,
                  "--test-len", 20],
        "associate": ["associate", "--models", trained / "models", "--obs", bad, "--out", tmp_path / "d.csv"],
    }[stage]
    capsys.readouterr()
    assert run(argv + ["--lenient"]) == 0
    assert f"skipped 1 of {len(lines) - 1} rows\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, given",
    [(["--min-points", 1000], 3), (["--min-points", 100, "--test-len", 115, "--lenient"], 3)],
    ids=["min_points", "lenient"],
)
def test_train_with_no_track_left_is_data_error(trained, tmp_path, capsys, flags, given):
    capsys.readouterr()
    rc = run(["train", "--data", trained / "data" / "fleet.csv", "--out", tmp_path / "m", "--epochs", 1, *flags])
    err = capsys.readouterr().err
    assert rc == 2 and err.endswith(f"error: no track left to train: {given} read, none kept\n")
    assert not (tmp_path / "m").exists()


def run_without_warnings(argv):
    """`run(argv)`, failing if it emits any warning, such as numpy's
    RuntimeWarning, which the console script would print to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(argv)
    assert [str(w.message) for w in caught] == []
    return rc


def test_diverging_training_names_its_vessel(trained, tmp_path, capsys):
    fleet = trained / "data" / "fleet.csv"
    first = group_tracks(parse_csv(fleet.read_text()))[0].vessel_id  # row 0 of the stack
    capsys.readouterr()
    argv = ["train", "--data", fleet, "--out", tmp_path / "m", "--lr", 1e300, "--epochs", 3, "--min-points", 100]
    assert run_without_warnings(argv) == 2
    assert capsys.readouterr().err == f"error: vessel {first}: non-finite prediction\n"


@pytest.mark.parametrize("existing", [None, "empty", "kept.txt"])
def test_failed_training_removes_only_the_out_it_made(trained, tmp_path, existing):
    # --out and its missing parent are made before training; when training
    # fails they go, but a directory that was there stays, with its files
    out = tmp_path / "new" / "m"
    if existing:
        out.mkdir(parents=True)
        if existing != "empty":
            (out / existing).write_text("kept")
    argv = ["train", "--data", trained / "data" / "fleet.csv", "--out", out, "--lr", 1e300, "--epochs", 3]
    assert run(argv + ["--min-points", 100]) == 2
    if existing is None:
        assert not (tmp_path / "new").exists()
    else:
        assert sorted(p.name for p in out.iterdir()) == ([] if existing == "empty" else [existing])


def _train_one_huge_step(trained, tmp_path, capsys, lr, fault):
    """Train the test fleet for one Adam step at `lr`: training's only forward
    pass runs on the initial weights and is finite, but the first rollout
    step of the weights it would save is not. Exit 2 with one line naming
    the first vessel and `fault` (a regex), and nothing saved."""
    fleet = trained / "data" / "fleet.csv"
    first = group_tracks(parse_csv(fleet.read_text()))[0].vessel_id
    capsys.readouterr()
    argv = ["train", "--data", fleet, "--out", tmp_path / "m", "--lr", lr, "--batch", 200, "--epochs", 1]
    assert run_without_warnings(argv + ["--min-points", 100]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: vessel {first}: {fault}\n", err), err
    assert not (tmp_path / "m").exists()


def test_model_that_cannot_make_its_first_prediction_is_not_saved(trained, tmp_path, capsys):
    # a step of 1e308 overflows float32, the dtype training runs in: the
    # weights it would save are not finite, so neither is the first step of
    # their rollout (or, if the step came before a forward, the training
    # prediction)
    _train_one_huge_step(trained, tmp_path, capsys, 1e308, "non-finite prediction( at rollout step 1)?")


def test_model_whose_float32_rollout_overflows_is_not_saved(trained, tmp_path, capsys):
    # weights near 3e29: inside the float32 range, but the rollout's
    # products overflow it
    _train_one_huge_step(trained, tmp_path, capsys, 1e30, "non-finite prediction at rollout step 1")


def _associate_scaled_model(trained, tmp_path, capsys, scale, fault):
    """Associate with the trained models after every layer's W of the second
    vessel is multiplied by `scale`: exit 2 with one line naming that vessel
    and `fault` (a regex), and nothing written."""
    fleet = load_fleet(trained / "models")
    for layer in fleet.network.layers:
        layer.W[1] *= scale
    save_fleet(fleet, tmp_path / "models", RunConfig(), {})
    capsys.readouterr()
    argv = ["associate", "--models", tmp_path / "models", "--obs", trained / "models" / "holdout.csv"]
    assert run_without_warnings(argv + ["--out", tmp_path / "d.csv"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: vessel {fleet.vessel_ids[1]}: {fault}\n", err), err
    assert not list(tmp_path.glob("d.*"))


def test_diverged_model_is_one_error_line_at_associate(trained, tmp_path, capsys):
    # weights near float32's largest: finite, so the file loads, but no
    # product of the first rollout step is
    _associate_scaled_model(trained, tmp_path, capsys, 1e38, "non-finite prediction at rollout step 1")


def test_model_whose_float32_rollout_overflows_is_one_error_line_at_associate(trained, tmp_path, capsys):
    # weights inside the float32 range: its exp and matmul overflow on the way to a NaN
    _associate_scaled_model(trained, tmp_path, capsys, 1e30, "non-finite prediction at rollout step 1")


@pytest.mark.parametrize(
    "argv, row, reason",
    [
        ("train --data {bad} --out {new}", "1,aa,2020-02-29T22:00:01Z,10.0,0,0", "expected 7 fields, got 6"),
        ("train --data {bad} --out {new}", "1,aa,2020-02-29T22:00:01Z,91.0,0,0,0", "LAT=91.0 out of range"),
        ("associate --models {models} --obs {bad} --out {new}/d.csv", "1,aa,2020-02-29T22:00:01Z,x,0,0,0",
         "could not convert string to float: 'x'"),
        # VIDs that train once accepted and wrote into files a later stage misread or refused
        ("train --data {bad} --out {new}", "1,NEW,2020-02-29T22:00:01Z,10.0,0,0,0", "VID 'NEW' is the new-track label"),
        ("train --data {bad} --out {new}", '1,"a,b",2020-02-29T22:00:01Z,10.0,0,0,0', "VID 'a,b' holds ','"),
        ("train --data {bad} --out {new}", "1,x/y,2020-02-29T22:00:01Z,10.0,0,0,0", "VID 'x/y' holds '/'"),
    ],
)
def test_bad_data_or_obs_row_names_its_file(trained, tmp_path, capsys, argv, row, reason):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"OBJECT_ID,VID,SEQUENCE_DTTM,LAT,LON,SPEED,COURSE\n{row}\n")
    capsys.readouterr()
    rc = run(argv.format(bad=bad, models=trained / "models", new=tmp_path / "new").split())
    assert rc == 2 and capsys.readouterr().err == f"error: {bad}: line 2: {reason}\n"
    assert not (tmp_path / "new").exists()


def test_repeated_truth_object_id_is_data_error(trained, tmp_path, capsys):
    truth_lines = (trained / "models" / "holdout_truth.csv").read_text().splitlines()
    oid, vid = truth_lines[1].split(",")
    other = next(v for _, v in (ln.split(",") for ln in truth_lines[2:]) if v != vid)
    truth = tmp_path / "truth.csv"
    truth.write_text("\n".join([*truth_lines, f"{oid},{other}"]) + "\n")
    capsys.readouterr()
    rc = run(["evaluate", "--decisions", trained / "decisions.csv", "--truth", truth, "--out", tmp_path / "r.json"])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert err == f"error: {truth}: line {len(truth_lines) + 1}: duplicate OBJECT_ID {oid} (first on line 2)\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("remove", ["manifest.json", "fleet.json", "weights.bin"])
def test_missing_model_directory_file_is_one_error_line(trained, tmp_path, capsys, remove):
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    (models / remove).unlink()
    capsys.readouterr()
    rc = run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp_path / "d.csv"])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert err.startswith(f"error: {models} is not a model directory: it holds no readable {remove} (")
    assert not (tmp_path / "d.csv").exists()


def _assert_retrain_line(models, version, obs, out, capsys):
    """`associate` on a model directory of format `version` exits 2 with one
    line that names its manifest and says to retrain, and writes nothing."""
    capsys.readouterr()
    rc = run(["associate", "--models", models, "--obs", obs, "--out", out])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: {models / 'manifest.json'}: model format {version}, expected 7: retrain with"
                   " `aistrack train`\n")
    assert not out.exists()


def test_version_2_model_directory_is_one_error_line(trained, tmp_path, capsys):
    # the layout of format 2: one model file per vessel, each listed in the manifest
    models = tmp_path / "models"
    models.mkdir()
    fleet = json.loads((trained / "models" / "fleet.json").read_text())
    entries = []
    for vid in fleet["vessel_ids"]:
        (models / f"model_{vid}.json").write_text(json.dumps({"format_version": 2, "vessel_id": vid}))
        entries.append({"file": f"model_{vid}.json", "vessel_id": vid, "sha256": "0" * 64})
    (models / "manifest.json").write_text(json.dumps({"format_version": 2, "meta": {}, "models": entries}))
    _assert_retrain_line(models, 2, trained / "models" / "holdout.csv", tmp_path / "d.csv", capsys)


def test_version_3_model_directory_is_one_error_line(trained, tmp_path, capsys):
    # the layout of format 3: one fleet.json, its weights held in it as base64
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    (models / "weights.bin").unlink()
    manifest = json.loads((models / "manifest.json").read_text())
    manifest.update(format_version=3, models=manifest["models"][:1])
    (models / "manifest.json").write_text(json.dumps(manifest))
    _assert_retrain_line(models, 3, models / "holdout.csv", tmp_path / "d.csv", capsys)


def test_version_4_model_directory_is_one_error_line(trained, tmp_path, capsys):
    # the layout of format 4: today's weights.bin, and a fleet.json with the
    # window size, a period per vessel and a "network" of the architecture
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    doc = json.loads((models / "fleet.json").read_text())
    z = len(doc["vessel_ids"])
    network = {"k": 4, "hidden": doc.pop("hidden"), "n_layers": 3, "out_dim": 2, "dropout_rate": 0.2,
               "residual": True}
    doc.update(format_version=4, window_size=len(doc["last_training_window"][0]), period=[doc["period"]] * z,
               network=network)
    _resign(models, doc)
    manifest = json.loads((models / "manifest.json").read_text())
    manifest["format_version"] = 4
    (models / "manifest.json").write_text(json.dumps(manifest))
    _assert_retrain_line(models, 4, models / "holdout.csv", tmp_path / "d.csv", capsys)
    # the same fleet.json under a format-7 manifest is named as format 4 too
    manifest["format_version"] = 7
    (models / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp_path / "d.csv"]) == 2
    assert capsys.readouterr().err == (f"error: {models / 'fleet.json'}: model format 4, expected 7: retrain with"
                                       " `aistrack train`\n")


def test_version_5_model_directory_is_one_error_line(trained, tmp_path, capsys):
    # the layout of format 5: today's files, and the dropout rate in fleet.json
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    doc = json.loads((models / "fleet.json").read_text())
    doc.update(format_version=5, dropout_rate=0.2)
    _resign(models, doc)
    manifest = json.loads((models / "manifest.json").read_text())
    manifest["format_version"] = 5
    (models / "manifest.json").write_text(json.dumps(manifest))
    _assert_retrain_line(models, 5, models / "holdout.csv", tmp_path / "d.csv", capsys)
    # the same fleet.json under a format-7 manifest is named as format 5
    manifest["format_version"] = 7
    (models / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp_path / "d.csv"]) == 2
    assert capsys.readouterr().err == (f"error: {models / 'fleet.json'}: model format 5, expected 7: retrain with"
                                       " `aistrack train`\n")
    assert not (tmp_path / "d.csv").exists()


def test_version_6_model_directory_is_one_error_line(trained, tmp_path, capsys):
    # the layout of format 6: today's fleet.json, and the same weights as
    # float64, twice the bytes
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    doc = json.loads((models / "fleet.json").read_text())
    doc["format_version"] = 6
    _resign(models, doc)
    _resign_weights(models, np.frombuffer((models / "weights.bin").read_bytes(), "<f4").astype("<f8").tobytes())
    manifest = json.loads((models / "manifest.json").read_text())
    manifest["format_version"] = 6
    (models / "manifest.json").write_text(json.dumps(manifest))
    _assert_retrain_line(models, 6, models / "holdout.csv", tmp_path / "d.csv", capsys)
    # the same files under a format-7 manifest: fleet.json names format 6
    manifest["format_version"] = 7
    (models / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp_path / "d.csv"]) == 2
    assert capsys.readouterr().err == (f"error: {models / 'fleet.json'}: model format 6, expected 7: retrain with"
                                       " `aistrack train`\n")
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("key", ["k", "n_layers", "out_dim", "residual", "window_size", "network"])
def test_format_4_key_in_fleet_file_is_one_error_line(trained, tmp_path, capsys, key):
    # each field format 4 held and format 7 states elsewhere, or not at all,
    # at the value format 4 gave it
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    doc = json.loads((models / "fleet.json").read_text())
    window = len(doc["last_training_window"][0])
    doc[key] = {"k": 4, "n_layers": 3, "out_dim": 2, "residual": True, "window_size": window,
                "network": {"hidden": doc["hidden"], "dropout_rate": 0.2}}[key]
    _resign(models, doc)
    capsys.readouterr()
    assert run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp_path / "d.csv"]) == 2
    assert capsys.readouterr().err == (f"error: {models / 'fleet.json'}: the document holds {key!r}, a key format 7"
                                       " does not have\n")
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("listed", [["fleet.json"], ["weights.bin", "fleet.json"]], ids=["fleet_only", "swapped"])
def test_manifest_listing_other_files_is_one_error_line(trained, tmp_path, capsys, listed):
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    manifest = json.loads((models / "manifest.json").read_text())
    entries = {entry["file"]: entry for entry in manifest["models"]}
    manifest["models"] = [entries[name] for name in listed]
    (models / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp_path / "d.csv"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: {models / 'manifest.json'} lists {listed}, where a model directory lists fleet.json and"
                   " weights.bin\n")
    assert not (tmp_path / "d.csv").exists()


def _resign_weights(models, raw):
    """Write `raw` as the directory's weights.bin, and its sha256 into the
    manifest, so that the checksum passes."""
    (models / "weights.bin").write_bytes(raw)
    manifest = json.loads((models / "manifest.json").read_text())
    manifest["models"][1]["sha256"] = hashlib.sha256(raw).hexdigest()
    (models / "manifest.json").write_text(json.dumps(manifest))


def _hidden_4_weights(raw, z):
    """The weights file of `z` vessels of hidden 4."""
    net = init_network(hidden=4, rngs=[np.random.default_rng(i) for i in range(z)], dtype=np.float32)
    return b"".join(a.tobytes() for a in net.param_arrays())


@pytest.mark.parametrize(
    "edit",
    [lambda raw, z: raw[:-8], lambda raw, z: raw + bytes(8), _hidden_4_weights],
    ids=["8_bytes_short", "8_bytes_long", "hidden_4"],
)
def test_weights_file_of_another_length_is_one_error_line(trained, tmp_path, capsys, edit):
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    doc = json.loads((models / "fleet.json").read_text())
    z, hidden = len(doc["vessel_ids"]), doc["hidden"]
    raw = (models / "weights.bin").read_bytes()
    edited = edit(raw, z)
    _resign_weights(models, edited)
    capsys.readouterr()
    argv = ["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp_path / "d.csv"]
    assert run_without_warnings(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {models / 'weights.bin'}: holds {len(edited)} bytes, where {z} vessels of hidden {hidden}"
                   f" need {len(raw)}\n")
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("hidden", [10**400, 10**6], ids=["401_digits", "million"])
def test_hidden_no_weights_file_of_its_length_holds_is_one_short_fleet_json_line(trained, tmp_path, capsys, hidden):
    # the weights file is the trained one: the hidden size, not the weights,
    # is at fault, and the int is not written out

    def edit(doc):
        doc["hidden"] = hidden

    rc, err, model, _ = _associate_edited_model(trained, tmp_path, capsys, edit)
    assert rc == 2
    assert err == f"error: {model}: hidden must be in [1, 512]\n"
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [("hidden", v) for v in (0, 1, 512, 513, 10**400, True, 2.0)]
    + [("period", v) for v in (0, -1, math.nan, 10**400, "5")],
    ids=["hidden_0", "hidden_1", "hidden_512", "hidden_513", "hidden_401_digits", "hidden_true", "hidden_2.0",
         "period_0", "period_minus_1", "period_nan", "period_401_digits", "period_string"],
)
def test_fleet_json_setting_is_held_to_the_rule_of_a_config_file(trained, tmp_path, capsys, key, value):
    # a --config file and a re-signed fleet.json accept the same values and
    # reject the rest with the same reason, which fleet.json's error leads
    # with its path; a hidden fleet.json accepts fails on weights.bin instead
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    capsys.readouterr()
    models = trained / "models"
    argv = ["associate", "--config", config, "--models", models, "--obs", models / "holdout.csv", "--out",
            tmp_path / "c.csv"]
    config_rc, config_err = run_without_warnings(argv), capsys.readouterr().err
    rc, err, model, _ = _associate_edited_model(trained, tmp_path, capsys, lambda doc: doc.update({key: value}))
    prefix = f"error: {model}: "
    assert (config_rc != 0) == err.startswith(prefix)
    if config_rc:
        assert config_rc == rc == 2 and config_err == "error: " + err[len(prefix):]
        assert config_err.count("\n") == 1 and not (tmp_path / "c.csv").exists()


def test_truncated_weights_file_is_a_checksum_error(trained, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    (models / "weights.bin").write_bytes((models / "weights.bin").read_bytes()[:-8])
    capsys.readouterr()
    rc = run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp_path / "d.csv"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {models / 'weights.bin'} checksum does not match manifest\n"
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda rows: rows + rows[-1:], "duplicate OBJECT_ID"),
        (lambda rows: rows[:-1], "no decision for 1 of"),
    ],
    ids=["repeated", "undecided"],
)
def test_repeated_or_missing_decision_is_data_error(trained, tmp_path, capsys, edit, named):
    header, *rows = (trained / "decisions.csv").read_text().splitlines()
    decisions = tmp_path / "decisions.csv"
    decisions.write_text("\n".join([header, *edit(rows)]) + "\n")
    capsys.readouterr()
    rc = run(["evaluate", "--decisions", decisions, "--truth", trained / "models" / "holdout_truth.csv",
              "--out", tmp_path / "r.json"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith(f"error: {decisions}") and err.count("\n") == 1 and named in err
    assert not (tmp_path / "r.json").exists()


# Bytes an input file may hold: anything, or anything after a header line,
# so that the row parsers, not only the header check, see it.
HEADERS = [b"", b"OBJECT_ID,VID,SEQUENCE_DTTM,LAT,LON,SPEED,COURSE\n", b"OBJECT_ID,ASSIGNED_VID\n"]


@settings(max_examples=60, deadline=None)
@given(
    argv=st.sampled_from(
        [
            "train --data {input} --out {work}/m",
            "associate --models {models} --obs {input} --out {work}/d.csv",
            "evaluate --decisions {input} --truth {truth} --out {work}/r.json",
            "evaluate --decisions {decisions} --truth {input} --out {work}/r.json",
        ]
    ),
    content=st.tuples(st.sampled_from(HEADERS), st.binary(max_size=200)).map(b"".join),
)
def test_arbitrary_input_bytes_never_internal_error(trained, argv, content):
    work = trained / "fuzz"
    work.mkdir(exist_ok=True)
    (work / "input.csv").write_bytes(content)
    paths = {
        "input": work / "input.csv",
        "work": work,
        "models": trained / "models",
        "truth": trained / "models" / "holdout_truth.csv",
        "decisions": trained / "decisions.csv",
    }
    assert run(argv.format(**paths).split()) in (0, 1, 2)


def _resign(models, doc):
    """Write `doc` as the directory's fleet.json, and its sha256 into the
    manifest, so that the checksum passes. A str `doc` is written as it is."""
    raw = (doc if isinstance(doc, str) else json.dumps(doc)).encode()
    (models / "fleet.json").write_bytes(raw)
    manifest = json.loads((models / "manifest.json").read_text())
    manifest["models"][0]["sha256"] = hashlib.sha256(raw).hexdigest()
    (models / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("where", ["config", "manifest.json", "fleet.json"])
def test_json_nested_past_the_parser_depth_is_data_error(trained, tmp_path, capsys, where):
    deep = "[" * 100_000 + "]" * 100_000
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    argv = ["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp_path / "d.csv"]
    if where == "config":
        (tmp_path / "cfg.json").write_text(deep)
        argv += ["--config", tmp_path / "cfg.json"]
    elif where == "manifest.json":
        (models / "manifest.json").write_text(deep)
    else:
        _resign(models, deep)
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "d.csv").exists()


def test_model_vessel_id_with_comma_is_data_error(trained, tmp_path, capsys):
    # re-signed, so only the vessel id rule rejects it; it would write a
    # DIST_a,b column
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    doc = json.loads((models / "fleet.json").read_text())
    doc["vessel_ids"][0] = "a,b"
    _resign(models, doc)
    capsys.readouterr()
    assert run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp_path / "d.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {models / 'fleet.json'}: vessel_ids: VID 'a,b' holds ','")
    assert not (tmp_path / "d.csv").exists()


def _associate_edited_model(trained, tmp_path, capsys, edit):
    """Run associate on a copy of the trained models whose fleet.json `edit`
    changed, re-signed; returns its exit code, its stderr, the edited file
    and the vessel ids."""
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    doc = json.loads((models / "fleet.json").read_text())
    edit(doc)
    _resign(models, doc)
    capsys.readouterr()
    argv = ["associate", "--models", models, "--obs", models / "holdout.csv", "--out", tmp_path / "d.csv"]
    return run_without_warnings(argv), capsys.readouterr().err, models / "fleet.json", doc["vessel_ids"]


def test_model_with_implausible_scaler_is_one_error_line_at_associate(trained, tmp_path, capsys):
    # a LAT scaler from -1.7e308 to 1.7e308 is finite, but unscaling with it
    # overflows: that vessel's predictions would be NaN, and every decision NEW

    def edit(doc):
        doc["scaler"]["min"][1][0], doc["scaler"]["max"][1][0] = -1.7e308, 1.7e308

    rc, err, model, ids = _associate_edited_model(trained, tmp_path, capsys, edit)
    assert rc == 2
    assert err.startswith(f"error: {model}: vessel {ids[1]}: scaler LAT range ") and err.count("\n") == 1
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("value", [1.5, -1e-9], ids=["above_one", "below_zero"])
def test_model_window_outside_unit_range_is_one_error_line_at_associate(trained, tmp_path, capsys, value):
    # training scales each window by its own prefix's min and max, so every
    # value lies in [0, 1]; one outside would start a rollout from rows no
    # training ever saw

    def edit(doc):
        doc["last_training_window"][-1][-1][0] = value

    rc, err, model, ids = _associate_edited_model(trained, tmp_path, capsys, edit)
    assert rc == 2
    assert err == (f"error: {model}: vessel {ids[-1]}: last_training_window value {value!r} is outside the [0, 1]"
                   " of scaled rows\n")
    assert not (tmp_path / "d.csv").exists()


def test_rollout_step_count_past_bound_is_one_short_error_line(trained, tmp_path, capsys):
    # a train end of -1.8e308 puts every observation about 3.6e307 steps past
    # it: the count is given to six significant digits, not all 308

    def edit(doc):
        doc["train_end_time"][0] = -1.7976931348623157e308

    rc, err, _, _ = _associate_edited_model(trained, tmp_path, capsys, edit)
    assert rc == 2
    assert err.startswith("error: observation at ") and " is 3.59539e+307 rollout steps past vessel " in err
    assert err.count("\n") == 1 and len(err) < 200
    assert not (tmp_path / "d.csv").exists()


# A JSON value of another type than the one it replaces, or an extreme one.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, -1, 2**63, -(2**63) - 1, 10**400]),
    st.floats(),  # NaN and the infinities included
    st.sampled_from([5e-324, -1e-310, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.text(max_size=8),
    st.lists(st.floats(), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


def _json_paths(value, path=()):
    """The key path of every value inside a decoded JSON document, going
    into a list through its first and last items only."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = [(0, value[0]), (-1, value[-1])] if value else []
    else:
        return []
    return [p for key, item in items for p in [(*path, key), *_json_paths(item, (*path, key))]]


# The field family of each top-level key of fleet.json.
FAMILIES = {"format_version": "ids", "vessel_ids": "ids", "period": "period", "train_end_time": "train_end_time",
            "scaler": "scaler", "last_training_window": "window", "hidden": "network scalars"}


class _Drawn:
    """Stands in for `st.data()` in an @example: its draws give `picks` in
    turn, and again from the first on the example's next run."""

    def __init__(self, *picks):
        self._picks = itertools.cycle(picks)

    def draw(self, strategy):
        return next(self._picks)


MAX = 1.7976931348623157e308

# A path to each range-checked number of fleet.json, which a path drawn
# from the whole document seldom lands on, and the signs of the largest
# double that are exit 2 there: both for the scaler's LAT and LON bounds, a
# last training window value and a train end time (+MAX is after every
# observation, -MAX puts each one past the rollout bound); and -MAX for the
# period, which must be > 0.
RANGE_CHECKED = {
    **dict.fromkeys([("scaler", "min", 0, 0), ("scaler", "max", -1, 0), ("scaler", "min", -1, 1),
                     ("scaler", "max", 0, 1), ("last_training_window", 0, -1, 0), ("train_end_time", 0)], (MAX, -MAX)),
    ("period",): (-MAX,),
}


def _range_checked_at_extremes(test):
    """`test` with an @example for each RANGE_CHECKED path at each sign of the
    largest double, so that every run tries them all."""
    for path in RANGE_CHECKED:
        for value in (MAX, -MAX):
            test = example(data=_Drawn(FAMILIES[path[0]], path), value=value)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(data=st.data(), value=JSON_VALUES)
@_range_checked_at_extremes
def test_model_file_value_replaced_never_internal_error(trained, data, value):
    # a family is drawn first, then a path in it, so that a family of few
    # paths, such as the ids or the periods, is drawn as often as the window
    models = trained / "fuzz_models"
    shutil.rmtree(models, ignore_errors=True)
    shutil.copytree(trained / "models", models)
    doc = json.loads((models / "fleet.json").read_text())
    families = {}
    for path in _json_paths(doc):
        families.setdefault(FAMILIES[path[0]], []).append(path)
    family = data.draw(st.sampled_from(sorted(families)))
    *parents, key = path = data.draw(st.sampled_from(families[family]))
    functools.reduce(operator.getitem, parents, doc)[key] = value
    _resign(models, doc)
    obs = trained / "models" / "holdout.csv"
    out = trained / "fuzz_decisions.csv"
    rc = run(["associate", "--models", models, "--obs", obs, "--out", out])
    assert rc in (0, 2)
    if value in RANGE_CHECKED.get(path, ()):
        assert rc == 2, f"{path} = {value!r} was not rejected"
    if rc == 0:
        assert _distances_finite(out)


def _numeric_leaves(value, path=()):
    """The key path of every number inside a decoded JSON document, going
    into each list through its first, second and last items."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = [(i, value[i]) for i in sorted({0, 1, len(value) - 1}) if 0 <= i < len(value)]
    else:
        return [path] if isinstance(value, (int, float)) and not isinstance(value, bool) else []
    return [p for key, item in items for p in _numeric_leaves(item, (*path, key))]


@pytest.mark.parametrize(
    "value", [1.7976931348623157e308, -1.7976931348623157e308, 5e-324], ids=["max", "minus_max", "subnormal"]
)
def test_every_model_number_at_an_extreme_is_one_error_line_or_finite(trained, tmp_path, capsys, value):
    # the fuzz above seldom puts an extreme float on one given field: set
    # each numeric leaf of a model file to it in turn
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    text = (models / "fleet.json").read_text()
    leaves = _numeric_leaves(json.loads(text))
    # 3 scalars (format version, period, hidden); of each of the 3
    # vessels, its train end time, 3 + 3 scaler bounds and 3 x 3 window
    # values
    assert len(leaves) == 3 + 3 * (1 + 6 + 9)
    faults = []
    for i, (*parents, key) in enumerate(leaves):
        doc = json.loads(text)
        functools.reduce(operator.getitem, parents, doc)[key] = value
        _resign(models, doc)
        fault = _associate_fault(models, tmp_path / f"d{i}.csv", capsys)
        if fault:
            faults.append(((*parents, key), *fault))
    assert faults == []


def _distances_finite(out) -> bool:
    """Whether every distance a decision was made on, in the matrix
    `associate --out out` wrote beside its decisions, is a number."""
    return bool(np.isfinite(np.load(out.with_suffix(".distances.npy"), allow_pickle=False)).all())


def _associate_fault(models, out, capsys):
    """Run associate on `models` into `out`; None if it gives exit 2 with one
    `error:` line and no warning, or exit 0 with finite distances, else its
    exit code, stderr and warnings."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["associate", "--models", models, "--obs", models / "holdout.csv", "--out", out])
    err = capsys.readouterr().err
    if rc == 2:
        ok = err.startswith("error: ") and err.count("\n") == 1 and not caught
    elif rc == 0:
        ok = _distances_finite(out)
    else:
        ok = False
    return None if ok else (rc, err, [str(w.message) for w in caught])


F32 = np.finfo(np.float32)


@pytest.mark.parametrize(
    "value",
    [float(F32.max), -float(F32.max), float(F32.smallest_subnormal), math.nan, math.inf, -math.inf,
     3.0e38, -3.0e38],
    ids=["max", "minus_max", "subnormal", "nan", "inf", "minus_inf", "inside_float32", "minus_inside_float32"],
)
def test_every_weight_array_at_an_extreme_is_one_error_line_or_finite(trained, tmp_path, capsys, value):
    # the first value of each weight array, the first vessel's, and its last,
    # the last vessel's, set to `value`, one of float32's extremes or a large
    # finite weight inside its range, in turn
    models = tmp_path / "models"
    shutil.copytree(trained / "models", models)
    raw = (models / "weights.bin").read_bytes()
    doc = json.loads((models / "fleet.json").read_text())
    faults = []
    for i, name in enumerate(WEIGHT_NAMES):
        for at in (0, -1):
            weights = bytearray(raw)
            _weight_arrays(weights, len(doc["vessel_ids"]), doc["hidden"])[i].flat[at] = value
            _resign_weights(models, weights)
            fault = _associate_fault(models, tmp_path / f"d{i}_{at}.csv", capsys)
            if fault:
                faults.append((name, at, *fault))
    assert len(WEIGHT_NAMES) == 11
    assert faults == []


# Any JSON value, as deep as a config document needs to be to try each type.
ANY_JSON = st.recursive(
    JSON_VALUES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=80, deadline=None)
@example(doc={"lr": 10**400})  # an int no float can hold
@given(doc=st.dictionaries(st.sampled_from([*FIELD_TYPES, "radius", "bogus", ""]), ANY_JSON, max_size=4) | ANY_JSON)
def test_arbitrary_config_never_internal_error(trained, doc):
    # evaluate does no work that grows with a setting's value, so any
    # document runs at once
    work = trained / "fuzz_config"
    work.mkdir(exist_ok=True)
    (work / "config.json").write_text(json.dumps(doc))
    rc = run(["evaluate", "--config", work / "config.json", "--decisions", trained / "decisions.csv",
              "--truth", trained / "models" / "holdout_truth.csv", "--out", work / "r.json"])
    assert rc in (0, 1, 2)


def test_crossing_checked_without_building_the_fleet(trained, tmp_path, monkeypatch):
    # a crossing is range-checked against `vessels` for every subcommand;
    # evaluate builds no fleet, whatever its size
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vessels": 10**12, "crossing": "0,1,5"}))
    monkeypatch.setattr(cli, "fleet_motions", lambda cfg: pytest.fail("built the fleet"))
    rc = run(["evaluate", "--config", cfg, "--decisions", trained / "decisions.csv",
              "--truth", trained / "models" / "holdout_truth.csv", "--out", tmp_path / "r.json"])
    assert rc == 0


# Non-ASCII vessel ids, in place of synth's first three
NON_ASCII_VIDS = ["vé", "Øresund", "船"]
ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


def _pipeline_in_a_process(root, locale_env) -> tuple[str, dict[str, str]]:
    """synth, train, associate and evaluate, each in its own Python process
    run under `locale_env`, on a fleet whose vessel ids are NON_ASCII_VIDS;
    the stdout encoding those processes have, and the sha256 of every file
    written under `root`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIOENCODING", "PYTHONUTF8"))}
    src = str(Path(cli.__file__).parents[1])
    env.update(locale_env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))

    def aistrack(*argv):
        done = subprocess.run([sys.executable, "-m", "aistrack.cli", *map(str, argv)], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr

    encoding = subprocess.run([sys.executable, "-c", "import sys; print(sys.stdout.encoding)"], env=env,
                              capture_output=True, text=True).stdout.strip()
    aistrack("synth", "--out", root / "data", *FAST)
    lines = (root / "data" / "fleet.csv").read_text(encoding="utf-8").splitlines()
    names = dict(zip(sorted({line.split(",")[1] for line in lines[1:]}), NON_ASCII_VIDS))
    rows = [lines[0]] + [",".join([f[0], names[f[1]], *f[2:]]) for f in (line.split(",") for line in lines[1:])]
    (root / "renamed.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    models = root / "models"
    aistrack("train", "--data", root / "renamed.csv", "--out", models, "--min-points", 100, "--epochs", 1,
             "--test-len", 20)
    aistrack("associate", "--models", models, "--obs", models / "holdout.csv", "--out", root / "decisions.csv")
    aistrack("evaluate", "--decisions", root / "decisions.csv", "--truth", models / "holdout_truth.csv",
             "--out", root / "report.json")
    hashes = {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(root.rglob("*")) if p.is_file()}
    return encoding, hashes


def test_non_ascii_vessel_ids_give_the_same_bytes_under_any_locale(tmp_path):
    # inputs are read and outputs written as UTF-8, and stdout never raises
    # for a character its encoding lacks, whatever the locale says
    ascii_encoding, ascii_run = _pipeline_in_a_process(tmp_path / "ascii", ASCII_LOCALE)
    utf8_encoding, utf8_run = _pipeline_in_a_process(tmp_path / "utf8", {"LC_ALL": "C.UTF-8"})
    assert (ascii_encoding, utf8_encoding) == ("ascii", "utf-8")
    assert ascii_run == utf8_run
    assert {"models/fleet.json", "models/weights.bin", "decisions.csv", "decisions.distances.npy",
            "decisions.steps.npy", "decisions.meta.json", "report.json", "report.txt"} <= set(utf8_run)
    meta = json.loads((tmp_path / "ascii" / "decisions.meta.json").read_text(encoding="utf-8"))
    assert meta["vessel_ids"] == sorted(NON_ASCII_VIDS)
