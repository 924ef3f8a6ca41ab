"""Command-line front end: synth | train | associate | evaluate.

`config.RunConfig` is the one config schema, shared with the library. Every
run folds together its defaults, an optional JSON config file (--config,
read by `config.read_settings`) and explicit flags, range-checks the result
(`config.check_ranges`) and echoes it, plus its hash, into the output
artifacts; `synth` hands it to `synth.generate` and `train` to
`fleet.train_fleet` as it is. Each subcommand's flags, their types and help
are read off the `RunConfig` fields (`config.setting`), so a flag is added
by adding a field.
`train` decides once, before it makes --out, which tracks train and names
each one left out (`_trained_series`); `fleet.train_fleet` gets each kept
track's training prefix, all but its last --test-len samples.
`associate` writes --out, one decision per observation, and beside it,
named after its stem, the (N, Z) distance and step matrices (.distances.npy,
.steps.npy) and a .meta.json whose `vessel_ids` is their column order.

Exit codes: 0 success, 1 usage, 3 internal error, 2 data error: a bad row, a
row with fewer or more fields than its header, or a duplicate OBJECT_ID (in
--data, --obs, --decisions or --truth, each read as CSV by one set of rules;
the error names the file and line), a VID in --data or --obs that is empty,
"NEW" or holds `,` `"` `/` `\\` or a control character, a --decisions or
--truth file missing a column of its own (ASSIGNED_VID, VID), a bad --config
file or value (a message writes out no int, which may have any number of
digits), a --hidden above 512 or a `synth` fleet of more than
`synth.MAX_FLEET_ROWS` rows (--vessels x --points), both found before
anything of that size is allocated, a --data file that leaves no track to
train, a --data track too short for one window once its last --test-len
samples are held out (unless --lenient leaves it out), a --period that puts
more than `preprocess.MAX_GRID_SAMPLES` samples on a track, `synth` settings
whose times leave years 1-9999 or whose positions leave a row's LAT or LON
range (`synth.generate`), an input that is missing or not UTF-8 (every file
is read and written as UTF-8 whatever the locale), a missing or malformed
model directory (a manifest that lists other files than fleet.json and
weights.bin, or whose sha256 of either does not match; a fleet.json key
format 7 does not have, such as format 5's dropout_rate or format 4's
window_size or network, and a period or hidden that a --config file could
not set: the same message, led by the fleet.json path;
fleet.json's vessel ids held to the rule for a VID, sorted and each once,
each scaler to min <= max, with the LAT and LON entries in a row's ranges,
and each last training window to [0, 1]; a weights.bin of another length
than its fleet needs, or holding a NaN or infinite weight; a directory of
another format version, format 6's float64 weights among them, is named as
one to retrain), a JSON --config, manifest.json or fleet.json nested deeper
than the JSON parser goes, a model whose training or rollout turns
non-finite (`train` saves no such model), an observation at or before a
vessel's train end or more than `associate.MAX_ROLLOUT_STEPS` steps past it,
decisions that leave a truth object undecided, an --out that cannot be
created or written (`train` creates its --out before it trains; if training
or saving fails, it removes each directory it made for --out that is still
empty), and an `evaluate --out` ending in .txt, which its text report would
overwrite.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import sys
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .associate import associate_batch, decisions_from_csv, decisions_to_csv
from .config import FIELD_TYPES, RunConfig, check_ranges, config_meta, read_settings
from .errors import (AistrackError, BadConfig, IncompleteDecisions, MalformedRow, MissingFile, TrackTooShort,
                     output_dir, write_output)
from .evaluate import confusion, metrics, write_report
from .fleet import load_fleet, save_fleet, train_fleet
from .ingest import AisMessage, ParseStats, RawTrack, group_tracks, parse_csv, serialize_csv, time_order
from .preprocess import RegularTrack, resample
from .synth import crossing, fleet_motions, generate, truth_from_csv, truth_to_csv


def _read(path, error=MissingFile) -> str:
    """An input file's text, read as UTF-8 whatever the locale; `error` if it
    cannot be read or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def _npy(array) -> bytes:
    """`array` in the .npy format, which `np.load(allow_pickle=False)` reads back."""
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def _say(text: str, end="\n") -> None:
    """Print `text` to stdout, escaping what its encoding cannot carry, as stderr does."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding), end=end)


def _parse(parse, path, **kwargs):
    """parse(the text of input file `path`); a bad row's error names the file."""
    text = _read(path)
    try:
        return parse(text, **kwargs)
    except MalformedRow as exc:
        exc.path = path
        raise


def effective_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the --config file, then flags; every value range-checked."""
    doc = {}
    if getattr(args, "config", None):
        try:
            doc = json.loads(_read(args.config, BadConfig))
        except (ValueError, RecursionError) as exc:  # RecursionError: nested past the parser's depth
            raise BadConfig(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise BadConfig(f"config {args.config} must hold a JSON object")
    cfg = read_settings(doc)
    for key in FIELD_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    check_ranges(cfg)
    crossing(cfg)  # checked without building the fleet, whose size is a setting
    return cfg


def _messages(path, cfg: RunConfig) -> list[AisMessage]:
    """The AIS rows of input file `path`. With cfg.lenient, bad rows are
    skipped and their count is printed."""
    stats = ParseStats()
    messages = _parse(parse_csv, path, strict=not cfg.lenient, stats=stats)
    if stats.skipped:
        print(f"skipped {stats.skipped} of {stats.rows} rows", file=sys.stderr)
    return messages


def cmd_synth(args) -> int:
    cfg = effective_config(args)
    csv_text, truth = generate(cfg, fleet_motions(cfg))
    out = Path(args.out)
    write_output(out / "fleet.csv", csv_text)
    write_output(out / "truth.csv", truth_to_csv(truth))
    write_output(out / "run_config.json", json.dumps(config_meta(cfg), sort_keys=True, indent=1))
    _say(f"wrote {out / 'fleet.csv'} ({cfg.vessels} vessels, {cfg.points} points each)")
    return 0


def _trained_series(tracks: list[RawTrack], cfg: RunConfig) -> list[RegularTrack]:
    """The resampled series that train, in vessel_id order. Tracks under
    cfg.min_points rows, and with cfg.lenient those too short for a window
    once cfg.test_len samples are held out, are named on stderr and left out."""
    kept = []
    for track in tracks:  # group_tracks orders them by vessel_id
        if len(track) < cfg.min_points:
            print(f"warning: vessel {track.vessel_id} has {len(track)} < {cfg.min_points} points, excluded",
                  file=sys.stderr)
            continue
        s = resample(track, cfg.period)
        if len(s) - cfg.test_len > cfg.window:
            kept.append(s)
        elif cfg.lenient:
            print(f"warning: vessel {s.vessel_id} has {len(s)} resampled samples, too few for one window of"
                  f" {cfg.window} once the last {cfg.test_len} are held out, excluded", file=sys.stderr)
        else:
            raise TrackTooShort(f"vessel {s.vessel_id}: {len(s)} samples leave train_len {len(s) - cfg.test_len}"
                                f" <= window {cfg.window}")
    if not kept:
        raise TrackTooShort(f"no track left to train: {len(tracks)} read, none kept")
    return kept


def _holdout_messages(series_list, fleet, test_len: int) -> tuple[list[AisMessage], int]:
    """The last `test_len` samples of each trained vessel's series as
    observations numbered in time order, and how many of them were left
    out. Every model rolls forward from its own train end, so only samples
    whose rounded time is after the latest train end are kept."""
    latest_end = fleet.train_end_time.max()
    rows, left_out = [], 0
    for s in series_list:
        start = len(s) - test_len
        for i, (lat, lon, speed, course) in enumerate(s.features[start:].tolist(), start=start):
            t = int(round(s.time_of(i)))
            if t > latest_end:
                rows.append((s.vessel_id, t, lat, lon, speed, course))
            else:
                left_out += 1
    rows.sort(key=itemgetter(1, 0))  # (t, vessel_id)
    return [AisMessage(oid, *row) for oid, row in enumerate(rows, start=1)], left_out


def cmd_train(args) -> int:
    cfg = effective_config(args)
    series_list = _trained_series(group_tracks(_messages(args.data, cfg)), cfg)
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    output_dir(out)  # before training, so an unwritable --out fails at once
    try:
        prefixes = [dataclasses.replace(s, features=s.features[: -cfg.test_len]) for s in series_list]
        fleet, histories = train_fleet(prefixes, cfg)
        save_fleet(fleet, out, cfg, histories)
    except BaseException:
        for d in made:  # rmdir removes only a directory left empty
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    holdout, left_out = _holdout_messages(series_list, fleet, cfg.test_len)
    if left_out:
        print(f"left {left_out} held-out samples at or before the latest train end out of holdout.csv",
              file=sys.stderr)
    write_output(out / "holdout.csv", serialize_csv(holdout))
    write_output(out / "holdout_truth.csv", truth_to_csv({m.object_id: m.vessel_id for m in holdout}))
    _say(f"trained {len(fleet.vessel_ids)} vessel models into {out}")
    return 0


def cmd_associate(args) -> int:
    cfg = effective_config(args)
    fleet = load_fleet(args.models)
    observations = _messages(args.obs, cfg)
    observations.sort(key=time_order)
    decisions = associate_batch(observations, fleet, tau=cfg.tau)
    out = Path(args.out)
    write_output(out, decisions_to_csv(decisions))
    for suffix, matrix in ((".distances.npy", decisions.distances_km), (".steps.npy", decisions.steps)):
        write_output(out.with_suffix(suffix), _npy(matrix))
    meta = {**config_meta(cfg), "vessel_ids": decisions.vessel_ids}  # the matrices' column order
    write_output(out.with_suffix(".meta.json"), json.dumps(meta, sort_keys=True, indent=1))
    _say(f"associated {len(decisions)} observations -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = effective_config(args)
    assignments = _parse(decisions_from_csv, args.decisions)
    truth = _parse(truth_from_csv, args.truth)
    decided = {oid for oid, _ in assignments}
    undecided = [oid for oid in truth if oid not in decided]
    if undecided:
        raise IncompleteDecisions(
            f"{args.decisions} has no decision for {len(undecided)} of {len(truth)} --truth objects,"
            f" OBJECT_ID {undecided[0]} first"
        )
    cm = confusion(assignments, truth)
    per_vessel = metrics(cm)
    _say(write_report(cm, per_vessel, args.out, meta=config_meta(cfg)), end="")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aistrack", description="Multi-model LSTM track association pipeline")
    parser.add_argument("--version", action="version", version=f"aistrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *paths):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for path in paths:
            p.add_argument(f"--{path}", required=True)
        for field in (f for f in dataclasses.fields(RunConfig) if name in f.metadata["commands"]):
            flag, kind = "--" + field.name.replace("_", "-"), FIELD_TYPES[field.name]
            if kind is bool:
                p.add_argument(flag, dest=field.name, action="store_const", const=True)
            else:
                p.add_argument(flag, dest=field.name, type=kind, help=field.metadata["help"])
        p.set_defaults(func=func)

    command("synth", cmd_synth, "generate a labeled synthetic AIS fleet", "out")
    command("train", cmd_train, "train one LSTM per vessel", "data", "out")
    command("associate", cmd_associate, "assign observations to tracks", "models", "obs", "out")
    command("evaluate", cmd_evaluate, "score decisions against ground truth", "decisions", "truth", "out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AistrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
