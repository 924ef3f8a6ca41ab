"""Command-line front end: synth | train | associate | evaluate.

Every run folds together dataclass defaults, an optional JSON config file
(--config) and explicit flags, and echoes the effective configuration (plus
its hash) into the output artifacts for provenance.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .associate import associate_batch, decisions_from_csv, decisions_to_csv
from .errors import AistrackError, BadConfig
from .evaluate import confusion, metrics, write_report
from .fleet import FleetConfig, load_fleet, save_fleet, train_fleet
from .ingest import AisMessage, ParseStats, filter_min_points, group_tracks, parse_csv, serialize_csv
from .lstm import TrainConfig
from .preprocess import resample
from .synth import SynthSpec, generate, overlap_scenario, truth_from_csv, truth_to_csv


@dataclass
class RunConfig:
    seed: int = 42
    vessels: int = 5
    points: int = 648
    period: float = 5.0
    jitter: float = 0.2
    noise: float = 1e-4
    min_points: int = 500
    window: int = 10
    hidden: int = 32
    epochs: int = 100
    batch: int = 10
    lr: float = 1e-4
    dropout: float = 0.2
    test_len: int = 108
    tau: float = math.inf
    radius: float = 6371.0
    lenient: bool = False
    crossing: str = ""  # "a,b,sample" to force an overlap scenario


# JSON value types accepted for each RunConfig field type; an int stands
# for a float, as it does on the command line.
_CONFIG_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _read_config(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise BadConfig(f"cannot read config {path}: {exc.strerror}") from exc
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise BadConfig(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadConfig(f"config {path} must hold a JSON object")
    return doc


def effective_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    if getattr(args, "config", None):
        for key, value in _read_config(Path(args.config)).items():
            if key not in types:
                raise BadConfig(f"unknown config key {key!r}")
            kind = types[key]
            if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _CONFIG_TYPES[kind]):
                raise BadConfig(f"config key {key!r} must be {kind}, got {type(value).__name__}")
            setattr(cfg, key, float(value) if kind == "float" else value)
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def config_meta(cfg: RunConfig) -> dict:
    doc = dataclasses.asdict(cfg)
    doc["tau"] = repr(cfg.tau)  # inf is not valid JSON
    canonical = json.dumps(doc, sort_keys=True)
    return {
        "config": doc,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": cfg.seed,
    }


def cmd_synth(args) -> int:
    cfg = effective_config(args)
    spec = SynthSpec(
        vessels=cfg.vessels,
        points=cfg.points,
        period=cfg.period,
        jitter_frac=cfg.jitter,
        noise_std_deg=cfg.noise,
        seed=cfg.seed,
    )
    if cfg.crossing:
        a, b, sample = (int(x) for x in cfg.crossing.split(","))
        spec = overlap_scenario(spec, (a, b), sample)
    csv_text, truth = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fleet.csv").write_text(csv_text)
    (out / "truth.csv").write_text(truth_to_csv(truth))
    (out / "run_config.json").write_text(json.dumps(config_meta(cfg), sort_keys=True, indent=1))
    print(f"wrote {out / 'fleet.csv'} ({cfg.vessels} vessels, {cfg.points} points each)")
    return 0


def _holdout_messages(series_list, test_len: int) -> list[AisMessage]:
    rows = []
    for s in series_list:
        for i in range(len(s) - test_len, len(s)):
            lat, lon, speed, course = s.features[i]
            rows.append((int(round(s.time_of(i))), s.vessel_id, lat, lon, speed, course))
    rows.sort(key=lambda r: (r[0], r[1]))
    return [
        AisMessage(object_id=oid, vessel_id=vid, t=t, lat=lat, lon=lon, speed=speed, course=course)
        for oid, (t, vid, lat, lon, speed, course) in enumerate(rows, start=1)
    ]


def cmd_train(args) -> int:
    cfg = effective_config(args)
    stats = ParseStats()
    messages = parse_csv(Path(args.data).read_text(), strict=not cfg.lenient, stats=stats)
    if stats.skipped:
        print(f"skipped {stats.skipped} bad rows", file=sys.stderr)
    tracks = group_tracks(messages)
    kept = filter_min_points(tracks, cfg.min_points)
    for t in tracks:
        if t not in kept:
            print(f"warning: vessel {t.vessel_id} has {len(t)} < {cfg.min_points} points, excluded", file=sys.stderr)
    series_list = [resample(t, cfg.period) for t in kept]
    fleet_cfg = FleetConfig(
        min_points=cfg.min_points,
        period=cfg.period,
        window_size=cfg.window,
        test_len=cfg.test_len,
        hidden=cfg.hidden,
        dropout_rate=cfg.dropout,
        train=TrainConfig(
            learning_rate=cfg.lr, batch_size=cfg.batch, epochs=cfg.epochs, rng_seed=cfg.seed
        ),
    )
    bundles, histories = train_fleet(series_list, fleet_cfg, lenient=cfg.lenient)
    out = Path(args.out)
    save_fleet(bundles, out, cfg=fleet_cfg, histories=histories, extra_meta=config_meta(cfg))
    holdout = _holdout_messages(
        [s for s in series_list if any(b.vessel_id == s.vessel_id for b in bundles)], cfg.test_len
    )
    (out / "holdout.csv").write_text(serialize_csv(holdout))
    (out / "holdout_truth.csv").write_text(truth_to_csv({m.object_id: m.vessel_id for m in holdout}))
    print(f"trained {len(bundles)} vessel models into {out}")
    return 0


def cmd_associate(args) -> int:
    cfg = effective_config(args)
    bundles = load_fleet(args.models)
    observations = parse_csv(Path(args.obs).read_text(), strict=not cfg.lenient)
    observations.sort(key=lambda m: (m.t, m.object_id))
    decisions = associate_batch(observations, bundles, tau=cfg.tau, radius_km=cfg.radius)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(decisions_to_csv(decisions, [b.vessel_id for b in bundles]))
    out.with_suffix(".meta.json").write_text(json.dumps(config_meta(cfg), sort_keys=True, indent=1))
    print(f"associated {len(decisions)} observations -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = effective_config(args)
    assignments = decisions_from_csv(Path(args.decisions).read_text())
    truth = truth_from_csv(Path(args.truth).read_text())
    cm = confusion(assignments, truth)
    per_vessel = metrics(cm)
    write_report(cm, per_vessel, args.out, meta=config_meta(cfg))
    print(Path(args.out).with_suffix(".txt").read_text(), end="")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aistrack", description="Multi-model LSTM track association pipeline")
    parser.add_argument("--version", action="version", version=f"aistrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("synth", help="generate a labeled synthetic AIS fleet")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--vessels", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--period", type=float)
    p.add_argument("--jitter", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--crossing", help="'a,b,sample' to force two tracks to cross")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one LSTM per vessel")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-points", dest="min_points", type=int)
    p.add_argument("--period", type=float)
    p.add_argument("--window", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--test-len", dest="test_len", type=int)
    p.add_argument("--lenient", action="store_const", const=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("associate", help="assign observations to tracks")
    common(p)
    p.add_argument("--models", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tau", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--lenient", action="store_const", const=True)
    p.set_defaults(func=cmd_associate)

    p = sub.add_parser("evaluate", help="score decisions against ground truth")
    common(p)
    p.add_argument("--decisions", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)
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
