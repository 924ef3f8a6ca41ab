"""The one run configuration.

`RunConfig` holds every setting of a run: the CLI builds one from defaults,
a --config file and flags, and the library (`synth.generate`,
`fleet.train_fleet`) reads its fields directly. Each field declares, once,
its type, default, range, the subcommands that take it as a flag and the
flag's help (`setting`). `read_settings` is the one reader of settings held
as JSON, a --config file's and a model file's, `check_ranges` the one range
check, `config_meta` the one echo of a config into the artifacts, and
`json_type_fault` the one rule for the JSON type of a value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from typing import get_type_hints

from .errors import BadConfig


def setting(default, *commands: str, interval: str | None = None, help: str | None = None):
    """A RunConfig field: its default; the subcommands that take it as a
    flag, `--` plus its name with `_` -> `-`, listed in field order; the
    interval ("[" and "]" include the bound) a number must lie in, checked
    before any input is read, since the library rejects some values late and
    accepts others with wrong answers (tau < 0 makes every decision NEW);
    and the flag's help."""
    return dataclasses.field(default=default, metadata={"interval": interval, "commands": commands, "help": help})


@dataclass
class RunConfig:
    seed: int = setting(42, "synth", "train", "associate", "evaluate", interval="[0, inf)")
    vessels: int = setting(5, "synth", interval="[1, inf)")
    points: int = setting(648, "synth", interval="[2, inf)")
    min_points: int = setting(500, "train", interval="[1, inf)")
    period: float = setting(5.0, "synth", "train", interval="(0, inf)")
    jitter: float = setting(0.2, "synth", interval="[0, 1)")
    noise: float = setting(1e-4, "synth", interval="[0, inf)")
    window: int = setting(10, "train", interval="[1, inf)")
    # A vessel's parameters are about 20 hidden^2 float32 values: 5.26
    # million, 21 MB, at hidden 512, which training holds four times over
    # (weights, gradients and Adam's two moments); hidden 10**5 asked numpy
    # for 298 GiB when training was float64.
    hidden: int = setting(32, "train", interval="[1, 512]")
    epochs: int = setting(100, "train", interval="[1, inf)")
    batch: int = setting(10, "train", interval="[1, inf)")
    lr: float = setting(1e-4, "train", interval="[0, inf)")
    dropout: float = setting(0.2, "train", interval="[0, 1)")
    test_len: int = setting(108, "train", interval="[1, inf)")
    tau: float = setting(math.inf, "associate", interval="[0, inf]")
    lenient: bool = setting(False, "train", "associate")
    crossing: str = setting("", "synth", help="'a,b,sample' to force two tracks to cross")


# Type of each RunConfig field (int, float, bool or str): it types the flag
# and the JSON value.
FIELD_TYPES = get_type_hints(RunConfig)


def read_settings(doc: dict) -> RunConfig:
    """The default config with each setting of a decoded JSON object set: a
    key no RunConfig field has, or a value `json_type_fault` rejects, is a
    BadConfig. Ranges are left to `check_ranges`."""
    cfg = RunConfig()
    for key, value in doc.items():
        if key not in FIELD_TYPES:
            raise BadConfig(f"unknown config key {key!r}")
        kind = FIELD_TYPES[key]
        fault = json_type_fault(value, kind)
        if fault:
            raise BadConfig(f"config key {key!r} {fault}")
        setattr(cfg, key, kind(value))
    return cfg


def _in_interval(value, interval: str) -> bool:
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    above = lo <= value if interval[0] == "[" else lo < value
    below = value <= hi if interval[-1] == "]" else value < hi
    return above and below


def check_ranges(cfg: RunConfig) -> None:
    """Raise BadConfig for the first field, in field order, outside its
    interval. The message writes out a float, but no int, which may have
    any number of digits."""
    for field in dataclasses.fields(cfg):
        interval, value = field.metadata["interval"], getattr(cfg, field.name)
        if interval and not _in_interval(value, interval):
            got = "" if isinstance(value, int) else f", got {value!r}"
            raise BadConfig(f"{field.name} must be in {interval}{got}")


def config_meta(cfg: RunConfig) -> dict:
    """The config, its sha256 and its seed, as echoed into run_config.json,
    manifest.json, *.meta.json and report.json."""
    doc = dataclasses.asdict(cfg)
    doc["tau"] = repr(cfg.tau)  # inf is not valid JSON
    canonical = json.dumps(doc, sort_keys=True)
    return {
        "config": doc,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": cfg.seed,
    }


def json_type_fault(value, kind: type) -> str | None:
    """Why a decoded JSON value cannot stand for a `kind` setting, as the
    rest of a sentence naming it; None if it can. A bool is not an int, and
    an int stands for a float, as it does on the command line, if a float
    can hold it."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        return f"must be {kind.__name__}, got {type(value).__name__}"
    if kind is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        return "is an int out of float range"
    return None
