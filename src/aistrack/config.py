"""The one run configuration.

`RunConfig` holds every setting of a run: the CLI builds one from defaults,
a --config file and flags, and the library (`synth.generate`,
`fleet.train_fleet`) reads its fields directly. `check_ranges` is the one
range check, `config_meta` the one echo of a config into the artifacts, and
`json_type_fault` the one rule for the JSON type of a value, shared by
--config files and model files.
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
    lenient: bool = False
    crossing: str = ""  # "a,b,sample" to force an overlap scenario


# Type of each RunConfig field (int, float, bool or str): it types the flag
# and the --config value.
FIELD_TYPES = get_type_hints(RunConfig)

# Interval ("[" and "]" include the bound) each numeric field must lie in,
# checked before any input is read: the library rejects some values late and
# accepts others with wrong answers (tau < 0 makes every decision NEW).
RANGES = {
    "[0, inf)": ("seed", "noise", "lr"),
    "[1, inf)": ("vessels", "min_points", "window", "hidden", "epochs", "batch", "test_len"),
    "[2, inf)": ("points",),
    "(0, inf)": ("period",),
    "[0, 1)": ("jitter", "dropout"),
    "[0, inf]": ("tau",),
}


def _in_interval(value, interval: str) -> bool:
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    above = lo <= value if interval[0] == "[" else lo < value
    below = value <= hi if interval[-1] == "]" else value < hi
    return above and below


def check_ranges(cfg: RunConfig) -> None:
    """Raise BadConfig for the first numeric field outside its RANGES interval."""
    for interval, keys in RANGES.items():
        for key in keys:
            if not _in_interval(getattr(cfg, key), interval):
                raise BadConfig(f"{key} must be in {interval}, got {getattr(cfg, key)!r}")


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
