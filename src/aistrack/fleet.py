"""Per-vessel model orchestration: train, persist, reload.

One LstmNetwork is trained per vessel. Each vessel draws a derived seed
(root seed XOR a digest of its id) so fleet results do not depend on
training order or scheduling. Training reads its settings (window, test_len,
hidden, dropout, lr, batch, epochs, seed, lenient) from the run's
`config.RunConfig` and range-checks them first, as the CLI does. A fleet
with no track left to train is a TrackTooShort error. A trained stack
takes the first step of `associate.rollout_positions`, so a model that
cannot make it is never saved.

Vessels train in lockstep: those with the same training length (hence the
same number of windows and batches per epoch) are stacked with
`lstm.stack_networks`, and each batch is one forward, backward and Adam step
for the whole stack. Every vessel keeps its own generator for its weights,
shuffles and dropout masks, drawn in the same order as when it trains
alone, and the stacked math is the per-vessel math slice by slice, so the
models are bit for bit the same however the fleet is grouped. A stack holds
at most max(1, STACK_WINDOWS // batch) vessels: stacking removes
per-batch interpreter overhead, which is what costs at small batches, while
at batch 128 a stack of five was no faster and doubled peak memory.

A fleet is saved as one model_<vid>.json per vessel, a manifest.json holding
each file's sha256 and the run's whole config (`config.config_meta`), and a
train_report.json of each vessel's per-epoch loss. A model file is plain JSON
metadata (vessel id, period, train end time, scaler, last training window and
architecture; the reader ignores any other key, such as the train_config
block older files carry) in which every weight array (W, U and b of each layer,
dense_W, dense_b) is a base64 string of its little-endian float64 bytes,
restored bit for bit in the shape `lstm.param_shapes(hidden)` gives. Writing
the weights as JSON numbers through the indented encoder, which formats each
float in Python, took about 40 % of training on a 24-vessel fleet. Format
version 2; any other version is rejected. There is one architecture
(`lstm`): a file's k must equal `lstm.INPUT_DIM`, its n_layers and its
number of layers `N_LAYERS`, its out_dim `OUT_DIM`, and its "residual" must
be true, or the file is rejected rather than run as something it is not.
Its scaler must be a range of AIS rows (`_scaler`). A model directory is
one fleet, associated as one stack: one hidden size and one window across
its models, and each vessel once, or it is rejected.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .associate import rollout_positions
from .config import RunConfig, check_ranges, config_meta, json_type_fault
from .errors import (
    BadManifest,
    BadModel,
    ChecksumMismatch,
    MissingFile,
    NonFiniteActivation,
    TrackTooShort,
    VersionMismatch,
    output_dir,
    write_output,
)
from .ingest import HEADER, vessel_id_fault
from .lstm import (
    INPUT_DIM,
    N_LAYERS,
    OUT_DIM,
    AdamState,
    LstmNetwork,
    Workspace,
    init_network,
    network_from_arrays,
    param_shapes,
    stack_networks,
    train_epoch,
    unstack_network,
)
from .preprocess import RegularTrack, ScalerParams, fit_scaler, make_windows, scale

MODEL_FORMAT_VERSION = 2

# Windows per lockstep batch call, over all vessels of a stack.
STACK_WINDOWS = 64


@dataclass
class ModelBundle:
    vessel_id: str
    network: LstmNetwork  # one vessel's (Z = 1)
    scaler: ScalerParams
    period: float
    last_training_window: np.ndarray  # (m, k) scaled
    train_end_time: float  # epoch seconds of the last training sample

    @property
    def window_size(self) -> int:
        return self.last_training_window.shape[0]


def vessel_seed(root_seed: int, vessel_id: str) -> int:
    digest = hashlib.sha256(vessel_id.encode()).digest()
    return (root_seed ^ int.from_bytes(digest[:8], "big")) & (2**64 - 1)


def _train_stack(stack: list[RegularTrack], cfg: RunConfig) -> list[tuple[ModelBundle, list[float]]]:
    """Train series of one training length in lockstep; returns each
    vessel's bundle and per-epoch loss history, in stack order. A
    non-finite prediction, in training or in the first rollout step from
    the last training window, is a NonFiniteActivation naming its vessel."""
    m = cfg.window
    train_len = len(stack[0]) - cfg.test_len
    scalers = [fit_scaler(s, train_len) for s in stack]
    scaled = [scale(s.features[:train_len], p) for s, p in zip(stack, scalers)]
    windows = [make_windows(x, m, train_len) for x in scaled]
    rngs = [np.random.default_rng(vessel_seed(cfg.seed, s.vessel_id)) for s in stack]
    net = stack_networks([init_network(hidden=cfg.hidden, dropout_rate=cfg.dropout, rng=rng) for rng in rngs])
    inputs = np.stack([w.inputs for w in windows])
    targets = np.stack([w.targets for w in windows])
    del windows  # training reads only the stacked copies
    opt = AdamState.for_network(net, cfg.lr)
    workspace = Workspace()  # every batch of every epoch writes into it
    try:
        # a sigmoid's exp may overflow (1 / (1 + inf) = 0); a prediction
        # that turns non-finite is caught and named below
        with np.errstate(over="ignore", invalid="ignore"):
            epochs = [train_epoch(net, inputs, targets, cfg.batch, rngs, opt, workspace) for _ in range(cfg.epochs)]
    except NonFiniteActivation as exc:
        raise NonFiniteActivation(f"vessel {stack[exc.row].vessel_id}: {exc}", exc.row) from None
    bundles = [
        ModelBundle(
            vessel_id=s.vessel_id,
            network=unstack_network(net, z),
            scaler=scalers[z],
            period=s.period,
            last_training_window=x[train_len - m :].copy(),
            train_end_time=s.time_of(train_len - 1),
        )
        for z, (s, x) in enumerate(zip(stack, scaled))
    ]
    rollout_positions(bundles, 1)  # the first step `associate` takes: a model that cannot make it is not saved
    return [(b, [losses[z] for losses in epochs]) for z, b in enumerate(bundles)]


def _trainable_tracks(tracks: list[RegularTrack], cfg: RunConfig) -> list[RegularTrack]:
    """The tracks `train_fleet` trains, ordered by vessel_id; a setting
    outside its range is a BadConfig."""
    check_ranges(cfg)
    kept = []
    for series in sorted(tracks, key=lambda s: s.vessel_id):
        train_len = len(series) - cfg.test_len
        if train_len > cfg.window:
            kept.append(series)
        elif not cfg.lenient:
            raise TrackTooShort(
                f"vessel {series.vessel_id}: {len(series)} samples leave train_len {train_len}"
                f" <= window {cfg.window}"
            )
    if not kept:
        raise TrackTooShort(
            f"no track left to train: {len(tracks)} given, none longer than test_len + window"
            f" = {cfg.test_len + cfg.window} samples"
        )
    return kept


def train_fleet(
    tracks: list[RegularTrack], cfg: RunConfig
) -> tuple[list[ModelBundle], dict[str, list[float]]]:
    """Train one model per track on its training prefix (all but the last
    `cfg.test_len` samples), in lockstep stacks of equal training length;
    results ordered by vessel_id. A track too short for one training window
    is a TrackTooShort error, or left out if `cfg.lenient`, and so is a
    fleet with no track left to train."""
    by_length: dict[int, list[RegularTrack]] = {}
    for series in _trainable_tracks(tracks, cfg):
        by_length.setdefault(len(series) - cfg.test_len, []).append(series)
    per_stack = max(1, STACK_WINDOWS // cfg.batch)
    trained = {}
    for group in by_length.values():
        for start in range(0, len(group), per_stack):
            for bundle, history in _train_stack(group[start : start + per_stack], cfg):
                trained[bundle.vessel_id] = bundle, history
    vids = sorted(trained)
    return [trained[v][0] for v in vids], {v: trained[v][1] for v in vids}


# --- persistence ---------------------------------------------------------


def _encode(a: np.ndarray) -> str:
    """An array's values as base64 of their little-endian float64 bytes."""
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode(payload, shape: tuple[int, ...], key: str) -> np.ndarray:
    """A writable float64 array of one vessel's slice of `shape`, (1, *shape),
    back from an `_encode` string, every value finite."""
    if not isinstance(payload, str):
        raise BadModel(f"{key} must be a base64 string, got {type(payload).__name__}")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise BadModel(f"{key} is not base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise BadModel(f"{key} holds {len(raw)} bytes, shape {shape} needs {8 * math.prod(shape)}")
    return _finite(np.frombuffer(raw, "<f8").astype(np.float64).reshape(1, *shape), key)


def _finite(a: np.ndarray, key: str) -> np.ndarray:
    """a, if every value is finite; BadModel naming the array if not."""
    if not np.isfinite(a).all():
        raise BadModel(f"{key} holds a non-finite value")
    return a


def _network_to_dict(net: LstmNetwork) -> dict:
    return {
        "k": net.input_dim,
        "hidden": net.hidden,
        "n_layers": len(net.layers),
        "out_dim": net.out_dim,
        "dropout_rate": net.dropout_rate,
        "residual": True,
        "layers": [{"W": _encode(l.W), "U": _encode(l.U), "b": _encode(l.b)} for l in net.layers],
        "dense_W": _encode(net.dense_W),
        "dense_b": _encode(net.dense_b),
    }


# JSON type of each scalar of a model document, at the top level and in
# "network"; an int is accepted for a float.
MODEL_FIELDS = {"vessel_id": str, "window_size": int, "period": float, "train_end_time": float}
NETWORK_FIELDS = {"k": int, "hidden": int, "n_layers": int, "out_dim": int, "dropout_rate": float}

# The architecture fields every model file must hold: `lstm`'s constants.
ARCHITECTURE = {"k": INPUT_DIM, "n_layers": N_LAYERS, "out_dim": OUT_DIM, "residual": True}


def _check_fields(doc: dict, kinds: dict[str, type]) -> None:
    """Each key of `kinds` must hold a JSON value of its type: ints >= 1,
    floats finite and period > 0."""
    for key, kind in kinds.items():
        value = doc[key]
        ok = json_type_fault(value, kind) is None
        ok = ok and (kind is not int or value >= 1) and (kind is not float or math.isfinite(value))
        if not ok or (key == "period" and value <= 0):
            raise BadModel(f"{key} {value!r} is not a valid {kind.__name__}")


def _numbers(value, shape: tuple[int, ...], key: str) -> np.ndarray:
    """A float64 array of `shape` from nested lists of finite JSON numbers."""
    a = np.array(value, dtype=np.float64)
    if a.shape != shape:
        raise BadModel(f"{key} has shape {a.shape}, expected {shape}")
    return _finite(a, key)


# |LAT| and |LON| bounds of `ingest.AisMessage.validate`, then SPEED's and COURSE's
SCALER_BOUNDS = np.array([90.0, 180.0, np.inf, np.inf])


def _scaler(d: dict) -> ScalerParams:
    """A model document's scaler; BadModel unless each feature's
    -bound <= min <= max <= bound. A range no AIS rows could give, such as a
    LAT span of 1e308, would overflow when predictions are unscaled."""
    lo = _numbers(d["min"], (INPUT_DIM,), "scaler.min")
    hi = _numbers(d["max"], (INPUT_DIM,), "scaler.max")
    bad = np.flatnonzero(~((-SCALER_BOUNDS <= lo) & (lo <= hi) & (hi <= SCALER_BOUNDS)))
    if len(bad):
        i = bad[0]  # HEADER ends with the INPUT_DIM features, LAT first
        raise BadModel(
            f"scaler {HEADER[3 + i]} range [{lo[i].item()}, {hi[i].item()}] is not one AIS rows can give"
            " (min <= max; LAT within [-90, 90], LON within [-180, 180])"
        )
    return ScalerParams(min=lo, max=hi)


def _network_from_dict(d: dict) -> LstmNetwork:
    _check_fields(d, NETWORK_FIELDS)
    for key, value in ARCHITECTURE.items():
        if json_type_fault(d[key], type(value)) or d[key] != value:
            raise BadModel(f"{key} {d[key]!r}: only networks with {key} {value!r} are supported")
    if len(d["layers"]) != N_LAYERS:
        raise BadModel(f"network has {len(d['layers']) or 'no'} layers, expected {N_LAYERS}")
    names = [f"layers[{li}].{p}" for li in range(N_LAYERS) for p in ("W", "U", "b")] + ["dense_W", "dense_b"]
    payloads = [ld[p] for ld in d["layers"] for p in ("W", "U", "b")] + [d["dense_W"], d["dense_b"]]
    shapes = param_shapes(d["hidden"])
    arrays = [_decode(*args) for args in zip(payloads, shapes, names, strict=True)]
    return network_from_arrays(arrays, d["dropout_rate"])


def bundle_to_json(bundle: ModelBundle) -> str:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "vessel_id": bundle.vessel_id,
        "window_size": bundle.window_size,
        "period": bundle.period,
        "train_end_time": bundle.train_end_time,
        "scaler": {"min": bundle.scaler.min.tolist(), "max": bundle.scaler.max.tolist()},
        "last_training_window": bundle.last_training_window.tolist(),
        "network": _network_to_dict(bundle.network),
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def bundle_from_json(text: str) -> ModelBundle:
    """Raises VersionMismatch for another format version and BadModel for a
    document that is not a model of this one, or whose vessel_id
    `ingest.vessel_id_fault` rejects."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise BadModel(f"not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadModel("not a JSON object")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise VersionMismatch(f"model format {doc.get('format_version')}, expected {MODEL_FORMAT_VERSION}")
    try:
        _check_fields(doc, MODEL_FIELDS)
        fault = vessel_id_fault(doc["vessel_id"])
        if fault:
            raise BadModel(f"vessel_id: {fault}")
        return ModelBundle(
            vessel_id=doc["vessel_id"],
            network=_network_from_dict(doc["network"]),
            scaler=_scaler(doc["scaler"]),
            period=doc["period"],
            last_training_window=_numbers(
                doc["last_training_window"], (doc["window_size"], INPUT_DIM), "last_training_window"
            ),
            train_end_time=doc["train_end_time"],
        )
    # a key missing, a container of the wrong kind, or an int no float can hold
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadModel(f"not a model document: missing or malformed {exc!r}") from exc


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def save_fleet(
    bundles: list[ModelBundle],
    directory: str | Path,
    cfg: RunConfig,
    histories: dict[str, list[float]],
) -> Path:
    """Write model_<vid>.json per vessel, a checksummed manifest.json that
    echoes `cfg`, and train_report.json holding `histories`. Returns the
    manifest path."""
    directory = output_dir(directory)
    entries = []
    for bundle in sorted(bundles, key=lambda b: b.vessel_id):
        name = f"model_{bundle.vessel_id}.json"
        data = bundle_to_json(bundle).encode()
        write_output(directory / name, data)
        entries.append({"file": name, "vessel_id": bundle.vessel_id, "sha256": _sha256(data)})
    manifest = {"format_version": MODEL_FORMAT_VERSION, "meta": config_meta(cfg), "models": entries}
    path = directory / "manifest.json"
    write_output(path, json.dumps(manifest, sort_keys=True, indent=1))
    write_output(directory / "train_report.json", json.dumps({"epoch_loss": histories}, sort_keys=True, indent=1))
    return path


def load_fleet(directory: str | Path) -> list[ModelBundle]:
    """Read a model directory back, verifying checksums. The manifest must
    list at least one model, each by a bare file name in the directory under
    the vessel id its file holds, each vessel once, and all of one hidden
    size and one window."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise MissingFile(str(manifest_path))
    try:
        manifest = json.loads(manifest_path.read_text())
        files = [(entry["file"], entry["sha256"], entry["vessel_id"]) for entry in manifest["models"]]
    except (ValueError, TypeError, KeyError) as exc:  # not JSON or UTF-8, or not the manifest layout
        raise BadManifest(f"{manifest_path} is not a model manifest: {exc!r}") from exc
    if manifest.get("format_version") != MODEL_FORMAT_VERSION:
        version = manifest.get("format_version")
        raise VersionMismatch(f"manifest format {version}, expected {MODEL_FORMAT_VERSION}")
    if not files:
        raise BadManifest(f"{manifest_path} lists no models")
    bundles = []
    for name, sha256, vessel_id in files:
        if not isinstance(name, str) or Path(name).name != name or name in ("", ".."):
            raise BadManifest(f"{manifest_path}: model file {name!r} is not a file name in {directory}")
        path = directory / name
        if not path.exists():
            raise MissingFile(str(path))
        data = path.read_bytes()
        if _sha256(data) != sha256:
            raise ChecksumMismatch(f"{path} checksum does not match manifest")
        try:
            bundles.append(bundle_from_json(data.decode()))
        except (BadModel, UnicodeDecodeError) as exc:
            raise BadModel(f"{path}: {exc}") from exc
        held = bundles[-1].vessel_id
        if held != vessel_id:
            raise BadManifest(f"{manifest_path} lists {name} as vessel {vessel_id!r}, but it holds vessel {held!r}")
    vids = sorted(b.vessel_id for b in bundles)
    repeated = [a for a, b in zip(vids, vids[1:]) if a == b]
    if repeated:
        raise BadManifest(f"{manifest_path} lists vessel {repeated[0]} more than once")
    sizes = sorted({(b.network.hidden, b.window_size) for b in bundles})
    if len(sizes) > 1:
        raise BadManifest(f"{manifest_path} mixes (hidden size, window) {sizes[0]} and {sizes[1]}: a fleet has one")
    return bundles
