"""Per-vessel model orchestration: train, persist, reload.

One LstmNetwork is trained per vessel, on all of the track it is given
(`cli` decides which tracks train and what each holds out). Each vessel
draws a derived seed (root seed XOR a digest of its id) so fleet results do
not depend on training order or scheduling. Training reads its settings
(window, hidden, dropout, lr, batch, epochs, seed) from the run's
`config.RunConfig` and range-checks them first, as the CLI does. No track,
or one of `window` samples or fewer, is a TrackTooShort error. A trained
stack takes the first step of `associate.rollout_positions`, so a model
that cannot make it is never saved.

Vessels train in lockstep: those with the same track length (hence the
same number of windows and batches per epoch) form a stack, one (Z, n, 4)
array of their samples that is scaled, windowed and initialised as
(Z, ...) arrays, and each batch is one forward, backward and Adam step for
the whole stack. Every vessel keeps its own generator for its weights,
shuffles and dropout masks, drawn in the same order as when it trains
alone, and the stacked math is the per-vessel math slice by slice, so the
models are bit for bit the same however the fleet is grouped. A stack holds
at most max(1, STACK_WINDOWS // batch) vessels: stacking removes
per-batch interpreter overhead, which is what costs at small batches, while
at batch 128 a stack of five was no faster and doubled peak memory. Each
trained stack is a `Fleet`, the one form trained models take, and only
`join_fleets` orders and concatenates vessels: `train_fleet` joins its
stacks with it, and `load_fleet` the one-vessel fleets of its model files.

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
Its scaler must be a range of AIS rows (`_scaler`), and its last training
window lie in [0, 1], as scaled training rows do. A model directory is
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
from .ingest import HEADER, LAT_LON_BOUNDS, vessel_id_fault
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
    train_epoch,
)
from .preprocess import RegularTrack, ScalerParams, fit_scaler, make_windows, scale

MODEL_FORMAT_VERSION = 2

# Windows per lockstep batch call, over all vessels of a stack.
STACK_WINDOWS = 64


@dataclass
class Fleet:
    """Z vessels' trained models, stacked in vessel_id order on every array."""

    vessel_ids: list[str]
    network: LstmNetwork
    scaler: ScalerParams  # (Z, 4) min and max
    period: np.ndarray  # (Z,)
    train_end_time: np.ndarray  # (Z,) epoch seconds of each last training sample
    last_training_window: np.ndarray  # (Z, m, k) scaled


def join_fleets(fleets: list[Fleet]) -> Fleet:
    """One fleet of the fleets' vessels in vessel_id order; each array is
    copied once, by concatenating its vessel slices in that order."""
    order = sorted((vid, f, z) for f, fleet in enumerate(fleets) for z, vid in enumerate(fleet.vessel_ids))

    def join(arrays: list[np.ndarray]) -> np.ndarray:  # one array per fleet
        return np.concatenate([arrays[f][z : z + 1] for _, f, z in order])

    params = zip(*(fleet.network.param_arrays() for fleet in fleets))
    return Fleet(
        vessel_ids=[vid for vid, _, _ in order],
        network=network_from_arrays([join(p) for p in params], fleets[0].network.dropout_rate),
        scaler=ScalerParams(min=join([f.scaler.min for f in fleets]), max=join([f.scaler.max for f in fleets])),
        period=join([f.period for f in fleets]),
        train_end_time=join([f.train_end_time for f in fleets]),
        last_training_window=join([f.last_training_window for f in fleets]),
    )


def vessel_seed(root_seed: int, vessel_id: str) -> int:
    digest = hashlib.sha256(vessel_id.encode()).digest()
    return (root_seed ^ int.from_bytes(digest[:8], "big")) & (2**64 - 1)


def _train_stack(stack: list[RegularTrack], cfg: RunConfig, workspace: Workspace) -> tuple[Fleet, list[list[float]]]:
    """Train series of one length in lockstep on all their samples, into
    `workspace`; returns their fleet, in stack order, and each epoch's
    per-vessel loss. A non-finite prediction, in training or in the first
    rollout step from the last training window, is a NonFiniteActivation
    naming its vessel."""
    m = cfg.window
    features = np.stack([s.features for s in stack])  # (Z, n, 4)
    scaler = fit_scaler(features)
    scaled = scale(features, scaler)
    windows = make_windows(scaled, m)
    rngs = [np.random.default_rng(vessel_seed(cfg.seed, s.vessel_id)) for s in stack]
    net = init_network(hidden=cfg.hidden, dropout_rate=cfg.dropout, rngs=rngs)
    opt = AdamState.for_network(net, cfg.lr)
    try:
        # a sigmoid's exp may overflow (1 / (1 + inf) = 0); a prediction
        # that turns non-finite is caught and named below
        with np.errstate(over="ignore", invalid="ignore"):
            epochs = [
                train_epoch(net, windows.inputs, windows.targets, cfg.batch, rngs, opt, workspace)
                for _ in range(cfg.epochs)
            ]
    except NonFiniteActivation as exc:
        raise NonFiniteActivation(f"vessel {stack[exc.row].vessel_id}: {exc}", exc.row) from None
    fleet = Fleet(
        vessel_ids=[s.vessel_id for s in stack],
        network=net,
        scaler=scaler,
        period=np.array([s.period for s in stack], dtype=np.float64),
        train_end_time=np.array([s.time_of(len(s) - 1) for s in stack], dtype=np.float64),
        last_training_window=scaled[:, -m:],
    )
    rollout_positions(fleet, 1)  # the first step `associate` takes: a model that cannot make it is not saved
    return fleet, epochs


def train_fleet(tracks: list[RegularTrack], cfg: RunConfig) -> tuple[Fleet, dict[str, list[float]]]:
    """Train one model per track on all of its samples, in lockstep stacks
    of equal length; returns the fleet and each vessel's per-epoch loss. A
    setting outside its range is a BadConfig; no track, or a track of
    `cfg.window` samples or fewer, is a TrackTooShort error."""
    check_ranges(cfg)
    if not tracks:
        raise TrackTooShort("no track to train")
    by_length: dict[int, list[RegularTrack]] = {}
    for series in sorted(tracks, key=lambda s: s.vessel_id):
        if len(series) <= cfg.window:
            raise TrackTooShort(f"vessel {series.vessel_id}: {len(series)} samples <= window {cfg.window}")
        by_length.setdefault(len(series), []).append(series)
    per_stack = max(1, STACK_WINDOWS // cfg.batch)
    stacks, histories = [], {}
    for group in by_length.values():
        workspace = Workspace()  # one per length: its stacks share batch shapes, other lengths' tails would pile up
        for start in range(0, len(group), per_stack):
            stack, epochs = _train_stack(group[start : start + per_stack], cfg, workspace)
            stacks.append(stack)
            histories.update({vid: [losses[z] for losses in epochs] for z, vid in enumerate(stack.vessel_ids)})
    return join_fleets(stacks), dict(sorted(histories.items()))


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


# The architecture fields every model file holds: `lstm`'s constants.
ARCHITECTURE = {"k": INPUT_DIM, "n_layers": N_LAYERS, "out_dim": OUT_DIM, "residual": True}


def _network_to_dict(net: LstmNetwork, z: int) -> dict:
    return {
        **ARCHITECTURE,
        "hidden": net.hidden,
        "dropout_rate": net.dropout_rate,
        "layers": [{"W": _encode(l.W[z]), "U": _encode(l.U[z]), "b": _encode(l.b[z])} for l in net.layers],
        "dense_W": _encode(net.dense_W[z]),
        "dense_b": _encode(net.dense_b[z]),
    }


# JSON type of each scalar of a model document, at the top level and in
# "network"; an int is accepted for a float.
MODEL_FIELDS = {"vessel_id": str, "window_size": int, "period": float, "train_end_time": float}
NETWORK_FIELDS = {"k": int, "hidden": int, "n_layers": int, "out_dim": int, "dropout_rate": float}


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
    """A float64 array of one vessel's slice of `shape`, (1, *shape), from
    nested lists of finite JSON numbers."""
    a = np.array(value, dtype=np.float64)
    if a.shape != shape:
        raise BadModel(f"{key} has shape {a.shape}, expected {shape}")
    return _finite(a, key)[None]


# |LAT| and |LON| bounds of a row (`ingest.LAT_LON_BOUNDS`), then SPEED's and COURSE's
SCALER_BOUNDS = np.array([*LAT_LON_BOUNDS, np.inf, np.inf])


def _scaler(d: dict) -> ScalerParams:
    """A model document's scaler, of (1, 4) arrays; BadModel unless each feature's
    -bound <= min <= max <= bound. A range no AIS rows could give, such as a
    LAT span of 1e308, would overflow when predictions are unscaled."""
    lo = _numbers(d["min"], (INPUT_DIM,), "scaler.min")
    hi = _numbers(d["max"], (INPUT_DIM,), "scaler.max")
    bad = np.flatnonzero(~((-SCALER_BOUNDS <= lo) & (lo <= hi) & (hi <= SCALER_BOUNDS)))
    if len(bad):
        i = bad[0]  # HEADER ends with the INPUT_DIM features, LAT first
        lat, lon = LAT_LON_BOUNDS
        raise BadModel(
            f"scaler {HEADER[3 + i]} range [{lo.flat[i].item()}, {hi.flat[i].item()}] is not one AIS rows can give"
            f" (min <= max; LAT within [-{lat:g}, {lat:g}], LON within [-{lon:g}, {lon:g}])"
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


def model_to_json(fleet: Fleet, z: int) -> str:
    """The model file of the fleet's vessel z."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "vessel_id": fleet.vessel_ids[z],
        "window_size": fleet.last_training_window.shape[1],
        "period": fleet.period[z].item(),
        "train_end_time": fleet.train_end_time[z].item(),
        "scaler": {"min": fleet.scaler.min[z].tolist(), "max": fleet.scaler.max[z].tolist()},
        "last_training_window": fleet.last_training_window[z].tolist(),
        "network": _network_to_dict(fleet.network, z),
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def model_from_json(text: str) -> Fleet:
    """The one-vessel fleet of a model file. Raises VersionMismatch for
    another format version and BadModel for a document that is not a model
    of this one, or whose vessel_id `ingest.vessel_id_fault` rejects."""
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
        vessel = Fleet(
            vessel_ids=[doc["vessel_id"]],
            network=_network_from_dict(doc["network"]),
            scaler=_scaler(doc["scaler"]),
            period=np.array([doc["period"]], dtype=np.float64),
            train_end_time=np.array([doc["train_end_time"]], dtype=np.float64),
            last_training_window=_numbers(
                doc["last_training_window"], (doc["window_size"], INPUT_DIM), "last_training_window"
            ),
        )
        window = vessel.last_training_window
        outside = window[(window < 0) | (window > 1)]
        if len(outside):  # training scales each window by its own prefix's min and max
            raise BadModel(f"last_training_window value {outside[0].item()!r} is outside the [0, 1] of scaled rows")
        return vessel
    # a key missing, a container of the wrong kind, or an int no float can hold
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadModel(f"not a model document: missing or malformed {exc!r}") from exc


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def save_fleet(fleet: Fleet, directory: str | Path, cfg: RunConfig, histories: dict[str, list[float]]) -> Path:
    """Write model_<vid>.json per vessel, a checksummed manifest.json that
    echoes `cfg`, and train_report.json holding `histories`. Returns the
    manifest path."""
    directory = output_dir(directory)
    entries = []
    for z, vessel_id in enumerate(fleet.vessel_ids):
        name = f"model_{vessel_id}.json"
        data = model_to_json(fleet, z).encode()
        write_output(directory / name, data)
        entries.append({"file": name, "vessel_id": vessel_id, "sha256": _sha256(data)})
    manifest = {"format_version": MODEL_FORMAT_VERSION, "meta": config_meta(cfg), "models": entries}
    path = directory / "manifest.json"
    write_output(path, json.dumps(manifest, sort_keys=True, indent=1))
    write_output(directory / "train_report.json", json.dumps({"epoch_loss": histories}, sort_keys=True, indent=1))
    return path


def load_fleet(directory: str | Path) -> Fleet:
    """Read a model directory back as one fleet, verifying checksums. The
    manifest must list at least one model, each by a bare file name in the
    directory under the vessel id its file holds, each vessel once, and all
    of one hidden size and one window."""
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
    vessels = []
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
            vessels.append(model_from_json(data.decode()))
        except (BadModel, UnicodeDecodeError) as exc:
            raise BadModel(f"{path}: {exc}") from exc
        (held,) = vessels[-1].vessel_ids
        if held != vessel_id:
            raise BadManifest(f"{manifest_path} lists {name} as vessel {vessel_id!r}, but it holds vessel {held!r}")
    sizes = sorted({(v.network.hidden, v.last_training_window.shape[1]) for v in vessels})
    if len(sizes) > 1:
        raise BadManifest(f"{manifest_path} mixes (hidden size, window) {sizes[0]} and {sizes[1]}: a fleet has one")
    fleet = join_fleets(vessels)
    repeated = [a for a, b in zip(fleet.vessel_ids, fleet.vessel_ids[1:]) if a == b]
    if repeated:
        raise BadManifest(f"{manifest_path} lists vessel {repeated[0]} more than once")
    return fleet
