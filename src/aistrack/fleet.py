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
`join_fleets` orders and concatenates vessels, as `train_fleet` joins its
stacks.

A fleet is saved as two files, fleet.json and weights.bin, with a
manifest.json holding the sha256 of each and the run's whole config
(`config.config_meta`), and a train_report.json of each vessel's per-epoch
loss. fleet.json (format version 4) is plain JSON: the vessel ids, sorted
and each once; each vessel's period, train end time, scaler and last
training window as (Z,), (Z, 4) and (Z, m, k) lists; and the architecture
and the network's hidden size and dropout rate. weights.bin is the network's
weight arrays (W, U and b of each layer, dense_W, dense_b) as raw
little-endian float64 bytes, each whole (Z, ...) array after the one before
it in `param_arrays()` order; their shapes follow from Z and the hidden
size, so the file has no header. The weights are loaded as writable views of
the one buffer the file is read into, the buffer whose hash is checked.
Format 3 held them as base64 in fleet.json, whose decoding, parsing and
hashing cost as much as all of `associate` but its rollouts. The reader
rejects another version, a key the format does not have, any architecture
but `lstm`'s and a weights file of another length than its fleet needs,
rather than run a file as something it is not; and, naming the first
vessel that fails, an id that is no VID (`ingest.vessel_id_fault`), a
non-finite value, a period <= 0, a scaler no AIS rows could give and a last
training window outside [0, 1].
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .associate import rollout_positions
from .config import RunConfig, check_ranges, config_meta, json_type_fault
from .errors import (
    BadManifest,
    BadModel,
    BadWeights,
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

MODEL_FORMAT_VERSION = 4

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

FLEET_FILE = "fleet.json"
WEIGHTS_FILE = "weights.bin"
MODEL_FILES = [FLEET_FILE, WEIGHTS_FILE]  # in the order a manifest lists them
RETRAIN = "retrain with `aistrack train`"


def _numbers(value, shape: tuple[int, ...], key: str) -> np.ndarray:
    """A float64 array of `shape` from nested lists of JSON numbers."""
    a = np.array(value)
    if a.dtype.kind in "Ub":
        raise BadModel(f"{key} must hold numbers, not strings or booleans")
    if a.shape != shape:
        raise BadModel(f"{key} has shape {a.shape}, expected {shape}")
    return a.astype(np.float64)


def _weight_arrays(weights, z: int, hidden: int) -> list[np.ndarray]:
    """The (Z, ...) weight arrays, in `param_arrays()` order, of a weights
    file's bytes for `z` vessels of `hidden` units: float64 views of
    `weights`, writable if it is. A buffer of another length is a
    BadWeights."""
    shapes = [(z, *shape) for shape in param_shapes(hidden)]
    sizes = [math.prod(shape) for shape in shapes]
    if len(weights) != 8 * sum(sizes):
        raise BadWeights(f"holds {len(weights)} bytes, where {z} vessels of hidden {hidden} need {8 * sum(sizes)}")
    flat = np.frombuffer(weights, "<f8").astype(np.float64, copy=False)  # a copy only where float64 is big-endian
    return [part.reshape(shape) for part, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]


# The architecture fields every fleet file holds: `lstm`'s constants.
ARCHITECTURE = {"k": INPUT_DIM, "n_layers": N_LAYERS, "out_dim": OUT_DIM, "residual": True}

# JSON type of each scalar in a fleet document's "network"; an int is
# accepted for a float.
NETWORK_FIELDS = {"k": int, "hidden": int, "n_layers": int, "out_dim": int, "dropout_rate": float}

# Every key of a format-4 document and of its "network": a reader never
# drops a field it does not know.
MODEL_KEYS = {"format_version", "vessel_ids", "window_size", "period", "train_end_time", "scaler",
              "last_training_window", "network"}
NETWORK_KEYS = {*ARCHITECTURE, *NETWORK_FIELDS}
WEIGHT_NAMES = [f"layers[{li}].{p}" for li in range(N_LAYERS) for p in ("W", "U", "b")] + ["dense_W", "dense_b"]


def _check_fields(doc: dict, kinds: dict[str, type]) -> None:
    """Each key of `kinds` must hold a JSON value of its type: ints >= 1 and
    floats finite."""
    for key, kind in kinds.items():
        value = doc[key]
        ok = json_type_fault(value, kind) is None
        ok = ok and (kind is not int or value >= 1) and (kind is not float or math.isfinite(value))
        if not ok:
            raise BadModel(f"{key} {value!r} is not a valid {kind.__name__}")


def _check_keys(doc, keys: set[str], where: str) -> None:
    """`doc` must be a JSON object with no key outside `keys`."""
    if not isinstance(doc, dict):
        raise BadModel(f"{where} is not a JSON object")
    unknown = sorted(doc.keys() - keys)
    if unknown:
        raise BadModel(f"{where} holds {unknown[0]!r}, a key format {MODEL_FORMAT_VERSION} does not have")


def _check_vessels(bad: np.ndarray, ids: list[str], fault, error=BadModel) -> None:
    """`error` naming the vessel (axis 0) of `bad`'s first True, with `fault` of its index."""
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise error(f"vessel {ids[at[0]]}: {fault(at)}")


# |LAT| and |LON| bounds of a row (`ingest.LAT_LON_BOUNDS`), then SPEED's and COURSE's
SCALER_BOUNDS = np.array([*LAT_LON_BOUNDS, np.inf, np.inf])


def _fleet_from_doc(doc, weights) -> Fleet:
    if isinstance(doc, dict) and doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise VersionMismatch(f"model format {doc.get('format_version')}, expected {MODEL_FORMAT_VERSION}: {RETRAIN}")
    _check_keys(doc, MODEL_KEYS, "the document")
    _check_fields(doc, {"window_size": int})
    ids = doc["vessel_ids"]
    if not isinstance(ids, list) or not ids:
        raise BadModel("vessel_ids must be a list of one or more vessel ids")
    for vid in ids:
        fault = json_type_fault(vid, str) or vessel_id_fault(vid)
        if fault:
            raise BadModel(f"vessel_ids: {fault}")
    for a, b in zip(ids, ids[1:]):
        if a >= b:  # the one order a fleet is stacked in
            raise BadModel(f"vessel_ids lists vessel {b} " + ("more than once" if a == b else f"after {a}"))
    z, net = len(ids), doc["network"]
    _check_keys(net, NETWORK_KEYS, "network")
    _check_fields(net, NETWORK_FIELDS)
    for key, value in ARCHITECTURE.items():
        if json_type_fault(net[key], type(value)) or net[key] != value:
            raise BadModel(f"{key} {net[key]!r}: only networks with {key} {value!r} are supported")
    arrays = {}
    for key, value, shape in [
        ("period", doc["period"], (z,)),
        ("train_end_time", doc["train_end_time"], (z,)),
        ("scaler.min", doc["scaler"]["min"], (z, INPUT_DIM)),
        ("scaler.max", doc["scaler"]["max"], (z, INPUT_DIM)),
        ("last_training_window", doc["last_training_window"], (z, doc["window_size"], INPUT_DIM)),
    ]:
        arrays[key] = _numbers(value, shape, key)
    for key, a in arrays.items():
        _check_vessels(~np.isfinite(a), ids, lambda at: f"{key} holds a non-finite value")
    period, lo, hi, window = (arrays[k] for k in ("period", "scaler.min", "scaler.max", "last_training_window"))
    _check_vessels(period <= 0, ids, lambda at: f"period {period[at].item()!r} is not > 0")
    # a range no AIS rows could give, such as a LAT span of 1e308, would
    # overflow when predictions are unscaled; HEADER ends with the features
    lat, lon = LAT_LON_BOUNDS
    _check_vessels(
        ~((-SCALER_BOUNDS <= lo) & (lo <= hi) & (hi <= SCALER_BOUNDS)),
        ids,
        lambda at: f"scaler {HEADER[3 + at[1]]} range [{lo[at].item()}, {hi[at].item()}] is not one AIS rows can give"
        f" (min <= max; LAT within [-{lat:g}, {lat:g}], LON within [-{lon:g}, {lon:g}])",
    )
    # training scales each window by its own prefix's min and max
    outside = (window < 0) | (window > 1)
    _check_vessels(outside, ids, lambda at: f"last_training_window value {window[at].item()!r} is outside the"
                   " [0, 1] of scaled rows")
    params = _weight_arrays(weights, z, net["hidden"])
    for key, a in zip(WEIGHT_NAMES, params):
        _check_vessels(~np.isfinite(a), ids, lambda at: f"{key} holds a non-finite value", BadWeights)
    return Fleet(
        vessel_ids=ids,
        network=network_from_arrays(params, net["dropout_rate"]),
        scaler=ScalerParams(min=lo, max=hi),
        period=period,
        train_end_time=arrays["train_end_time"],
        last_training_window=window,
    )


def fleet_to_json(fleet: Fleet) -> str:
    """The fleet file of `fleet`: its per-vessel values as JSON numbers, and
    its network's architecture, hidden size and dropout rate. Its weights
    go to their own file (`save_fleet`)."""
    net = fleet.network
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "vessel_ids": fleet.vessel_ids,
        "window_size": fleet.last_training_window.shape[1],
        "period": fleet.period.tolist(),
        "train_end_time": fleet.train_end_time.tolist(),
        "scaler": {"min": fleet.scaler.min.tolist(), "max": fleet.scaler.max.tolist()},
        "last_training_window": fleet.last_training_window.tolist(),
        "network": {**ARCHITECTURE, "hidden": net.hidden, "dropout_rate": net.dropout_rate},
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def fleet_from_json(text: str | bytes, weights) -> Fleet:
    """The fleet of a fleet file and of its weights file's bytes, a buffer
    the weight arrays are views of. Raises VersionMismatch for another
    format version, BadWeights for weights that do not fit or hold a
    non-finite value, and BadModel for a document that is not a fleet of
    this one; a fault in one vessel's values names the vessel."""
    try:
        return _fleet_from_doc(json.loads(text), weights)
    # not JSON or UTF-8, nested past the parser's depth, a key missing, a container of the wrong kind,
    # or an int no float can hold
    except (KeyError, TypeError, ValueError, RecursionError, OverflowError) as exc:
        raise BadModel(f"not a model document: missing or malformed {exc!r}") from exc


def save_fleet(fleet: Fleet, directory: str | Path, cfg: RunConfig, histories: dict[str, list[float]]) -> Path:
    """Write fleet.json and weights.bin, a manifest.json that holds the
    sha256 of each and echoes `cfg`, and train_report.json holding
    `histories`. Returns the manifest path. The weight arrays go to their
    file and into its hash one at a time, as they are held."""
    directory = output_dir(directory)
    text = fleet_to_json(fleet).encode()
    weights = [np.ascontiguousarray(a, dtype="<f8") for a in fleet.network.param_arrays()]
    digest = hashlib.sha256()
    for a in weights:
        digest.update(a)
    write_output(directory / FLEET_FILE, text)
    write_output(directory / WEIGHTS_FILE, weights)
    models = [{"file": FLEET_FILE, "sha256": hashlib.sha256(text).hexdigest()},
              {"file": WEIGHTS_FILE, "sha256": digest.hexdigest()}]
    manifest = {"format_version": MODEL_FORMAT_VERSION, "meta": config_meta(cfg), "models": models}
    path = directory / "manifest.json"
    write_output(path, json.dumps(manifest, sort_keys=True, indent=1))
    write_output(directory / "train_report.json", json.dumps({"epoch_loss": histories}, sort_keys=True, indent=1))
    return path


def _read_model_file(path: Path) -> bytearray:
    """A model directory file's bytes, read into a writable buffer of their
    size."""
    try:
        with path.open("rb") as f:
            data = bytearray(os.fstat(f.fileno()).st_size)
            f.readinto(data)
        return data
    except OSError as exc:  # no such file, or the directory is none
        raise MissingFile(f"{path.parent} is not a model directory: it holds no readable {path.name}"
                          f" ({exc.strerror}); `aistrack train --out` writes one") from None


def load_fleet(directory: str | Path) -> Fleet:
    """Read a model directory back as its fleet, once the sha256 of
    fleet.json and of weights.bin each match the one its manifest holds.
    Each file is read once, and hashed and decoded in that buffer."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    try:
        manifest = json.loads(_read_model_file(manifest_path))
        files = [(entry["file"], entry["sha256"]) for entry in manifest["models"]]
    # not JSON or UTF-8, nested past the parser's depth, or not the manifest layout
    except (ValueError, RecursionError, TypeError, KeyError) as exc:
        raise BadManifest(f"{manifest_path} is not a model manifest: {exc!r}") from exc
    if manifest.get("format_version") != MODEL_FORMAT_VERSION:
        version = manifest.get("format_version")
        raise VersionMismatch(f"{manifest_path}: model format {version}, expected {MODEL_FORMAT_VERSION}: {RETRAIN}")
    names = [name for name, _ in files]
    if names != MODEL_FILES:
        raise BadManifest(f"{manifest_path} lists {names or 'no models'}, where a model directory lists"
                          f" {' and '.join(MODEL_FILES)}")
    paths, data = [directory / name for name in MODEL_FILES], []
    for path, (_, sha256) in zip(paths, files):
        data.append(_read_model_file(path))
        if hashlib.sha256(data[-1]).hexdigest() != sha256:
            raise ChecksumMismatch(f"{path} checksum does not match manifest")
    try:
        return fleet_from_json(*data)
    except BadModel as exc:
        path = paths[1] if isinstance(exc, BadWeights) else paths[0]
        raise type(exc)(f"{path}: {exc}") from exc
