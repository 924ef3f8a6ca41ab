"""Synthetic AIS fleet generator with ground-truth labels.

Stands in for the private source database: emits the standard CSV schema plus
an OBJECT_ID -> VID truth map. Motion is a flat-earth constant-velocity line
with an optional sinusoidal cross-track wobble; the emitted speed and course
columns are derived from the actual consecutive positions so the features
stay self-consistent with the noisy track. Each vessel's track is computed
for all its samples at once, as arrays; one stable sort then numbers the
fleet's rows in time order.

Settings come from the run's `config.RunConfig`: `fleet_motions` turns its
vessels and crossing into one motion per vessel, and `generate` reads its
seed, points, period, jitter and noise, range-checked first. Both reject a
fleet of more than `MAX_FLEET_ROWS` rows before they build anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .associate import haversine
from .config import RunConfig, check_ranges
from .errors import BadConfig
from .ingest import LAT_LON_BOUNDS, format_timestamp, object_id_pairs, parse_timestamp, serialize_csv
from .preprocess import MAX_GRID_SAMPLES

KNOT_KM_H = 1.852
BASE_EPOCH = 1583020800  # 2020-03-01T00:00:00Z
# The first and last times a row's four-digit-year SEQUENCE_DTTM can carry.
TIME_RANGE = (parse_timestamp("0001-01-01T00:00:00Z"), parse_timestamp("9999-12-31T23:59:59Z"))
# The most rows (vessels x points) a fleet may have: `train` resamples no
# track longer than this, and synth's memory grows with the rows (a peak RSS
# of 240 MB at 300,000; 5 x 10**10 rows asked numpy for 373 GiB).
MAX_FLEET_ROWS = MAX_GRID_SAMPLES


@dataclass
class VesselMotion:
    start_lat: float
    start_lon: float
    course_deg: float  # heading in degrees, 0 = north, clockwise
    speed_knots: float
    wave_amp_deg: float = 0.0  # cross-track sinusoid amplitude, degrees
    wave_period: int = 100  # sinusoid period, in samples


def _check_rows(vessels: int, cfg: RunConfig) -> None:
    """BadConfig if `vessels` tracks of cfg.points samples pass MAX_FLEET_ROWS;
    the message writes out no int, which may have any number of digits."""
    if vessels * cfg.points > MAX_FLEET_ROWS:
        raise BadConfig(f"vessels x points must be at most {MAX_FLEET_ROWS} rows")


def default_motions(z: int) -> list[VesselMotion]:
    """Well-separated starts (2 degrees apart) with varied headings. Vessel
    i starts at latitude 37 + 2 (i % 26), which stays below 90; each band
    of 26 vessels repeats the motions of the first, 5 degrees further east."""
    return [
        VesselMotion(
            start_lat=37.0 + j * 2.0,
            start_lon=23.0 + (j % 2) * 2.0 + band * 5.0,
            course_deg=(37.0 * j + 20.0) % 360.0,
            speed_knots=8.0 + 2.0 * j,
            wave_amp_deg=0.002,
            wave_period=120 + 15 * j,
        )
        for band, j in (divmod(i, 26) for i in range(z))
    ]


def _nominal_position(motion: VesselMotion, elapsed_s, sample_idx):
    """(lat, lon) of `motion` before noise, `elapsed_s` seconds and
    `sample_idx` samples after its start: scalars, or arrays of one shape
    for a whole track."""
    theta = np.radians(motion.course_deg)
    along_deg = motion.speed_knots * (elapsed_s / 3600.0) / 60.0  # 1 kn ~ 1/60 deg/h
    cross_deg = motion.wave_amp_deg * np.sin(2 * np.pi * sample_idx / motion.wave_period)
    coslat = np.cos(np.radians(motion.start_lat))
    lat = motion.start_lat + along_deg * np.cos(theta) - cross_deg * np.sin(theta)
    lon = motion.start_lon + (along_deg * np.sin(theta) + cross_deg * np.cos(theta)) / coslat
    return lat, lon


def _derived_speed_course(lats, lons, times):
    """Speed (tenths of knots) and course (tenths of degrees) from consecutive
    emitted positions."""
    n = len(lats)
    speed = np.zeros(n)
    course = np.zeros(n)
    coslat = np.cos(np.radians(np.mean(lats)))
    km = haversine(lats[:-1], lons[:-1], lats[1:], lons[1:])
    speed[1:] = km / np.maximum(1.0, np.diff(times)) * 3600.0 / KNOT_KM_H * 10.0
    course[1:] = np.degrees(np.arctan2(np.diff(lons) * coslat, np.diff(lats))) % 360.0 * 10.0
    if n > 1:
        speed[0], course[0] = speed[1], course[1]
    return speed, course


def generate(cfg: RunConfig, motions: list[VesselMotion]) -> tuple[str, dict[int, str]]:
    """Emit (CSV text in the standard schema, object_id -> vessel_id truth)
    for one vessel per motion: cfg.points samples cfg.period seconds apart,
    timestamps jittered by up to cfg.jitter / 2 periods and positions by
    Gaussian noise of cfg.noise degrees, all drawn from cfg.seed. Each
    vessel's track is one array expression; rows are numbered in time order,
    vessels in motion order at equal times and samples in their own order
    after that. A setting outside its range is a BadConfig, and so are a
    fleet of more than MAX_FLEET_ROWS rows and settings whose times or
    positions no AIS row could carry."""
    check_ranges(cfg)
    _check_rows(len(motions), cfg)
    reach = cfg.jitter / 2 * cfg.period
    if BASE_EPOCH - reach < TIME_RANGE[0] or BASE_EPOCH + (cfg.points - 1) * cfg.period + reach > TIME_RANGE[1]:
        raise BadConfig(
            f"{cfg.points} points {cfg.period:g} s apart with jitter {cfg.jitter:g} run outside"
            f" {format_timestamp(TIME_RANGE[0])} to {format_timestamp(TIME_RANGE[1])}"
        )
    rng = np.random.default_rng(cfg.seed)
    vids = [bytes(rng.integers(0, 256, size=4, dtype=np.uint8)).hex() for _ in motions]
    shape = (len(motions), cfg.points)  # vessel-major, as the rng draws them
    t = np.empty(shape, dtype=np.int64)
    lat, lon, speed, course = (np.empty(shape) for _ in range(4))
    sample = np.arange(cfg.points)
    for vi, motion in enumerate(motions):
        jitter = rng.uniform(-0.5, 0.5, size=cfg.points) * cfg.jitter * cfg.period
        t[vi] = np.round(BASE_EPOCH + sample * cfg.period + jitter)
        noise = rng.normal(0.0, cfg.noise, size=(cfg.points, 2)) if cfg.noise else np.zeros((cfg.points, 2))
        lat[vi], lon[vi] = _nominal_position(motion, (t[vi] - BASE_EPOCH).astype(float), sample)
        lat[vi] += noise[:, 0]
        lon[vi] += noise[:, 1]
    outside = np.argwhere(~((np.abs(lat) <= LAT_LON_BOUNDS[0]) & (np.abs(lon) <= LAT_LON_BOUNDS[1])))
    if len(outside):
        vi, i = outside[0].tolist()
        raise BadConfig(f"vessel {vids[vi]} sample {i}: position ({lat[vi, i]:.6g}, {lon[vi, i]:.6g}) is outside"
                        f" |LAT| <= {LAT_LON_BOUNDS[0]:g}, |LON| <= {LAT_LON_BOUNDS[1]:g}")
    for vi in range(len(motions)):
        speed[vi], course[vi] = _derived_speed_course(lat[vi], lon[vi], t[vi].astype(float))
    vessel = np.repeat(np.arange(len(motions)), cfg.points)
    order = np.lexsort((vessel, t.ravel()))  # stable: by time, then vessel, then sample
    row_vessel, *columns = [col.ravel()[order].tolist() for col in (vessel, t, lat, lon, speed, course)]
    vessel_ids = [vids[vi] for vi in row_vessel]
    object_ids = range(1, len(vessel_ids) + 1)
    return serialize_csv(zip(object_ids, vessel_ids, *columns)), dict(zip(object_ids, vessel_ids))


def truth_to_csv(truth: dict[int, str]) -> str:
    lines = ["OBJECT_ID,VID"]
    for oid in sorted(truth):
        lines.append(f"{oid},{truth[oid]}")
    return "\n".join(lines) + "\n"


def truth_from_csv(text: str) -> dict[int, str]:
    return dict(object_id_pairs(text, ("OBJECT_ID", "VID")))


def crossing(cfg: RunConfig) -> tuple[int, int, int] | None:
    """(a, b, s) of a cfg.crossing "a,b,s", or None if it is empty. It must
    name two distinct vessels below cfg.vessels and a sample below
    cfg.points; any other non-empty value is a BadConfig."""
    if not cfg.crossing:
        return None
    bad = BadConfig(
        f"crossing must be 'a,b,sample' with vessels a != b in [0, {cfg.vessels})"
        f" and sample in [0, {cfg.points}), got {cfg.crossing!r}"
    )
    parts = cfg.crossing.split(",")
    if len(parts) != 3 or not all(p.strip().isdecimal() for p in parts):
        raise bad
    a, b, sample = (int(p) for p in parts)
    if a == b or max(a, b) >= cfg.vessels or sample >= cfg.points:
        raise bad
    return a, b, sample


def fleet_motions(cfg: RunConfig) -> list[VesselMotion]:
    """default_motions(cfg.vessels), with vessel b re-aimed so that its track
    crosses vessel a's near sample s when `crossing(cfg)` is (a, b, s). A
    fleet of more than MAX_FLEET_ROWS rows is a BadConfig, before any motion
    is built."""
    _check_rows(cfg.vessels, cfg)
    crossed = crossing(cfg)
    if crossed is None:
        return default_motions(cfg.vessels)
    a, b, sample = crossed
    motions = default_motions(cfg.vessels)
    elapsed = sample * cfg.period
    target_lat, target_lon = _nominal_position(motions[a], elapsed, sample)
    mb = motions[b]
    mb.course_deg = (motions[a].course_deg + 90.0) % 360.0
    # place b so its nominal (wave-free) position at the crossing sample hits
    # a's position there
    theta = np.radians(mb.course_deg)
    along_deg = mb.speed_knots * (elapsed / 3600.0) / 60.0
    coslat = np.cos(np.radians(target_lat))
    mb.start_lat = target_lat - along_deg * np.cos(theta)
    mb.start_lon = target_lon - along_deg * np.sin(theta) / coslat
    return motions
