"""Synthetic AIS fleet generator with ground-truth labels.

Stands in for the private source database: emits the standard CSV schema plus
an OBJECT_ID -> VID truth map. Motion is a flat-earth constant-velocity line
with an optional sinusoidal cross-track wobble; the emitted speed and course
columns are derived from the actual consecutive positions so the features
stay self-consistent with the noisy track.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .associate import haversine
from .ingest import AisMessage, object_id_pairs, serialize_csv

KNOT_KM_H = 1.852
BASE_EPOCH = 1583020800  # 2020-03-01T00:00:00Z


@dataclass
class VesselMotion:
    start_lat: float
    start_lon: float
    course_deg: float  # heading in degrees, 0 = north, clockwise
    speed_knots: float
    wave_amp_deg: float = 0.0  # cross-track sinusoid amplitude, degrees
    wave_period: int = 100  # sinusoid period, in samples


@dataclass
class SynthSpec:
    vessels: int = 5
    points: int = 648
    period: float = 5.0  # nominal seconds between messages
    jitter_frac: float = 0.0  # timestamp jitter as a fraction of period
    noise_std_deg: float = 0.0
    seed: int = 0
    motions: list[VesselMotion] = field(default_factory=list)

    def __post_init__(self):
        if self.vessels < 1 or self.points < 2:
            raise ValueError("need vessels >= 1 and points >= 2")
        if not 0.0 <= self.jitter_frac < 1.0 or self.noise_std_deg < 0:
            raise ValueError("jitter_frac in [0, 1), noise_std_deg >= 0")
        if not self.motions:
            self.motions = default_motions(self.vessels)
        if len(self.motions) != self.vessels:
            raise ValueError("one motion per vessel required")


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


def _nominal_position(motion: VesselMotion, elapsed_s: float, sample_idx: float) -> tuple[float, float]:
    theta = np.radians(motion.course_deg)
    along_deg = motion.speed_knots * (elapsed_s / 3600.0) / 60.0  # 1 kn ~ 1/60 deg/h
    cross_deg = motion.wave_amp_deg * np.sin(2 * np.pi * sample_idx / motion.wave_period)
    coslat = np.cos(np.radians(motion.start_lat))
    lat = motion.start_lat + along_deg * np.cos(theta) - cross_deg * np.sin(theta)
    lon = motion.start_lon + (along_deg * np.sin(theta) + cross_deg * np.cos(theta)) / coslat
    return float(lat), float(lon)


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


def generate(spec: SynthSpec) -> tuple[str, dict[int, str]]:
    """Emit (CSV text in the standard schema, object_id -> vessel_id truth)."""
    rng = np.random.default_rng(spec.seed)
    vids = [bytes(rng.integers(0, 256, size=4, dtype=np.uint8)).hex() for _ in range(spec.vessels)]
    rows = []  # (t, vessel_index, lat, lon, speed, course)
    for vi, motion in enumerate(spec.motions):
        jitter = rng.uniform(-0.5, 0.5, size=spec.points) * spec.jitter_frac * spec.period
        times = np.round(BASE_EPOCH + np.arange(spec.points) * spec.period + jitter).astype(np.int64)
        noise = rng.normal(0.0, spec.noise_std_deg, size=(spec.points, 2)) if spec.noise_std_deg else np.zeros((spec.points, 2))
        lats, lons = [], []
        for i in range(spec.points):
            lat, lon = _nominal_position(motion, float(times[i] - BASE_EPOCH), i)
            lats.append(lat + noise[i, 0])
            lons.append(lon + noise[i, 1])
        speed, course = _derived_speed_course(np.array(lats), np.array(lons), times.astype(float))
        for i in range(spec.points):
            rows.append((int(times[i]), vi, lats[i], lons[i], float(speed[i]), float(course[i])))
    rows.sort(key=lambda r: (r[0], r[1]))
    messages = []
    truth: dict[int, str] = {}
    for object_id, (t, vi, lat, lon, sp, co) in enumerate(rows, start=1):
        messages.append(
            AisMessage(
                object_id=object_id,
                vessel_id=vids[vi],
                t=t,
                lat=lat,
                lon=lon,
                speed=sp,
                course=co,
            )
        )
        truth[object_id] = vids[vi]
    return serialize_csv(messages), truth


def truth_to_csv(truth: dict[int, str]) -> str:
    lines = ["OBJECT_ID,VID"]
    for oid in sorted(truth):
        lines.append(f"{oid},{truth[oid]}")
    return "\n".join(lines) + "\n"


def truth_from_csv(text: str) -> dict[int, str]:
    return dict(object_id_pairs(text, 2, exact=True, unique=True))


def overlap_scenario(spec: SynthSpec, crossing: tuple[int, int] | None, crossing_sample: int) -> SynthSpec:
    """Re-aim one vessel of the pair so the two tracks intersect spatially near
    crossing_sample. With crossing=None the spec is returned unchanged."""
    if crossing is None:
        return spec
    a, b = crossing
    if a == b:
        raise ValueError("cannot cross a vessel with itself")
    if not (0 <= a < spec.vessels and 0 <= b < spec.vessels):
        raise ValueError("crossing indices out of range")
    if not 0 <= crossing_sample < spec.points:
        raise ValueError("crossing_sample out of range")
    motions = [dataclasses.replace(m) for m in spec.motions]
    elapsed = crossing_sample * spec.period
    target = _nominal_position(motions[a], elapsed, crossing_sample)
    mb = motions[b]
    mb.course_deg = (motions[a].course_deg + 90.0) % 360.0
    # place b so its nominal (wave-free) position at the crossing sample hits
    # a's position there
    theta = np.radians(mb.course_deg)
    along_deg = mb.speed_knots * (elapsed / 3600.0) / 60.0
    coslat = np.cos(np.radians(target[0]))
    mb.start_lat = target[0] - along_deg * np.cos(theta)
    mb.start_lon = target[1] - along_deg * np.sin(theta) / coslat
    return dataclasses.replace(spec, motions=motions)
