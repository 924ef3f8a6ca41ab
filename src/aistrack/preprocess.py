"""Resampling, feature scaling and sliding-window construction.

Each raw track becomes an evenly spaced series (default 5 s) with features
ordered (lat, lon, speed, course). Course is an angle in tenths of degrees and
is interpolated along the shortest circular path so a north crossing never
fabricates a southbound heading. Scaling and windowing work on the rows
axis of one series' (n, 4) rows or of a lockstep stack's (Z, n, 4), each
series value for value as when it is alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooLong, TrackTooShort
from .ingest import RawTrack

COURSE_MOD = 3600.0  # tenths of degrees

# A track's grid has one sample per period over its time span, so a tiny
# period asks for an unbounded allocation. Past this many samples (about 58
# days at the 5 s default; 1,500x the 648 of the paper's tracks) it is a
# data error, raised before anything is allocated.
MAX_GRID_SAMPLES = 1_000_000


@dataclass
class RegularTrack:
    """Evenly spaced multivariate series; sample i is at start_time + i*period."""

    vessel_id: str
    start_time: int  # epoch seconds
    period: float  # seconds
    features: np.ndarray  # shape (n, 4), columns lat, lon, speed, course

    def __len__(self) -> int:
        return len(self.features)

    def time_of(self, i: int) -> float:
        return self.start_time + i * self.period


@dataclass
class ScalerParams:
    """Per-feature min/max fitted on the training prefix only, or a stack's."""

    min: np.ndarray  # shape (..., 4)
    max: np.ndarray  # shape (..., 4)


@dataclass
class WindowSet:
    """Sliding windows over a scaled training prefix, or a stack's: inputs
    [..., t, :, :] = rows t..t+m-1, targets[..., t, :] = (lat, lon) of row
    t+m. Its length counts the windows of every series."""

    inputs: np.ndarray  # shape (..., count, m, 4)
    targets: np.ndarray  # shape (..., count, 2)

    def __len__(self) -> int:
        return self.targets[..., 0].size


def _unwrap_course(course: np.ndarray) -> np.ndarray:
    """Cumulative angle with steps wrapped into (-1800, 1800]."""
    deltas = np.diff(course)
    deltas = (deltas + COURSE_MOD / 2) % COURSE_MOD - COURSE_MOD / 2
    return np.concatenate(([course[0]], course[0] + np.cumsum(deltas)))


def resample(track: RawTrack, period: float = 5.0) -> RegularTrack:
    """Linear interpolation onto a grid anchored at the first raw timestamp,
    of at most MAX_GRID_SAMPLES samples."""
    if len(track) < 2:
        raise TrackTooShort(f"vessel {track.vessel_id}: need >= 2 messages, have {len(track)}")
    if period <= 0:
        raise ValueError("period must be > 0")
    # The rows' last five columns: t, then the features in their column order.
    t, *values, course = np.array(list(zip(*track.messages))[2:], dtype=np.float64)
    t0, t1 = t[0], t[-1]
    n = np.floor(float(t1 - t0) / period) + 1  # a float, inf where the quotient overflows
    if n > MAX_GRID_SAMPLES:
        raise GridTooLong(
            f"vessel {track.vessel_id}: period {period!r} s puts {n:.7g} samples on its {t1 - t0:.0f} s track;"
            f" the bound is {MAX_GRID_SAMPLES}"
        )
    grid = t0 + period * np.arange(int(n))
    # np.interp needs strictly increasing x; collapse duplicate timestamps
    # keeping the last message of each tie (ties are already object_id-ordered).
    keep = np.concatenate((t[1:] != t[:-1], [True]))
    tk = t[keep]
    cols = [np.interp(grid, tk, v[keep]) for v in values]
    cols.append(np.interp(grid, tk, _unwrap_course(course[keep])) % COURSE_MOD)
    return RegularTrack(
        vessel_id=track.vessel_id,
        start_time=int(t0),
        period=period,
        features=np.column_stack(cols),
    )


def fit_scaler(prefix: np.ndarray) -> ScalerParams:
    """Min/max over the rows of (..., n, 4) training prefixes, as (..., 4)
    arrays; given training rows only, nothing leaks from the test rows."""
    return ScalerParams(min=prefix.min(axis=-2), max=prefix.max(axis=-2))


def scale(x: np.ndarray, p: ScalerParams) -> np.ndarray:
    """(x - min) / (max - min) per feature of (..., n, 4) rows, the (..., 4)
    scaler broadcast over the rows; 0.0 where the feature is constant."""
    lo, span = p.min[..., None, :], (p.max - p.min)[..., None, :]
    return np.where(span == 0, 0.0, (x - lo) / np.where(span == 0, 1.0, span))


def unscale(y: np.ndarray, p: ScalerParams) -> np.ndarray:
    """Invert `scale` for the (lat, lon) components. Scaler arrays stacked
    to (Z, 4) unscale (..., Z, 2) predictions of Z vessels at once."""
    y = np.asarray(y, dtype=np.float64)
    return p.min[..., :2] + y * (p.max[..., :2] - p.min[..., :2])


def make_windows(scaled: np.ndarray, m: int) -> WindowSet:
    """The n - m (input, target) pairs of each of (..., n, 4) scaled series,
    as views of its rows."""
    if scaled.shape[-2] <= m:
        raise TrackTooShort(f"train_len {scaled.shape[-2]} must exceed window size {m}")
    inputs = np.lib.stride_tricks.sliding_window_view(scaled[..., :-1, :], m, axis=-2)
    return WindowSet(inputs=inputs.swapaxes(-1, -2), targets=scaled[..., m:, :2])
