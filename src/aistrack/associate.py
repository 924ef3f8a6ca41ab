"""Nearest-prediction track association via haversine distance.

Each fleet model is rolled forward to the observation time; the observation is
assigned to the vessel whose predicted position is closest on the great
circle, or declared a new track when the minimum distance exceeds tau.

The rollout is fleet-stacked. `associate_batch` first computes the (N, Z)
matrix of rollout steps, observation by vessel, then stacks the Z vessel
networks (`lstm.stack_networks`) and advances all Z windows together, one
batched `roll_step` per step, up to the largest step any observation needs.
The (S, Z, 2) table of predictions is unscaled in one numpy expression and
each observation reads its row of `GeoPoint`s from it. So the LSTM runs S
times per association instead of S times per vessel, with the same numbers:
a stacked matmul computes each vessel's slice exactly as a separate call
would. Vessels whose networks or windows differ in shape are stacked in
separate groups. Distances stay scalar `math` haversines, one per
(observation, vessel), because a vectorized `np.arcsin` differs from
`math.asin` in the last ulp and could flip near-ties.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import TimeBeforeTraining
from .ingest import AisMessage, object_id_pairs
from .lstm import roll_step, stack_networks
from .preprocess import ScalerParams, unscale

EARTH_RADIUS_KM = 6371.0

NEW_TRACK = "NEW"


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float


@dataclass
class AssociationDecision:
    object_id: int
    distances_km: dict[str, float]
    assigned: str  # vessel_id or NEW_TRACK
    winning_distance_km: float


def haversine(p: GeoPoint, q: GeoPoint, r: float = EARTH_RADIUS_KM) -> float:
    """Great-circle distance in km (radius r) between two lat/lon points."""
    phi1, phi2 = math.radians(p.lat), math.radians(q.lat)
    dphi = phi2 - phi1
    dlam = math.radians(q.lon - p.lon)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * r * math.asin(min(1.0, math.sqrt(a)))


def _rollout_steps(bundles, times: list[float]) -> np.ndarray:
    """(N, Z) rollout steps from each bundle's train end to each time:
    round((time - train_end_time) / period), minimum 1."""
    t = np.array(times, dtype=np.float64)[:, None]
    ends = np.array([b.train_end_time for b in bundles], dtype=np.float64)
    early = t <= ends
    if early.any():
        i, z = np.argwhere(early)[0]
        b = bundles[z]
        raise TimeBeforeTraining(f"vessel {b.vessel_id}: target {times[i]} <= train end {b.train_end_time}")
    periods = np.array([b.period for b in bundles], dtype=np.float64)
    return np.maximum(1, np.round((t - ends) / periods)).astype(np.int64)


def _rollout_positions(bundles, steps: int) -> np.ndarray:
    """(steps, Z, 2) unscaled (lat, lon) of every bundle's rollout, for 1
    through `steps` periods past its train end."""
    groups = defaultdict(list)
    for z, b in enumerate(bundles):
        shapes = tuple(a.shape for a in b.network.param_arrays())
        groups[shapes, b.network.residual, b.last_training_window.shape].append(z)
    scaled = np.empty((steps, len(bundles), 2))
    for members in groups.values():
        net = stack_networks([bundles[z].network for z in members])
        window = np.stack([bundles[z].last_training_window for z in members])
        for s in range(steps):
            scaled[s, members], window = roll_step(net, window)
    fleet_scaler = ScalerParams(
        min=np.stack([b.scaler.min for b in bundles]), max=np.stack([b.scaler.max for b in bundles])
    )
    return unscale(scaled, fleet_scaler)


def _predictions(bundles, times: list[float]) -> Iterator[dict[str, GeoPoint]]:
    """Every bundle's predicted position at each time, from one stacked
    rollout to the latest of them."""
    if not bundles:
        raise ValueError("no vessel models to predict with")
    steps = _rollout_steps(bundles, times)
    if not len(steps):
        return
    positions = _rollout_positions(bundles, int(steps.max())).tolist()
    points = [[GeoPoint(lat=lat, lon=lon) for lat, lon in row] for row in positions]
    vids = [b.vessel_id for b in bundles]
    for row in steps.tolist():
        yield {vid: points[s - 1][z] for z, (vid, s) in enumerate(zip(vids, row))}


def predict_positions(bundles, target_time: float) -> dict[str, GeoPoint]:
    """Roll every bundle forward to target_time and unscale the predictions.

    steps = round((target_time - train_end_time) / period), minimum 1."""
    return next(_predictions(bundles, [target_time]))


def associate(
    observation: AisMessage,
    predictions: dict[str, GeoPoint],
    tau: float = math.inf,
    radius_km: float = EARTH_RADIUS_KM,
) -> AssociationDecision:
    """Assign the observation to the nearest predicted track, or NEW if the
    minimum distance exceeds tau. Ties go to the smallest vessel_id."""
    if not predictions:
        raise ValueError("predictions must be non-empty")
    obs = GeoPoint(lat=observation.lat, lon=observation.lon)
    distances = {
        vid: haversine(obs, point, radius_km) for vid, point in sorted(predictions.items())
    }
    best_vid = min(distances, key=lambda vid: (distances[vid], vid))
    best = distances[best_vid]
    assigned = best_vid if best <= tau else NEW_TRACK
    return AssociationDecision(
        object_id=observation.object_id,
        distances_km=distances,
        assigned=assigned,
        winning_distance_km=best,
    )


def associate_batch(
    observations: list[AisMessage],
    bundles,
    tau: float = math.inf,
    radius_km: float = EARTH_RADIUS_KM,
) -> list[AssociationDecision]:
    """Associate time-ordered observations against one fleet-stacked rollout.

    No exclusivity constraint: many observations may map to one track."""
    if any(b.t > a.t for a, b in zip(observations[1:], observations)):
        raise ValueError("observations must be sorted by timestamp")
    predictions = _predictions(bundles, [obs.t for obs in observations])
    return [
        associate(obs, preds, tau=tau, radius_km=radius_km)
        for obs, preds in zip(observations, predictions)
    ]


def decisions_to_csv(decisions: list[AssociationDecision], vessel_ids: list[str]) -> str:
    """CSV export: OBJECT_ID, ASSIGNED_VID, WINNING_DISTANCE_KM, DIST_<vid>..."""
    vids = sorted(vessel_ids)
    header = ["OBJECT_ID", "ASSIGNED_VID", "WINNING_DISTANCE_KM"] + [f"DIST_{v}" for v in vids]
    lines = [",".join(header)]
    for d in decisions:
        row = [str(d.object_id), d.assigned, f"{d.winning_distance_km!r}"]
        row += [f"{d.distances_km[v]!r}" for v in vids]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def decisions_from_csv(text: str) -> list[tuple[int, str]]:
    """Read back (object_id, assigned_vid) pairs from a decisions CSV."""
    return object_id_pairs(text, 2, exact=False)
