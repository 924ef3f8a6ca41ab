"""Nearest-prediction track association via haversine distance.

Each fleet model is rolled forward to the observation time; the observation is
assigned to the vessel whose predicted position is closest on the great
circle, or declared a new track when the minimum distance exceeds tau.

`associate_batch` works on arrays end to end, on one `fleet.Fleet`, whose
Z vessels' networks, scalers and windows are already stacked in vessel_id
order. It computes the (N, Z) matrix of rollout steps, observation by
vessel, starts one rollout for the fleet (`lstm.rollout_start`) and
advances all Z vessels together, one batched `roll_step` per step, up to
the largest step any observation needs. Each step is one cell step per
LSTM layer on the m windows each vessel has in flight, and a stacked
matmul computes each vessel's slice exactly as a separate call would. The
(S, Z, 2) table of predictions is unscaled in one expression, and each
observation's Z predictions are gathered from it in one indexing step. One
call of the array `haversine` gives the (N, Z) distance matrix. The
decision is the argmin of each row, so ties go to the smallest vessel_id.
The result is one `Decisions` record, which `decisions_to_csv` writes with
one format call per row, each distance to 17 significant digits, which
parse back to the exact double. `rollout_positions` alone checks the
rollout's output, the predictions first, then their unscaled positions:
the first non-finite one is an error that names its vessel and step. So is
a step count past `MAX_ROLLOUT_STEPS`, an infinite one included; numpy's
overflow warnings on the way to either are silenced.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteActivation, RolloutTooLong, TimeBeforeTraining
from .ingest import NEW_TRACK, AisMessage, format_timestamp, object_id_pairs
from .lstm import roll_step, rollout_start
from .preprocess import unscale

EARTH_RADIUS_KM = 6371.0

# The rollout runs one LSTM step per period past a vessel's train end, so an
# observation far in the future would stall the run. Past this many steps
# (40x the 250 of the widest benchmark horizon) it is a data error.
MAX_ROLLOUT_STEPS = 10_000


@dataclass(frozen=True)
class Decisions:
    """N observations associated against Z vessels. Row i is observation
    object_ids[i]: assigned[i] is a vessel_id or NEW_TRACK,
    winning_distance_km[i] the distance to its nearest prediction and
    distances_km[i, z] the distance to vessel_ids[z]'s (sorted) prediction."""

    object_ids: list[int]
    assigned: list[str]
    winning_distance_km: np.ndarray  # (N,)
    distances_km: np.ndarray  # (N, Z)
    vessel_ids: list[str]

    def __len__(self) -> int:
        return len(self.object_ids)


def haversine(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in km (radius EARTH_RADIUS_KM) from
    (lat1, lon1) to (lat2, lon2), elementwise over broadcast arrays."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(np.subtract(lon2, lon1))
    a = np.sin(dphi / 2) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def _rollout_steps(fleet, times: list[float]) -> np.ndarray:
    """(N, Z) rollout steps from each of the fleet's train ends to each time:
    round((time - train_end_time) / period), minimum 1, at most
    MAX_ROLLOUT_STEPS."""
    t = np.array(times, dtype=np.float64)[:, None]
    ends = fleet.train_end_time
    early = t <= ends
    if early.any():
        i, z = np.argwhere(early)[0]
        raise TimeBeforeTraining(f"vessel {fleet.vessel_ids[z]}: target {times[i]} <= train end {ends[z].item()}")
    with np.errstate(over="ignore"):  # a tiny period gives inf steps, which the bound rejects
        steps = np.round((t - ends) / fleet.period)
    far = steps > MAX_ROLLOUT_STEPS
    if far.any():
        i, z = np.argwhere(far)[0]
        raise RolloutTooLong(
            f"observation at {format_timestamp(int(times[i]))} is {steps[i, z]:.6g} rollout steps past"
            f" vessel {fleet.vessel_ids[z]}'s train end; the bound is {MAX_ROLLOUT_STEPS}"
        )
    return np.maximum(1, steps).astype(np.int64)


def rollout_positions(fleet, steps: int) -> np.ndarray:
    """(steps, Z, 2) unscaled (lat, lon) of every vessel's rollout, for 1
    through `steps` periods past its train end, run as one stack. The first
    non-finite prediction, by step and then by vessel, or else position, is
    a NonFiniteActivation naming its vessel and step."""
    net = fleet.network
    scaled = np.empty((steps, net.vessels, 2))
    # a sigmoid's exp may overflow (1 / (1 + inf) = 0), and so may an
    # unscaling; a value that turns non-finite is named below
    with np.errstate(over="ignore", invalid="ignore"):
        state = rollout_start(net, fleet.last_training_window)
        for s in range(steps):
            scaled[s], state = roll_step(net, state)
        positions = unscale(scaled, fleet.scaler)
    for name, table in (("prediction", scaled), ("position", positions)):
        bad = np.argwhere(~np.isfinite(table))
        if len(bad):
            s, z, _ = bad[0].tolist()
            raise NonFiniteActivation(f"vessel {fleet.vessel_ids[z]}: non-finite {name} at rollout step {s + 1}", z)
    return positions


def predict_positions(fleet, target_time: float) -> dict[str, tuple[float, float]]:
    """Every vessel's predicted (lat, lon) at target_time, rolled
    round((target_time - train_end_time) / period) steps, minimum 1."""
    steps = _rollout_steps(fleet, [target_time])[0].tolist()
    table = rollout_positions(fleet, max(steps))
    return {vid: tuple(table[s - 1, z].tolist()) for z, (vid, s) in enumerate(zip(fleet.vessel_ids, steps))}


def _decide(observations: list[AisMessage], predicted: np.ndarray, vessel_ids: list[str], tau: float) -> Decisions:
    """Score N observations against (N, Z, 2) predicted (lat, lon) whose
    columns follow the sorted vessel_ids; the first minimum of each row wins."""
    object_ids, _, _, lat, lon, _, _ = zip(*observations) if observations else ((),) * 7
    obs = np.stack((lat, lon), axis=-1, dtype=np.float64).reshape(-1, 1, 2)
    distances = haversine(obs[..., 0], obs[..., 1], predicted[..., 0], predicted[..., 1])
    best = np.argmin(distances, axis=1)
    winning = distances[np.arange(len(distances)), best]
    assigned = [vessel_ids[z] if d <= tau else NEW_TRACK for z, d in zip(best.tolist(), winning.tolist())]
    return Decisions(list(object_ids), assigned, winning, distances, list(vessel_ids))


def associate(
    observation: AisMessage, predictions: Mapping[str, tuple[float, float]], tau: float = math.inf
) -> Decisions:
    """Assign one observation to the nearest of the predicted (lat, lon)
    positions, keyed by vessel_id, or NEW if the minimum distance exceeds
    tau. Ties go to the smallest vessel_id."""
    if not predictions:
        raise ValueError("predictions must be non-empty")
    vids = sorted(predictions)
    predicted = np.array([[predictions[v] for v in vids]], dtype=np.float64)
    return _decide([observation], predicted, vids, tau)


def associate_batch(observations: list[AisMessage], fleet, tau: float = math.inf) -> Decisions:
    """Associate observations, in any order, against one rollout of the
    fleet (a `fleet.Fleet`); row i of the result is observations[i].

    No exclusivity constraint: many observations may map to one track."""
    steps = _rollout_steps(fleet, [obs.t for obs in observations])
    table = rollout_positions(fleet, int(steps.max(initial=0)))
    predicted = table[steps - 1, np.arange(len(fleet.vessel_ids))]
    return _decide(observations, predicted, fleet.vessel_ids, tau)


def decisions_to_csv(decisions: Decisions) -> str:
    """CSV export: OBJECT_ID, ASSIGNED_VID, WINNING_DISTANCE_KM, DIST_<vid>...
    Each row is one format call; the distances have 17 significant digits,
    which parse back to the exact doubles."""
    header = ["OBJECT_ID", "ASSIGNED_VID", "WINNING_DISTANCE_KM"] + [f"DIST_{v}" for v in decisions.vessel_ids]
    row = "%d,%s" + ",%.17g" * (len(decisions.vessel_ids) + 1)
    rows = zip(
        decisions.object_ids,
        decisions.assigned,
        decisions.winning_distance_km.tolist(),
        decisions.distances_km.tolist(),
    )
    lines = [",".join(header)]
    lines.extend(row % (object_id, assigned, winning, *distances) for object_id, assigned, winning, distances in rows)
    return "\n".join(lines) + "\n"


def decisions_from_csv(text: str) -> list[tuple[int, str]]:
    """Read back (object_id, assigned_vid) pairs from a decisions CSV."""
    return object_id_pairs(text, ("OBJECT_ID", "ASSIGNED_VID"))
