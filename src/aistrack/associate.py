"""Nearest-prediction track association via haversine distance.

`associate_batch` runs the paper's two steps on arrays end to end, against
one `fleet.Fleet` whose Z vessels' networks, scalers and windows are
stacked in vessel_id order:

1. `predict_positions` computes the (N, Z) matrix of rollout steps, time by
   vessel, starts one rollout for the fleet (`lstm.rollout_start`) and
   advances all Z vessels together, one batched `roll_step` per step, up to
   the largest step any time needs. Each step is one cell step per LSTM
   layer on the m windows each vessel has in flight; a stacked matmul
   computes each vessel's slice exactly as a separate call would. The
   (S, Z, 2) table of predictions is unscaled in one expression, and each
   time's Z predictions are gathered from it in one indexing step.
2. `associate` gets the (N, Z) distance matrix from one call of the array
   `haversine`. Each observation goes to the argmin of its row, so ties go
   to the smallest vessel_id, or is a new track when that exceeds tau.

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


def predict_positions(fleet, times: list[float]) -> np.ndarray:
    """(N, Z, 2) (lat, lon) of every vessel at each of N times, from one
    rollout of the fleet: round((time - train_end_time) / period) steps,
    minimum 1, at most MAX_ROLLOUT_STEPS."""
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
    steps = np.maximum(1, steps).astype(np.int64)
    table = rollout_positions(fleet, int(steps.max(initial=0)))
    return table[steps - 1, np.arange(len(fleet.vessel_ids))]


def associate(
    observations: list[AisMessage], predicted: np.ndarray, vessel_ids: list[str], tau: float = math.inf
) -> Decisions:
    """Score N observations against (N, Z, 2) predicted (lat, lon) whose
    columns follow the sorted vessel_ids; the first minimum of each row
    wins, or NEW_TRACK if it exceeds tau."""
    object_ids, _, _, lat, lon, _, _ = zip(*observations) if observations else ((),) * 7
    obs = np.stack((lat, lon), axis=-1, dtype=np.float64).reshape(-1, 1, 2)
    distances = haversine(obs[..., 0], obs[..., 1], predicted[..., 0], predicted[..., 1])
    best = np.argmin(distances, axis=1)
    winning = distances[np.arange(len(distances)), best]
    assigned = [vessel_ids[z] if d <= tau else NEW_TRACK for z, d in zip(best.tolist(), winning.tolist())]
    return Decisions(list(object_ids), assigned, winning, distances, list(vessel_ids))


def associate_batch(observations: list[AisMessage], fleet, tau: float = math.inf) -> Decisions:
    """Associate observations, in any order, with the vessels of the fleet
    (a `fleet.Fleet`): `predict_positions`, then `associate`. Row i of the
    result is observations[i]; many observations may map to one track."""
    predicted = predict_positions(fleet, [obs.t for obs in observations])
    return associate(observations, predicted, fleet.vessel_ids, tau)


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
