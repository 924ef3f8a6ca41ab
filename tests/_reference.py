"""Test-only reference predictors for a vessel's held-out positions.

The baselines the LSTM's rollout is measured against, the way `_geodesic`
is the oracle for haversine: a vessel that stays at its last training
position, and one that keeps the mean per-step (lat, lon) displacement of
its last training window. Each reads only what the rollout reads, a
vessel's last training window and scaler in a `fleet.Fleet`, and returns
the (steps, 2) (lat, lon) it predicts for 1 through `steps` periods past
the train end.
"""

import numpy as np

from aistrack.associate import haversine
from aistrack.preprocess import unscale


def stay_put(window: np.ndarray, steps: int) -> np.ndarray:
    return np.repeat(window[-1:], steps, axis=0)


def constant_velocity(window: np.ndarray, steps: int) -> np.ndarray:
    velocity = (window[-1] - window[0]) / max(1, len(window) - 1)
    return window[-1] + np.arange(1, steps + 1)[:, None] * velocity


REFERENCES = {"constant velocity": constant_velocity, "stay put": stay_put}


def error_ratios(fleet, observations, lstm_km, at_steps) -> dict[str, list[float]]:
    """For each reference, the LSTM's mean error over the observations at
    each rollout step of `at_steps`, divided by the reference's.
    observations[i] is a held-out message whose vessel_id is its true
    vessel, and lstm_km[i] its distance to that vessel's LSTM prediction."""
    z_of = {vid: z for z, vid in enumerate(fleet.vessel_ids)}
    zs = [z_of[m.vessel_id] for m in observations]
    ends, periods = fleet.train_end_time.tolist(), fleet.period.tolist()
    steps = np.array([max(1, round((m.t - ends[z]) / periods[z])) for m, z in zip(observations, zs)])
    # (m, Z, 2) unscaled (lat, lon) of each vessel's last training window
    windows = unscale(np.moveaxis(fleet.last_training_window[..., :2], 1, 0), fleet.scaler)
    lstm_km = np.asarray(lstm_km, dtype=np.float64)
    ratios = {}
    for name, predict in REFERENCES.items():
        paths = [predict(windows[:, z], int(steps.max())) for z in range(len(fleet.vessel_ids))]
        ref = np.array([paths[z][s - 1] for z, s in zip(zs, steps)])
        ref_km = haversine([m.lat for m in observations], [m.lon for m in observations], ref[:, 0], ref[:, 1])
        ratios[name] = [float(lstm_km[steps == s].mean() / ref_km[steps == s].mean()) for s in at_steps]
    return ratios
