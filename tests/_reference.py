"""Test-only reference predictors for a vessel's held-out positions.

The baselines the LSTM's rollout is measured against, the way `_geodesic`
is the oracle for haversine: a vessel that stays at its last training
position, and one that keeps the mean per-step (lat, lon) displacement of
its last training window. Each reads only what the rollout reads, a model
bundle's last training window and scaler, and returns the (steps, 2)
(lat, lon) it predicts for 1 through `steps` periods past the train end.
"""

import numpy as np

from aistrack.associate import haversine
from aistrack.preprocess import unscale


def _window_positions(bundle) -> np.ndarray:
    """(m, 2) unscaled (lat, lon) of the bundle's last training window."""
    return unscale(bundle.last_training_window[:, :2], bundle.scaler)


def stay_put(bundle, steps: int) -> np.ndarray:
    return np.repeat(_window_positions(bundle)[-1:], steps, axis=0)


def constant_velocity(bundle, steps: int) -> np.ndarray:
    window = _window_positions(bundle)
    velocity = (window[-1] - window[0]) / max(1, len(window) - 1)
    return window[-1] + np.arange(1, steps + 1)[:, None] * velocity


REFERENCES = {"constant velocity": constant_velocity, "stay put": stay_put}


def error_ratios(bundles, observations, lstm_km, at_steps) -> dict[str, list[float]]:
    """For each reference, the LSTM's mean error over the observations at
    each rollout step of `at_steps`, divided by the reference's.
    observations[i] is a held-out message whose vessel_id is its true
    vessel, and lstm_km[i] its distance to that vessel's LSTM prediction."""
    by_vid = {b.vessel_id: b for b in bundles}
    steps = np.array([max(1, round((m.t - by_vid[m.vessel_id].train_end_time) / by_vid[m.vessel_id].period))
                      for m in observations])
    lstm_km = np.asarray(lstm_km, dtype=np.float64)
    ratios = {}
    for name, predict in REFERENCES.items():
        paths = {b.vessel_id: predict(b, int(steps.max())) for b in bundles}
        ref = np.array([paths[m.vessel_id][s - 1] for m, s in zip(observations, steps)])
        ref_km = haversine([m.lat for m in observations], [m.lon for m in observations], ref[:, 0], ref[:, 1])
        ratios[name] = [float(lstm_km[steps == s].mean() / ref_km[steps == s].mean()) for s in at_steps]
    return ratios
