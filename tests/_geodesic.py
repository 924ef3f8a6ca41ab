"""Scalar great-circle distance in plain `math`, one pair at a time.

The independent oracle that `aistrack.associate.haversine` (array-shaped,
numpy) is checked against, within the bound that `RTOL` and `atol(r)`
state: numpy's `v ** 2` and `arcsin` may round differently from libm's
`pow` and `asin`.
"""

import math
from typing import NamedTuple

from aistrack.associate import EARTH_RADIUS_KM

# Relative part of the bound: a few ulp, as each of the squares and the
# arcsine may differ by about one ulp between numpy and libm.
RTOL = 4 * 2.0**-52


def atol(r: float = EARTH_RADIUS_KM) -> float:
    """Absolute part of the bound for radius r. Near antipodal points the
    haversine term a is close to 1, where asin(sqrt(a)) is ill-conditioned:
    a change of k ulp in a moves 2 r asin(sqrt(a)) by up to 2 r sqrt(k eps)."""
    return 2 * r * math.sqrt(RTOL)


class GeoPoint(NamedTuple):
    lat: float
    lon: float


def haversine(p: GeoPoint, q: GeoPoint, r: float = EARTH_RADIUS_KM) -> float:
    """Great-circle distance in km (radius r) between two lat/lon points."""
    phi1, phi2 = math.radians(p.lat), math.radians(q.lat)
    dphi = phi2 - phi1
    dlam = math.radians(q.lon - p.lon)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * r * math.asin(min(1.0, math.sqrt(a)))
