"""Scalar great-circle distance in plain `math`, one pair at a time.

The independent oracle that `aistrack.associate.haversine` (array-shaped)
is checked against, bit for bit.
"""

import math
from typing import NamedTuple

from aistrack.associate import EARTH_RADIUS_KM


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
