"""Geospatial support: geometry literals and Virtuoso-style geo functions.

The paper stores positions as ``geo:geometry`` literals in WKT ``POINT``
form (the representation Virtuoso's ``rdf_geo_fill`` produces) and filters
with ``bif:st_intersects(?g1, ?g2, precision)``. In Virtuoso the third
argument is a distance tolerance; for WGS84 data the unit is kilometers.
We reproduce exactly that: two points "intersect" when their great-circle
(haversine) distance is at most ``precision`` kilometers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple, Union

from ..rdf.terms import Literal, Term

#: Mean Earth radius in kilometers (IUGG value, same as Virtuoso uses).
EARTH_RADIUS_KM = 6371.0

_POINT_RE = re.compile(
    r"^\s*POINT\s*\(\s*([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"\s+([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*\)\s*$",
    re.IGNORECASE,
)


class GeometryError(ValueError):
    """Raised on unparseable geometry literals."""


@dataclass(frozen=True)
class Point:
    """A WGS84 point. WKT order is ``POINT(longitude latitude)``."""

    longitude: float
    latitude: float

    def __post_init__(self) -> None:
        if not -180.0 <= self.longitude <= 180.0:
            raise GeometryError(f"longitude out of range: {self.longitude}")
        if not -90.0 <= self.latitude <= 90.0:
            raise GeometryError(f"latitude out of range: {self.latitude}")

    def wkt(self) -> str:
        return f"POINT({_fmt(self.longitude)} {_fmt(self.latitude)})"

    def to_literal(self) -> Literal:
        """The ``geo:geometry`` literal form used in the store."""
        return Literal(self.wkt())


def _fmt(value: float) -> str:
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


@lru_cache(maxsize=4096)
def _parse_wkt(text: str) -> Point:
    # memoised on the literal text: a corpus has a few thousand distinct
    # geometries and every geo filter, statistics pass and location
    # analysis asks for the same ones again. A raise is not cached.
    match = _POINT_RE.match(text)
    if not match:
        raise GeometryError(f"not a POINT geometry: {text!r}")
    return Point(float(match.group(1)), float(match.group(2)))


def parse_point(value: Union[str, Term, Point]) -> Point:
    """Parse a WKT POINT literal (or pass through a :class:`Point`)."""
    if isinstance(value, Point):
        return value
    return _parse_wkt(str(value))


def try_parse_point(value: Union[str, Term, Point]) -> Optional[Point]:
    """Like :func:`parse_point` but returns ``None`` on failure."""
    try:
        return parse_point(value)
    except GeometryError:
        return None


def haversine_km(a: Point, b: Point) -> float:
    """Great-circle distance between two points in kilometers.

    The spherical Vincenty form: well conditioned at every separation,
    where the haversine's ``asin(sqrt(h))`` loses ~5e-5 km between
    near-antipodal points (the rounding happens in ``h`` itself).
    """
    lat1 = math.radians(a.latitude)
    lat2 = math.radians(b.latitude)
    dlon = math.radians(b.longitude - a.longitude)
    sin1, cos1 = math.sin(lat1), math.cos(lat1)
    sin2, cos2 = math.sin(lat2), math.cos(lat2)
    sin_dlon, cos_dlon = math.sin(dlon), math.cos(dlon)
    return EARTH_RADIUS_KM * math.atan2(
        math.hypot(cos2 * sin_dlon, cos1 * sin2 - sin1 * cos2 * cos_dlon),
        sin1 * sin2 + cos1 * cos2 * cos_dlon,
    )


#: Slack added to a search radius before boxing it, in kilometers: far
#: above the rounding error of :func:`haversine_km` and the ``1e-9``
#: tolerance of :func:`st_intersects`, far below any real radius.
_BOX_SLACK_KM = 1e-6


def bounding_box(
    center: Point, radius_km: float
) -> Optional[Tuple[float, float, float, float]]:
    """``(min_lon, min_lat, max_lon, max_lat)`` holding every point
    within ``radius_km`` of ``center``, or ``None`` when no plain
    latitude/longitude box does.

    A point at great-circle distance ``d`` is at most ``d / R`` radians
    of latitude away and — as long as the circle keeps clear of the
    poles — at most ``asin(sin(d / R) / cos(lat))`` of longitude. The
    box is therefore a superset of the circle; ``None`` covers the
    cases where that argument does not hold or the box would wrap: a
    negative (or NaN) radius, a circle reaching a pole (any radius of a
    quarter circumference or more does), a box crossing the
    antimeridian.
    """
    if not radius_km >= 0.0:
        return None
    angular = (radius_km + _BOX_SLACK_KM) / EARTH_RADIUS_KM
    dlat = math.degrees(angular)
    min_lat = center.latitude - dlat
    max_lat = center.latitude + dlat
    if min_lat <= -90.0 or max_lat >= 90.0:
        return None
    dlon = math.degrees(math.asin(min(
        1.0, math.sin(angular) / math.cos(math.radians(center.latitude))
    )))
    min_lon = center.longitude - dlon
    max_lon = center.longitude + dlon
    if min_lon < -180.0 or max_lon > 180.0:
        return None
    return min_lon, min_lat, max_lon, max_lat


def st_distance(
    a: Union[str, Term, Point], b: Union[str, Term, Point]
) -> float:
    """``bif:st_distance`` — distance in kilometers."""
    return haversine_km(parse_point(a), parse_point(b))


def st_intersects(
    a: Union[str, Term, Point],
    b: Union[str, Term, Point],
    precision_km: float = 0.0,
) -> bool:
    """``bif:st_intersects`` — true when within ``precision_km`` kilometers.

    With the default precision of 0 only (numerically) identical points
    intersect, matching Virtuoso's point/point semantics.
    """
    return st_distance(a, b) <= float(precision_km) + 1e-9


def st_point(longitude: float, latitude: float) -> Literal:
    """``bif:st_point`` — build a geometry literal from coordinates."""
    return Point(float(longitude), float(latitude)).to_literal()
