"""Geometry and geo-function tests."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.sparql.geo import (
    EARTH_RADIUS_KM,
    GeometryError,
    Point,
    haversine_km,
    parse_point,
    st_distance,
    st_intersects,
    st_point,
    try_parse_point,
)

# Landmarks used throughout the paper's scenario (Turin).
MOLE = Point(7.6934, 45.0692)  # Mole Antonelliana
PORTA_NUOVA = Point(7.6778, 45.0625)  # ~1.4 km from the Mole
ROME = Point(12.4964, 41.9028)


class TestPoint:
    def test_wkt_roundtrip(self):
        assert parse_point(MOLE.wkt()) == MOLE

    def test_wkt_format(self):
        assert Point(7.5, 45.0).wkt() == "POINT(7.5 45)"

    def test_literal(self):
        lit = MOLE.to_literal()
        assert lit.lexical.startswith("POINT(")

    def test_case_insensitive_parse(self):
        assert parse_point("point(7.0 45.0)") == Point(7.0, 45.0)

    def test_whitespace_tolerant(self):
        assert parse_point("  POINT( 7.0   45.0 ) ") == Point(7.0, 45.0)

    def test_negative_coordinates(self):
        p = parse_point("POINT(-73.98 40.75)")
        assert p.longitude == -73.98

    def test_invalid_text(self):
        with pytest.raises(GeometryError):
            parse_point("LINESTRING(0 0, 1 1)")

    def test_longitude_range(self):
        with pytest.raises(GeometryError):
            Point(181.0, 0.0)

    def test_latitude_range(self):
        with pytest.raises(GeometryError):
            Point(0.0, -91.0)

    def test_try_parse_returns_none(self):
        assert try_parse_point("garbage") is None
        assert try_parse_point(MOLE.wkt()) == MOLE


class TestDistance:
    def test_zero_distance(self):
        assert haversine_km(MOLE, MOLE) == 0.0

    def test_symmetry(self):
        assert haversine_km(MOLE, ROME) == pytest.approx(
            haversine_km(ROME, MOLE)
        )

    def test_known_distance_turin_rome(self):
        # Turin–Rome is roughly 525 km great-circle
        assert haversine_km(MOLE, ROME) == pytest.approx(524, abs=15)

    def test_short_distance(self):
        # Mole → Porta Nuova is roughly 1.4 km
        assert haversine_km(MOLE, PORTA_NUOVA) == pytest.approx(1.4, abs=0.2)

    def test_st_distance_accepts_wkt_strings(self):
        assert st_distance(MOLE.wkt(), ROME.wkt()) > 500

    def test_antipodal_bounded_by_half_circumference(self):
        a = Point(0.0, 0.0)
        b = Point(180.0, 0.0)
        assert haversine_km(a, b) == pytest.approx(
            math.pi * EARTH_RADIUS_KM, rel=1e-6
        )


class TestStIntersects:
    def test_same_point_with_zero_precision(self):
        assert st_intersects(MOLE, MOLE, 0.0)

    def test_nearby_within_precision(self):
        # the paper's 0.3 precision: Porta Nuova is NOT within 0.3 km
        assert not st_intersects(MOLE, PORTA_NUOVA, 0.3)
        assert st_intersects(MOLE, PORTA_NUOVA, 2.0)

    def test_paper_radius_semantics(self):
        near = Point(7.6930, 45.0690)  # a few tens of meters from the Mole
        assert st_intersects(MOLE, near, 0.3)

    def test_wkt_string_inputs(self):
        assert st_intersects("POINT(7.0 45.0)", "POINT(7.0 45.0)", 0)

    def test_st_point_builds_literal(self):
        lit = st_point(7.6934, 45.0692)
        assert parse_point(lit) == MOLE


coords = st.tuples(
    st.floats(min_value=-180, max_value=180, allow_nan=False),
    st.floats(min_value=-90, max_value=90, allow_nan=False),
)


@given(coords)
def test_wkt_roundtrip_property(coord):
    p = Point(*coord)
    q = parse_point(p.wkt())
    assert abs(q.longitude - p.longitude) < 1e-5
    assert abs(q.latitude - p.latitude) < 1e-5


@given(coords, coords)
def test_distance_nonnegative_and_symmetric(c1, c2):
    a, b = Point(*c1), Point(*c2)
    d = haversine_km(a, b)
    assert d >= 0
    assert d == pytest.approx(haversine_km(b, a), abs=1e-9)


@given(coords, coords, coords)
# near-antipodal: the haversine form lost ~4.5e-5 km on a-c here
@example(
    (-38.56581686254572, -42.98581198841837),
    (69.98890834410909, -40.837680560822804),
    (141.43417995002883, 42.98581037023453),
)
def test_triangle_inequality(c1, c2, c3):
    a, b, c = Point(*c1), Point(*c2), Point(*c3)
    assert haversine_km(a, c) <= (
        haversine_km(a, b) + haversine_km(b, c) + 1e-6
    )
