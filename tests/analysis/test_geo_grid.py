"""The spatial grid of ``GraphStatistics``: what a probe may skip, and
that commits carry it exactly.

Two properties hold the access path up. The candidates of a probe are
a *superset* of the points ``bif:st_intersects`` accepts (the executor
still filters them exactly, so a superset is all it needs), for any
centre — poles and the antimeridian included — and any radius. And the
grid a store carries from commit to commit in O(delta) is the grid a
from-scratch collection over the new head would build.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import GraphStatistics
from repro.rdf import GEO, Graph, Literal, RDFS, URIRef
from repro.sparql.geo import (
    Point,
    bounding_box,
    haversine_km,
    st_intersects,
)
from repro.store import QuadStore
from repro.store.engine import current_view

EX = "http://example.org/"


def ex(name):
    return URIRef(EX + str(name))


# ---------------------------------------------------------------------------
# (a) candidates ⊇ the circle
# ---------------------------------------------------------------------------

LONGITUDES = st.one_of(
    st.floats(min_value=-180.0, max_value=180.0),
    st.sampled_from([-180.0, 180.0, 179.9999, -179.9999, 0.0]),
    st.floats(min_value=7.6, max_value=7.8),
)
LATITUDES = st.one_of(
    st.floats(min_value=-90.0, max_value=90.0),
    st.sampled_from([-90.0, 90.0, 89.5, -89.5, 89.99, 0.0]),
    st.floats(min_value=45.0, max_value=45.1),
)
POINTS = st.builds(Point, LONGITUDES, LATITUDES)
RADII = st.one_of(
    st.sampled_from([0.0, 1e-6, 0.3, 1.0, 1000.0, 10007.0, 10008.0, -1.0]),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=-5.0, max_value=25000.0),
)


def graph_of(points):
    graph = Graph()
    for index, point in enumerate(points):
        graph.add((ex(index), GEO.geometry, point.to_literal()))
    return graph


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(POINTS, max_size=12),
    center=POINTS,
    radius=RADII,
    near=st.lists(
        st.tuples(
            st.floats(min_value=-0.02, max_value=0.02),
            st.floats(min_value=-0.02, max_value=0.02),
        ),
        max_size=6,
    ),
)
def test_candidates_cover_the_circle(points, center, radius, near):
    # points scattered over the globe, duplicates of the centre, and
    # points a few cells around it (where the cut-off actually falls)
    points = points + [center, center]
    for dlon, dlat in near:
        lon, lat = center.longitude + dlon, center.latitude + dlat
        if -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0:
            points.append(Point(lon, lat))
    graph = graph_of(points)
    stats = GraphStatistics.collect(graph)
    inside = {
        (s, o)
        for s, _, o in graph.triples((None, GEO.geometry, None))
        if st_intersects(center, o, radius)
    }
    candidates = stats.geo_candidates(center, radius)
    if candidates is None:
        return  # no bounding box: the executor scans every geometry
    assert inside <= {(s, o) for s, o, _, _ in candidates}
    # and they are the box's, not the whole cells the box touches
    min_lon, min_lat, max_lon, max_lat = bounding_box(center, radius)
    assert all(
        min_lon <= lon <= max_lon and min_lat <= lat <= max_lat
        for _, _, lon, lat in candidates
    )


@settings(max_examples=200, deadline=None)
@given(
    center=st.builds(
        Point,
        st.sampled_from([-180.0, -179.995, 179.995, 180.0, 7.6934]),
        st.one_of(
            st.floats(min_value=89.0, max_value=90.0),
            st.floats(min_value=-90.0, max_value=-89.0),
            st.just(45.0692),
        ),
    ),
    radius=st.sampled_from([0.0, 1e-9, 1e-4, 0.3, 1000.0]),
    offsets=st.lists(
        st.tuples(
            st.floats(min_value=-1.0, max_value=1.0),
            st.floats(min_value=-1.0, max_value=1.0),
            st.sampled_from([0.0, 1e-7, 1e-3, 0.5, 15.0]),
        ),
        max_size=10,
    ),
)
def test_trimmed_candidates_cover_the_circle_at_the_edges(
    center, radius, offsets
):
    # near the poles, on the antimeridian, radius zero / tiny / 1 000 km:
    # where a box trimmed too eagerly would lose a match. Points sit on
    # the centre, a hair off it, and out to ~15 degrees away.
    points = [center]
    for dlon, dlat, scale in offsets:
        lon = center.longitude + dlon * scale
        lat = center.latitude + dlat * scale
        if -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0:
            points.append(Point(lon, lat))
    graph = graph_of(points)
    candidates = GraphStatistics.collect(graph).geo_candidates(
        center, radius
    )
    if candidates is None:
        return
    inside = {
        (s, o)
        for s, _, o in graph.triples((None, GEO.geometry, None))
        if st_intersects(center, o, radius)
    }
    assert inside <= {(s, o) for s, o, _, _ in candidates}


@settings(max_examples=300, deadline=None)
@given(
    center=POINTS,
    radius=RADII,
    other=POINTS,
    scale=st.floats(min_value=0.0, max_value=1.5),
)
def test_bounding_box_holds_every_point_in_range(
    center, radius, other, scale
):
    box = bounding_box(center, radius)
    if box is None:
        return
    # pull ``other`` towards the centre until it is about a radius
    # away, so that most examples fall on either side of the cut-off
    distance = haversine_km(center, other)
    if distance > 0.0:
        pull = min(1.0, scale * radius / distance)
        other = Point(
            center.longitude + (other.longitude - center.longitude) * pull,
            center.latitude + (other.latitude - center.latitude) * pull,
        )
    if haversine_km(center, other) > radius + 1e-9:
        return
    min_lon, min_lat, max_lon, max_lat = box
    assert min_lon <= other.longitude <= max_lon
    assert min_lat <= other.latitude <= max_lat


def test_no_box_where_a_plain_one_would_be_wrong():
    turin = Point(7.6934, 45.0692)
    assert bounding_box(turin, 0.3) is not None
    assert bounding_box(turin, -0.1) is None
    assert bounding_box(turin, float("nan")) is None
    assert bounding_box(turin, 10_008.0) is None  # quarter circumference
    assert bounding_box(Point(10.0, 89.999), 1.0) is None  # over the pole
    assert bounding_box(Point(179.999, 0.0), 1.0) is None  # antimeridian
    assert bounding_box(Point(-179.999, 0.0), 1.0) is None


def test_wide_probe_walks_the_occupied_cells_only():
    graph = graph_of([Point(7.69, 45.07), Point(7.70, 45.06)])
    stats = GraphStatistics.collect(graph)
    # a 1 000 km box covers ~10^6 cells; two are occupied
    found = stats.geo_candidates(Point(7.69, 45.07), 1000.0)
    assert len(found) == 2


def test_what_the_filter_rejects_is_not_indexed():
    graph = graph_of([Point(7.69, 45.07)])
    graph.add((ex("a"), GEO.geometry, Literal("somewhere")))
    graph.add((ex("b"), GEO.geometry, Literal("POINT(200 95)")))
    graph.add((ex("c"), GEO.geometry, ex("not-a-geometry")))
    stats = GraphStatistics.collect(graph)
    assert stats.geo_points == 1
    assert [len(cell) for cell in stats.geo_grid.values()] == [1]


# ---------------------------------------------------------------------------
# (b) the carried grid is the collected grid
# ---------------------------------------------------------------------------

_GEOMETRIES = [
    Literal("POINT(7.6934 45.0692)"),
    Literal("POINT(7.693 45.069)"),   # same cell as the first
    Literal("POINT(7.65 45.03)"),
    Literal("POINT(2.2945 48.8584)"),  # the far corner of the bbox
    Literal("POINT(-0.1276 51.5072)"),
    Literal("somewhere"),              # not a geometry
]
_CONTEXTS = [None, URIRef("http://graphs/a"), URIRef("http://graphs/b")]

OPS = st.lists(
    st.tuples(
        st.booleans(),                       # add / remove
        st.integers(min_value=0, max_value=3),   # subject
        st.sampled_from(_GEOMETRIES),
        st.sampled_from(_CONTEXTS),
    ),
    min_size=1, max_size=6,
)


def normalized(stats):
    return {
        cell: sorted(
            (str(s), str(o), lon, lat) for s, o, lon, lat in entries
        )
        for cell, entries in stats.geo_grid.items()
    }


def carried_stats(store):
    """The statistics the store's head carries (none collected)."""
    return current_view(store.head(), GraphStatistics)


def assert_carried_equals_collected(store):
    carried = carried_stats(store)
    assert carried is not None, "the head carries no statistics"
    fresh = GraphStatistics.collect(store.head())
    assert normalized(carried) == normalized(fresh)
    assert carried.geo_points == fresh.geo_points
    assert carried.bbox == fresh.bbox
    assert all(carried.geo_grid.values()), "an emptied cell was kept"


@settings(max_examples=120, deadline=None)
@given(commits=st.lists(OPS, min_size=1, max_size=8))
def test_grid_carried_through_commits_equals_a_fresh_collect(commits):
    store = QuadStore()
    store.insert((ex("seed"), RDFS.label, Literal("seed")))
    store.statistics()  # from here on every commit carries them
    for ops in commits:
        batch = store.batch()
        for add, subject, geometry, context in ops:
            triple = (ex(subject), GEO.geometry, geometry)
            if add:
                batch.insert(triple, context)
            else:
                batch.remove(triple, context)
        store.commit(batch)
        assert_carried_equals_collected(store)


def test_a_geometry_in_two_contexts_is_one_entry_until_both_are_gone():
    store = QuadStore()
    triple = (ex("pic"), GEO.geometry, _GEOMETRIES[0])
    store.insert((ex("seed"), RDFS.label, Literal("seed")))
    store.statistics()
    store.insert(triple, _CONTEXTS[1])
    store.insert(triple, _CONTEXTS[2])
    assert carried_stats(store).geo_points == 1
    assert_carried_equals_collected(store)
    store.remove(triple, _CONTEXTS[1])
    assert carried_stats(store).geo_points == 1
    assert_carried_equals_collected(store)
    store.remove(triple, _CONTEXTS[2])
    assert carried_stats(store).geo_points == 0
    assert carried_stats(store).geo_grid == {}
    assert carried_stats(store).bbox is None


def test_removing_a_boundary_point_recomputes_the_bbox_from_the_grid():
    store = QuadStore()
    for index, geometry in enumerate(_GEOMETRIES[:5]):
        store.insert((ex(index), GEO.geometry, geometry))
    store.statistics()
    store.remove((ex(4), GEO.geometry, _GEOMETRIES[4]))  # northernmost
    assert_carried_equals_collected(store)
    assert carried_stats(store).bbox[3] == 48.8584


def test_a_commit_rewrites_only_the_cells_it_touches():
    store = QuadStore()
    for index, geometry in enumerate(_GEOMETRIES[:5]):
        store.insert((ex(index), GEO.geometry, geometry))
    before = store.statistics()
    store.insert((ex("new"), GEO.geometry, Literal("POINT(7.6931 45.0691)")))
    after = carried_stats(store)
    rewritten = [
        cell for cell, entries in after.geo_grid.items()
        if entries is not before.geo_grid.get(cell)
    ]
    assert len(rewritten) == 1
    assert len(after.geo_grid[rewritten[0]]) == 3
    # a commit without a geometry triple shares the whole grid
    store.insert((ex("new"), RDFS.label, Literal("new")))
    assert carried_stats(store).geo_grid is after.geo_grid
