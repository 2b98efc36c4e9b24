"""Grid probes answered once per store generation.

A probed scan (``?s geo:geometry ?o`` under ``bif:st_intersects``)
keeps what a probe found on the statistics snapshot it read
(``GraphStatistics.probe_memo``): per (centre, radius, argument order)
the candidate count the join decision reads and the exact hits. A
solution that reads the triple index instead — its subject bound, the
centre holding more candidates than solutions ask — has the exact
filter's outcome kept per geometry (``GraphStatistics.probe_outcomes``).
A commit publishes a new snapshot with both empty, so the property
that holds them up is "same generation, same grid": after any commit,
every query gives the rows it gives on a cold memo, on a warm one and
as the unrewritten reference plan (``optimize=False``).
"""

import math
import threading

from hypothesis import given, settings, strategies as st

from repro.analysis import GraphStatistics
from repro.core import geo_album, rated_album, social_album
from repro.core.mashup import mashup_query
from repro.obs import MetricsRegistry, set_registry
from repro.rdf import (
    COMM, DBPO, FOAF, GEO, LGDO, Literal, RDF, RDFS, REV, SIOCT, URIRef,
)
from repro.rdf.namespace import TL_PID
from repro.sparql import Evaluator
from repro.sparql import functions as functions_module
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import FUNCTIONS, ebv
from repro.sparql.geo import (
    EARTH_RADIUS_KM, Point, st_intersects, try_parse_point,
)
from repro.store import QuadStore
from repro.store.engine import current_view

from .executor_cases import normalize

EX = "http://example.org/memo/"
MOLE = Point(7.6934, 45.0692)
#: The monument's second geometry, half a kilometre east: Q1–Q3 ask
#: the grid about two centres.
ANNEX = Point(7.6998, 45.0692)
#: Where picture 0 — the one M1 is about — was taken.
TAKEN = Point(7.6870, 45.0710)
CENTRES = (MOLE, ANNEX, TAKEN)
RADII = (0.0, 0.2, 1.0)
#: Subjects commits give (and take) geometries: pictures, the places
#: M1 shows, the monument.
PICTURES = 6
PLACES = ("city", "restaurant", "tourism")
#: Distances from a centre new geometries land at: on it, inside, on
#: the edge of each probed circle (Q1–Q3 ask 0.3 km) and just outside.
DISTANCES = (0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.0001, 2.5)
#: Subjects of the join-path query: more than a probe has candidates.
TAGGED = 40
DECOYS = 200
#: Where a crowded store puts its decoys' geometries: so many around
#: each centre that a probed scan whose subject a few solutions bind
#: (M1's branches, the drawn ``dbpo:Place`` BGPs) reads the triple
#: index instead of the grid.
CROWD_KM = (0.05, 0.15, 0.25, 0.4, 0.7, 0.95)


def ex(name):
    return URIRef(EX + str(name))


def picture(index):
    return URIRef(TL_PID[str(index)])


def subjects():
    return [picture(i) for i in range(PICTURES)] + [
        ex(place) for place in PLACES
    ] + [ex("mole")]


def destination(centre, km, bearing_deg):
    """The point ``km`` from ``centre`` along ``bearing_deg``."""
    angular = km / EARTH_RADIUS_KM
    bearing = math.radians(bearing_deg)
    lat1 = math.radians(centre.latitude)
    lon1 = math.radians(centre.longitude)
    lat2 = math.asin(
        math.sin(lat1) * math.cos(angular)
        + math.cos(lat1) * math.sin(angular) * math.cos(bearing)
    )
    lon2 = lon1 + math.atan2(
        math.sin(bearing) * math.sin(angular) * math.cos(lat1),
        math.cos(angular) - math.sin(lat1) * math.sin(lat2),
    )
    return Point(math.degrees(lon2), math.degrees(lat2))


def base_store(crowded=False):
    """A store holding what Q1–Q3 and M1 read, its statistics
    collected so every later commit carries them. ``crowded`` gives
    the decoys geometries around every centre, and M1's places and a
    second picture one each near picture 0: each of M1's probed scans
    — all four branches have a row — and a drawn
    BGP's joined on ``dbpo:Place``, then takes the index path."""
    store = QuadStore()
    mole = ex("mole")
    triples = [
        (mole, RDFS.label, Literal("Mole Antonelliana", lang="it")),
        (mole, GEO.geometry, MOLE.to_literal()),
        (mole, GEO.geometry, ANNEX.to_literal()),
        (picture(0), GEO.geometry, TAKEN.to_literal()),
    ]
    for name in ("walter", "ada", "bob"):
        triples.append((ex(name), FOAF.name, Literal(name)))
    triples += [
        (ex("ada"), FOAF.knows, ex("walter")),
        (ex("bob"), FOAF.knows, ex("walter")),
    ]
    for i in range(PICTURES):
        triples += [
            (picture(i), RDF.type, SIOCT.MicroblogPost),
            (picture(i), COMM["image-data"], ex(f"img{i}.jpg")),
            (picture(i), FOAF.maker, ex(("ada", "bob", "walter")[i % 3])),
            (picture(i), REV.rating, Literal(i % 4)),
            (picture(i), RDFS.label, Literal(f"picture {i}")),
            (picture(i), ex("tag"), ex("near")),
        ]
    for place, cls in zip(PLACES, (LGDO.City, LGDO.Restaurant,
                                   LGDO.Tourism)):
        triples += [
            (ex(place), RDF.type, cls),
            (ex(place), RDF.type, DBPO.Place),
            (ex(place), RDFS.label, Literal(place.title(), lang="it")),
            (ex(place), DBPO.abstract, Literal(f"{place}", lang="it")),
        ]
    # tagged subjects far away: the join path's solutions outnumber
    # what any probe here has for candidates; decoy tags make the
    # planner expect ~1 subject per tag, so it binds ?s first
    for i in range(TAGGED):
        far = ex(f"far{i}")
        triples += [
            (far, ex("tag"), ex("near")),
            (far, GEO.geometry,
             Point(8.5 + i * 0.01, 46.0).to_literal()),
        ]
    for i in range(DECOYS):
        triples.append((ex(f"decoy{i}"), ex("tag"), ex(f"tag{i}")))
        if crowded:
            triples.append((ex(f"decoy{i}"), GEO.geometry, destination(
                CENTRES[i % len(CENTRES)], CROWD_KM[i % len(CROWD_KM)],
                i * 37 % 360,
            ).to_literal()))
    if crowded:
        triples += [
            (subject, GEO.geometry,
             destination(TAKEN, 0.15, 90 * i).to_literal())
            for i, subject in enumerate(
                [ex(place) for place in PLACES] + [picture(1)]
            )
        ]
    store.commit(store.batch().add_all(triples))
    GraphStatistics.cached(store.head())
    return store


def statistics_of(store):
    stats = current_view(store.head(), GraphStatistics)
    assert stats is not None, "the head carries no statistics"
    return stats


def memo_of(store):
    return statistics_of(store).probe_memo


def drawn_bgp(centre, radius, geometry_first, variable_centre, joined):
    """``?s geo:geometry ?o`` under ``bif:st_intersects`` around one
    of :data:`CENTRES`: a constant centre or one a scan binds, either
    argument order, optionally with ``?s`` bound first — by the 46
    tagged subjects (the join path) or, ``joined == "place"``, by the
    three places (the index path in a crowded store)."""
    where = []
    if variable_centre:
        where.append(
            f"<{picture(0)}> geo:geometry ?c ." if centre is TAKEN
            else f"<{ex('mole')}> geo:geometry ?c ."
        )
        term = "?c"
    else:
        term = centre.to_literal().n3()
    if joined == "place":
        where.append(f"?s a <{DBPO.Place}> .")
    elif joined:
        where.append(f"?s <{ex('tag')}> <{ex('near')}> .")
    where.append("?s geo:geometry ?o .")
    args = ("?o", term) if geometry_first else (term, "?o")
    where.append(
        f"FILTER(bif:st_intersects({args[0]}, {args[1]}, {radius}))"
    )
    return (
        "PREFIX geo: <http://www.w3.org/2003/01/geo/wgs84_pos#> "
        "SELECT * WHERE { " + " ".join(where) + " }"
    )


def paper_queries():
    """Q1–Q3 and M1 (M1 with a limit no branch reaches, so any plan
    returns every row)."""
    return [
        geo_album().query,
        social_album(friend_of="walter").query,
        rated_album(friend_of="walter").query,
        mashup_query(0, per_branch_limit=100),
    ]


JOINS = (False, True, "place")

BGPS = st.builds(
    drawn_bgp,
    st.sampled_from(CENTRES),
    st.sampled_from(RADII),
    st.booleans(),
    st.booleans(),
    st.sampled_from(JOINS),
)


def forget(store):
    """Forget what the head's statistics have answered: the next ask
    is the first of a fresh generation."""
    stats = statistics_of(store)
    stats.probe_memo.clear()
    stats.probe_outcomes.clear()


def assert_cold_warm_reference(store, text):
    forget(store)
    cold = Evaluator(store).evaluate(text)
    warm = Evaluator(store).evaluate(text)
    assert list(warm) == list(cold), text
    reference = Evaluator(store, optimize=False).evaluate(text)
    assert normalize(cold) == normalize(reference), text


def paths_taken(run):
    """The access paths probed scans took while ``run()`` ran."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        run()
    finally:
        set_registry(previous)
    family = registry.get("repro_geo_probe_total")
    if family is None:
        return set()
    return {labels["path"] for labels, _ in family.children()}


def recomputed(centre, radius, geometry_first, geometry):
    """``bif:st_intersects`` of ``geometry`` and ``centre`` in the
    probe's argument order, an error counted as false."""
    ends = [geometry, centre] if geometry_first else [centre, geometry]
    try:
        return ebv(FUNCTIONS["bif:st_intersects"]([*ends, Literal(radius)]))
    except ExpressionError:
        return False


def assert_memo_is_exact(stats):
    """Every memo entry is the candidate count and the exact hits among
    the grid's candidates, in grid order — never the candidates — and
    every outcome the index path kept is the exact filter's."""
    for key, passed in stats.probe_outcomes.items():
        assert passed is recomputed(*key), key
    for (centre, radius, first), (count, pairs) in stats.probe_memo.items():
        point = try_parse_point(centre)
        candidates = (
            stats.geo_candidates(point, radius) if point else None
        )
        assert count == (None if candidates is None else len(candidates))
        if pairs is not None:
            assert pairs == tuple(
                (subject, geometry)
                for subject, geometry, _, _ in candidates
                if recomputed(centre, radius, first, geometry)
            )


# ---------------------------------------------------------------------------
# same generation, same grid: cold == warm == reference after any commit
# ---------------------------------------------------------------------------

GEOMETRY_OPS = st.lists(
    st.tuples(
        st.booleans(),  # add (else remove)
        st.sampled_from(subjects()),
        st.sampled_from(CENTRES),
        st.sampled_from(DISTANCES),
        st.sampled_from((0, 90, 180, 270, 45)),
    ),
    min_size=1, max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(
    commits=st.lists(GEOMETRY_OPS, min_size=1, max_size=5),
    bgps=st.lists(BGPS, min_size=1, max_size=4),
    crowded=st.booleans(),
)
def test_rows_are_the_same_cold_warm_and_unrewritten(commits, bgps, crowded):
    store = base_store(crowded)
    queries = paper_queries() + bgps
    for ops in commits:
        batch = store.batch()
        head = store.head()
        for add, subject, centre, km, bearing in ops:
            if add:
                geometry = destination(centre, km, bearing).to_literal()
                batch.insert((subject, GEO.geometry, geometry))
            else:
                for triple in head.triples((subject, GEO.geometry, None)):
                    batch.remove(triple)
        if store.commit(batch) != head.generation:
            # a new generation starts with nothing answered
            assert memo_of(store) == {}
            assert statistics_of(store).probe_outcomes == {}
        # in order, the queries sharing what the first asks left
        first = [Evaluator(store).evaluate(text) for text in queries]
        for text, rows in zip(queries, first):
            reference = Evaluator(store, optimize=False).evaluate(text)
            assert normalize(rows) == normalize(reference), text
        assert_memo_is_exact(statistics_of(store))
        for text in queries:
            assert_cold_warm_reference(store, text)
        # M1 as the About screen asks it: its LIMIT 5 picks the same
        # rows warm as cold
        m1 = mashup_query(0)
        forget(store)
        cold = Evaluator(store).evaluate(m1)
        assert list(Evaluator(store).evaluate(m1)) == list(cold)


#: The radii the drawn BGPs, Q1–Q3 (0.3 km) and M1's branches ask.
EDGE_RADII = (0.0, 0.2, 0.3, 1.0)
#: How far past a radius an edge geometry lands, in kilometres: the
#: exact test's own tolerance either way, and on the circle.
EDGE_OFFSETS = (-1e-9, 0.0, 1e-9)
#: Geometries no point parses from: a polygon, a plain string, an IRI.
NOT_POINTS = (
    Literal("POLYGON((7.69 45.06, 7.70 45.06, 7.70 45.07, 7.69 45.06))"),
    Literal("at the Mole"),
    ex("somewhere"),
)


def edge_point(centre, radius, offset, bearing):
    """A WKT point ``radius + offset`` km from ``centre``, written with
    every digit (``Point.wkt`` rounds to 6 decimals, ~0.1 m)."""
    point = destination(centre, max(radius + offset, 0.0), bearing)
    return Literal(f"POINT({point.longitude!r} {point.latitude!r})")


def order_deciding_point(centre, radius):
    """A WKT point on the circle of ``radius`` km around ``centre``, to
    within the exact test's tolerance, that ``bif:st_intersects`` keeps
    in one argument order and drops in the other: the spherical
    distance rounds differently either way (by ~1e-13 km), so near the
    circle the order decides."""
    for bearing in range(0, 360, 7):
        start = destination(centre, radius + 1e-9, bearing)
        for step in range(-2000, 2000):
            point = Point(start.longitude + step * 1e-15, start.latitude)
            if st_intersects(point, centre, radius) != st_intersects(
                centre, point, radius
            ):
                return Literal(f"POINT({point.longitude!r} "
                               f"{point.latitude!r})")
    raise AssertionError(f"no order-deciding point {radius} km around "
                         f"{centre}")


EDGE_GEOMETRIES = st.one_of(
    st.builds(
        edge_point,
        st.sampled_from(CENTRES),
        st.sampled_from(EDGE_RADII),
        st.sampled_from(EDGE_OFFSETS),
        st.sampled_from((0, 45, 90, 180, 270)),
    ),
    st.sampled_from(NOT_POINTS),
)


@settings(max_examples=40, deadline=None)
@given(
    added=st.lists(
        st.tuples(st.sampled_from(subjects()), EDGE_GEOMETRIES),
        min_size=1, max_size=8,
    ),
    bgps=st.lists(BGPS, min_size=1, max_size=4),
)
def test_edge_and_non_point_geometries_test_as_the_filter_does(
    added, bgps
):
    """Geometries on a probed circle to within the exact test's
    tolerance, in both argument orders, and geometries that are no
    point — on the centres' own subjects too — in a crowded store,
    where M1 and the place-joined BGPs test them on the index path."""
    store = base_store(crowded=True)
    store.commit(store.batch().add_all(
        (subject, GEO.geometry, geometry) for subject, geometry in added
    ))
    for text in paper_queries() + bgps:
        forget(store)
        rows = Evaluator(store).evaluate(text)
        reference = Evaluator(store, optimize=False).evaluate(text)
        assert normalize(rows) == normalize(reference), text
        assert list(Evaluator(store).evaluate(text)) == list(rows), text
    assert_memo_is_exact(statistics_of(store))


#: Where M1's branches (centre first) and Q1–Q3 (geometry first) put
#: a point the argument order decides: subject, centre, radius.
ORDER_DECIDED = (
    (ex("city"), TAKEN, 1.0),
    (ex("restaurant"), TAKEN, 0.3),
    (ex("tourism"), TAKEN, 1.0),
    (picture(2), TAKEN, 0.2),
    (picture(3), MOLE, 0.3),
    (picture(4), ANNEX, 0.3),
)


def test_the_argument_order_decides_as_in_the_filter():
    for crowded in (False, True):
        store = base_store(crowded)
        store.commit(store.batch().add_all(
            (subject, GEO.geometry, order_deciding_point(centre, radius))
            for subject, centre, radius in ORDER_DECIDED
        ))
        queries = paper_queries() + [
            drawn_bgp(centre, radius, first, False, False)
            for _, centre, radius in ORDER_DECIDED
            for first in (True, False)
        ]
        for text in queries:
            forget(store)
            rows = Evaluator(store).evaluate(text)
            reference = Evaluator(store, optimize=False).evaluate(text)
            assert normalize(rows) == normalize(reference), text
        assert_memo_is_exact(statistics_of(store))


def test_edge_geometries_take_the_grid_and_the_index_path():
    store = base_store(crowded=True)
    store.commit(store.batch().add_all(
        (subject, GEO.geometry, edge_point(centre, radius, offset, 90))
        for subject, centre in zip(subjects(), CENTRES * 4)
        for radius in EDGE_RADII for offset in EDGE_OFFSETS
    ))
    store.commit(store.batch().add_all(
        (subject, GEO.geometry, geometry)
        for subject in subjects() for geometry in NOT_POINTS
    ))
    assert paths_taken(
        lambda: run_every_drawn_bgp(store)
    ) == {"grid", "join", "scan"}
    stats = statistics_of(store)
    tested = {key[3] for key in stats.probe_outcomes}
    # the index path tested geometries that are no point, and found
    # edge points on both sides of a circle
    assert set(NOT_POINTS) <= tested
    assert {True, False} <= set(stats.probe_outcomes.values())
    assert_memo_is_exact(stats)


def run_every_drawn_bgp(store):
    for centre in CENTRES:
        for radius in RADII:
            for first in (True, False):
                for variable in (True, False):
                    for joined in JOINS:
                        assert_cold_warm_reference(store, drawn_bgp(
                            centre, radius, first, variable, joined,
                        ))


def test_the_drawn_queries_take_every_path():
    store = base_store()
    assert {"grid", "join"} <= paths_taken(
        lambda: run_every_drawn_bgp(store)
    )
    # in a crowded store the places' geometries are read off the index
    crowded = base_store(crowded=True)
    assert "scan" in paths_taken(lambda: run_every_drawn_bgp(crowded))
    assert statistics_of(crowded).probe_outcomes
    assert_memo_is_exact(statistics_of(crowded))


# ---------------------------------------------------------------------------
# what an entry holds, and what bypasses the memo
# ---------------------------------------------------------------------------


def test_an_entry_is_a_count_and_the_hits_never_the_candidates():
    store = base_store()
    # every path, so a centre the index path left count-only is asked
    # on the grid later (M1's city, then tourism branch)
    assert paths_taken(lambda: [
        Evaluator(store).evaluate(text) for text in paper_queries()
    ]) == {"grid", "join", "scan"}
    memo = memo_of(store)
    # Q1–Q3 put the geometry first, M1 the picture's location
    assert {first for _, _, first in memo} == {True, False}
    assert_memo_is_exact(statistics_of(store))


def test_a_repeat_on_the_same_generation_evaluates_nothing(monkeypatch):
    store = base_store()
    text = geo_album().query
    rows = Evaluator(store).evaluate(text)
    calls = []
    original = functions_module.st_intersects

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(functions_module, "st_intersects", counting)
    assert list(Evaluator(store).evaluate(text)) == list(rows)
    assert calls == []
    # a commit anywhere: a new snapshot, asked again
    store.insert((ex("elsewhere"), RDFS.label, Literal("elsewhere")))
    assert list(Evaluator(store).evaluate(text)) == list(rows)
    assert calls


def test_a_repeated_m1_on_the_index_path_evaluates_nothing(monkeypatch):
    store = base_store(crowded=True)
    text = mashup_query(0)
    # every branch reads the places' geometries off the triple index:
    # the picture has more candidates around it than a branch has rows
    assert paths_taken(lambda: Evaluator(store).evaluate(text)) == {"scan"}
    forget(store)
    calls = []
    original = functions_module.st_intersects

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(functions_module, "st_intersects", counting)
    rows = Evaluator(store).evaluate(text)
    assert {row["entType"] for row in rows} == {
        LGDO.City, LGDO.Restaurant, LGDO.Tourism, SIOCT.MicroblogPost,
    }
    first = len(calls)
    assert first
    # the same generation: every outcome is known
    assert list(Evaluator(store).evaluate(text)) == list(rows)
    assert len(calls) == first
    stats = statistics_of(store)
    assert stats.probe_outcomes
    # a commit anywhere: a new snapshot, tested again
    store.insert((ex("elsewhere"), RDFS.label, Literal("elsewhere")))
    assert statistics_of(store).probe_outcomes == {}
    assert list(Evaluator(store).evaluate(text)) == list(rows)
    assert len(calls) == 2 * first
    assert_memo_is_exact(stats)


# ---------------------------------------------------------------------------
# readers on one pinned generation fill the memo together
# ---------------------------------------------------------------------------


def test_four_readers_on_one_pinned_generation():
    # the plain store takes the grid and join paths; in the crowded one
    # M1 and the place-joined BGPs test geometries on the index path
    for crowded in (False, True):
        stats = assert_four_readers_agree(base_store(crowded))
        assert stats.probe_outcomes or not crowded


def assert_four_readers_agree(store):
    for i, centre in enumerate(CENTRES):
        store.insert(
            (picture(i + 1), GEO.geometry,
             destination(centre, 0.15, 45 * i).to_literal())
        )
    head = store.head()
    stats = current_view(head, GraphStatistics)
    texts = paper_queries() + [mashup_query(0)] + [
        drawn_bgp(centre, radius, first, variable, joined)
        for centre in CENTRES for radius in RADII
        for first in (True, False) for variable in (True, False)
        for joined in JOINS
    ]
    expected = [
        normalize(Evaluator(head, optimize=False).evaluate(text))
        for text in texts
    ]
    start = threading.Barrier(4)
    failures = []

    def reader(offset):
        try:
            start.wait()
            for round_ in range(3):
                for n in range(len(texts)):
                    i = (n + offset * 7 + round_) % len(texts)
                    rows = Evaluator(head).evaluate(texts[i])
                    if normalize(rows) != expected[i]:
                        failures.append(texts[i])
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(repr(exc))

    threads = [
        threading.Thread(target=reader, args=(n,)) for n in range(4)
    ]
    for thread in threads:
        thread.start()
    # commits move the head meanwhile; the readers stay pinned
    for i in range(5):
        store.insert((ex(f"later{i}"), GEO.geometry, MOLE.to_literal()))
    for thread in threads:
        thread.join()
    assert failures == []
    assert current_view(head, GraphStatistics) is stats and stats.probe_memo
    assert memo_of(store) is not stats.probe_memo
    assert_memo_is_exact(stats)
    return stats
