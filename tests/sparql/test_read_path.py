"""The read path around the one executor: parse + plan caches, the
spatial-grid probe's fallbacks, scans looked up once per distinct key.

The literal rows every plan must produce live in ``executor_cases.py``;
this file checks *which path* produced them — through the two counters
``repro.obs`` exposes, the facts EXPLAIN prints and counted index
lookups — and what must switch each mechanism off.
"""

import threading
from contextlib import contextmanager

import pytest

from repro.analysis import GraphStatistics, QueryPlanner
from repro.analysis.plan import QueryPlanner as PlannerClass
from repro.obs import MetricsRegistry, set_registry
from repro.rdf import FOAF, GEO, Graph, Literal, RDF, RDFS, REV
from repro.sparql import Evaluator, parse_query
from repro.sparql import evaluator as evaluator_module
from repro.sparql import functions as functions_module
from repro.sparql.algebra import BGPNode, ScanStep, walk
from repro.sparql.geo import GeometryError, parse_point, try_parse_point
from repro.store import QuadStore
from repro.store.engine import current_view

from .executor_cases import (
    CASES,
    MOLE,
    NOT_PINNED,
    PINNED,
    build_dataset,
    ex,
    normalize,
)

CASE = {name: (text, expected) for name, text, expected in CASES}


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def counts(registry, family, label):
    found = registry.get(family)
    if found is None:
        return {}
    return {
        labels[label]: int(child.value)
        for labels, child in found.children()
    }


@pytest.fixture
def planned(monkeypatch):
    """Queries passed to ``QueryPlanner.plan`` while the test runs."""
    calls = []
    original = PlannerClass.plan

    def counting(self, query):
        calls.append(query)
        return original(self, query)

    monkeypatch.setattr(PlannerClass, "plan", counting)
    return calls


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty prepared-query caches for the test: they are module-wide,
    and a plan made on another graph may fit this one."""
    monkeypatch.setattr(evaluator_module, "_TEXTS", {})
    monkeypatch.setattr(evaluator_module, "_SHAPES", {})


def shared_plans(text):
    """The plans ``evaluate(text)`` shares: the plan of its shape that
    every text of the shape runs."""
    _, _, prepared, _ = evaluator_module._TEXTS[text]
    return [prepared.plan]


def store_of_cases():
    store = QuadStore()
    store.sync_dataset(build_dataset())
    return store


class Lookups(list):
    """The patterns a graph was asked, and how many triples it was
    made to yield for them."""

    yielded = 0


@contextmanager
def lookups_of(graph):
    """What ``graph.triples`` is asked while the block runs."""
    cls = type(graph)
    original = cls.triples
    asked = Lookups()

    def counting(self, pattern=(None, None, None)):
        if self is not graph:
            yield from original(self, pattern)
            return
        asked.append(pattern)
        for triple in original(self, pattern):
            asked.yielded += 1
            yield triple

    cls.triples = counting
    try:
        yield asked
    finally:
        cls.triples = original


# ---------------------------------------------------------------------------
# parse once, plan once per generation
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("fresh_caches")
class TestPlanCache:
    def test_second_evaluate_on_a_generation_plans_zero_times(
        self, planned, registry
    ):
        store = store_of_cases()
        text, expected = CASE["geo-variable-centre"]
        assert normalize(Evaluator(store).evaluate(text)) == expected
        assert len(planned) == 1
        # another evaluator, same generation: the plan is found there
        assert normalize(Evaluator(store).evaluate(text)) == expected
        assert len(planned) == 1
        assert counts(registry, "repro_plan_cache_total", "outcome") == {
            "miss": 1, "hit": 1,
        }

    def test_text_is_parsed_once(self, monkeypatch):
        parsed = []
        original = evaluator_module.parse_query

        def counting(text):
            parsed.append(text)
            return original(text)

        monkeypatch.setattr(evaluator_module, "parse_query", counting)
        graph = build_dataset().union_graph()
        text = "SELECT ?s WHERE { ?s rdfs:label ?parsed_once_marker }"
        Evaluator(graph).evaluate(text)
        Evaluator(graph, optimize=False).evaluate(text)
        assert parsed == [text]

    def test_a_commit_that_makes_a_pruned_predicate_appear(self, planned):
        store = store_of_cases()
        text = "SELECT ?s WHERE { ?s rdfs:seeAlso ?o }"
        assert list(Evaluator(store).evaluate(text)) == []
        assert list(Evaluator(store).evaluate(text)) == []
        assert len(planned) == 1  # pruned to Empty, and cached as that
        store.insert((ex("pic1"), RDFS.seeAlso, ex("mole")))
        rows = Evaluator(store).evaluate(text)
        assert [row["s"] for row in rows] == [ex("pic1")]
        assert len(planned) == 2

    def test_a_mutable_graph_replans_after_a_write(self):
        graph = build_dataset().union_graph().copy()
        evaluator = Evaluator(graph)
        text = "SELECT ?s WHERE { ?s rdfs:seeAlso ?o }"
        assert list(evaluator.evaluate(text)) == []
        graph.add((ex("pic1"), RDFS.seeAlso, ex("mole")))
        assert len(evaluator.evaluate(text)) == 1

    def test_explain_after_cached_runs_reports_its_own_counts(self):
        store = store_of_cases()
        text, _ = CASE["geo-constant-centre"]
        for _ in range(3):
            Evaluator(store).evaluate(text)
        shared = shared_plans(text)
        assert all(
            node.actual_rows is None and node.actual_ms is None
            for cached in shared for node in walk(cached)
        )
        explanation = Evaluator(store).explain(text)
        assert all(explanation.planned.plan is not c for c in shared)
        (scan,) = [
            n for n in walk(explanation.planned.plan)
            if isinstance(n, ScanStep)
        ]
        assert scan.actual_rows == 3  # one run's rows, not four runs'
        assert all(
            n.actual_rows is None for cached in shared for n in walk(cached)
        )

    def test_tracing_does_not_write_on_the_shared_plan(self):
        from repro.obs import InMemorySpanExporter, Tracer, set_tracer

        store = store_of_cases()
        text, expected = CASE["geo-constant-centre"]
        buffer = InMemorySpanExporter()
        previous = set_tracer(Tracer(enabled=True, exporters=[buffer]))
        try:
            for _ in range(2):
                got = Evaluator(store).evaluate(text)
                assert normalize(got) == expected
        finally:
            set_tracer(previous)
        assert any(s.name == "plan.BGPNode" for s in buffer.spans())
        assert all(
            node.actual_rows is None and node.actual_ms is None
            for cached in shared_plans(text) for node in walk(cached)
        )

    def test_plans_are_not_shared_with_a_private_planner(self, planned):
        store = store_of_cases()
        text, _ = CASE["geo-constant-centre"]
        Evaluator(store).evaluate(text)
        Evaluator(store, planner=QueryPlanner(
            stats=store.statistics())).evaluate(text)
        assert len(planned) == 2
        assert list(evaluator_module._TEXTS) == [text]

    def test_the_function_table_is_not_an_option(self):
        # SPARQL 1.0's builtins and Virtuoso's bif: functions, no others
        with pytest.raises(TypeError):
            Evaluator(store_of_cases(), functions={})

    def test_both_caches_are_bounded(self):
        graph = build_dataset().union_graph()
        evaluator = Evaluator(graph)
        limit = evaluator_module._CACHE_LIMIT
        for index in range(limit + 20):
            evaluator.evaluate(
                f"SELECT ?s WHERE {{ ?s rdfs:label ?bounded{index} }}"
            )
        assert len(evaluator_module._TEXTS) <= limit
        assert len(evaluator_module._SHAPES) <= limit

    def test_a_shared_plan_runs_on_several_threads(self):
        store = store_of_cases()
        text, expected = CASE["tail-spanning-filter-errors"]
        Evaluator(store).evaluate(text)  # plan it once
        results, errors = [], []

        def read():
            try:
                for _ in range(20):
                    results.append(
                        normalize(Evaluator(store).evaluate(text))
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 80
        assert all(result == expected for result in results)


# ---------------------------------------------------------------------------
# the reference plan uses none of it
# ---------------------------------------------------------------------------


def test_unoptimized_evaluator_uses_no_probe_no_tail_no_cached_plan(
    registry, planned
):
    store = store_of_cases()
    evaluator = Evaluator(store, optimize=False)
    for name in (
        "geo-constant-centre", "geo-variable-centre",
        "tail-spanning-filter-errors",
    ):
        text, expected = CASE[name]
        assert normalize(evaluator.evaluate(text)) == expected
        assert normalize(evaluator.evaluate(text)) == expected
    assert planned == []
    # never even collected
    assert current_view(store.head(), GraphStatistics) is None
    assert registry.get("repro_geo_probe_total") is None
    assert registry.get("repro_plan_cache_total") is None


# ---------------------------------------------------------------------------
# which path a probed scan takes
# ---------------------------------------------------------------------------


def probed_scans(explanation):
    return [
        node for node in walk(explanation.planned.plan)
        if isinstance(node, ScanStep) and node.probe is not None
    ]


class TestGeoProbe:
    def test_constant_centre_reads_the_grid(self, registry):
        store = store_of_cases()
        text, expected = CASE["geo-constant-centre"]
        explanation = Evaluator(store).explain(text)
        (scan,) = probed_scans(explanation)
        assert scan.probe.radius_km == 0.3
        assert "via geo grid, r=0.3" in explanation.render()
        assert normalize(Evaluator(store).evaluate(text)) == expected
        assert counts(registry, "repro_geo_probe_total", "path") == {
            "grid": 2,
        }

    def test_variable_centre_is_probed_once_per_centre(self, registry):
        graph = Graph()
        for index in range(40):
            graph.add((ex(f"far{index}"), GEO.geometry,
                       Literal(f"POINT({8 + index / 100} 46)")))
            graph.add((ex(f"far{index}"), RDFS.comment, Literal("far")))
        graph.add((ex("mole"), RDFS.label, Literal("Mole")))
        graph.add((ex("mole"), GEO.geometry, Literal(MOLE)))
        graph.add((ex("pic"), GEO.geometry, Literal("POINT(7.693 45.069)")))
        graph.add((ex("pic"), RDFS.comment, Literal("picture")))
        text = """SELECT ?x WHERE {
            ?m rdfs:label "Mole" . ?m geo:geometry ?src .
            ?x geo:geometry ?loc . ?x rdfs:comment ?c
            FILTER(bif:st_intersects(?loc, ?src, 0.3)) }"""
        evaluator = Evaluator(graph)
        explanation = evaluator.explain(text)
        (scan,) = probed_scans(explanation)
        assert str(scan.probe.center) == "src"
        # the probe visited the monument's cell, not the 40 far ones
        assert scan.actual_rows == 2
        assert [row["x"] for row in evaluator.evaluate(text)] == [ex("pic")]
        assert counts(registry, "repro_geo_probe_total", "path") == {
            "grid": 2,
        }

    def test_variable_radius_is_not_probed(self):
        text, _ = CASE["geo-variable-radius"]
        explanation = Evaluator(store_of_cases()).explain(text)
        assert probed_scans(explanation) == []

    def test_named_graph_scans(self, registry):
        store = store_of_cases()
        text, expected = CASE["geo-inside-graph"]
        assert normalize(Evaluator(store).evaluate(text)) == expected
        assert counts(registry, "repro_geo_probe_total", "path") == {
            "scan": 1,
        }

    def test_stale_statistics_scan(self, registry):
        graph = build_dataset().union_graph().copy()
        text, _ = CASE["geo-constant-centre"]
        stale = GraphStatistics.cached(graph)
        graph.add((ex("new"), GEO.geometry, Literal(MOLE)))
        # a planner holding on to the old snapshot still marks the scan;
        # the executor sees the fingerprint moved and reads the index
        evaluator = Evaluator(graph, planner=QueryPlanner(stats=stale))
        found = {row["x"] for row in evaluator.evaluate(text)}
        assert ex("new") in found and len(found) == 4
        assert counts(registry, "repro_geo_probe_total", "path") == {
            "scan": 1,
        }

    def test_prebound_subject_scans(self, registry):
        store = store_of_cases()
        text = f"""SELECT ?x WHERE {{
            ?x geo:geometry ?loc
            FILTER(bif:st_intersects(?loc, "{MOLE}", 0.3))
            VALUES ?x {{ <{ex("pic1")}> <{ex("pic3")}> }} }}"""
        for build in (Evaluator, lambda s: Evaluator(s, optimize=False)):
            rows = build(store).evaluate(text)
            assert [row["x"] for row in rows] == [ex("pic1")]

    def test_unusable_centres_and_radii_scan(self, registry):
        store = store_of_cases()
        pattern = """SELECT ?x WHERE {{ ?x geo:geometry ?loc
            FILTER(bif:st_intersects(?loc, {centre}, {radius})) }}"""
        for centre, radius, expected in (
            ('"nowhere"', "0.3", 0),                    # filter errors
            ('"POINT(7.6934 89.9999)"', "1", 0),         # over the pole
            ('"POINT(179.9999 45.0692)"', "1", 0),       # antimeridian
            (f'"{MOLE}"', "20000", 4),   # no probe planned: r too wide
        ):
            text = pattern.format(centre=centre, radius=radius)
            for optimize in (True, False):
                rows = Evaluator(store, optimize=optimize).evaluate(text)
                assert len(rows) == expected, text
        assert counts(registry, "repro_geo_probe_total", "path") == {
            "scan": 3,
        }


# ---------------------------------------------------------------------------
# an IN list of IRIs keys the scan that first binds its variable
# ---------------------------------------------------------------------------


def pinned_scans(explanation):
    return [
        node for node in walk(explanation.planned.plan)
        if isinstance(node, ScanStep) and node.pin is not None
    ]


def comparisons(monkeypatch):
    """The ``(operand, choice)`` pairs ``IN`` filters compare from now
    on."""
    compared = []
    original = evaluator_module.equals

    def counting(left, right):
        compared.append((left, right))
        return original(left, right)

    monkeypatch.setattr(evaluator_module, "equals", counting)
    return compared


class TestPin:
    @pytest.mark.parametrize("name", PINNED)
    def test_the_listed_iris_key_the_scan(self, name):
        text, expected = CASE[name]
        explanation = Evaluator(store_of_cases()).explain(text)
        (scan,) = pinned_scans(explanation)
        # the filter stays on the scan, and still runs
        assert scan.pin.filter in scan.filters
        count = len(scan.pin.iris)
        assert (
            f"via ?{scan.pin.variable} ∈ {count} IRI" in explanation.render()
        )
        assert explanation.row_count == len(expected)

    @pytest.mark.parametrize("name", NOT_PINNED)
    def test_other_filters_key_nothing(self, name):
        explanation = Evaluator(store_of_cases()).explain(CASE[name][0])
        assert pinned_scans(explanation) == []
        assert "∈" not in explanation.render()

    def test_each_listed_iri_is_one_lookup(self):
        text, expected = CASE["in-two-iris-on-type"]
        store = store_of_cases()
        (scan,) = pinned_scans(Evaluator(store).explain(text))
        assert scan.actual_probes == 2
        evaluator = Evaluator(store)
        with lookups_of(evaluator.graph) as asked:
            assert normalize(evaluator.evaluate(text)) == expected
        assert asked == [
            (None, RDF.type, ex("Photo")), (None, RDF.type, ex("Monument")),
        ]

    def test_a_pinned_lookup_runs_no_in_comparison(self, monkeypatch):
        text, expected = CASE["in-two-iris-on-type"]
        compared = comparisons(monkeypatch)
        assert normalize(Evaluator(store_of_cases()).evaluate(text)) == (
            expected
        )
        # every row's ?t is the IRI its lookup put in place
        assert compared == []

    def test_a_values_row_still_runs_the_in_filter(self, monkeypatch):
        # ex:pic3 is an ex:Sketch: the lookup a VALUES row keys finds
        # it, and only the IN filter drops it
        text = f"""SELECT ?x ?t WHERE {{
             VALUES ?t {{ {ex("Sketch").n3()} {ex("Photo").n3()} UNDEF }}
             ?x a ?t
             FILTER(?t IN ({ex("Photo").n3()}, {ex("Monument").n3()}))
           }}"""
        store = store_of_cases()
        assert len(pinned_scans(Evaluator(store).explain(text))) == 1
        reference = Evaluator(store, optimize=False).evaluate(text)
        compared = comparisons(monkeypatch)
        rows = Evaluator(store).evaluate(text)
        assert normalize(rows) == normalize(reference)
        assert sorted((str(r["x"]), str(r["t"])) for r in rows) == sorted(
            (str(ex(x)), str(ex(t))) for x, t in (
                ("pic1", "Photo"), ("pic2", "Photo"),  # the listed row
                ("pic1", "Photo"), ("pic2", "Photo"),  # the open row
                ("mole", "Monument"),
            )
        )
        # only the matches of the two VALUES rows that bind ?t: ex:pic3
        # (ex:Sketch against both choices), ex:pic1 and ex:pic2
        # (ex:Photo against the first)
        assert sorted(str(left) for left, _ in compared) == [
            str(ex("Photo")), str(ex("Photo")),
            str(ex("Sketch")), str(ex("Sketch")),
        ]

    @pytest.mark.parametrize("name", PINNED)
    def test_pinned_rows_equal_the_reference(self, name):
        text, expected = CASE[name]
        store = store_of_cases()
        rows = normalize(Evaluator(store).evaluate(text))
        assert rows == expected
        assert rows == normalize(
            Evaluator(store, optimize=False).evaluate(text)
        )

    def test_a_solution_binding_the_variable_takes_its_own_key(self):
        text, expected = CASE["in-variable-prebound-by-values"]
        evaluator = Evaluator(store_of_cases())
        evaluator.evaluate(text)  # planned
        with lookups_of(evaluator.graph) as asked:
            assert normalize(evaluator.evaluate(text)) == expected
        # ?t = ex:Photo, then the solution leaving ?t open: never the
        # whole of rdf:type
        assert asked == [
            (None, RDF.type, ex("Photo")),
            (None, RDF.type, ex("Photo")), (None, RDF.type, ex("Monument")),
        ]


# ---------------------------------------------------------------------------
# a scan is looked up once per distinct key, not once per solution
# ---------------------------------------------------------------------------


class TestDisconnectedTail:
    def bgp(self, text, store=None):
        explanation = Evaluator(store or store_of_cases()).explain(text)
        (node,) = [
            n for n in walk(explanation.planned.plan)
            if isinstance(n, BGPNode)
        ]
        return node, explanation.render()

    def test_tail_scans_run_once_not_once_per_head_row(self):
        # people share no variable with pictures: whatever the number
        # of pictures, the people are looked up once
        text, expected = CASE["tail-spanning-filter-errors"]
        node, rendered = self.bgp(text)
        assert "BGP (3 scan(s))" in rendered
        rating, maker, name = node.scans
        assert name.pattern.predicate == FOAF.name
        assert [s.actual_probes for s in node.scans] == [1, 3, 1]
        assert "probes=3" in rendered
        # the filter relating the two sides applies as the second
        # side's scan extends a solution: 4 of the 3 x 3 pairings
        assert len(name.filters) == 1 and not node.pushed
        assert [s.actual_rows for s in node.scans] == [3, 3, 4]
        evaluator = Evaluator(store_of_cases())
        evaluator.evaluate(text)  # planned
        with lookups_of(evaluator.graph) as asked:
            assert normalize(evaluator.evaluate(text)) == expected
        assert [p for p in asked if p[1] == FOAF.name] == [
            (None, FOAF.name, None)
        ]
        assert len(asked) == 1 + 3 + 1

    def test_a_probe_keeps_its_centre_in_the_head(self):
        # everything after the monument is variable-disjoint from it,
        # but the probe reads ?src: it runs after the monument, once
        # per distinct centre, and the 30 pictures are not asked for
        # one by one
        graph = Graph()
        graph.add((ex("mole"), RDFS.label, Literal("Mole")))
        graph.add((ex("mole"), GEO.geometry, Literal(MOLE)))
        for index in range(30):
            graph.add((ex(f"p{index}"), GEO.geometry,
                       Literal(f"POINT({7.69 + index / 1000} 45.07)")))
            graph.add((ex(f"p{index}"), RDFS.comment, Literal("picture")))
        text = """SELECT ?x WHERE {
            ?m rdfs:label "Mole" . ?m geo:geometry ?src .
            ?x geo:geometry ?loc . ?x rdfs:comment ?c
            FILTER(bif:st_intersects(?loc, ?src, 0.3)) }"""
        explanation = Evaluator(graph).explain(text)
        (node,) = [
            n for n in walk(explanation.planned.plan)
            if isinstance(n, BGPNode)
        ]
        assert [s.probe is not None for s in node.scans] == [
            False, False, True, False,
        ]
        probed = node.scans[2]
        assert probed.actual_probes == 1
        assert probed.actual_paths == ["grid"]
        assert "; via geo grid]" in explanation.render()
        evaluator = Evaluator(graph)
        with lookups_of(graph) as asked:
            assert len(evaluator.evaluate(text)) == 8
        # monument, its geometry, and a comment per grid hit (the
        # monument itself is one): no geometry but the monument's
        assert len(asked) == 2 + 9
        assert [p for p in asked if p[1] == GEO.geometry] == [
            (ex("mole"), GEO.geometry, None)
        ]

    def test_no_tail_when_a_filter_would_prune_inside_it(self):
        # a filter relating the two sides sits on the *first* scan of
        # the larger one and spares its second scan the pairings it
        # rejects: 2 landmarks x 3 ratings, 2 survive, both pic1
        text = """SELECT ?place ?x WHERE {
            ?place rdfs:comment ?c . ?x rev:rating ?r . ?x foaf:maker ?who
            FILTER(?r > strlen(?c) - 4) }"""
        node, _ = self.bgp(text)
        comment, rating, maker = node.scans
        assert rating.pattern.predicate == REV.rating
        assert len(rating.filters) == 1 and not node.pushed
        assert [s.actual_rows for s in node.scans] == [2, 2, 2]
        assert maker.actual_probes == 1
        reference = Evaluator(store_of_cases(), optimize=False)
        assert len(reference.evaluate(text)) == 2

    def test_empty_head_never_evaluates_the_tail(self):
        text = """SELECT ?p WHERE {
            ?pic rev:rating 99 . ?pic foaf:maker ?who .
            ?p foaf:name ?name }"""
        node, _ = self.bgp(text)
        assert node.scans[0].actual_probes == 1
        assert all(
            s.actual_rows is None and s.actual_probes is None
            for s in node.scans[1:]
        )
        evaluator = Evaluator(store_of_cases())
        evaluator.evaluate(text)
        with lookups_of(evaluator.graph) as asked:
            assert len(evaluator.evaluate(text)) == 0
        assert asked == [(None, REV.rating, Literal(99))]

    def test_optional_reenters_the_tail_per_row(self):
        text = """SELECT ?name ?pic WHERE {
            ?who foaf:name ?name
            OPTIONAL { ?pic rev:rating 5 . ?place rdfs:comment ?c } }"""
        for optimize in (True, False):
            rows = Evaluator(
                store_of_cases(), optimize=optimize
            ).evaluate(text)
            assert len(rows) == 3 * 2


# ---------------------------------------------------------------------------
# ASK, LIMIT and EXISTS stop asking: a step builds a chunk, not the answer
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_graph():
    graph = Graph()
    for index in range(5000):
        graph.add((ex(f"s{index}"), RDFS.label, Literal(f"label {index}")))
        graph.add((ex(f"s{index}"), RDFS.comment, Literal("same")))
    assert len(graph) == 10_000
    return graph


class TestEarlyExit:
    CHUNK = evaluator_module._CHUNK

    @pytest.mark.parametrize("optimize", [True, False])
    def test_ask_reads_one_chunk(self, big_graph, optimize):
        evaluator = Evaluator(big_graph, optimize=optimize)
        GraphStatistics.cached(big_graph)
        with lookups_of(big_graph) as asked:
            assert evaluator.evaluate("ASK { ?s ?p ?o }") is True
        assert len(asked) == 1 and asked.yielded <= self.CHUNK

    @pytest.mark.parametrize("optimize", [True, False])
    def test_limit_without_order_reads_one_chunk_per_step(
        self, big_graph, optimize
    ):
        evaluator = Evaluator(big_graph, optimize=optimize)
        GraphStatistics.cached(big_graph)
        where = "WHERE { ?s rdfs:label ?l . ?s rdfs:comment ?c } LIMIT 5"
        for text in (
            f"SELECT ?s ?c {where}",
            # every row is distinct: DISTINCT passes the limit on
            f"SELECT DISTINCT ?s ?c {where}",
            f"CONSTRUCT {{ ?s rdfs:comment ?c }} {where}",
        ):
            with lookups_of(big_graph) as asked:
                result = evaluator.evaluate(text)
            assert len(result) == 5, text
            # the first step filled one chunk, the second looked each
            # of its solutions up — not the 5 000 there are
            assert len(asked) <= 1 + self.CHUNK, text
            assert asked.yielded <= 2 * self.CHUNK, text
        # one distinct value: DISTINCT looks for a second one to the end
        with lookups_of(big_graph) as asked:
            rows = evaluator.evaluate(f"SELECT DISTINCT ?c {where}")
        assert len(rows) == 1 and asked.yielded == 10_000
        # under ORDER BY every row is needed: nothing to stop
        with lookups_of(big_graph) as asked:
            rows = evaluator.evaluate(
                "SELECT ?s WHERE { ?s rdfs:label ?l } ORDER BY ?l LIMIT 5"
            )
        assert len(rows) == 5 and asked.yielded == 5000

    @pytest.mark.parametrize("optimize", [True, False])
    def test_exists_reads_one_chunk(self, big_graph, optimize):
        evaluator = Evaluator(big_graph, optimize=optimize)
        GraphStatistics.cached(big_graph)
        with lookups_of(big_graph) as asked:
            rows = evaluator.evaluate(
                "SELECT ?x WHERE { VALUES ?x { 1 2 } "
                "FILTER EXISTS { ?s ?p ?o } }"
            )
        assert len(rows) == 2
        assert len(asked) == 2 and asked.yielded <= 2 * self.CHUNK

    def test_a_wide_step_leaves_in_chunks(self, big_graph):
        # one incoming solution, 10 000 matches: they are not all
        # built before the first is handed on
        evaluator = Evaluator(big_graph)
        stream = evaluator._scan_step(
            ScanStep(parse_query(
                "SELECT * WHERE { ?s ?p ?o }"
            ).where.elements[0].triples[0]),
            iter([[{}]]), big_graph,
        )
        with lookups_of(big_graph) as asked:
            first = next(stream)
            assert len(first) == self.CHUNK == asked.yielded
            assert sum(len(chunk) for chunk in stream) == 10_000 - self.CHUNK


# ---------------------------------------------------------------------------
# geometry parsing is memoised, its errors are not
# ---------------------------------------------------------------------------


def test_parse_point_memoises_successes_only():
    first = parse_point("POINT(7.6934 45.0692)")
    assert parse_point(Literal("POINT(7.6934 45.0692)")) is first
    for bad in ("POINT(200 45)", "POINT(7 95)", "somewhere"):
        for _ in range(2):  # a failure is not remembered as a success
            with pytest.raises(GeometryError):
                parse_point(bad)
    assert parse_point(first) is first


# ---------------------------------------------------------------------------
# the paper's queries take the paths they were given
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def platform_store():
    from repro.platform import Platform
    from repro.workloads import (
        WorkloadConfig,
        generate_workload,
        populate_platform,
    )

    platform = Platform()
    populate_platform(platform, generate_workload(WorkloadConfig(
        n_users=8, n_contents=120, cities=("Turin",), seed=3,
    )))
    store = QuadStore(name="read-path")
    platform.attach_store(store)
    return store


class TestPaperQueries:
    def bgps(self, store, text):
        explanation = Evaluator(store).explain(text)
        return [
            n for n in walk(explanation.planned.plan)
            if isinstance(n, BGPNode)
        ], explanation.render()

    def test_q1_probes_the_grid_around_the_monument(self, platform_store):
        from repro.core import geo_album

        (bgp,), rendered = self.bgps(platform_store, geo_album().query)
        predicates = [
            str(s.pattern.predicate).rsplit("/", 1)[-1].rsplit("#", 1)[-1]
            for s in bgp.scans
        ]
        assert predicates == [
            "label", "geometry", "geometry", "type", "image-data",
        ]
        probe = bgp.scans[2].probe
        assert probe is not None and str(probe.center) == "sourceGEO"
        assert bgp.scans[2].actual_paths == ["grid"]
        assert "via geo grid, r=0.3" in rendered
        # the probe is why the type scan sees a handful of resources,
        # not the corpus
        assert bgp.scans[2].actual_rows < 120 / 2

    def test_q2_q3_evaluate_the_monument_once(self, platform_store):
        from repro.core import rated_album, social_album

        label = Literal("Mole Antonelliana", lang="it")
        stats = platform_store.statistics()
        head = platform_store.head()
        in_box = sum(
            len(stats.geo_candidates(try_parse_point(geometry), 0.3))
            for geometry in {
                geometry
                for monument, _, _ in head.triples(
                    (None, RDFS.label, label))
                for _, _, geometry in head.triples(
                    (monument, GEO.geometry, None))
            }
        )
        scratch = ex("scratch")

        def ask(text):
            """``(rows, st_intersects calls, lookups)`` of one ask on
            the store's head."""
            evaluator = Evaluator(platform_store)
            evaluations = []
            original = functions_module.st_intersects

            def counting(*args):
                evaluations.append(args)
                return original(*args)

            functions_module.st_intersects = counting
            try:
                with lookups_of(evaluator.graph) as asked:
                    rows = evaluator.evaluate(text).rows
            finally:
                functions_module.st_intersects = original
            return rows, len(evaluations), asked

        for album in (social_album, rated_album):
            text = album(friend_of="walter").query
            # a fresh generation (same triples): its statistics have
            # answered no grid probe yet
            platform_store.insert((scratch, scratch, scratch))
            platform_store.remove((scratch, None, None))
            rows, evaluations, asked = ask(text)
            assert rows
            assert 0 < evaluations <= in_box
            # the same generation again: the probe is answered
            again, repeated, _ = ask(text)
            assert again == rows and repeated == 0
            (bgp,), rendered = self.bgps(platform_store, text)
            # the monument first, the friends' pictures joined with
            # what the grid has around it: the filter sits on their
            # geometry scan, not on the BGP
            assert bgp.scans[0].pattern.object == label
            (probed,) = [s for s in bgp.scans if s.probe is not None]
            assert str(probed.pattern.subject) == "resource"
            assert probed.actual_paths == ["join"]
            assert "via geo grid, joined on ?resource]" in rendered
            assert not bgp.pushed
            assert [p for p in asked if p[1] == RDFS.label] == [
                (None, RDFS.label, label)
            ]
            # no friend's picture was asked for its geometry
            geometries = [p for p in asked if p[1] == GEO.geometry]
            assert len(geometries) <= 2 and all(
                p[0] is not None and p[2] is None for p in geometries
            )

    def test_m1_keys_each_branch_on_its_entity_type(self, platform_store):
        from repro.core.mashup import mashup_query

        bgps, rendered = self.bgps(platform_store, mashup_query(3))
        pinned = [s for bgp in bgps for s in bgp.scans if s.pin is not None]
        assert [
            (str(s.pin.variable), s.pattern.predicate, len(s.pin.iris))
            for s in pinned
        ] == [("entType", RDF.type, 1)] * 4
        assert rendered.count("via ?entType ∈ 1 IRI") == 4
        # the city branch starts from the cities, not from every place
        city = bgps[0].scans
        assert city[1].pin is not None
        assert city[1].actual_probes == 1

    def test_rows_match_the_reference(self, platform_store):
        from repro.core import geo_album, rated_album, social_album
        from repro.core.mashup import mashup_query

        for text in (
            geo_album().query,
            geo_album(radius_km=5.0).query,
            social_album(friend_of="oscar").query,
            rated_album(friend_of="walter").query,
            mashup_query(3, per_branch_limit=1000),
        ):
            fast = Evaluator(platform_store).evaluate(text)
            slow = Evaluator(platform_store, optimize=False).evaluate(text)
            assert len(fast) > 0
            assert normalize(fast) == normalize(slow)
