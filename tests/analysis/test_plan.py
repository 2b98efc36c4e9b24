"""Query planner tests: the two rewrites, the estimates, and EXPLAIN.

Each rewrite must (a) fire on a query shaped to trigger it — the filter
lands on a scan, the selective scan goes first — and (b) leave the
result rows identical to the naive evaluation path. Every scan of a
plan made with statistics carries the running product of the costs the
scan order was decided on. The EXPLAIN tests pin the report format:
scans and BGPs carry an estimated and (after execution) every node an
actual cardinality.
"""

import pytest

from repro.analysis import GraphStatistics, QueryPlanner
from repro.core import geo_album, rated_album, social_album
from repro.rdf import (
    COMM,
    FOAF,
    GEO,
    Graph,
    Literal,
    RDF,
    RDFS,
    REV,
    SIOCT,
)
from repro.sparql import Evaluator, parse_query
from repro.sparql.algebra import (
    BGPNode,
    FilterNode,
    JoinNode,
    ScanStep,
    lower_query,
    walk,
)
from repro.sparql.ast import FunctionCall, TriplePatternNode
from repro.sparql.geo import Point

MOLE_POS = Point(7.6934, 45.0692)
NEAR_MOLE = Point(7.6930, 45.0690)


@pytest.fixture
def graph():
    """A compact Turin scenario with skewed predicate frequencies."""
    g = Graph()
    mole = "http://example.org/Mole_Antonelliana"
    g.add((mole, RDFS.label, Literal("Mole Antonelliana", lang="it")))
    g.add((mole, GEO.geometry, MOLE_POS.to_literal()))
    walter = "http://example.org/u/walter"
    oscar = "http://example.org/u/oscar"
    g.add((walter, FOAF.name, Literal("walter")))
    g.add((oscar, FOAF.name, Literal("oscar")))
    g.add((walter, FOAF.knows, oscar))
    for i in range(12):
        pic = f"http://example.org/pic/{i}"
        g.add((pic, RDF.type, SIOCT.MicroblogPost))
        g.add((pic, GEO.geometry, NEAR_MOLE.to_literal()))
        g.add((pic, COMM["image-data"], Literal(f"http://cdn/{i}.jpg")))
        g.add((pic, FOAF.maker, walter))
        g.add((pic, REV.rating, Literal(i % 5 + 1)))
    return g


def plan_query(graph, text):
    planner = QueryPlanner(stats=GraphStatistics.collect(graph))
    return planner.plan(parse_query(text))


def rows(graph, text, optimize):
    result = Evaluator(graph, optimize=optimize).evaluate(text)
    return sorted(
        tuple(sorted((str(k), str(v)) for k, v in row.items()))
        for row in result
    )


def assert_same_rows(graph, text):
    assert rows(graph, text, True) == rows(graph, text, False)


class TestGoldenDiagnostics:
    def test_sp011_filter_pushed_into_bgp(self, graph):
        text = (
            "SELECT ?p WHERE { ?p rev:rating ?r . FILTER(?r >= 4) }"
        )
        planned = plan_query(graph, text)
        # the group-level filter is gone: it runs on the scan binding ?r
        assert not any(
            isinstance(node, FilterNode) for node in walk(planned.plan)
        )
        (scan,) = [n for n in walk(planned.plan) if isinstance(n, ScanStep)]
        assert [e.op for e in scan.filters] == [">="]
        assert_same_rows(graph, text)

    def test_sp012_scans_reordered(self, graph):
        # rev:rating (12 triples) listed before the 1-triple name scan:
        # the planner must put the selective scan first.
        text = (
            'SELECT ?p WHERE { ?p rev:rating ?r . ?p foaf:maker ?u . '
            '?u foaf:name "walter" }'
        )
        planned = plan_query(graph, text)
        bgp = next(
            n for n in walk(planned.plan) if isinstance(n, BGPNode)
        )
        assert [str(s.pattern.predicate) for s in bgp.scans] == [
            str(FOAF.name), str(FOAF.maker), str(REV.rating)
        ]
        assert_same_rows(graph, text)

    def test_subselect_order_with_limit_kept(self, graph):
        # LIMIT makes the inner ORDER BY semantically load-bearing
        text = (
            "SELECT ?p WHERE { "
            "{ SELECT ?p WHERE { ?p rev:rating ?r } "
            "ORDER BY DESC(?r) LIMIT 3 } }"
        )
        assert_same_rows(graph, text)


def cost_of(scan, bound, stats):
    """What the scan order charges ``scan`` once ``bound`` is bound."""
    pattern = scan.pattern
    if scan.probe is not None:
        assert str(pattern.subject) not in bound
        return stats.geo_probe_cardinality(scan.probe.radius_km)
    if scan.pin is not None:
        return sum(
            stats.scan_cardinality(TriplePatternNode(*(
                iri if term == scan.pin.variable else term
                for term in (pattern.subject, pattern.predicate,
                             pattern.object)
            )), bound)
            for iri in scan.pin.iris
        )
    return stats.scan_cardinality(pattern, bound)


class TestEstimates:
    @pytest.mark.parametrize("text, path", [
        (
            'SELECT ?p WHERE { ?p foaf:maker ?u . ?p geo:geometry ?loc '
            f'FILTER(bif:st_intersects(?loc, "{MOLE_POS.to_literal()}", '
            '0.3)) }',
            "probe",
        ),
        (
            "SELECT ?x WHERE { ?x geo:geometry ?g . ?x a ?t "
            "FILTER(?t IN (sioct:MicroblogPost)) }",
            "pin",
        ),
    ], ids=["probe", "pin"])
    def test_estimates_are_the_running_product_of_the_order_costs(
        self, graph, text, path
    ):
        stats = GraphStatistics.collect(graph)
        planned = QueryPlanner(stats=stats).plan(parse_query(text))
        (bgp,) = [n for n in walk(planned.plan) if isinstance(n, BGPNode)]
        # the access path wins the order: it runs first
        assert getattr(bgp.scans[0], path) is not None
        rows, bound = 1.0, set()
        for scan in bgp.scans:
            rows *= cost_of(scan, bound, stats)
            assert scan.est_rows == pytest.approx(rows)
            bound |= scan.variables()
        assert bgp.est_rows == pytest.approx(rows)
        # only scans and their BGP carry an estimate
        assert not any(
            hasattr(node, "est_rows") for node in walk(planned.plan)
            if not isinstance(node, (ScanStep, BGPNode))
        )

    def test_no_statistics_no_estimates(self, graph):
        planned = QueryPlanner().plan(parse_query(rated_album().query))
        assert all(
            getattr(node, "est_rows", None) is None
            for node in walk(planned.plan)
        )


class TestPlannerMechanics:
    def test_planning_does_not_mutate_ast(self, graph):
        text = social_album().query
        parsed = parse_query(text)
        reference = parse_query(text)
        plan_query(graph, text)
        planner = QueryPlanner(stats=GraphStatistics.collect(graph))
        planner.plan(parsed)
        assert parsed == reference

    def test_no_stats_still_plans(self, graph):
        planner = QueryPlanner()
        planned = planner.plan(parse_query(rated_album().query))
        assert planned.plan is not None

    def test_only_reorder_fixes_the_scan_order(self, graph):
        # the executor runs a BGP's scans as listed: the planner lists
        # them in cost order, the bare lowering (what optimize=False
        # runs) as written; bif:contains, in either spelling, is a
        # FILTER like any other
        text = (
            'SELECT ?p WHERE { ?l bif:contains "walter" . '
            '?p rev:rating ?r . ?p foaf:maker ?u . ?u foaf:name ?l '
            'FILTER(?r >= 4) }'
        )
        planned_plan = plan_query(graph, text).plan
        lowered_plan = lower_query(parse_query(text))
        (planned,) = [
            n for n in walk(planned_plan) if isinstance(n, BGPNode)
        ]
        (lowered,) = [
            n for n in walk(lowered_plan) if isinstance(n, BGPNode)
        ]
        assert [str(s.pattern.predicate) for s in lowered.scans] == [
            str(REV.rating), str(FOAF.maker), str(FOAF.name),
        ]
        assert not any(scan.filters for scan in lowered.scans)
        # the two names (2 rows) before the twelve makers and ratings,
        # the text filter on the scan that binds ?l
        assert [str(s.pattern.predicate) for s in planned.scans] == [
            str(FOAF.name), str(FOAF.maker), str(REV.rating),
        ]
        assert [
            [e.name for e in s.filters if isinstance(e, FunctionCall)]
            for s in planned.scans
        ] == [["bif:contains"], [], []]
        assert planned.scans[0].est_rows == 2
        for plan in (planned_plan, lowered_plan):
            assert not any("run time" in n.label() for n in walk(plan))
        assert_same_rows(graph, text)

    @pytest.mark.parametrize("element", [
        "VALUES ?u { <http://example.org/u/walter> "
        "<http://example.org/u/oscar> <http://example.org/u/nobody> }",
        "{ ?p rev:rating ?r } UNION { ?p foaf:maker ?u }",
        "GRAPH ?g { ?p foaf:maker ?u }",
    ], ids=["values", "union", "graph"])
    def test_group_elements_keep_their_written_place(self, graph, element):
        # the BGP is the most selective element, and still runs second
        text = f'SELECT * WHERE {{ {element} ?u foaf:name "walter" }}'
        planned = plan_query(graph, text)
        join = next(n for n in walk(planned.plan) if isinstance(n, JoinNode))
        assert [isinstance(e, BGPNode) for e in join.elements] == [
            False, True
        ]
        assert_same_rows(graph, text)

    def test_scan_actual_counts_recorded(self, graph):
        evaluator = Evaluator(graph)
        explanation = evaluator.explain(
            "SELECT ?p WHERE { ?p rev:rating ?r }"
        )
        scans = [
            n for n in walk(explanation.planned.plan)
            if isinstance(n, ScanStep)
        ]
        assert scans and all(s.actual_rows == 12 for s in scans)


class TestExplain:
    @pytest.mark.parametrize("album", [
        pytest.param(geo_album, id="Q1"),
        pytest.param(social_album, id="Q2"),
        pytest.param(rated_album, id="Q3"),
    ])
    def test_explain_reports_est_and_actual(self, graph, album):
        evaluator = Evaluator(graph)
        report = evaluator.explain(album().query).render()
        assert "est=" in report
        assert "actual=" in report
        assert "rows:" in report

    def test_explain_compare_times_naive(self, graph):
        evaluator = Evaluator(graph)
        report = evaluator.explain(
            rated_album().query, compare=True
        ).render()
        assert "naive:" in report
        assert "speedup:" in report

    def test_explain_without_execution(self, graph):
        evaluator = Evaluator(graph)
        report = evaluator.explain(
            rated_album().query, execute=False
        ).render()
        assert "est=" in report
        assert "actual=" not in report
