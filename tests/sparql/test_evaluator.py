"""SPARQL evaluator tests, including the paper's queries Q1–Q3 verbatim."""

import pytest

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
    URIRef,
)
from repro.sparql import Evaluator, SparqlEvalError, SparqlSyntaxError, query
from repro.sparql.geo import Point

from .executor_cases import CASES, build_dataset, normalize

EX = "http://example.org/"


def ex(name):
    return URIRef(EX + name)


MOLE_POS = Point(7.6934, 45.0692)
NEAR_MOLE = Point(7.6930, 45.0690)
FAR_AWAY = Point(7.6500, 45.0300)


@pytest.fixture
def turin_graph():
    """The paper's running scenario: UGC around the Mole Antonelliana."""
    g = Graph()
    # The monument (DBpedia-style resource)
    mole = ex("Mole_Antonelliana")
    g.add((mole, RDFS.label, Literal("Mole Antonelliana", lang="it")))
    g.add((mole, GEO.geometry, MOLE_POS.to_literal()))
    # Users
    oscar, walter, carmen = ex("u/oscar"), ex("u/walter"), ex("u/carmen")
    g.add((oscar, FOAF.name, Literal("oscar")))
    g.add((walter, FOAF.name, Literal("walter")))
    g.add((carmen, FOAF.name, Literal("carmen")))
    g.add((walter, FOAF.knows, oscar))
    # carmen does NOT know oscar
    # Content near the Mole by walter (friend of oscar)
    pic1 = ex("pic/1")
    g.add((pic1, RDF.type, SIOCT.MicroblogPost))
    g.add((pic1, GEO.geometry, NEAR_MOLE.to_literal()))
    g.add((pic1, COMM["image-data"], Literal("http://cdn/pic1.jpg")))
    g.add((pic1, FOAF.maker, walter))
    g.add((pic1, REV.rating, Literal(5)))
    # Content near the Mole by carmen (not a friend)
    pic2 = ex("pic/2")
    g.add((pic2, RDF.type, SIOCT.MicroblogPost))
    g.add((pic2, GEO.geometry, NEAR_MOLE.to_literal()))
    g.add((pic2, COMM["image-data"], Literal("http://cdn/pic2.jpg")))
    g.add((pic2, FOAF.maker, carmen))
    g.add((pic2, REV.rating, Literal(3)))
    # Content far away by walter
    pic3 = ex("pic/3")
    g.add((pic3, RDF.type, SIOCT.MicroblogPost))
    g.add((pic3, GEO.geometry, FAR_AWAY.to_literal()))
    g.add((pic3, COMM["image-data"], Literal("http://cdn/pic3.jpg")))
    g.add((pic3, FOAF.maker, walter))
    g.add((pic3, REV.rating, Literal(4)))
    # A second walter picture near the Mole, lower rating
    pic4 = ex("pic/4")
    g.add((pic4, RDF.type, SIOCT.MicroblogPost))
    g.add((pic4, GEO.geometry, NEAR_MOLE.to_literal()))
    g.add((pic4, COMM["image-data"], Literal("http://cdn/pic4.jpg")))
    g.add((pic4, FOAF.maker, walter))
    g.add((pic4, REV.rating, Literal(2)))
    return g


@pytest.fixture(scope="module")
def turin_workload_graph():
    """A generated Turin workload union graph (optimizer regression)."""
    from repro.platform import Platform
    from repro.workloads import (
        WorkloadConfig,
        generate_workload,
        populate_platform,
    )

    platform = Platform()
    workload = generate_workload(WorkloadConfig(
        n_users=10, n_contents=100, cities=("Turin",), seed=42
    ))
    populate_platform(platform, workload)
    platform.semanticize()
    return platform.union_graph()


class TestBasicSelect:
    def test_single_pattern(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT ?n WHERE { <http://example.org/u/oscar> "
            "<http://xmlns.com/foaf/0.1/name> ?n }",
        )
        assert [r["n"].lexical for r in result] == ["oscar"]

    def test_join_two_patterns(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?pic WHERE {
                 ?pic foaf:maker ?u .
                 ?u foaf:name "walter" .
               }""",
        )
        assert len(result) == 3

    def test_select_star(self, turin_graph):
        result = query(
            turin_graph,
            'SELECT * WHERE { ?u foaf:name "oscar" }',
        )
        assert result.variables == ["u"]
        assert result.first("u") == ex("u/oscar")

    def test_a_shorthand(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT ?r WHERE { ?r a sioct:MicroblogPost }",
        )
        assert len(result) == 4

    def test_no_match(self, turin_graph):
        result = query(
            turin_graph, 'SELECT ?u WHERE { ?u foaf:name "nobody" }'
        )
        assert len(result) == 0
        assert not result

    def test_shared_variable_join_on_object(self, turin_graph):
        # pictures sharing the same geometry
        result = query(
            turin_graph,
            """SELECT DISTINCT ?a ?b WHERE {
                 ?a geo:geometry ?g . ?b geo:geometry ?g .
                 FILTER (?a != ?b) .
                 ?a a sioct:MicroblogPost . ?b a sioct:MicroblogPost .
               }""",
        )
        # pic1, pic2, pic4 pairwise = 6 ordered pairs
        assert len(result) == 6

    def test_lang_literal_match(self, turin_graph):
        result = query(
            turin_graph,
            'SELECT ?m WHERE { ?m rdfs:label "Mole Antonelliana"@it }',
        )
        assert result.first("m") == ex("Mole_Antonelliana")

    def test_lang_literal_mismatch(self, turin_graph):
        result = query(
            turin_graph,
            'SELECT ?m WHERE { ?m rdfs:label "Mole Antonelliana"@en }',
        )
        assert len(result) == 0

    def test_distinct(self, turin_graph):
        no_distinct = query(
            turin_graph,
            "SELECT ?g WHERE { ?p a sioct:MicroblogPost . "
            "?p geo:geometry ?g }",
        )
        distinct = query(
            turin_graph,
            "SELECT DISTINCT ?g WHERE { ?p a sioct:MicroblogPost . "
            "?p geo:geometry ?g }",
        )
        assert len(no_distinct) == 4
        assert len(distinct) == 2

    def test_limit_offset(self, turin_graph):
        all_rows = query(
            turin_graph,
            "SELECT ?p WHERE { ?p a sioct:MicroblogPost } ORDER BY ?p",
        )
        page = query(
            turin_graph,
            "SELECT ?p WHERE { ?p a sioct:MicroblogPost } "
            "ORDER BY ?p LIMIT 2 OFFSET 1",
        )
        assert [r["p"] for r in page] == [r["p"] for r in all_rows][1:3]

    def test_order_by_desc_rating(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT ?p ?r WHERE { ?p rev:rating ?r } ORDER BY DESC(?r)",
        )
        ratings = [r["r"].value for r in result]
        assert ratings == sorted(ratings, reverse=True)

    def test_order_by_ascending_default(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT ?r WHERE { ?p rev:rating ?r } ORDER BY ?r",
        )
        ratings = [r["r"].value for r in result]
        assert ratings == sorted(ratings)


class TestFilters:
    def test_numeric_comparison(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT ?p WHERE { ?p rev:rating ?r . FILTER(?r >= 4) }",
        )
        assert {str(r["p"]) for r in result} == {EX + "pic/1", EX + "pic/3"}

    def test_inequality(self, turin_graph):
        result = query(
            turin_graph,
            'SELECT ?u WHERE { ?u foaf:name ?n . FILTER(?n != "oscar") }',
        )
        assert len(result) == 2

    def test_regex(self, turin_graph):
        result = query(
            turin_graph,
            'SELECT ?u WHERE { ?u foaf:name ?n . FILTER regex(?n, "^wa") }',
        )
        assert result.first("u") == ex("u/walter")

    def test_regex_case_insensitive_flag(self, turin_graph):
        result = query(
            turin_graph,
            'SELECT ?u WHERE { ?u foaf:name ?n . '
            'FILTER regex(?n, "OSCAR", "i") }',
        )
        assert result.first("u") == ex("u/oscar")

    def test_langmatches(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT ?l WHERE { ?m rdfs:label ?l . "
            "FILTER langMatches(lang(?l), 'it') }",
        )
        assert len(result) == 1

    def test_in_operator(self, turin_graph):
        result = query(
            turin_graph,
            'SELECT ?u WHERE { ?u foaf:name ?n . '
            'FILTER (?n IN ("oscar", "carmen")) }',
        )
        assert len(result) == 2

    def test_not_in_operator(self, turin_graph):
        result = query(
            turin_graph,
            'SELECT ?u WHERE { ?u foaf:name ?n . '
            'FILTER (?n NOT IN ("oscar", "carmen")) }',
        )
        assert result.first("u") == ex("u/walter")

    def test_boolean_connectives(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT ?p WHERE { ?p rev:rating ?r . "
            "FILTER(?r > 2 && ?r < 5) }",
        )
        assert len(result) == 2  # ratings 3 and 4

    def test_or_connective(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT ?p WHERE { ?p rev:rating ?r . "
            "FILTER(?r = 2 || ?r = 5) }",
        )
        assert len(result) == 2

    def test_negation(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT ?p WHERE { ?p rev:rating ?r . FILTER(!(?r = 5)) }",
        )
        assert len(result) == 3

    def test_arithmetic_in_filter(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT ?p WHERE { ?p rev:rating ?r . FILTER(?r * 2 >= 8) }",
        )
        assert len(result) == 2

    def test_type_error_rejects_solution(self, turin_graph):
        # comparing a name (string) with a number errors -> row dropped
        result = query(
            turin_graph,
            "SELECT ?u WHERE { ?u foaf:name ?n . FILTER(?n > 3) }",
        )
        assert len(result) == 0

    def test_unbound_variable_in_filter_rejects(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT ?u WHERE { ?u foaf:name ?n . FILTER(?missing = 1) }",
        )
        assert len(result) == 0

    def test_bound_function(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?p WHERE {
                 ?p a sioct:MicroblogPost .
                 OPTIONAL { ?p rev:rating ?r . FILTER(?r > 10) }
                 FILTER (!bound(?r))
               }""",
        )
        assert len(result) == 4

    def test_exists(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?u WHERE {
                 ?u foaf:name ?n .
                 FILTER EXISTS { ?u foaf:knows ?other }
               }""",
        )
        assert result.first("u") == ex("u/walter")

    def test_not_exists(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?u WHERE {
                 ?u foaf:name ?n .
                 FILTER NOT EXISTS { ?u foaf:knows ?other }
               }""",
        )
        assert len(result) == 2

    def test_filter_position_independent(self, turin_graph):
        # FILTER textually before the pattern it constrains still applies
        result = query(
            turin_graph,
            "SELECT ?p WHERE { FILTER(?r >= 4) ?p rev:rating ?r . }",
        )
        assert len(result) == 2


class TestOptionalUnionValues:
    def test_optional_binds_when_present(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?u ?friend WHERE {
                 ?u foaf:name ?n .
                 OPTIONAL { ?u foaf:knows ?friend }
               }""",
        )
        by_user = {str(r["u"]): r.get(
            next((k for k in r if str(k) == "friend"), None))
            for r in result}
        assert by_user[EX + "u/walter"] == ex("u/oscar")
        assert by_user[EX + "u/carmen"] is None

    def test_union(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?x WHERE {
                 { ?x foaf:name "oscar" } UNION { ?x foaf:name "carmen" }
               }""",
        )
        assert {str(r["x"]) for r in result} == {
            EX + "u/oscar", EX + "u/carmen",
        }

    def test_three_way_union(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?x WHERE {
                 { ?x foaf:name "oscar" } UNION { ?x foaf:name "carmen" }
                 UNION { ?x foaf:name "walter" }
               }""",
        )
        assert len(result) == 3

    def test_values_single_var(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?p ?r WHERE {
                 VALUES ?r { 5 3 }
                 ?p rev:rating ?r .
               }""",
        )
        assert len(result) == 2

    def test_values_multi_var_with_undef(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?n ?r WHERE {
                 VALUES (?n ?r) { ("walter" UNDEF) }
                 ?u foaf:name ?n .
                 ?p foaf:maker ?u . ?p rev:rating ?r .
               }""",
        )
        assert len(result) == 3

    def test_bind(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?p ?double WHERE {
                 ?p rev:rating ?r .
                 BIND(?r * 2 AS ?double)
               } ORDER BY DESC(?double)""",
        )
        assert result.first("double").value == 10

    def test_nested_groups(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?p WHERE {
                 { { ?p rev:rating ?r . FILTER(?r = 5) } }
               }""",
        )
        assert len(result) == 1


class TestSubSelect:
    def test_subselect_with_limit(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?p ?r WHERE {
                 { SELECT ?p ?r WHERE { ?p rev:rating ?r }
                   ORDER BY DESC(?r) LIMIT 2 }
               }""",
        )
        assert sorted(r["r"].value for r in result) == [4, 5]

    def test_subselect_joined_with_outer(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?p ?link WHERE {
                 { SELECT ?p WHERE { ?p rev:rating ?r . FILTER(?r >= 4) } }
                 ?p comm:image-data ?link .
               }""",
        )
        assert len(result) == 2

    def test_union_of_subselects(self, turin_graph):
        # the mashup query's structure: UNION branches of sub-SELECTs
        result = query(
            turin_graph,
            """SELECT DISTINCT ?x WHERE {
                 { SELECT ?x WHERE { ?x foaf:name "oscar" } LIMIT 5 }
                 UNION
                 { SELECT ?x WHERE { ?x rev:rating 5 } LIMIT 5 }
               }""",
        )
        assert len(result) == 2


class TestAggregates:
    def test_count_star(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT (COUNT(*) AS ?n) WHERE { ?p a sioct:MicroblogPost }",
        )
        assert result.first("n").value == 4

    def test_count_group_by(self, turin_graph):
        result = query(
            turin_graph,
            """SELECT ?u (COUNT(?p) AS ?n) WHERE {
                 ?p foaf:maker ?u .
               } GROUP BY ?u ORDER BY DESC(?n)""",
        )
        assert result.first("n").value == 3

    def test_avg(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT (AVG(?r) AS ?avg) WHERE { ?p rev:rating ?r }",
        )
        assert result.first("avg").value == pytest.approx(3.5)

    def test_min_max_sum(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT (MIN(?r) AS ?lo) (MAX(?r) AS ?hi) (SUM(?r) AS ?total) "
            "WHERE { ?p rev:rating ?r }",
        )
        row = result.first()
        values = {str(k): v.value for k, v in row.items()}
        assert values == {"lo": 2, "hi": 5, "total": 14}

    def test_count_distinct(self, turin_graph):
        result = query(
            turin_graph,
            "SELECT (COUNT(DISTINCT ?g) AS ?n) WHERE "
            "{ ?p a sioct:MicroblogPost . ?p geo:geometry ?g }",
        )
        assert result.first("n").value == 2


class TestOtherForms:
    def test_ask_true(self, turin_graph):
        assert query(turin_graph, 'ASK { ?u foaf:name "oscar" }') is True

    def test_ask_false(self, turin_graph):
        assert query(turin_graph, 'ASK { ?u foaf:name "zed" }') is False

    def test_construct(self, turin_graph):
        g = query(
            turin_graph,
            """CONSTRUCT { ?u <http://example.org/madeSomething> ?p }
               WHERE { ?p foaf:maker ?u }""",
        )
        assert len(g) == 4
        assert (ex("u/walter"), ex("madeSomething"), ex("pic/1")) in g

    def test_construct_skips_invalid_triples(self, turin_graph):
        g = query(
            turin_graph,
            """CONSTRUCT { ?n <http://example.org/p> ?u }
               WHERE { ?u foaf:name ?n }""",
        )
        assert len(g) == 0  # literal subjects dropped

    def test_describe(self, turin_graph):
        g = query(
            turin_graph, "DESCRIBE <http://example.org/Mole_Antonelliana>"
        )
        assert len(g) == 2

    def test_describe_with_where(self, turin_graph):
        g = query(
            turin_graph,
            'DESCRIBE ?u WHERE { ?u foaf:name "walter" }',
        )
        assert (ex("u/walter"), FOAF.knows, ex("u/oscar")) in g


class TestErrors:
    def test_syntax_error(self, turin_graph):
        with pytest.raises(SparqlSyntaxError):
            query(turin_graph, "SELECT WHERE { }")

    def test_trailing_garbage(self, turin_graph):
        with pytest.raises(SparqlSyntaxError):
            query(turin_graph, "ASK { ?s ?p ?o } garbage")

    def test_unknown_function(self, turin_graph):
        with pytest.raises(SparqlEvalError):
            query(
                turin_graph,
                "SELECT ?u WHERE { ?u foaf:name ?n . "
                "FILTER <http://no.such/fn>(?n) }",
            )

    def test_unknown_prefix(self, turin_graph):
        with pytest.raises(SparqlSyntaxError):
            query(turin_graph, "SELECT ?x WHERE { ?x nosuch:p ?y }")


# ---------------------------------------------------------------------------
# The paper's worked queries (section 2.3), verbatim modulo prefix hygiene.
# ---------------------------------------------------------------------------

Q1 = """
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX sioct: <http://rdfs.org/sioc/types#>
PREFIX comm: <http://comm.semanticweb.org/core.owl#>
PREFIX rev: <http://purl.org/stuff/rev#>
SELECT DISTINCT ?link WHERE {
  ?monument rdfs:label "Mole Antonelliana"@it .
  ?monument geo:geometry ?sourceGEO .
  ?resource geo:geometry ?location .
  ?resource a sioct:MicroblogPost .
  ?resource comm:image-data ?link .
  FILTER(bif:st_intersects(?location, ?sourceGEO, 0.3)) .
}
"""

Q2 = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT DISTINCT ?link WHERE {
  ?monument rdfs:label "Mole Antonelliana"@it .
  ?monument geo:geometry ?sourceGEO .
  ?resource geo:geometry ?location .
  ?resource a sioct:MicroblogPost .
  ?resource comm:image-data ?link .
  ?resource foaf:maker ?user .
  ?oscar foaf:name "oscar" .
  ?user foaf:knows ?oscar .
  FILTER( bif:st_intersects( ?location, ?sourceGEO, 0.3 ) ) .
}
"""

Q3 = """
SELECT DISTINCT ?link ?points WHERE {
  ?monument rdfs:label "Mole Antonelliana"@it .
  ?monument geo:geometry ?sourceGEO .
  ?resource geo:geometry ?location .
  ?resource a sioct:MicroblogPost .
  ?resource comm:image-data ?link .
  ?resource foaf:maker ?user .
  ?oscar foaf:name "oscar" .
  ?user foaf:knows ?oscar .
  ?resource rev:rating ?points .
  FILTER( bif:st_intersects( ?location, ?sourceGEO, 0.3 ) ) .
}
ORDER BY DESC(?points)
"""


class TestPaperQueries:
    def test_q1_geo_album(self, turin_graph):
        result = query(turin_graph, Q1)
        links = {r["link"].lexical for r in result}
        # pic1, pic2, pic4 are near the Mole; pic3 is too far
        assert links == {
            "http://cdn/pic1.jpg",
            "http://cdn/pic2.jpg",
            "http://cdn/pic4.jpg",
        }

    def test_q2_social_filter(self, turin_graph):
        result = query(turin_graph, Q2)
        links = {r["link"].lexical for r in result}
        # carmen's pic2 drops out: she does not know oscar
        assert links == {"http://cdn/pic1.jpg", "http://cdn/pic4.jpg"}

    def test_q3_rating_order(self, turin_graph):
        result = query(turin_graph, Q3)
        links = [r["link"].lexical for r in result]
        # walter's two near-Mole pictures ordered by rating desc (5 then 2)
        assert links == ["http://cdn/pic1.jpg", "http://cdn/pic4.jpg"]

    # -- optimizer regression pins -------------------------------------
    # The planner's rewritten execution must be indistinguishable from
    # the naive path: same rows, byte for byte, in a deterministic
    # serialization (ORDER BY sequences compared in order).

    @staticmethod
    def _rows(result):
        return sorted(
            tuple(sorted((str(k), str(v)) for k, v in row.items()))
            for row in result
        )

    def test_q1_optimized_matches_naive(self, turin_graph):
        optimized = query(turin_graph, Q1)
        naive = query(turin_graph, Q1, optimize=False)
        assert self._rows(optimized) == self._rows(naive)
        assert len(optimized) == 3

    def test_q2_optimized_matches_naive(self, turin_graph):
        optimized = query(turin_graph, Q2)
        naive = query(turin_graph, Q2, optimize=False)
        assert self._rows(optimized) == self._rows(naive)

    def test_q3_optimized_matches_naive(self, turin_graph):
        optimized = query(turin_graph, Q3)
        naive = query(turin_graph, Q3, optimize=False)
        # ORDER BY DESC(?points): the sequence itself must match
        assert (
            [r["link"].lexical for r in optimized]
            == [r["link"].lexical for r in naive]
        )
        assert self._rows(optimized) == self._rows(naive)

    def test_m1_optimized_matches_naive(self, turin_workload_graph):
        from repro.core.mashup import mashup_query

        text = mashup_query(pid=1)
        optimized = query(turin_workload_graph, text)
        naive = query(turin_workload_graph, text, optimize=False)
        assert self._rows(optimized) == self._rows(naive)
        assert len(optimized) > 0

    def test_q1_q3_on_workload(self, turin_workload_graph):
        for text in (Q1, Q2, Q3):
            optimized = query(turin_workload_graph, text)
            naive = query(turin_workload_graph, text, optimize=False)
            assert self._rows(optimized) == self._rows(naive)


# ---------------------------------------------------------------------------
# One executor: whichever plan it is handed, the answer is the same
# literal rows (tests/sparql/executor_cases.py holds queries + answers).
# ---------------------------------------------------------------------------

def _planned_without_statistics(graph):
    from repro.analysis import QueryPlanner

    # scans ordered by bound positions alone, no estimates
    return Evaluator(graph, planner=QueryPlanner(stats=None))


class TestOneExecutor:
    CONFIGURATIONS = [
        pytest.param(lambda g: Evaluator(g, optimize=True), id="optimized"),
        pytest.param(lambda g: Evaluator(g, optimize=False), id="reference"),
        pytest.param(_planned_without_statistics, id="no-passes"),
    ]

    @pytest.mark.parametrize("build", CONFIGURATIONS)
    @pytest.mark.parametrize(
        "text,expected",
        [pytest.param(text, expected, id=name)
         for name, text, expected in CASES],
    )
    def test_literal_rows(self, build, text, expected):
        assert normalize(build(build_dataset()).evaluate(text)) == expected

    @pytest.mark.parametrize("build", CONFIGURATIONS)
    def test_unbindable_contains_subject_raises(self, build):
        with pytest.raises(SparqlEvalError, match="subject to be bound"):
            build(build_dataset()).evaluate(
                'SELECT ?l WHERE { ?l bif:contains "mole" }'
            )

    def test_exists_group_is_lowered_once(self):
        from repro.sparql import parse_query

        evaluator = Evaluator(build_dataset(), optimize=False)
        parsed = parse_query(next(
            text for name, text, _ in CASES if name == "filter-exists"
        ))
        evaluator.evaluate(parsed)
        evaluator.evaluate(parsed)
        # three candidate users, two evaluations, one lowering
        assert len(evaluator._exists_plans) == 1
