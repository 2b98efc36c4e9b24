"""Magic-predicate tests and property-based differential testing of the
BGP evaluator against a brute-force reference implementation."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, Literal, RDFS, URIRef
from repro.rdf.terms import Variable
from repro.analysis import SparqlLinter
from repro.sparql import Evaluator, parse_query, query
from repro.sparql.ast import BGP, GroupPattern, SelectQuery, \
    TriplePatternNode

EX = "http://example.org/"


def ex(name):
    return URIRef(EX + name)


class TestMagicContains:
    @pytest.fixture
    def labeled_graph(self):
        g = Graph()
        g.add((ex("mole"), RDFS.label,
               Literal("Mole Antonelliana", lang="it")))
        g.add((ex("colosseum"), RDFS.label, Literal("Roman Colosseum")))
        g.add((ex("tower"), RDFS.label, Literal("Eiffel Tower")))
        return g

    def test_magic_spelling_parses_to_the_filter(self):
        magic = parse_query(
            'SELECT ?m WHERE { ?m rdfs:label ?l . ?l bif:contains "x" }'
        )
        function = parse_query(
            'SELECT ?m WHERE { ?m rdfs:label ?l '
            'FILTER(bif:contains(?l, "x")) }'
        )
        assert magic == function

    def test_single_word(self, labeled_graph):
        result = query(
            labeled_graph,
            'SELECT ?m WHERE { ?m rdfs:label ?l . '
            '?l bif:contains "antonelliana" . }',
        )
        assert [r["m"] for r in result] == [ex("mole")]

    def test_and_semantics(self, labeled_graph):
        result = query(
            labeled_graph,
            'SELECT ?m WHERE { ?m rdfs:label ?l . '
            '?l bif:contains "roman colosseum" . }',
        )
        assert [r["m"] for r in result] == [ex("colosseum")]

    def test_or_semantics(self, labeled_graph):
        result = query(
            labeled_graph,
            'SELECT ?m WHERE { ?m rdfs:label ?l . '
            "?l bif:contains \"mole OR eiffel\" . }",
        )
        assert {r["m"] for r in result} == {ex("mole"), ex("tower")}

    def test_no_match(self, labeled_graph):
        result = query(
            labeled_graph,
            'SELECT ?m WHERE { ?m rdfs:label ?l . '
            '?l bif:contains "pantheon" . }',
        )
        assert len(result) == 0

    #: the same group as the WHERE clause, and inside an EXISTS that no
    #: planner orders — each planned and run as lowered
    SHAPES = [
        (shape, optimize)
        for shape in (
            "SELECT * WHERE {{ {} }}",
            "SELECT ?m WHERE {{ ?m rdfs:label ?any "
            "FILTER EXISTS {{ {} }} }}",
        )
        for optimize in (True, False)
    ]

    def test_unbound_subject_rejected(self, labeled_graph):
        # a FILTER on a variable nothing binds: no row passes, and the
        # linter reports the variable
        for shape, optimize in self.SHAPES:
            text = shape.format('?l bif:contains "mole" .')
            assert len(query(labeled_graph, text, optimize=optimize)) == 0
            assert "SP002" in [d.rule for d in SparqlLinter().lint(text)]

    def test_deferred_after_binding_pattern(self, labeled_graph):
        # the magic pattern appears FIRST but must evaluate after the
        # label pattern binds ?l
        for shape, optimize in self.SHAPES:
            text = shape.format(
                '?l bif:contains "eiffel" . ?m rdfs:label ?l .'
            )
            result = query(labeled_graph, text, optimize=optimize)
            assert [r["m"] for r in result] == [ex("tower")], (
                text, optimize
            )


# ---------------------------------------------------------------------------
# Differential testing: evaluator vs. brute-force join
# ---------------------------------------------------------------------------

_NODES = [ex(c) for c in "abcd"]
_PREDS = [ex(p) for p in ("p", "q")]
_VARS = [Variable(v) for v in ("x", "y", "z")]

_triples = st.tuples(
    st.sampled_from(_NODES),
    st.sampled_from(_PREDS),
    st.sampled_from(_NODES),
)

_pattern_terms = st.sampled_from(_NODES + _VARS)
_pred_terms = st.sampled_from(_PREDS + _VARS)
_patterns = st.builds(
    TriplePatternNode,
    subject=_pattern_terms,
    predicate=_pred_terms,
    object=_pattern_terms,
)


def _brute_force(graph, patterns):
    """Reference BGP semantics: try every assignment of graph triples to
    patterns and keep consistent variable bindings."""
    solutions = set()
    triples = list(graph.triples())
    for combo in itertools.product(triples, repeat=len(patterns)):
        binding = {}
        ok = True
        for pattern, (s, p, o) in zip(patterns, combo):
            for position, value in (
                (pattern.subject, s),
                (pattern.predicate, p),
                (pattern.object, o),
            ):
                if isinstance(position, Variable):
                    if binding.get(position, value) != value:
                        ok = False
                        break
                    binding[position] = value
                elif position != value:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            solutions.add(tuple(sorted(
                (str(k), v) for k, v in binding.items()
            )))
    return solutions


@settings(max_examples=60, deadline=None)
@given(
    graph_triples=st.lists(_triples, min_size=0, max_size=12),
    patterns=st.lists(_patterns, min_size=1, max_size=3),
)
def test_bgp_matches_brute_force(graph_triples, patterns):
    graph = Graph()
    graph.add_all(graph_triples)

    variables = []
    for pattern in patterns:
        for var in pattern.variables():
            if var not in variables:
                variables.append(var)
    select = SelectQuery(
        variables=variables,
        where=GroupPattern([BGP(list(patterns))]),
        distinct=True,
    )
    result = Evaluator(graph).evaluate(select)
    actual = {
        tuple(sorted((str(k), v) for k, v in row.items()))
        for row in result
    }
    assert actual == _brute_force(graph, patterns)
