"""SPARQL linter tests — one golden (rule id + span) test per rule."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import Severity, Span, SparqlLinter, VocabularyIndex
from repro.sparql.parser import parse_query

FOAF_NAME = "http://xmlns.com/foaf/0.1/name"
FOAF_KNOWS = "http://xmlns.com/foaf/0.1/knows"
POST = "http://rdfs.org/sioc/types#MicroblogPost"


@pytest.fixture
def structural():
    """No vocabulary: only the structural rules fire."""
    return SparqlLinter()


@pytest.fixture
def vocab_linter():
    vocab = VocabularyIndex(
        predicates=[FOAF_NAME, FOAF_KNOWS], classes=[POST]
    )
    return SparqlLinter(vocabulary=vocab)


def rules_of(diags):
    return [d.rule for d in diags]


def only(diags, rule):
    matching = [d for d in diags if d.rule == rule]
    assert len(matching) == 1, f"expected one {rule}, got {diags}"
    return matching[0]


# ---------------------------------------------------------------------------
# SP002 — variable projected or used in an expression but never bound
# ---------------------------------------------------------------------------


def test_sp002_unbound_projection(structural):
    query = "SELECT ?x ?missing WHERE { ?x <http://e/p> ?x }"
    diag = only(structural.lint(query), "SP002")
    assert diag.severity is Severity.ERROR
    start = query.find("?missing")
    assert diag.span == Span(start, start + len("?missing"))


def test_sp002_not_raised_for_aggregate_alias(structural):
    query = (
        "SELECT (COUNT(?x) AS ?n) WHERE { ?x <http://e/p> ?x }"
    )
    assert "SP002" not in rules_of(structural.lint(query))


def test_sp002_filter_var_unbound(structural):
    query = "SELECT ?x WHERE { ?x <http://e/p> ?x FILTER(?z > 3) }"
    diag = only(structural.lint(query), "SP002")
    assert diag.severity is Severity.ERROR
    start = query.find("?z")
    assert diag.span == Span(start, start + 2)


def test_sp002_order_by_var_unbound(structural):
    query = "SELECT ?x WHERE { ?x <http://e/p> ?x } ORDER BY ?rating"
    diag = only(structural.lint(query), "SP002")
    assert "?rating" in diag.message


# ---------------------------------------------------------------------------
# SP003 — prefix resolved via the DEFAULT_PREFIXES fallback
# ---------------------------------------------------------------------------


def test_sp003_fallback_prefix(structural):
    query = "SELECT ?n WHERE { ?x foaf:name ?n . ?y foaf:knows ?x }"
    diag = only(structural.lint(query), "SP003")
    assert diag.severity is Severity.WARNING
    start = query.find("foaf:")
    assert diag.span == Span(start, start + len("foaf:"))


def test_sp003_silent_when_declared(structural):
    query = (
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
        "SELECT ?n WHERE { ?x foaf:name ?n . ?y foaf:knows ?x }"
    )
    assert "SP003" not in rules_of(structural.lint(query))


def test_parser_records_fallback_prefixes():
    query = "SELECT ?n WHERE { ?x foaf:name ?n }"
    parsed = parse_query(query)
    assert list(parsed.fallback_prefixes) == ["foaf"]
    assert parsed.fallback_prefixes["foaf"] == query.find("foaf:")
    assert parsed.prefixes == {}


# ---------------------------------------------------------------------------
# SP004 / SP005 — unknown predicate / class, with suggestions
# ---------------------------------------------------------------------------


def test_sp004_unknown_predicate_suggests_nearest(vocab_linter):
    query = "SELECT ?n WHERE { ?x <http://xmlns.com/foaf/0.1/nme> ?n }"
    diag = only(vocab_linter.lint(query), "SP004")
    assert diag.severity is Severity.ERROR
    assert diag.suggestion == FOAF_NAME
    start = query.find("<http")
    assert diag.span == Span(start, query.find(">") + 1)


def test_sp005_unknown_class_suggests_nearest(vocab_linter):
    query = (
        "SELECT ?x WHERE "
        "{ ?x a <http://rdfs.org/sioc/types#MicroblogPots> . "
        "?x <http://xmlns.com/foaf/0.1/name> ?x }"
    )
    diag = only(vocab_linter.lint(query), "SP005")
    assert diag.severity is Severity.ERROR
    assert diag.suggestion == POST


def test_known_terms_are_silent(vocab_linter):
    query = (
        "SELECT ?n WHERE { ?x a <%s> . ?x <%s> ?n . ?x <%s> ?x }"
        % (POST, FOAF_NAME, FOAF_KNOWS)
    )
    diags = vocab_linter.lint(query)
    assert "SP004" not in rules_of(diags)
    assert "SP005" not in rules_of(diags)


# ---------------------------------------------------------------------------
# SP006 — disconnected pattern (cartesian product)
# ---------------------------------------------------------------------------


def test_sp006_cartesian_product(structural):
    query = (
        "SELECT ?a ?b WHERE "
        "{ ?a <http://e/p> ?a . ?b <http://e/q> ?b }"
    )
    diag = only(structural.lint(query), "SP006")
    assert diag.severity is Severity.WARNING
    assert "?a" in diag.message and "?b" in diag.message


def test_sp006_filter_connects_components(structural):
    # the Q1 shape: two BGP islands joined only by a geo FILTER
    query = (
        "SELECT ?a ?b WHERE { ?a <http://e/geo> ?x . "
        "?b <http://e/geo> ?y "
        "FILTER(bif:st_intersects(?x, ?y, 0.3)) }"
    )
    assert "SP006" not in rules_of(structural.lint(query))


# ---------------------------------------------------------------------------
# SP007 — always-false filter
# ---------------------------------------------------------------------------


def test_sp007_constant_comparison(structural):
    query = "SELECT ?x WHERE { ?x <http://e/p> ?x FILTER(1 > 2) }"
    diag = only(structural.lint(query), "SP007")
    assert diag.severity is Severity.ERROR


def test_sp007_contradictory_bounds(structural):
    query = (
        "SELECT ?x WHERE { ?x <http://e/r> ?points "
        "FILTER(?points > 5 && ?points < 3) }"
    )
    diag = only(structural.lint(query), "SP007")
    assert "?points" in diag.message
    start = query.find("?points")
    assert diag.span == Span(start, start + len("?points"))


def test_sp007_satisfiable_bounds_are_silent(structural):
    query = (
        "SELECT ?x WHERE { ?x <http://e/r> ?points "
        "FILTER(?points >= 3 && ?points <= 5) }"
    )
    assert "SP007" not in rules_of(structural.lint(query))


# ---------------------------------------------------------------------------
# SP008 — bif: extension misuse
# ---------------------------------------------------------------------------


def test_sp008_unknown_bif_function(structural):
    query = (
        "SELECT ?x WHERE { ?x <http://e/geo> ?g "
        "FILTER(bif:st_intersect(?g, ?g)) }"
    )
    diag = only(structural.lint(query), "SP008")
    assert diag.suggestion == "bif:st_intersects"
    start = query.find("bif:st_intersect")
    assert diag.span == Span(start, start + len("bif:st_intersect"))


def test_sp008_wrong_arity(structural):
    query = (
        "SELECT ?x WHERE { ?x <http://e/geo> ?g "
        "FILTER(bif:st_distance(?g)) }"
    )
    diag = only(structural.lint(query), "SP008")
    assert "2 argument" in diag.message


def test_sp008_non_geometry_constant(structural):
    query = (
        'SELECT ?x WHERE { ?x <http://e/geo> ?g '
        'FILTER(bif:st_intersects(?g, "not a point", 0.3)) }'
    )
    diag = only(structural.lint(query), "SP008")
    assert "geometry" in diag.message


def test_sp008_magic_predicate_needs_string(structural):
    query = (
        "SELECT ?x WHERE { ?x <http://e/title> ?t . "
        "?t bif:contains 42 }"
    )
    diag = only(structural.lint(query), "SP008")
    assert "constant string" in diag.message


# ---------------------------------------------------------------------------
# SP009 — single-use variable
# ---------------------------------------------------------------------------


def test_sp009_single_use_variable(structural):
    query = "SELECT ?x WHERE { ?x <http://e/p> ?x . ?x <http://e/q> ?typo }"
    diag = only(structural.lint(query), "SP009")
    assert diag.severity is Severity.INFO
    start = query.find("?typo")
    assert diag.span == Span(start, start + len("?typo"))


def test_sp009_ignores_scan_all_pattern(structural):
    # ?p/?o under a variable predicate are not typo candidates
    query = "SELECT ?s WHERE { ?s ?p ?o }"
    assert "SP009" not in rules_of(structural.lint(query))


# ---------------------------------------------------------------------------
# Sub-selects and span-less AST input
# ---------------------------------------------------------------------------


def test_subselect_projection_binds_outer_scope(structural):
    query = (
        "SELECT ?n WHERE { { SELECT ?x WHERE "
        "{ ?x <http://e/p> ?x } } ?x <http://e/name> ?n }"
    )
    diags = structural.lint(query)
    assert "SP002" not in rules_of(diags)
    assert "SP006" not in rules_of(diags)


def test_lint_accepts_parsed_ast(structural):
    parsed = parse_query("SELECT ?x ?gone WHERE { ?x <http://e/p> ?x }")
    diag = only(structural.lint(parsed), "SP002")
    assert diag.span is None  # no source text to anchor to


# ---------------------------------------------------------------------------
# The linter never mutates the AST
# ---------------------------------------------------------------------------

_PROPERTY_QUERIES = [
    "SELECT ?x ?missing WHERE { ?x <http://e/p> ?y FILTER(?z > 3) }",
    "SELECT ?n WHERE { ?x foaf:name ?n . ?y foaf:knows ?x }",
    "SELECT ?a WHERE { ?a <http://e/p> ?a . ?b <http://e/q> ?b }",
    "ASK { ?s <http://e/p> ?o FILTER(1 > 2) }",
    "SELECT ?x WHERE { { SELECT ?y WHERE { ?y <http://e/p> ?x } } }",
    "SELECT ?x WHERE { ?x <http://e/r> ?v "
    "FILTER(?v > 5 && ?v < 3) } ORDER BY DESC(?v) LIMIT 3",
]


@given(index=st.integers(min_value=0, max_value=len(_PROPERTY_QUERIES) - 1))
def test_lint_never_mutates_ast(index):
    # terms are immutable (deepcopy is refused), so the reference
    # snapshot is an independent parse of the same text
    parsed = parse_query(_PROPERTY_QUERIES[index])
    snapshot = parse_query(_PROPERTY_QUERIES[index])
    assert parsed == snapshot
    SparqlLinter().lint(parsed)
    SparqlLinter(
        vocabulary=VocabularyIndex(predicates=[FOAF_NAME])
    ).lint(parsed)
    assert parsed == snapshot
