"""Result container and serialization tests."""

import json

import pytest

from repro.rdf import BNode, FOAF, Graph, Literal, URIRef
from repro.sparql import Evaluator
from repro.sparql.results import SelectResult
from repro.rdf.terms import Variable

EX = "http://example.org/"


@pytest.fixture
def result():
    g = Graph()
    g.add((URIRef(EX + "alice"), FOAF.name, Literal("Alice")))
    g.add((URIRef(EX + "alice"), FOAF.age, Literal(30)))
    g.add((URIRef(EX + "bob"), FOAF.name, Literal("Bob", lang="en")))
    g.add((URIRef(EX + "bob"), FOAF.knows, BNode("friend")))
    return Evaluator(g).evaluate(
        """SELECT ?s ?name ?age WHERE {
             ?s foaf:name ?name .
             OPTIONAL { ?s foaf:age ?age }
           } ORDER BY ?s"""
    )


class TestContainer:
    def test_len_iter_index(self, result):
        assert len(result) == 2
        assert list(result)[0] == result[0]

    def test_values_column(self, result):
        names = result.values("name")
        assert [n.lexical for n in names] == ["Alice", "Bob"]

    def test_values_with_unbound(self, result):
        ages = result.values("age")
        assert ages[0].value == 30
        assert ages[1] is None

    def test_first(self, result):
        assert result.first("name").lexical == "Alice"
        assert result.first() is result.rows[0]

    def test_first_on_empty(self):
        empty = SelectResult([Variable("x")], [])
        assert empty.first() is None
        assert not empty


class TestJson:
    def test_w3c_structure(self, result):
        doc = json.loads(result.to_json())
        assert doc["head"]["vars"] == ["s", "name", "age"]
        bindings = doc["results"]["bindings"]
        assert len(bindings) == 2

    def test_term_encodings(self, result):
        doc = json.loads(result.to_json())
        alice = doc["results"]["bindings"][0]
        assert alice["s"] == {"type": "uri", "value": EX + "alice"}
        assert alice["name"] == {"type": "literal", "value": "Alice"}
        assert alice["age"]["datatype"].endswith("integer")

    def test_lang_tag_encoding(self, result):
        doc = json.loads(result.to_json())
        bob = doc["results"]["bindings"][1]
        assert bob["name"]["xml:lang"] == "en"

    def test_unbound_omitted(self, result):
        doc = json.loads(result.to_json())
        assert "age" not in doc["results"]["bindings"][1]

    def test_bnode_encoding(self):
        g = Graph()
        g.add((URIRef(EX + "bob"), FOAF.knows, BNode("friend")))
        res = Evaluator(g).evaluate(
            "SELECT ?o WHERE { ?s foaf:knows ?o }"
        )
        doc = json.loads(res.to_json())
        assert doc["results"]["bindings"][0]["o"]["type"] == "bnode"


class TestTable:
    def test_alignment(self, result):
        table = result.to_table()
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert len(set(len(line) for line in lines)) == 1

    def test_truncation(self):
        res = SelectResult(
            [Variable("x")], [{Variable("x"): Literal("y" * 100)}]
        )
        cell = res.to_table().splitlines()[-1]
        assert cell == "y" * 39 + "…"

    def test_repr(self, result):
        assert "rows=2" in repr(result)
