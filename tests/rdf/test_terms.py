"""Unit tests for the RDF term model."""

import pytest
from hypothesis import given, strategies as st

from repro.rdf.terms import (
    BNode,
    Literal,
    URIRef,
    Variable,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    escape_iri,
    escape_literal,
    term_from_python,
    unescape_literal,
)


class TestURIRef:
    def test_n3(self):
        assert URIRef("http://example.org/a").n3() == "<http://example.org/a>"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            URIRef("")

    def test_equality_with_same_uri(self):
        assert URIRef("http://x/a") == URIRef("http://x/a")

    def test_inequality_with_literal_of_same_text(self):
        assert URIRef("http://x/a") != Literal("http://x/a")

    def test_hash_distinct_from_plain_string_literal(self):
        # URIRef and Literal with equal text must not collide as dict keys.
        d = {URIRef("http://x/a"): 1, Literal("http://x/a"): 2}
        assert len(d) == 2

    def test_local_name_hash(self):
        assert URIRef("http://x/v#name").local_name() == "name"

    def test_local_name_slash(self):
        assert URIRef("http://dbpedia.org/resource/Turin").local_name() == "Turin"

    def test_is_str_subclass(self):
        assert URIRef("http://x/a").startswith("http://")


class TestBNode:
    def test_fresh_labels_unique(self):
        assert BNode() != BNode()

    def test_explicit_label(self):
        assert BNode("n1") == BNode("n1")

    def test_n3(self):
        assert BNode("n1").n3() == "_:n1"

    def test_not_equal_uriref(self):
        assert BNode("a") != URIRef("a")


class TestLiteral:
    def test_plain(self):
        lit = Literal("hello")
        assert lit.lexical == "hello"
        assert lit.lang is None
        assert lit.datatype is None
        assert lit.n3() == '"hello"'

    def test_lang(self):
        lit = Literal("Mole Antonelliana", lang="it")
        assert lit.n3() == '"Mole Antonelliana"@it'

    def test_lang_normalized_lowercase(self):
        assert Literal("x", lang="IT").lang == "it"

    def test_invalid_lang_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", lang="not a lang")

    def test_lang_and_datatype_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", lang="en", datatype=XSD_STRING)

    def test_int_coercion(self):
        lit = Literal(42)
        assert lit.datatype == XSD_INTEGER
        assert lit.value == 42
        assert lit.is_numeric

    def test_float_coercion(self):
        lit = Literal(1.5)
        assert lit.datatype == XSD_DOUBLE
        assert lit.value == 1.5

    def test_bool_coercion(self):
        lit = Literal(True)
        assert lit.datatype == XSD_BOOLEAN
        assert lit.value is True
        assert lit.lexical == "true"

    def test_bad_numeric_lexical_falls_back(self):
        lit = Literal("abc", datatype=XSD_INTEGER)
        assert lit.value == "abc"
        assert not lit.is_numeric

    def test_equality_value_vs_typed(self):
        # a literal's value compares in SPARQL filters, never through ==
        assert Literal(3).value == 3
        assert Literal("3", datatype=XSD_INTEGER).value == 3
        assert Literal(3) != 3
        assert Literal("3") != 3

    def test_a_literal_equals_and_hashes_only_as_a_literal(self):
        assert Literal("x") != "x"
        assert len({Literal("x"), "x"}) == 2
        for value in (True, 3, 2.5):
            assert Literal(value) != value
            assert len({Literal(value), value}) == 2

    def test_lang_literals_distinct(self):
        assert Literal("Turin", lang="en") != Literal("Turin", lang="it")
        assert Literal("Turin", lang="en") != Literal("Turin")

    def test_immutable(self):
        lit = Literal("x")
        with pytest.raises(AttributeError):
            lit.lexical = "y"

    def test_escaping_in_n3(self):
        lit = Literal('say "hi"\n')
        assert lit.n3() == '"say \\"hi\\"\\n"'

    def test_numeric_sorting_by_value(self):
        assert Literal(2) < Literal(10)
        assert Literal("2", datatype=XSD_INTEGER) < Literal(10.5)

    def test_str_returns_lexical(self):
        assert str(Literal("abc", lang="en")) == "abc"


class TestVariable:
    def test_strips_question_mark(self):
        assert Variable("?x") == Variable("x")

    def test_strips_dollar(self):
        assert Variable("$x") == Variable("x")

    def test_n3(self):
        assert Variable("link").n3() == "?link"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Variable("?")


class TestOrdering:
    def test_sparql_term_order(self):
        # blank nodes < IRIs < literals
        assert BNode("z") < URIRef("http://a")
        assert URIRef("http://z") < Literal("a")

    def test_sorting_is_deterministic(self):
        terms = [Literal("b"), URIRef("http://a"), BNode("x"), Literal(5)]
        assert sorted(terms) == sorted(reversed(terms))


class TestEscaping:
    @given(st.text())
    def test_escape_roundtrip(self, text):
        assert unescape_literal(escape_literal(text)) == text

    def test_unicode_escape(self):
        assert unescape_literal("\\u00e9") == "é"
        assert unescape_literal("\\U0001F600") == "😀"

    def test_dangling_escape_rejected(self):
        with pytest.raises(ValueError):
            unescape_literal("abc\\")

    def test_unknown_escape_rejected(self):
        with pytest.raises(ValueError):
            unescape_literal("\\q")


def _escape_iri_by_character(iri):
    """The character walk ``escape_iri`` replaced, kept as reference."""
    out = []
    for ch in iri:
        code = ord(ch)
        if (
            ch in '<>"{}|^`\\'
            or code <= 0x20
            or 0xD800 <= code <= 0xDFFF
        ):
            out.append(f"\\u{code:04X}")
        else:
            out.append(ch)
    return "".join(out)


class TestEscapeIri:
    def test_every_excluded_character(self):
        assert escape_iri('a<>"{}|^`\\ \t\x00\ud800\udfffz') == (
            "a\\u003C\\u003E\\u0022\\u007B\\u007D\\u007C\\u005E"
            "\\u0060\\u005C\\u0020\\u0009\\u0000\\uD800\\uDFFFz"
        )

    def test_plain_iri_untouched(self):
        iri = "http://example.org/é/😀?q=1#frag"
        assert escape_iri(iri) == iri

    @given(st.text(
        alphabet=st.one_of(
            st.characters(),  # everything, surrogates included
            st.sampled_from('<>"{}|^`\\ \t\n\x7f!~'),
        ),
        max_size=40,
    ))
    def test_matches_the_character_walk(self, text):
        assert escape_iri(text) == _escape_iri_by_character(text)


class TestTermFromPython:
    def test_passthrough(self):
        uri = URIRef("http://x/a")
        assert term_from_python(uri) is uri

    def test_string_becomes_plain_literal(self):
        term = term_from_python("hello")
        assert isinstance(term, Literal)
        assert term.datatype is None

    def test_int(self):
        assert term_from_python(7) == Literal(7)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            term_from_python(object())
