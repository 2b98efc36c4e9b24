"""Unit tests for SPARQL expression semantics and builtin functions."""

import pytest

from repro.rdf import Literal, URIRef
from repro.rdf.terms import (
    BNode,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import (
    FUNCTIONS,
    arithmetic,
    boolean,
    compare,
    ebv,
    equals,
)


def f(name, *args):
    return FUNCTIONS[name](list(args))


class TestEbv:
    def test_booleans(self):
        assert ebv(Literal(True)) is True
        assert ebv(Literal(False)) is False

    def test_numbers(self):
        assert ebv(Literal(1)) is True
        assert ebv(Literal(0)) is False
        assert ebv(Literal(0.0)) is False

    def test_strings(self):
        assert ebv(Literal("x")) is True
        assert ebv(Literal("")) is False

    def test_malformed_numeric_is_false(self):
        assert ebv(Literal("abc", datatype=XSD_INTEGER)) is False

    def test_uri_has_no_ebv(self):
        with pytest.raises(ExpressionError):
            ebv(URIRef("http://x"))


class TestEqualsCompare:
    def test_numeric_cross_type_equality(self):
        assert equals(Literal(3), Literal(3.0))
        assert equals(Literal("3", datatype=XSD_INTEGER),
                      Literal("3.0", datatype=XSD_DOUBLE))

    def test_plain_vs_xsd_string(self):
        assert equals(Literal("a"), Literal("a", datatype=XSD_STRING))

    def test_lang_matters(self):
        assert not equals(Literal("a", lang="en"), Literal("a"))

    def test_numeric_ordering(self):
        assert compare("<", Literal(2), Literal(10))
        assert compare(">=", Literal(2.5), Literal(2.5))

    def test_string_ordering(self):
        assert compare("<", Literal("abc"), Literal("abd"))

    def test_incomparable_raises(self):
        with pytest.raises(ExpressionError):
            compare("<", Literal("a"), Literal(3))

    def test_uri_equality(self):
        assert compare("=", URIRef("http://x"), URIRef("http://x"))
        assert compare("!=", URIRef("http://x"), URIRef("http://y"))

    def test_an_iri_equals_no_other_kind_of_term(self):
        # what lets an IN list of IRIs key a scan: the lookup finds
        # exactly the terms the filter would let through
        iri = URIRef("http://x")
        for other in (Literal("http://x"), BNode("http://x")):
            assert not equals(other, iri)
            assert not equals(iri, other)

    def test_uri_ordering_raises(self):
        with pytest.raises(ExpressionError):
            compare("<", URIRef("http://a"), URIRef("http://b"))


class TestArithmetic:
    def test_integer_preserved(self):
        assert arithmetic("+", Literal(2), Literal(3)) == Literal(5)
        assert arithmetic("*", Literal(2), Literal(3)).value == 6

    def test_division_always_possible(self):
        assert arithmetic("/", Literal(7), Literal(2)).value == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExpressionError):
            arithmetic("/", Literal(1), Literal(0))

    def test_non_numeric(self):
        with pytest.raises(ExpressionError):
            arithmetic("+", Literal("a"), Literal(1))


class TestStringFunctions:
    def test_strlen(self):
        assert f("STRLEN", Literal("ciao")).value == 4

    def test_substr_one_based(self):
        assert f("SUBSTR", Literal("torino"), Literal(2)).lexical == \
            "orino"
        assert f("SUBSTR", Literal("torino"), Literal(1),
                 Literal(3)).lexical == "tor"

    def test_case_functions(self):
        assert f("UCASE", Literal("mole")).lexical == "MOLE"
        assert f("LCASE", Literal("MOLE")).lexical == "mole"

    def test_concat(self):
        assert f("CONCAT", Literal("a"), Literal("b"),
                 Literal("c")).lexical == "abc"

    def test_replace(self):
        assert f("REPLACE", Literal("coliseum"), Literal("iseum"),
                 Literal("osseum")).lexical == "colosseum"

    def test_replace_case_insensitive(self):
        assert f("REPLACE", Literal("ABC"), Literal("b"),
                 Literal("-"), Literal("i")).lexical == "A-C"

    def test_strbefore_strafter(self):
        assert f("STRBEFORE", Literal("a=b"), Literal("=")).lexical == "a"
        assert f("STRAFTER", Literal("a=b"), Literal("=")).lexical == "b"
        assert f("STRBEFORE", Literal("ab"), Literal("=")).lexical == ""

    def test_contains_strstarts_strends(self):
        assert ebv(f("CONTAINS", Literal("mole antonelliana"),
                     Literal("anton")))
        assert ebv(f("STRSTARTS", Literal("mole"), Literal("mo")))
        assert ebv(f("STRENDS", Literal("mole"), Literal("le")))

    def test_str_of_uri(self):
        assert f("STR", URIRef("http://x/a")).lexical == "http://x/a"

    def test_strlang_strdt(self):
        lit = f("STRLANG", Literal("ciao"), Literal("it"))
        assert lit.lang == "it"
        typed = f("STRDT", Literal("5"), URIRef(XSD_INTEGER))
        assert typed.value == 5

    def test_strdt_requires_iri(self):
        with pytest.raises(ExpressionError):
            f("STRDT", Literal("5"), Literal("not-an-iri"))


class TestNumericFunctions:
    def test_abs(self):
        assert f("ABS", Literal(-4)).value == 4

    def test_ceil_floor(self):
        assert f("CEIL", Literal(1.2)).value == 2
        assert f("FLOOR", Literal(1.8)).value == 1

    def test_round_half_up(self):
        assert f("ROUND", Literal(2.5)).value == 3
        assert f("ROUND", Literal(-2.5)).value == -2


class TestTermFunctions:
    def test_lang(self):
        assert f("LANG", Literal("x", lang="IT")).lexical == "it"
        assert f("LANG", Literal("x")).lexical == ""

    def test_langmatches_star(self):
        assert ebv(f("LANGMATCHES", Literal("it"), Literal("*")))
        assert not ebv(f("LANGMATCHES", Literal(""), Literal("*")))

    def test_langmatches_subtag(self):
        assert ebv(f("LANGMATCHES", Literal("en-GB"), Literal("en")))
        assert not ebv(f("LANGMATCHES", Literal("en"), Literal("it")))

    def test_datatype(self):
        assert f("DATATYPE", Literal(5)) == URIRef(XSD_INTEGER)
        assert str(f("DATATYPE", Literal("x"))).endswith("string")
        assert str(f("DATATYPE", Literal("x", lang="en"))).endswith(
            "langString"
        )

    def test_type_checks(self):
        assert ebv(f("ISIRI", URIRef("http://x")))
        assert ebv(f("ISBLANK", BNode("b")))
        assert ebv(f("ISLITERAL", Literal("x")))
        assert ebv(f("ISNUMERIC", Literal(3)))
        assert not ebv(f("ISNUMERIC", Literal("3")))

    def test_sameterm_strict(self):
        assert not ebv(f("SAMETERM", Literal(3), Literal(3.0)))
        assert ebv(f("SAMETERM", Literal(3), Literal(3)))

    def test_iri_constructor(self):
        assert f("IRI", Literal("http://x/a")) == URIRef("http://x/a")


class TestCasts:
    def test_integer_cast(self):
        assert FUNCTIONS[XSD_INTEGER]([Literal("42 ")]).value == 42
        assert FUNCTIONS[XSD_INTEGER]([Literal("4.9")]).value == 4

    def test_double_cast(self):
        assert FUNCTIONS[XSD_DOUBLE]([Literal("1.5")]).value == 1.5

    def test_boolean_cast(self):
        assert FUNCTIONS[XSD_BOOLEAN]([Literal("1")]).value is True
        assert FUNCTIONS[XSD_BOOLEAN]([Literal("false")]).value is False

    def test_failed_cast_raises(self):
        with pytest.raises(ExpressionError):
            FUNCTIONS[XSD_INTEGER]([Literal("abc")])
        with pytest.raises(ExpressionError):
            FUNCTIONS[XSD_BOOLEAN]([Literal("maybe")])

    def test_cast_of_uri_raises(self):
        with pytest.raises(ExpressionError):
            FUNCTIONS[XSD_STRING]([URIRef("http://x")])


class TestRegex:
    def test_basic(self):
        assert ebv(f("REGEX", Literal("turin"), Literal("^tu")))

    def test_flags(self):
        assert ebv(f("REGEX", Literal("TURIN"), Literal("^tu"),
                     Literal("i")))

    def test_bad_pattern(self):
        with pytest.raises(ExpressionError):
            f("REGEX", Literal("x"), Literal("("))

    def test_requires_string_literal(self):
        with pytest.raises(ExpressionError):
            f("REGEX", Literal(5), Literal("5"))


class TestGeoBifs:
    def test_st_distance(self):
        distance = f(
            "bif:st_distance",
            Literal("POINT(7.6869 45.0703)"),
            Literal("POINT(12.4964 41.9028)"),
        )
        assert 500 < distance.value < 550

    def test_st_intersects_arity(self):
        with pytest.raises(ExpressionError):
            f("bif:st_intersects", Literal("POINT(0 0)"))

    def test_st_intersects_bad_geometry(self):
        with pytest.raises(ExpressionError):
            f("bif:st_intersects", Literal("POINT(0 0)"),
              Literal("nonsense"), Literal(1))

    def test_st_point(self):
        lit = f("bif:st_point", Literal(7.5), Literal(45.0))
        assert lit.lexical == "POINT(7.5 45)"

    def test_bif_contains(self):
        assert ebv(f("bif:contains", Literal("Mole Antonelliana"),
                     Literal("mole")))


class TestBooleanHelper:
    def test_boolean_literals(self):
        assert boolean(True).value is True
        assert boolean(False).value is False
        assert boolean(True).datatype == XSD_BOOLEAN
