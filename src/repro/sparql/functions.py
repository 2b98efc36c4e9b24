"""SPARQL expression semantics: EBV, comparisons and builtin functions.

Implements the SPARQL 1.0 builtins the platform's queries use, the handful
of SPARQL 1.1 string functions that are convenient in tests, the XSD
constructor casts and the Virtuoso ``bif:`` extensions
(``bif:st_intersects``, ``bif:st_distance``, ``bif:st_point``,
``bif:contains``) the paper's virtual-album and mashup queries depend on.

Per the SPARQL error model, type errors raise :class:`ExpressionError`,
which FILTER evaluation treats as "false" and ORDER BY treats as lowest.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Sequence

from ..rdf.terms import (
    BNode,
    Literal,
    Term,
    URIRef,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from .errors import ExpressionError
from .fulltext import contains as fulltext_contains
from .geo import GeometryError, st_distance, st_intersects, st_point

TRUE = Literal("true", datatype=XSD_BOOLEAN)
FALSE = Literal("false", datatype=XSD_BOOLEAN)


def boolean(value: bool) -> Literal:
    """Python bool → xsd:boolean literal."""
    return TRUE if value else FALSE


def ebv(term: Term) -> bool:
    """Effective boolean value (SPARQL §17.2.2)."""
    if isinstance(term, Literal):
        if term.datatype == XSD_BOOLEAN:
            value = term.value
            if isinstance(value, bool):
                return value
            raise ExpressionError(f"invalid boolean literal: {term!r}")
        if term.is_numeric:
            return term.value != 0
        if term.datatype is None or term.datatype == XSD_STRING:
            return len(term.lexical) > 0
        # malformed numeric literals have EBV false per spec
        if term.datatype in (XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE):
            return False
    raise ExpressionError(f"no effective boolean value for {term!r}")


def _numeric(term: Term) -> float:
    if isinstance(term, Literal) and term.is_numeric:
        return term.value
    raise ExpressionError(f"not a number: {term!r}")


def _string(term: Term) -> str:
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, URIRef):
        return str(term)
    raise ExpressionError(f"not a string: {term!r}")


def _plain_string(term: Term) -> str:
    if isinstance(term, Literal) and (
        term.datatype is None or term.datatype == XSD_STRING
    ):
        return term.lexical
    if isinstance(term, Literal) and term.lang:
        return term.lexical
    raise ExpressionError(f"not a string literal: {term!r}")


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def equals(left: Term, right: Term) -> bool:
    """SPARQL ``=``: value equality for literals, term equality otherwise."""
    if isinstance(left, Literal) and isinstance(right, Literal):
        if left.is_numeric and right.is_numeric:
            return left.value == right.value
        left_str = left.datatype in (None, URIRef(XSD_STRING))
        right_str = right.datatype in (None, URIRef(XSD_STRING))
        if left_str and right_str and left.lang is None and right.lang is None:
            return left.lexical == right.lexical
        return (
            left.lexical == right.lexical
            and left.lang == right.lang
            and left.datatype == right.datatype
        )
    return left == right


def compare(op: str, left: Term, right: Term) -> bool:
    """Evaluate a SPARQL comparison operator."""
    if op == "=":
        return equals(left, right)
    if op == "!=":
        return not equals(left, right)
    # ordering operators
    if isinstance(left, Literal) and isinstance(right, Literal):
        if left.is_numeric and right.is_numeric:
            lv, rv = left.value, right.value
        elif left.lang is None and right.lang is None and (
            left.datatype in (None, URIRef(XSD_STRING))
            and right.datatype in (None, URIRef(XSD_STRING))
        ):
            lv, rv = left.lexical, right.lexical
        elif left.datatype == right.datatype and left.datatype is not None:
            # same non-core datatype (e.g. xsd:dateTime): lexical order
            lv, rv = left.lexical, right.lexical
        else:
            raise ExpressionError(
                f"incomparable literals: {left!r} vs {right!r}"
            )
        if op == "<":
            return lv < rv
        if op == ">":
            return lv > rv
        if op == "<=":
            return lv <= rv
        if op == ">=":
            return lv >= rv
    raise ExpressionError(f"cannot apply {op} to {left!r} and {right!r}")


def arithmetic(op: str, left: Term, right: Term) -> Literal:
    """Evaluate ``+ - * /`` on numeric literals."""
    lv = _numeric(left)
    rv = _numeric(right)
    if op == "+":
        result = lv + rv
    elif op == "-":
        result = lv - rv
    elif op == "*":
        result = lv * rv
    elif op == "/":
        if rv == 0:
            raise ExpressionError("division by zero")
        result = lv / rv
    else:  # pragma: no cover - parser restricts operators
        raise ExpressionError(f"unknown operator {op}")
    if isinstance(result, int) or (
        isinstance(lv, int) and isinstance(rv, int) and op != "/"
    ):
        return Literal(int(result))
    return Literal(float(result))


# ---------------------------------------------------------------------------
# Builtin functions
# ---------------------------------------------------------------------------

FunctionImpl = Callable[[List[Term]], Term]


def _require(args: Sequence[Term], count: int, name: str) -> None:
    if len(args) != count:
        raise ExpressionError(
            f"{name} expects {count} argument(s), got {len(args)}"
        )


def fn_lang(args: List[Term]) -> Term:
    _require(args, 1, "LANG")
    term = args[0]
    if not isinstance(term, Literal):
        raise ExpressionError("LANG requires a literal")
    return Literal(term.lang or "")


def fn_langmatches(args: List[Term]) -> Term:
    _require(args, 2, "LANGMATCHES")
    tag = _string(args[0]).lower()
    lang_range = _string(args[1]).lower()
    if lang_range == "*":
        return boolean(bool(tag))
    return boolean(tag == lang_range or tag.startswith(lang_range + "-"))


def fn_str(args: List[Term]) -> Term:
    _require(args, 1, "STR")
    term = args[0]
    if isinstance(term, URIRef):
        return Literal(str(term))
    if isinstance(term, Literal):
        return Literal(term.lexical)
    raise ExpressionError("STR requires an IRI or literal")


def fn_datatype(args: List[Term]) -> Term:
    _require(args, 1, "DATATYPE")
    term = args[0]
    if not isinstance(term, Literal):
        raise ExpressionError("DATATYPE requires a literal")
    if term.datatype is not None:
        return term.datatype
    if term.lang is not None:
        return URIRef("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")
    return URIRef(XSD_STRING)


def fn_regex(args: List[Term]) -> Term:
    if len(args) not in (2, 3):
        raise ExpressionError("REGEX expects 2 or 3 arguments")
    text = _plain_string(args[0])
    pattern = _string(args[1])
    flags = 0
    if len(args) == 3:
        flag_text = _string(args[2])
        if "i" in flag_text:
            flags |= re.IGNORECASE
        if "s" in flag_text:
            flags |= re.DOTALL
        if "m" in flag_text:
            flags |= re.MULTILINE
    try:
        return boolean(re.search(pattern, text, flags) is not None)
    except re.error as exc:
        raise ExpressionError(f"bad regex: {exc}") from exc


def fn_sameterm(args: List[Term]) -> Term:
    _require(args, 2, "SAMETERM")
    return boolean(args[0] == args[1])


def fn_isiri(args: List[Term]) -> Term:
    _require(args, 1, "ISIRI")
    return boolean(isinstance(args[0], URIRef))


def fn_isblank(args: List[Term]) -> Term:
    _require(args, 1, "ISBLANK")
    return boolean(isinstance(args[0], BNode))


def fn_isliteral(args: List[Term]) -> Term:
    _require(args, 1, "ISLITERAL")
    return boolean(isinstance(args[0], Literal))


def fn_isnumeric(args: List[Term]) -> Term:
    _require(args, 1, "ISNUMERIC")
    return boolean(isinstance(args[0], Literal) and args[0].is_numeric)


def fn_contains(args: List[Term]) -> Term:
    _require(args, 2, "CONTAINS")
    return boolean(_plain_string(args[1]) in _plain_string(args[0]))


def fn_strstarts(args: List[Term]) -> Term:
    _require(args, 2, "STRSTARTS")
    return boolean(_plain_string(args[0]).startswith(_plain_string(args[1])))


def fn_strends(args: List[Term]) -> Term:
    _require(args, 2, "STRENDS")
    return boolean(_plain_string(args[0]).endswith(_plain_string(args[1])))


def fn_strlen(args: List[Term]) -> Term:
    _require(args, 1, "STRLEN")
    return Literal(len(_plain_string(args[0])))


def fn_substr(args: List[Term]) -> Term:
    if len(args) not in (2, 3):
        raise ExpressionError("SUBSTR expects 2 or 3 arguments")
    text = _plain_string(args[0])
    start = int(_numeric(args[1]))  # 1-based per XPath
    if len(args) == 3:
        length = int(_numeric(args[2]))
        return Literal(text[start - 1 : start - 1 + length])
    return Literal(text[start - 1 :])


def fn_ucase(args: List[Term]) -> Term:
    _require(args, 1, "UCASE")
    return Literal(_plain_string(args[0]).upper())


def fn_lcase(args: List[Term]) -> Term:
    _require(args, 1, "LCASE")
    return Literal(_plain_string(args[0]).lower())


def fn_concat(args: List[Term]) -> Term:
    return Literal("".join(_plain_string(a) for a in args))


def fn_replace(args: List[Term]) -> Term:
    if len(args) not in (3, 4):
        raise ExpressionError("REPLACE expects 3 or 4 arguments")
    text = _plain_string(args[0])
    pattern = _string(args[1])
    replacement = _string(args[2])
    flags = 0
    if len(args) == 4 and "i" in _string(args[3]):
        flags |= re.IGNORECASE
    try:
        return Literal(re.sub(pattern, replacement, text, flags=flags))
    except re.error as exc:
        raise ExpressionError(f"bad regex: {exc}") from exc


def fn_strbefore(args: List[Term]) -> Term:
    _require(args, 2, "STRBEFORE")
    text = _plain_string(args[0])
    sep = _plain_string(args[1])
    idx = text.find(sep)
    return Literal(text[:idx] if idx >= 0 else "")


def fn_strafter(args: List[Term]) -> Term:
    _require(args, 2, "STRAFTER")
    text = _plain_string(args[0])
    sep = _plain_string(args[1])
    idx = text.find(sep)
    return Literal(text[idx + len(sep) :] if idx >= 0 else "")


def fn_abs(args: List[Term]) -> Term:
    _require(args, 1, "ABS")
    value = abs(_numeric(args[0]))
    return Literal(int(value) if isinstance(value, int) else value)


def fn_ceil(args: List[Term]) -> Term:
    import math

    _require(args, 1, "CEIL")
    return Literal(int(math.ceil(_numeric(args[0]))))


def fn_floor(args: List[Term]) -> Term:
    import math

    _require(args, 1, "FLOOR")
    return Literal(int(math.floor(_numeric(args[0]))))


def fn_round(args: List[Term]) -> Term:
    _require(args, 1, "ROUND")
    import math

    return Literal(int(math.floor(_numeric(args[0]) + 0.5)))


def fn_iri(args: List[Term]) -> Term:
    _require(args, 1, "IRI")
    return URIRef(_string(args[0]))


def fn_strdt(args: List[Term]) -> Term:
    _require(args, 2, "STRDT")
    if not isinstance(args[1], URIRef):
        raise ExpressionError("STRDT datatype must be an IRI")
    return Literal(_plain_string(args[0]), datatype=args[1])


def fn_strlang(args: List[Term]) -> Term:
    _require(args, 2, "STRLANG")
    return Literal(_plain_string(args[0]), lang=_string(args[1]))


# --- Virtuoso bif: extensions ---------------------------------------------


def fn_st_intersects(args: List[Term]) -> Term:
    if len(args) not in (2, 3):
        raise ExpressionError("bif:st_intersects expects 2 or 3 arguments")
    precision = _numeric(args[2]) if len(args) == 3 else 0.0
    try:
        return boolean(
            st_intersects(_string(args[0]), _string(args[1]), precision)
        )
    except GeometryError as exc:
        raise ExpressionError(str(exc)) from exc


def fn_st_distance(args: List[Term]) -> Term:
    _require(args, 2, "bif:st_distance")
    try:
        return Literal(st_distance(_string(args[0]), _string(args[1])))
    except GeometryError as exc:
        raise ExpressionError(str(exc)) from exc


def fn_st_point(args: List[Term]) -> Term:
    _require(args, 2, "bif:st_point")
    try:
        return st_point(_numeric(args[0]), _numeric(args[1]))
    except GeometryError as exc:
        raise ExpressionError(str(exc)) from exc


def fn_bif_contains(args: List[Term]) -> Term:
    """Virtuoso's full-text match of a literal's text against a literal
    pattern; a text that is no literal (an IRI, a blank node) matches
    nothing."""
    _require(args, 2, "bif:contains")
    text, pattern = args
    if not isinstance(pattern, Literal):
        raise ExpressionError(f"not a search pattern: {pattern!r}")
    return boolean(
        isinstance(text, Literal)
        and fulltext_contains(text.lexical, pattern.lexical)
    )


def _xsd_cast_factory(converter: Callable, datatype: str) -> FunctionImpl:
    def cast(args: List[Term]) -> Term:
        _require(args, 1, f"cast to {datatype}")
        term = args[0]
        if not isinstance(term, Literal):
            raise ExpressionError(f"cannot cast {term!r}")
        try:
            value = converter(term.lexical.strip())
        except (TypeError, ValueError, KeyError) as exc:
            raise ExpressionError(f"cannot cast {term!r}") from exc
        return Literal(str(value).lower() if isinstance(value, bool)
                       else str(value), datatype=datatype)

    return cast


#: Registry: upper-cased builtin name or function IRI / ``bif:`` name.
FUNCTIONS: Dict[str, FunctionImpl] = {
    "LANG": fn_lang,
    "LANGMATCHES": fn_langmatches,
    "STR": fn_str,
    "DATATYPE": fn_datatype,
    "REGEX": fn_regex,
    "SAMETERM": fn_sameterm,
    "ISIRI": fn_isiri,
    "ISURI": fn_isiri,
    "ISBLANK": fn_isblank,
    "ISLITERAL": fn_isliteral,
    "ISNUMERIC": fn_isnumeric,
    "CONTAINS": fn_contains,
    "STRSTARTS": fn_strstarts,
    "STRENDS": fn_strends,
    "STRLEN": fn_strlen,
    "SUBSTR": fn_substr,
    "UCASE": fn_ucase,
    "LCASE": fn_lcase,
    "CONCAT": fn_concat,
    "REPLACE": fn_replace,
    "STRBEFORE": fn_strbefore,
    "STRAFTER": fn_strafter,
    "ABS": fn_abs,
    "CEIL": fn_ceil,
    "FLOOR": fn_floor,
    "ROUND": fn_round,
    "IRI": fn_iri,
    "URI": fn_iri,
    "STRDT": fn_strdt,
    "STRLANG": fn_strlang,
    "bif:st_intersects": fn_st_intersects,
    "bif:st_distance": fn_st_distance,
    "bif:st_point": fn_st_point,
    "bif:contains": fn_bif_contains,
    XSD_INTEGER: _xsd_cast_factory(lambda s: int(float(s)), XSD_INTEGER),
    XSD_DOUBLE: _xsd_cast_factory(float, XSD_DOUBLE),
    XSD_DECIMAL: _xsd_cast_factory(float, XSD_DECIMAL),
    XSD_STRING: _xsd_cast_factory(str, XSD_STRING),
    XSD_BOOLEAN: _xsd_cast_factory(
        lambda s: {"true": True, "1": True, "false": False, "0": False}[s],
        XSD_BOOLEAN,
    ),
}
