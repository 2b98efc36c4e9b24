"""RDF term model.

The four kinds of RDF nodes used throughout the library:

* :class:`URIRef` — an IRI identifying a resource.
* :class:`BNode` — an anonymous node scoped to a graph.
* :class:`Literal` — a value with an optional language tag or datatype.
* :class:`Variable` — a SPARQL query variable (only valid in query patterns).

All terms are immutable, hashable and totally ordered so they can be used as
dictionary keys, set members and sort keys for deterministic serialization.
The ordering follows the SPARQL ``ORDER BY`` term ordering: unbound < blank
nodes < IRIs < literals.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from typing import Any, Optional, Union

XSD = "http://www.w3.org/2001/XMLSchema#"

XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_FLOAT = XSD + "float"
XSD_BOOLEAN = XSD + "boolean"
XSD_DATETIME = XSD + "dateTime"
XSD_DATE = XSD + "date"

_NUMERIC_DATATYPES = frozenset(
    {XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT}
)

_LANG_TAG_RE = re.compile(r"^[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*$")


class Term:
    """Base class of all RDF terms."""

    __slots__ = ()

    #: Sort rank used by the total ordering (SPARQL term ordering).
    _order = 99

    def n3(self) -> str:
        """Return the N-Triples / Turtle form of this term."""
        raise NotImplementedError

    def _sort_key(self) -> tuple:
        raise NotImplementedError

    def __lt__(self, other: Any) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __le__(self, other: Any) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self._sort_key() <= other._sort_key()

    def __gt__(self, other: Any) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self._sort_key() > other._sort_key()

    def __ge__(self, other: Any) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self._sort_key() >= other._sort_key()


class URIRef(Term, str):
    """An IRI reference.

    Subclasses :class:`str`, so a ``URIRef`` can be used anywhere a plain
    string URI is expected.
    """

    __slots__ = ()
    _order = 2

    def __new__(cls, value: str) -> "URIRef":
        if not value:
            raise ValueError("URIRef must not be empty")
        return str.__new__(cls, value)

    def n3(self) -> str:
        return f"<{escape_iri(str(self))}>"

    def _sort_key(self) -> tuple:
        return (self._order, str(self))

    def __repr__(self) -> str:
        return f"URIRef({str(self)!r})"

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, URIRef):
            return str(self) == str(other)
        if isinstance(other, Term):
            return False
        return str.__eq__(self, other)

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # Hash like a plain string so URIRefs interoperate with string sets
    # (equality still distinguishes term kinds).
    __hash__ = str.__hash__

    def local_name(self) -> str:
        """Return the part after the last ``#`` or ``/``."""
        value = str(self)
        for sep in ("#", "/"):
            if sep in value:
                idx = value.rindex(sep)
                if idx < len(value) - 1:
                    return value[idx + 1 :]
        return value


_bnode_counter = itertools.count()

#: Labels the N-Triples grammar can represent verbatim.
_BNODE_LABEL_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


class BNode(Term, str):
    """A blank node. Fresh labels are generated when none is given.

    Any non-empty label is accepted (blank nodes are scoped to a graph,
    so callers may use arbitrary internal keys), but only labels
    matching the N-Triples grammar serialize verbatim: :meth:`n3`
    rewrites anything else to a deterministic ``N<sha1>`` label so the
    writer/parser round-trip always yields parseable, stable output —
    the same source label maps to the same serialized label everywhere.
    """

    __slots__ = ()
    _order = 1

    def __new__(cls, label: Optional[str] = None) -> "BNode":
        if label is None:
            label = f"b{next(_bnode_counter)}"
        if not label:
            raise ValueError("BNode label must not be empty")
        return str.__new__(cls, label)

    def n3(self) -> str:
        label = str(self)
        if _BNODE_LABEL_RE.match(label) is None:
            digest = hashlib.sha1(
                label.encode("utf-8", "surrogatepass")
            ).hexdigest()
            label = f"N{digest}"
        return f"_:{label}"

    def _sort_key(self) -> tuple:
        return (self._order, str(self))

    def __repr__(self) -> str:
        return f"BNode({str(self)!r})"

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, BNode):
            return str(self) == str(other)
        if isinstance(other, Term):
            return False
        return str.__eq__(self, other)

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = str.__hash__


class Literal(Term):
    """An RDF literal: lexical form + optional language tag or datatype.

    A literal may have a language tag *or* a datatype, never both (RDF 1.0
    semantics, which the paper's 2012-era stack follows). Plain literals
    (no tag, no datatype) are kept distinct from ``xsd:string`` literals.

    The Python value is derived lazily for known XSD datatypes and used for
    value-based comparison in SPARQL filters.
    """

    __slots__ = ("_lexical", "_lang", "_datatype", "_value")
    _order = 3

    def __init__(
        self,
        lexical: Any,
        lang: Optional[str] = None,
        datatype: Optional[Union[str, URIRef]] = None,
    ) -> None:
        if lang is not None and datatype is not None:
            raise ValueError("Literal cannot have both language and datatype")
        if lang is not None and not _LANG_TAG_RE.match(lang):
            raise ValueError(f"invalid language tag: {lang!r}")
        if isinstance(lexical, bool):
            lexical = "true" if lexical else "false"
            datatype = datatype or XSD_BOOLEAN
        elif isinstance(lexical, int):
            lexical = str(lexical)
            datatype = datatype or XSD_INTEGER
        elif isinstance(lexical, float):
            lexical = repr(lexical)
            datatype = datatype or XSD_DOUBLE
        object.__setattr__(self, "_lexical", str(lexical))
        object.__setattr__(self, "_lang", lang.lower() if lang else None)
        object.__setattr__(
            self, "_datatype", URIRef(datatype) if datatype else None
        )
        object.__setattr__(self, "_value", _UNSET)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Literal is immutable")

    @property
    def lexical(self) -> str:
        """The raw lexical form."""
        return self._lexical

    @property
    def lang(self) -> Optional[str]:
        """Lower-cased language tag, or ``None``."""
        return self._lang

    @property
    def datatype(self) -> Optional[URIRef]:
        """Datatype IRI, or ``None`` for plain/language literals."""
        return self._datatype

    @property
    def value(self) -> Any:
        """Python value for known XSD datatypes, else the lexical form."""
        if self._value is _UNSET:
            object.__setattr__(self, "_value", self._compute_value())
        return self._value

    def _compute_value(self) -> Any:
        dt = self._datatype
        if dt is None or dt == XSD_STRING:
            return self._lexical
        try:
            if dt == XSD_INTEGER:
                return int(self._lexical)
            if dt in (XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT):
                return float(self._lexical)
            if dt == XSD_BOOLEAN:
                if self._lexical in ("true", "1"):
                    return True
                if self._lexical in ("false", "0"):
                    return False
                raise ValueError(self._lexical)
        except ValueError:
            return self._lexical
        return self._lexical

    @property
    def is_numeric(self) -> bool:
        """True when the datatype is a numeric XSD type and parses."""
        return self._datatype in _NUMERIC_DATATYPES and isinstance(
            self.value, (int, float)
        )

    def n3(self) -> str:
        quoted = f'"{escape_literal(self._lexical)}"'
        if self._lang:
            return f"{quoted}@{self._lang}"
        if self._datatype:
            # escaped like every other IRI so the output re-parses
            return f"{quoted}^^<{escape_iri(str(self._datatype))}>"
        return quoted

    def _sort_key(self) -> tuple:
        if self.is_numeric:
            # Numbers sort together by value, before other literals.
            return (self._order, 0, float(self.value), self._lexical)
        return (
            self._order,
            1,
            self._lexical,
            self._lang or "",
            str(self._datatype or ""),
        )

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Literal):
            return (
                self._lexical == other._lexical
                and self._lang == other._lang
                and self._datatype == other._datatype
            )
        if isinstance(other, Term):
            return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._lexical, self._lang, self._datatype)) ^ 0x117E

    def __str__(self) -> str:
        return self._lexical

    def __repr__(self) -> str:
        parts = [repr(self._lexical)]
        if self._lang:
            parts.append(f"lang={self._lang!r}")
        if self._datatype:
            parts.append(f"datatype={str(self._datatype)!r}")
        return f"Literal({', '.join(parts)})"


class _Unset:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unset>"


_UNSET = _Unset()


class Variable(Term, str):
    """A SPARQL variable (``?name`` or ``$name``)."""

    __slots__ = ()
    _order = 0

    def __new__(cls, name: str) -> "Variable":
        name = name.lstrip("?$")
        if not name:
            raise ValueError("Variable name must not be empty")
        return str.__new__(cls, name)

    def n3(self) -> str:
        return f"?{str(self)}"

    def _sort_key(self) -> tuple:
        return (self._order, str(self))

    def __repr__(self) -> str:
        return f"Variable({str(self)!r})"

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Variable):
            return str(self) == str(other)
        if isinstance(other, Term):
            return False
        return str.__eq__(self, other)

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = str.__hash__


#: Characters that cannot appear raw inside a double-quoted literal:
#: the quote/backslash themselves, C0 controls (line structure), and
#: lone surrogates (not encodable to UTF-8 when writing files).
_LITERAL_ESCAPE_RE = re.compile(r'["\\\x00-\x1f\ud800-\udfff]')

_LITERAL_SIMPLE_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def escape_literal(text: str) -> str:
    """Escape a string for use inside a double-quoted N-Triples literal.

    Total: every Python string — including control characters and lone
    surrogates — escapes to single-line ASCII-safe form and
    :func:`unescape_literal` restores it exactly (the WAL and snapshot
    files of :mod:`repro.store` depend on this round-trip)."""
    if _LITERAL_ESCAPE_RE.search(text) is None:
        return text

    def replace(match: "re.Match[str]") -> str:
        ch = match.group(0)
        simple = _LITERAL_SIMPLE_ESCAPES.get(ch)
        if simple is not None:
            return simple
        return f"\\u{ord(ch):04X}"

    return _LITERAL_ESCAPE_RE.sub(replace, text)


def unescape_literal(text: str) -> str:
    """Inverse of :func:`escape_literal`, plus ``\\uXXXX`` sequences."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise ValueError("dangling escape at end of literal")
        nxt = text[i + 1]
        simple = {
            "t": "\t",
            "n": "\n",
            "r": "\r",
            '"': '"',
            "\\": "\\",
            "'": "'",
            "b": "\b",
            "f": "\f",
        }
        if nxt in simple:
            out.append(simple[nxt])
            i += 2
        elif nxt == "u":
            out.append(chr(int(text[i + 2 : i + 6], 16)))
            i += 6
        elif nxt == "U":
            out.append(chr(int(text[i + 2 : i + 10], 16)))
            i += 10
        else:
            raise ValueError(f"unknown escape: \\{nxt}")
    return "".join(out)


#: Characters that cannot appear raw inside ``<...>``: the delimiters
#: and the other IRIREF exclusions, everything up to the space, and lone
#: surrogates (not encodable to UTF-8 when writing files).
_IRI_ESCAPE_RE = re.compile(r'[<>"{}|^`\\\x00-\x20\ud800-\udfff]')


def _iri_escape(match: "re.Match[str]") -> str:
    return f"\\u{ord(match.group(0)):04X}"


def escape_iri(iri: str) -> str:
    """Escape characters not allowed inside ``<...>`` in N-Triples.

    Lone surrogates are escaped too (they cannot reach a UTF-8 file
    raw); the parser's IRI pattern accepts the resulting
    ``\\uXXXX``/``\\UXXXXXXXX`` sequences, so escaped output
    round-trips."""
    return _IRI_ESCAPE_RE.sub(_iri_escape, iri)


def term_from_python(value: Any) -> Term:
    """Coerce a Python value to an RDF term.

    Terms pass through; strings become plain literals; numbers and booleans
    become typed literals. Use :class:`URIRef` explicitly for IRIs.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, (str, bool, int, float)):
        return Literal(value)
    raise TypeError(f"cannot convert {type(value).__name__} to RDF term")
