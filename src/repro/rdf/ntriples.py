"""N-Triples parser and serializer.

N-Triples is the interchange format the paper relies on: the D2R
``dump-rdf`` feature emits the platform's relational data as N-Triples,
which is then bulk-loaded into the triple store together with the LOD
dumps. The grammar implemented here is the W3C N-Triples subset actually
produced by :mod:`repro.d2r` and by 2012-era dump tooling: IRIs, blank
nodes, plain/lang/typed literals, ``#`` comments and blank lines.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, TextIO, Union

from .graph import Graph, Triple
from .terms import (
    BNode,
    Literal,
    Term,
    URIRef,
    unescape_literal,
)


class NTriplesError(ValueError):
    """Raised on malformed N-Triples input, with line information."""

    def __init__(self, message: str, lineno: int) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# IRIs may contain ``\uXXXX``/``\UXXXXXXXX`` escapes — exactly what
# ``escape_iri`` emits for characters illegal inside ``<...>``, so
# self-produced output re-parses (writer/parser round-trip).
_IRI = (
    r"<((?:[^<>\"{}|^`\\\x00-\x20]"
    r"|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*)>"
)
_BNODE = r"_:([A-Za-z0-9][A-Za-z0-9._-]*)"
_LITERAL = r'"((?:[^"\\]|\\.)*)"'
_LANG = r"@([a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*)"

_SUBJECT_RE = re.compile(rf"\s*(?:{_IRI}|{_BNODE})")
_PREDICATE_RE = re.compile(rf"\s*{_IRI}")
_OBJECT_RE = re.compile(
    rf"\s*(?:{_IRI}|{_BNODE}|{_LITERAL}(?:{_LANG}|\^\^{_IRI})?)"
)
_END_RE = re.compile(r"\s*\.\s*(#.*)?$")


def parse_ntriples_line(line: str, lineno: int = 0) -> Triple:
    """Parse a single N-Triples statement into a triple."""
    match = _SUBJECT_RE.match(line)
    if not match:
        raise NTriplesError("expected subject IRI or blank node", lineno)
    subject: Term
    if match.group(1) is not None:
        subject = URIRef(unescape_literal(match.group(1)))
    else:
        subject = BNode(match.group(2))
    pos = match.end()

    match = _PREDICATE_RE.match(line, pos)
    if not match:
        raise NTriplesError("expected predicate IRI", lineno)
    predicate = URIRef(unescape_literal(match.group(1)))
    pos = match.end()

    match = _OBJECT_RE.match(line, pos)
    if not match:
        raise NTriplesError("expected object term", lineno)
    obj: Term
    iri, bnode, lit, lang, dtype = match.groups()
    if iri is not None:
        obj = URIRef(unescape_literal(iri))
    elif bnode is not None:
        obj = BNode(bnode)
    else:
        lexical = unescape_literal(lit)
        if lang:
            obj = Literal(lexical, lang=lang)
        elif dtype:
            obj = Literal(lexical, datatype=unescape_literal(dtype))
        else:
            obj = Literal(lexical)
    pos = match.end()

    if not _END_RE.match(line, pos):
        raise NTriplesError("expected terminating '.'", lineno)
    return (subject, predicate, obj)


def parse_ntriples(source: Union[str, TextIO]) -> Iterator[Triple]:
    """Yield triples from an N-Triples document or open file."""
    lines: Iterable[str]
    if isinstance(source, str):
        # Split on '\n' only: unicode line separators (e.g. U+0085) are
        # legal *inside* literals and must not break statements apart.
        lines = source.split("\n")
    else:
        lines = source
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield parse_ntriples_line(line, lineno)


def load_ntriples(source: Union[str, TextIO], graph: Graph = None) -> Graph:
    """Parse ``source`` into ``graph`` (a new one when omitted)."""
    if graph is None:
        graph = Graph()
    graph.add_all(parse_ntriples(source))
    return graph


def serialize_triple(triple: Triple) -> str:
    """One N-Triples statement (without newline)."""
    s, p, o = triple
    return f"{s.n3()} {p.n3()} {o.n3()} ."


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples in deterministic (sorted) order."""
    lines = sorted(serialize_triple(t) for t in triples)
    return "\n".join(lines) + ("\n" if lines else "")
