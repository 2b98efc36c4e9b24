"""Turtle serializer and a pragmatic Turtle parser.

Turtle output is what the platform's web interface exposes for "raw RDF"
views of a resource; the parser accepts the subset the library itself emits
plus the common shorthand forms (``@prefix``, ``a``, ``;``/``,`` lists,
numeric and boolean literals), which is sufficient to round-trip every
graph in the test suite.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple

from .graph import Graph, Triple
from .namespace import NamespaceManager, RDF
from .terms import (
    BNode,
    Literal,
    Term,
    URIRef,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    escape_literal,
    unescape_literal,
)


class TurtleError(ValueError):
    """Raised on malformed Turtle input."""


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------


def _term_to_turtle(term: Term, nsm: NamespaceManager) -> str:
    if isinstance(term, URIRef):
        if term == RDF.type:
            return "a"
        compact = nsm.compact(str(term))
        return compact if compact else term.n3()
    if isinstance(term, Literal):
        if term.datatype in (XSD_INTEGER, XSD_BOOLEAN):
            return term.lexical
        if term.datatype is not None:
            compact = nsm.compact(str(term.datatype))
            if compact:
                return f'"{escape_literal(term.lexical)}"^^{compact}'
        return term.n3()
    return term.n3()


def serialize_turtle(graph: Graph) -> str:
    """Serialize ``graph`` grouping triples by subject and predicate."""
    nsm = graph.namespaces
    used_prefixes: Dict[str, str] = {}

    def compacting(term: Term) -> str:
        text = _term_to_turtle(term, nsm)
        if ":" in text and not text.startswith(("<", '"', "_:")):
            prefix = text.split(":", 1)[0]
            ns = nsm.namespace(prefix)
            if ns:
                used_prefixes[prefix] = ns
        return text

    by_subject: Dict[Term, Dict[Term, List[Term]]] = {}
    for s, p, o in graph:
        by_subject.setdefault(s, {}).setdefault(p, []).append(o)

    body_lines: List[str] = []
    for subject in sorted(by_subject):
        pred_map = by_subject[subject]
        subject_text = compacting(subject)
        pred_parts: List[str] = []
        for predicate in sorted(pred_map):
            objects = sorted(pred_map[predicate])
            objs_text = ", ".join(compacting(o) for o in objects)
            pred_parts.append(f"{compacting(predicate)} {objs_text}")
        joined = " ;\n    ".join(pred_parts)
        body_lines.append(f"{subject_text} {joined} .")

    header = [
        f"@prefix {prefix}: <{ns}> ."
        for prefix, ns in sorted(used_prefixes.items())
    ]
    sections = []
    if header:
        sections.append("\n".join(header))
    if body_lines:
        sections.append("\n\n".join(body_lines))
    return "\n\n".join(sections) + ("\n" if sections else "")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<iri><[^<>"{}|^`\\\x00-\x20]*>)
  | (?P<literal>"(?:[^"\\]|\\.)*")
  | (?P<lang>@[a-zA-Z][a-zA-Z0-9-]*)
  | (?P<dtype>\^\^)
  | (?P<bnode>_:[A-Za-z0-9][A-Za-z0-9._-]*)
  | (?P<number>[+-]?\d+\.\d+(?:[eE][+-]?\d+)?|[+-]?\d+[eE][+-]?\d+|[+-]?\d+)
  | (?P<punct>[.;,\[\]()])
  | (?P<qname>[A-Za-z0-9_-]*:[A-Za-z0-9_./%-]*)
  | (?P<keyword>@prefix|@base|a\b|true\b|false\b|PREFIX|BASE)
  | (?P<name>[A-Za-z_][A-Za-z0-9_-]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise TurtleError(f"unexpected character at offset {pos}: "
                              f"{text[pos:pos + 20]!r}")
        kind = match.lastgroup
        value = match.group()
        pos = match.end()
        if kind == "ws":
            continue
        # 'a', 'true', 'false', '@prefix' can also be caught by name/lang.
        if kind == "name" and value in ("a", "true", "false"):
            kind = "keyword"
        if kind == "lang" and value in ("@prefix", "@base"):
            kind = "keyword"
        tokens.append((kind, value))
    return tokens


class _TurtleParser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nsm = NamespaceManager(bind_defaults=False)

    def _peek(self) -> Optional[Tuple[str, str]]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _next(self) -> Tuple[str, str]:
        token = self._peek()
        if token is None:
            raise TurtleError("unexpected end of input")
        self.pos += 1
        return token

    def _expect(self, value: str) -> None:
        kind, tok = self._next()
        if tok != value:
            raise TurtleError(f"expected {value!r}, got {tok!r}")

    def parse(self) -> Iterator[Triple]:
        while self._peek() is not None:
            kind, value = self._peek()
            if value in ("@prefix", "PREFIX"):
                self._parse_prefix(value == "@prefix")
                continue
            if value in ("@base", "BASE"):
                raise TurtleError("@base is not supported")
            yield from self._parse_statement()

    def _parse_prefix(self, needs_dot: bool) -> None:
        self._next()  # @prefix / PREFIX
        kind, qname = self._next()
        if kind != "qname" or not qname.endswith(":"):
            raise TurtleError(f"expected prefix declaration, got {qname!r}")
        kind, iri = self._next()
        if kind != "iri":
            raise TurtleError(f"expected namespace IRI, got {iri!r}")
        self.nsm.bind(qname[:-1], iri[1:-1])
        if needs_dot:
            self._expect(".")

    def _parse_statement(self) -> Iterator[Triple]:
        subject = self._parse_term(position="subject")
        while True:
            predicate = self._parse_term(position="predicate")
            while True:
                obj = self._parse_term(position="object")
                yield (subject, predicate, obj)
                token = self._peek()
                if token and token[1] == ",":
                    self._next()
                    continue
                break
            token = self._peek()
            if token and token[1] == ";":
                self._next()
                # allow trailing ';' before '.'
                token = self._peek()
                if token and token[1] == ".":
                    self._next()
                    return
                continue
            self._expect(".")
            return

    def _parse_term(self, position: str) -> Term:
        kind, value = self._next()
        if kind == "iri":
            return URIRef(unescape_literal(value[1:-1]))
        if kind == "qname":
            try:
                return self.nsm.expand(value)
            except KeyError as exc:
                raise TurtleError(str(exc)) from exc
        if kind == "keyword" and value == "a" and position == "predicate":
            return RDF.type
        if position == "predicate":
            raise TurtleError(f"invalid predicate token: {value!r}")
        if kind == "bnode":
            return BNode(value[2:])
        if kind == "literal":
            lexical = unescape_literal(value[1:-1])
            token = self._peek()
            if token and token[0] == "lang":
                self._next()
                return Literal(lexical, lang=token[1][1:])
            if token and token[0] == "dtype":
                self._next()
                dtype = self._parse_term(position="object")
                if not isinstance(dtype, URIRef):
                    raise TurtleError("datatype must be an IRI")
                return Literal(lexical, datatype=dtype)
            return Literal(lexical)
        if kind == "number":
            if "." in value or "e" in value or "E" in value:
                is_double = "e" in value or "E" in value
                dtype = XSD_DOUBLE if is_double else XSD_DECIMAL
                return Literal(value, datatype=dtype)
            return Literal(value, datatype=XSD_INTEGER)
        if kind == "keyword" and value in ("true", "false"):
            return Literal(value, datatype=XSD_BOOLEAN)
        raise TurtleError(f"unexpected token {value!r} in {position}")


def parse_turtle(text: str) -> Iterator[Triple]:
    """Yield triples parsed from a Turtle document."""
    return _TurtleParser(text).parse()


def load_turtle(text: str, graph: Optional[Graph] = None) -> Graph:
    """Parse a Turtle document into ``graph`` (a new one when omitted)."""
    if graph is None:
        graph = Graph()
    graph.add_all(parse_turtle(text))
    return graph
