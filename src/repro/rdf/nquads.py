"""N-Quads serialization and dataset persistence.

The platform "runs locally" (§2.1) — its triple store needs to survive
restarts. N-Quads extends N-Triples with an optional fourth term naming
the graph, which maps exactly onto :class:`~repro.rdf.graph.Dataset`:
default-graph statements have three terms, named-graph statements four.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from .graph import Dataset
from .ntriples import NTriplesError, parse_ntriples_line
from .terms import Term, URIRef, unescape_literal

#: A quad: (s, p, o, graph-IRI-or-None).
Quad = Tuple[Term, Term, Term, Optional[URIRef]]

# Graph-term IRIs accept the same ``\uXXXX``/``\UXXXXXXXX`` escapes as
# the N-Triples ``_IRI`` pattern so escaped output re-parses.
_GRAPH_SUFFIX_RE = re.compile(
    r"\s*<((?:[^<>\"{}|^`\\\x00-\x20]"
    r"|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*)>\s*\.\s*(#.*)?$"
)
_TRIPLE_END_RE = re.compile(r"\s*\.\s*(#.*)?$")


def parse_nquads_line(line: str, lineno: int = 0) -> Quad:
    """Parse one N-Quads statement (graph term optional)."""
    match = _GRAPH_SUFFIX_RE.search(line)
    graph: Optional[URIRef] = None
    if match is not None:
        candidate = line[: match.start()] + " ."
        try:
            s, p, o = parse_ntriples_line(candidate, lineno)
            return (s, p, o, URIRef(unescape_literal(match.group(1))))
        except NTriplesError:
            pass  # the <...> was the object, not a graph term
    s, p, o = parse_ntriples_line(line, lineno)
    return (s, p, o, None)


def parse_nquads(text: str) -> Iterator[Quad]:
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield parse_nquads_line(line, lineno)


def serialize_quad(quad: Quad) -> str:
    s, p, o, graph = quad
    if graph is None:
        return f"{s.n3()} {p.n3()} {o.n3()} ."
    return f"{s.n3()} {p.n3()} {o.n3()} {graph.n3()} ."


def serialize_nquads(dataset: Dataset) -> str:
    """Deterministic N-Quads document for a dataset."""
    lines = [
        serialize_quad((s, p, o, None)) for s, p, o in dataset.default
    ]
    for graph in dataset.graphs():
        identifier = graph.identifier
        lines.extend(
            serialize_quad((s, p, o, identifier)) for s, p, o in graph
        )
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def load_nquads(
    text: str, dataset: Optional[Dataset] = None
) -> Dataset:
    """Parse an N-Quads document into a dataset (new when omitted)."""
    if dataset is None:
        dataset = Dataset()
    for s, p, o, graph in parse_nquads(text):
        if graph is None:
            dataset.default.add((s, p, o))
        else:
            dataset.graph(graph).add((s, p, o))
    return dataset


def save_dataset(dataset: Dataset, path: Union[str, Path]) -> None:
    """Write the dataset to ``path`` as N-Quads."""
    Path(path).write_text(serialize_nquads(dataset), encoding="utf-8")


def load_dataset(path: Union[str, Path]) -> Dataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    return load_nquads(Path(path).read_text(encoding="utf-8"))
