"""D2R-style relational→RDF lifting (paper §2.1)."""

from .dump import (
    dump_graph,
    dump_ntriples,
    dump_triples,
    lift_row,
)
from .mapping import (
    D2RMapping,
    KeywordSplitMap,
    LinkMap,
    MappingError,
    PropertyMap,
    TableMap,
    UriPattern,
    literal_for,
)

__all__ = [
    "D2RMapping",
    "KeywordSplitMap",
    "LinkMap",
    "MappingError",
    "PropertyMap",
    "TableMap",
    "UriPattern",
    "dump_graph",
    "dump_ntriples",
    "dump_triples",
    "lift_row",
    "literal_for",
]
