"""The ``dump-rdf`` feature: materialize a relational DB as RDF.

This is the exact workflow the paper describes (§2.1): rather than running
D2R as a live SPARQL façade, the platform dumps its relational data to
N-Triples once and bulk-loads the dump into the triple store next to the
imported LOD datasets.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..rdf.graph import Graph, Triple
from ..rdf.namespace import RDF
from ..rdf.ntriples import serialize_ntriples
from ..relational.database import Database
from ..relational.table import Row
from .mapping import D2RMapping, MappingError, literal_for


def dump_triples(db: Database, mapping: D2RMapping) -> Iterator[Triple]:
    """Yield every triple produced by applying ``mapping`` to ``db``."""
    for table_name, table_map in mapping.table_maps.items():
        # validate link targets before emitting anything
        for link in table_map.links:
            if link.target_table not in mapping:
                raise MappingError(
                    f"link {table_name}.{link.column} targets unmapped "
                    f"table {link.target_table!r}"
                )
        for row in db.table(table_name).scan():
            yield from lift_row(db, mapping, table_name, row)


def lift_row(
    db: Database, mapping: D2RMapping, table_name: str, row: Row
) -> Iterator[Triple]:
    """Yield the triples ``mapping`` produces for one row of a table.

    The single place a relational row becomes RDF: the full dump walks
    every row through it, and a row-level delta (the platform's write
    path) calls it for just the rows a mutation touched.
    """
    table = db.table(table_name)
    table_map = mapping.for_table(table_name)
    subject = table_map.uri_for(row)
    if table_map.rdf_class is not None:
        yield (subject, RDF.type, table_map.rdf_class)
    for prop in table_map.properties:
        value = row.get(prop.column)
        if value is None:
            continue
        column_type = table.column(prop.column).type
        yield (
            subject,
            prop.predicate,
            literal_for(column_type, value, prop.lang, prop.datatype),
        )
    for link in table_map.links:
        value = row.get(link.column)
        if value is None:
            continue
        target_map = mapping.for_table(link.target_table)
        target_row = _target_row(db, link.target_table, value)
        if target_row is None:
            continue
        yield (subject, link.predicate, target_map.uri_for(target_row))
    for split in table_map.keyword_splits:
        value = row.get(split.column)
        if not value:
            continue
        seen = set()
        for token in str(value).split(split.separator):
            token = token.strip()
            if split.lowercase:
                token = token.lower()
            if not token or token in seen:
                continue
            seen.add(token)
            yield (subject, split.predicate, _keyword_literal(token))


def _keyword_literal(token: str):
    from ..rdf.terms import Literal

    return Literal(token)


def _target_row(db: Database, table_name: str, key):
    table = db.table(table_name)
    if table.primary_key is not None:
        return table.get(key)
    return None


def dump_graph(
    db: Database,
    mapping: D2RMapping,
    graph: Optional[Graph] = None,
) -> Graph:
    """Apply ``mapping`` to ``db`` and collect the triples in a graph.

    The dump is materialized *before* the store is touched: feeding the
    live generator straight to ``add_all`` would hold the store's write
    lock across the whole relational scan, and a
    :class:`~repro.d2r.mapping.MappingError` raised mid-stream (link
    validation is per-table, after earlier tables already emitted)
    would leave the target graph half-populated. This way a failing
    dump leaves ``graph`` untouched and the lock is held only for the
    bulk load.
    """
    triples = list(dump_triples(db, mapping))
    if graph is None:
        graph = Graph()
    graph.add_all(triples)
    return graph


def dump_ntriples(db: Database, mapping: D2RMapping) -> str:
    """The D2R ``dump-rdf`` output: a deterministic N-Triples document."""
    return serialize_ntriples(dump_triples(db, mapping))
