"""D2R mapping linter.

Checks every :class:`~repro.d2r.mapping.TableMap` against the actual
relational schema (:class:`repro.relational.database.Database`) *before*
a dump runs. Two mistakes get past the dump without a word: a misspelled
column emits nothing at all (``row.get`` returns ``None``; DM002), and a
declared datatype the column's values cannot carry is written as
declared (DM006).

What the dump itself rejects is not linted again: a URI-pattern
placeholder that is not a column, or a link to an unmapped table, raises
``MappingError``; a table map of a table the schema lacks raises
``SchemaError``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..d2r.mapping import D2RMapping
from ..relational.database import Database
from ..relational.table import ColumnType
from .diagnostics import Diagnostic
from .rules import make
from .vocabulary import _suggest

#: XSD datatypes each column type can faithfully serialize to.
_COMPATIBLE: Dict[ColumnType, frozenset] = {
    ColumnType.INTEGER: frozenset({
        "http://www.w3.org/2001/XMLSchema#integer",
        "http://www.w3.org/2001/XMLSchema#int",
        "http://www.w3.org/2001/XMLSchema#long",
        "http://www.w3.org/2001/XMLSchema#decimal",
        "http://www.w3.org/2001/XMLSchema#double",
        "http://www.w3.org/2001/XMLSchema#float",
        "http://www.w3.org/2001/XMLSchema#string",
        "http://www.w3.org/2001/XMLSchema#dateTime",
    }),
    ColumnType.REAL: frozenset({
        "http://www.w3.org/2001/XMLSchema#decimal",
        "http://www.w3.org/2001/XMLSchema#double",
        "http://www.w3.org/2001/XMLSchema#float",
        "http://www.w3.org/2001/XMLSchema#string",
    }),
    ColumnType.BOOLEAN: frozenset({
        "http://www.w3.org/2001/XMLSchema#boolean",
        "http://www.w3.org/2001/XMLSchema#string",
    }),
    ColumnType.TIMESTAMP: frozenset({
        "http://www.w3.org/2001/XMLSchema#integer",
        "http://www.w3.org/2001/XMLSchema#long",
        "http://www.w3.org/2001/XMLSchema#dateTime",
        "http://www.w3.org/2001/XMLSchema#string",
    }),
    # TEXT serializes to anything stringy but not to numerics/booleans
    ColumnType.TEXT: frozenset({
        "http://www.w3.org/2001/XMLSchema#string",
        "http://www.w3.org/2001/XMLSchema#anyURI",
        "http://www.w3.org/2001/XMLSchema#dateTime",
    }),
}


class MappingLinter:
    """Validates a :class:`D2RMapping` against a database schema."""

    def lint(
        self, mapping: D2RMapping, db: Database,
        name: Optional[str] = None,
    ) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for table_name in sorted(mapping.table_maps):
            table = db.tables.get(table_name)
            if table is None:
                continue  # the dump raises SchemaError
            table_map = mapping.table_maps[table_name]
            source = name or f"mapping:{table_name}"
            for kind, column, predicate in (
                *(("property", p.column, p.predicate)
                  for p in table_map.properties),
                *(("link", m.column, m.predicate)
                  for m in table_map.links),
                *(("keyword split", s.column, s.predicate)
                  for s in table_map.keyword_splits),
            ):
                if not table.has_column(column):
                    diags.append(make(
                        "DM002",
                        f"{kind} map for <{predicate}> names unknown "
                        f"column {column!r}",
                        suggestion=_suggest(
                            column, set(table.column_names)
                        ),
                        source=source,
                    ))
            for prop in table_map.properties:
                if prop.datatype is None or not table.has_column(
                    prop.column
                ):
                    continue
                column_type = table.column(prop.column).type
                if str(prop.datatype) not in _COMPATIBLE[column_type]:
                    diags.append(make(
                        "DM006",
                        f"column {prop.column!r} has type "
                        f"{column_type.value} but the property map "
                        f"declares datatype <{prop.datatype}>",
                        source=source,
                    ))
        return diags
