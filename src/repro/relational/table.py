"""Tables, columns and rows.

The storage model is deliberately simple — every table keeps its rows in
insertion order with a hash index on the primary key and on every UNIQUE
column. That is all the platform's Coppermine-style schema needs, and all
the D2R mapper relies on (primary keys provide resource URIs, §2.1 of the
paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import IntegrityError, SchemaError, TypeMismatchError


class ColumnType(enum.Enum):
    """Supported column types (a pragmatic MySQL-era subset)."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    TIMESTAMP = "TIMESTAMP"

    @classmethod
    def from_sql(cls, name: str) -> "ColumnType":
        normalized = name.strip().upper()
        aliases = {
            "INT": cls.INTEGER,
            "INTEGER": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "REAL": cls.REAL,
            "FLOAT": cls.REAL,
            "DOUBLE": cls.REAL,
            "DECIMAL": cls.REAL,
            "TEXT": cls.TEXT,
            "VARCHAR": cls.TEXT,
            "CHAR": cls.TEXT,
            "BOOLEAN": cls.BOOLEAN,
            "BOOL": cls.BOOLEAN,
            "TIMESTAMP": cls.TIMESTAMP,
            "DATETIME": cls.TIMESTAMP,
        }
        base = normalized.split("(", 1)[0].strip()
        if base not in aliases:
            raise SchemaError(f"unknown column type: {name!r}")
        return aliases[base]

    def coerce(self, value: Any) -> Any:
        """Validate/convert ``value`` for this type (None passes through)."""
        if value is None:
            return None
        if self is ColumnType.INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                if isinstance(value, str) and value.lstrip("+-").isdigit():
                    return int(value)
                raise TypeMismatchError(f"not an integer: {value!r}")
            return value
        if self is ColumnType.REAL:
            if isinstance(value, bool):
                raise TypeMismatchError(f"not a real: {value!r}")
            if isinstance(value, (int, float)):
                return float(value)
            try:
                return float(value)
            except (TypeError, ValueError) as exc:
                raise TypeMismatchError(f"not a real: {value!r}") from exc
        if self is ColumnType.TEXT:
            if isinstance(value, str):
                return value
            raise TypeMismatchError(f"not text: {value!r}")
        if self is ColumnType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if value in (0, 1):
                return bool(value)
            raise TypeMismatchError(f"not a boolean: {value!r}")
        if self is ColumnType.TIMESTAMP:
            # stored as an integer epoch or an ISO string — both accepted
            if isinstance(value, (int, float)):
                return int(value)
            if isinstance(value, str):
                return value
            raise TypeMismatchError(f"not a timestamp: {value!r}")
        raise TypeMismatchError(f"unhandled type {self}")  # pragma: no cover


@dataclass(frozen=True)
class Column:
    """A column definition."""

    name: str
    type: ColumnType
    primary_key: bool = False
    nullable: bool = True
    unique: bool = False
    autoincrement: bool = False
    default: Any = None
    references: Optional[Tuple[str, str]] = None  # (table, column)


#: A row is a plain dict column-name → value.
Row = Dict[str, Any]


class Table:
    """A table: schema + rows + PK/unique hash indexes."""

    def __init__(self, name: str, columns: Iterable[Column]) -> None:
        self.name = name
        self.columns: List[Column] = list(columns)
        if not self.columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {name!r}")
        pks = [c for c in self.columns if c.primary_key]
        if len(pks) > 1:
            raise SchemaError(f"table {name!r} has multiple primary keys")
        self.primary_key: Optional[Column] = pks[0] if pks else None
        self._by_name: Dict[str, Column] = {c.name: c for c in self.columns}
        self.rows: List[Row] = []
        self._pk_index: Dict[Any, Row] = {}
        self._unique_indexes: Dict[str, Dict[Any, Row]] = {
            c.name: {} for c in self.columns if c.unique and not c.primary_key
        }
        self._autoincrement_next = 1

    def column(self, name: str) -> Column:
        if name not in self._by_name:
            raise SchemaError(f"no column {name!r} in table {self.name!r}")
        return self._by_name[name]

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, values: Row) -> Row:
        """Insert one row (a mapping of column → value). Returns the row
        actually stored, with defaults and autoincrement applied."""
        unknown = set(values) - set(self._by_name)
        if unknown:
            raise SchemaError(
                f"unknown column(s) {sorted(unknown)} for {self.name!r}"
            )
        row: Row = {}
        for col in self.columns:
            if col.name in values:
                value = col.type.coerce(values[col.name])
            elif col.autoincrement:
                value = self._autoincrement_next
            elif col.default is not None:
                value = col.type.coerce(col.default)
            else:
                value = None
            if value is None and (not col.nullable or col.primary_key):
                raise IntegrityError(
                    f"{self.name}.{col.name} may not be NULL"
                )
            row[col.name] = value

        if self.primary_key is not None:
            pk_value = row[self.primary_key.name]
            if pk_value in self._pk_index:
                raise IntegrityError(
                    f"duplicate primary key {pk_value!r} in {self.name!r}"
                )
        for col_name, index in self._unique_indexes.items():
            value = row[col_name]
            if value is not None and value in index:
                raise IntegrityError(
                    f"duplicate value {value!r} for unique column "
                    f"{self.name}.{col_name}"
                )

        self.rows.append(row)
        if self.primary_key is not None:
            self._pk_index[row[self.primary_key.name]] = row
            if self.primary_key.autoincrement:
                pk_value = row[self.primary_key.name]
                if isinstance(pk_value, int):
                    self._autoincrement_next = max(
                        self._autoincrement_next, pk_value + 1
                    )
        for col_name, index in self._unique_indexes.items():
            if row[col_name] is not None:
                index[row[col_name]] = row
        for col in self.columns:
            if col.autoincrement and not col.primary_key:
                value = row[col.name]
                if isinstance(value, int):
                    self._autoincrement_next = max(
                        self._autoincrement_next, value + 1
                    )
        return dict(row)

    def delete(self, pk_value: Any) -> bool:
        """Delete the row with this primary key (no scan: the PK index
        finds it); False when there is none."""
        row = self._stored(pk_value)
        if row is None:
            return False
        self._pk_index.pop(pk_value)
        for col_name, index in self._unique_indexes.items():
            if row[col_name] is not None:
                index.pop(row[col_name], None)
        self.rows.remove(row)
        return True

    def update(self, pk_value: Any, changes: Row) -> bool:
        """Update the row with this primary key (no scan); False when
        there is none."""
        for name in changes:
            self.column(name)  # validates existence
        if self.primary_key is not None and self.primary_key.name in changes:
            raise IntegrityError("updating primary keys is not supported")
        row = self._stored(pk_value)
        if row is None:
            return False
        for name, value in changes.items():
            col = self.column(name)
            coerced = col.type.coerce(value)
            if coerced is None and not col.nullable:
                raise IntegrityError(
                    f"{self.name}.{name} may not be NULL"
                )
            if name in self._unique_indexes:
                index = self._unique_indexes[name]
                existing = index.get(coerced)
                if (
                    coerced is not None
                    and existing is not None
                    and existing is not row
                ):
                    raise IntegrityError(
                        f"duplicate value {coerced!r} for unique "
                        f"column {self.name}.{name}"
                    )
                if row[name] is not None:
                    index.pop(row[name], None)
                if coerced is not None:
                    index[coerced] = row
            row[name] = coerced
        return True

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, pk_value: Any) -> Optional[Row]:
        """Primary-key lookup; returns a copy or None."""
        row = self._stored(pk_value)
        return dict(row) if row is not None else None

    def _stored(self, pk_value: Any) -> Optional[Row]:
        if self.primary_key is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        return self._pk_index.get(pk_value)

    def scan(self) -> Iterator[Row]:
        """Iterate copies of all rows in insertion order."""
        for row in self.rows:
            yield dict(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, columns={self.column_names}, " \
               f"rows={len(self.rows)})"

    # ------------------------------------------------------------------
    # Snapshot support (used by Database.transaction)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """An opaque copy of the table's state."""
        return {
            "rows": [dict(row) for row in self.rows],
            "autoincrement": self._autoincrement_next,
        }

    def restore(self, state: dict) -> None:
        """Reset the table to a previously-taken snapshot."""
        self.rows = [dict(row) for row in state["rows"]]
        self._autoincrement_next = state["autoincrement"]
        self._pk_index.clear()
        for index in self._unique_indexes.values():
            index.clear()
        for row in self.rows:
            if self.primary_key is not None:
                self._pk_index[row[self.primary_key.name]] = row
            for name, index in self._unique_indexes.items():
                if row[name] is not None:
                    index[row[name]] = row
