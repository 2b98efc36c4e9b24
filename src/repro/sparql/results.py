"""Query result containers and serialization.

:class:`SelectResult` is list-like over solution rows; each row maps
variable names to terms (or ``None`` for unbound). JSON output follows the
W3C "SPARQL 1.1 Query Results JSON Format"; CSV output follows the CSV
results format (lexical forms only).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..rdf.terms import BNode, Literal, Term, URIRef, Variable

#: One solution: variable → term (absent/None = unbound).
Row = Dict[Variable, Term]


class SelectResult:
    """Materialized SELECT solutions with projection order preserved."""

    def __init__(self, variables: Sequence[Variable], rows: List[Row]) -> None:
        self.variables = list(variables)
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> Row:
        return self.rows[index]

    def __bool__(self) -> bool:
        return bool(self.rows)

    def values(self, variable: Any) -> List[Optional[Term]]:
        """The column of bindings for ``variable`` (None when unbound)."""
        var = Variable(str(variable))
        return [row.get(var) for row in self.rows]

    def first(self, variable: Any = None) -> Optional[Any]:
        """First row, or first binding of ``variable`` when given."""
        if not self.rows:
            return None
        if variable is None:
            return self.rows[0]
        return self.rows[0].get(Variable(str(variable)))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """W3C SPARQL JSON results format."""
        bindings = []
        for row in self.rows:
            encoded: Dict[str, Dict[str, str]] = {}
            for var, term in row.items():
                if term is None:
                    continue
                encoded[str(var)] = _encode_term(term)
            bindings.append(encoded)
        doc = {
            "head": {"vars": [str(v) for v in self.variables]},
            "results": {"bindings": bindings},
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_table(self) -> str:
        """Human-readable fixed-width table (used by the examples); a
        value longer than :data:`_CELL_WIDTH` is cut."""
        headers = [str(v) for v in self.variables]
        cells = [
            [_display(row.get(v)) for v in self.variables]
            for row in self.rows
        ]
        widths = [
            max([len(h)] + [len(r[i]) for r in cells])
            for i, h in enumerate(headers)
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row_cells in cells:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row_cells, widths))
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SelectResult(vars={[str(v) for v in self.variables]}, "
            f"rows={len(self.rows)})"
        )


def _encode_term(term: Term) -> Dict[str, str]:
    if isinstance(term, URIRef):
        return {"type": "uri", "value": str(term)}
    if isinstance(term, BNode):
        return {"type": "bnode", "value": str(term)}
    if isinstance(term, Literal):
        encoded: Dict[str, str] = {"type": "literal", "value": term.lexical}
        if term.lang:
            encoded["xml:lang"] = term.lang
        elif term.datatype:
            encoded["datatype"] = str(term.datatype)
        return encoded
    raise TypeError(f"cannot encode {term!r}")


def _lexical(term: Optional[Term]) -> str:
    if term is None:
        return ""
    if isinstance(term, Literal):
        return term.lexical
    return str(term)


#: Characters a table cell shows at most.
_CELL_WIDTH = 40


def _display(term: Optional[Term]) -> str:
    text = _lexical(term)
    if len(text) > _CELL_WIDTH:
        return text[: _CELL_WIDTH - 1] + "…"
    return text
