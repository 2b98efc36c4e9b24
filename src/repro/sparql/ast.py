"""Abstract syntax tree for SPARQL queries.

The parser produces these nodes; :mod:`repro.sparql.algebra` lowers them
to the plan tree the evaluator executes (group-graph-pattern elements in
sequence with binding propagation, which matches SPARQL semantics for
the query subset we support). Expressions are not lowered — plan nodes
reference them as parsed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..rdf.terms import Term, Variable

#: A pattern position is either a concrete term or a variable.
PatternTerm = Term


@dataclass(frozen=True)
class TriplePatternNode:
    """A single triple pattern ``s p o``."""

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> List[Variable]:
        return [
            t
            for t in (self.subject, self.predicate, self.object)
            if isinstance(t, Variable)
        ]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for FILTER / ORDER BY expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class TermExpr(Expression):
    """A constant term or variable reference."""

    term: PatternTerm


@dataclass(frozen=True)
class OrExpr(Expression):
    operands: Tuple[Expression, ...]


@dataclass(frozen=True)
class AndExpr(Expression):
    operands: Tuple[Expression, ...]


@dataclass(frozen=True)
class NotExpr(Expression):
    operand: Expression


@dataclass(frozen=True)
class CompareExpr(Expression):
    """Binary comparison: ``=``, ``!=``, ``<``, ``>``, ``<=``, ``>=``."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class InExpr(Expression):
    """``expr IN (e1, e2, ...)`` — negated for ``NOT IN``."""

    operand: Expression
    choices: Tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class ArithExpr(Expression):
    """Binary arithmetic: ``+``, ``-``, ``*``, ``/``."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class NegExpr(Expression):
    """Unary minus."""

    operand: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A call to a builtin or extension function.

    ``name`` is either the upper-cased builtin keyword (``REGEX``,
    ``LANGMATCHES``...) or the full IRI of an extension function (e.g. the
    Virtuoso ``bif:`` functions).
    """

    name: str
    args: Tuple[Expression, ...]


@dataclass(frozen=True)
class ExistsExpr(Expression):
    """``EXISTS { ... }`` / ``NOT EXISTS { ... }``."""

    group: "GroupPattern"
    negated: bool = False


# ---------------------------------------------------------------------------
# Graph patterns
# ---------------------------------------------------------------------------


class PatternNode:
    """Base class for group-graph-pattern elements."""

    __slots__ = ()


@dataclass
class BGP(PatternNode):
    """A basic graph pattern: a conjunctive block of triple patterns."""

    triples: List[TriplePatternNode] = field(default_factory=list)


@dataclass
class FilterPattern(PatternNode):
    expression: Expression


@dataclass
class OptionalPattern(PatternNode):
    group: "GroupPattern"


@dataclass
class UnionPattern(PatternNode):
    branches: List["GroupPattern"]


@dataclass
class BindPattern(PatternNode):
    """``BIND (expr AS ?var)``."""

    expression: Expression
    variable: Variable


@dataclass
class ValuesPattern(PatternNode):
    """Inline data: ``VALUES (?a ?b) { (1 2) (UNDEF 3) }``."""

    variables: List[Variable]
    rows: List[Tuple[Optional[Term], ...]]


@dataclass
class GroupPattern(PatternNode):
    """``{ ... }`` — a sequence of pattern elements evaluated in order."""

    elements: List[PatternNode] = field(default_factory=list)


@dataclass
class GraphGraphPattern(PatternNode):
    """``GRAPH <iri> { ... }`` / ``GRAPH ?g { ... }`` — evaluate the
    group against one named graph (or every named graph, binding the
    variable)."""

    target: PatternTerm  # URIRef or Variable
    group: GroupPattern


@dataclass
class SubSelectPattern(PatternNode):
    """A nested ``{ SELECT ... }`` evaluated independently then joined."""

    query: "SelectQuery"


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderCondition:
    expression: Expression
    descending: bool = False


@dataclass
class SelectQuery:
    """A SELECT query (also used for sub-selects)."""

    variables: List[Variable]  # empty means SELECT *
    where: GroupPattern
    distinct: bool = False
    reduced: bool = False
    order_by: List[OrderCondition] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    group_by: List[Expression] = field(default_factory=list)
    aggregates: List["AggregateBinding"] = field(default_factory=list)
    #: prefixes declared in the prologue (top-level queries only).
    prefixes: Dict[str, str] = field(default_factory=dict)
    #: prefixes that resolved via the DEFAULT_PREFIXES fallback —
    #: prefix name → source offset of first use (linter rule SP003).
    fallback_prefixes: Dict[str, int] = field(default_factory=dict)

    form = "SELECT"


@dataclass(frozen=True)
class AggregateBinding:
    """``(COUNT(?x) AS ?n)`` style projection element."""

    function: str  # COUNT, SUM, AVG, MIN, MAX, SAMPLE
    argument: Optional[Expression]  # None for COUNT(*)
    alias: Variable
    distinct: bool = False


@dataclass
class AskQuery:
    where: GroupPattern
    prefixes: Dict[str, str] = field(default_factory=dict)
    fallback_prefixes: Dict[str, int] = field(default_factory=dict)

    form = "ASK"


@dataclass
class ConstructQuery:
    template: List[TriplePatternNode]
    where: GroupPattern
    limit: Optional[int] = None
    offset: int = 0
    prefixes: Dict[str, str] = field(default_factory=dict)
    fallback_prefixes: Dict[str, int] = field(default_factory=dict)

    form = "CONSTRUCT"


@dataclass
class DescribeQuery:
    """``DESCRIBE <iri>`` or ``DESCRIBE ?var WHERE {...}``."""

    terms: List[PatternTerm]
    where: Optional[GroupPattern] = None
    prefixes: Dict[str, str] = field(default_factory=dict)
    fallback_prefixes: Dict[str, int] = field(default_factory=dict)

    form = "DESCRIBE"


Query = Union[SelectQuery, AskQuery, ConstructQuery, DescribeQuery]


# ---------------------------------------------------------------------------
# Expression walks
# ---------------------------------------------------------------------------


def walk_expression(expr: Expression) -> Iterator[Expression]:
    """Every node of ``expr`` in pre-order (a call before its
    arguments). An EXISTS node is yielded; its group is not entered."""
    yield expr
    if isinstance(expr, (OrExpr, AndExpr)):
        children: Tuple[Expression, ...] = expr.operands
    elif isinstance(expr, (NotExpr, NegExpr)):
        children = (expr.operand,)
    elif isinstance(expr, (CompareExpr, ArithExpr)):
        children = (expr.left, expr.right)
    elif isinstance(expr, InExpr):
        children = (expr.operand, *expr.choices)
    elif isinstance(expr, FunctionCall):
        children = expr.args
    else:
        return
    for child in children:
        yield from walk_expression(child)


def expression_variables(expr: Expression) -> Set[str]:
    """The names of the variables ``expr`` mentions, those of the
    triple patterns and filters of its EXISTS groups included."""
    found: Set[str] = set()
    for node in walk_expression(expr):
        if isinstance(node, TermExpr):
            if isinstance(node.term, Variable):
                found.add(str(node.term))
        elif isinstance(node, ExistsExpr):
            _pattern_variables(node.group, found)
    return found


def _pattern_variables(group: GroupPattern, found: Set[str]) -> None:
    for element in group.elements:
        if isinstance(element, BGP):
            for triple in element.triples:
                found.update(str(v) for v in triple.variables())
        elif isinstance(element, FilterPattern):
            found |= expression_variables(element.expression)
        elif isinstance(element, (OptionalPattern, GraphGraphPattern)):
            _pattern_variables(element.group, found)
        elif isinstance(element, UnionPattern):
            for branch in element.branches:
                _pattern_variables(branch, found)
        elif isinstance(element, GroupPattern):
            _pattern_variables(element, found)
