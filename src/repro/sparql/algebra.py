"""Explicit query algebra: the plan the optimizer rewrites.

The parser's AST (:mod:`repro.sparql.ast`) has no room for the facts a
planner needs: per-scan cardinality estimates, statically chosen scan
orders, filters pushed into the basic graph pattern that owns their
variables. This module lowers a parsed query into an explicit algebra
tree of :class:`PlanNode` objects — the only thing the evaluator
executes. ``Evaluator(optimize=True)`` first lets the planner in
:mod:`repro.analysis.plan` rewrite the tree; ``optimize=False`` runs it
exactly as lowered here.

Lowering never mutates the AST — plan nodes hold references to the
parser's (immutable) triple patterns and expressions, and every
structural decision lives in the plan, not the query.

``repro explain`` renders two annotations:

* ``est_rows`` — on a :class:`ScanStep` and its :class:`BGPNode` only:
  the rows per incoming solution the planner's scan order estimated
  once that scan has run (the running product of the costs it ordered
  the scans by, from :class:`repro.analysis.stats.GraphStatistics`;
  unset without statistics);
* ``actual_rows`` — on every node, the number of solutions it actually
  produced during execution (filled by the evaluator when EXPLAIN runs
  the plan; a plan ``evaluate()`` runs may be shared and is never
  written to).
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..rdf.terms import Term, URIRef, Variable
from .ast import (
    AggregateBinding,
    AndExpr,
    ArithExpr,
    AskQuery,
    BGP,
    BindPattern,
    CompareExpr,
    ConstructQuery,
    DescribeQuery,
    ExistsExpr,
    Expression,
    FilterPattern,
    FunctionCall,
    GraphGraphPattern,
    GroupPattern,
    InExpr,
    NegExpr,
    NotExpr,
    OptionalPattern,
    OrderCondition,
    OrExpr,
    PatternNode,
    Query,
    SelectQuery,
    SubSelectPattern,
    TermExpr,
    TriplePatternNode,
    UnionPattern,
    ValuesPattern,
)
from .errors import SparqlEvalError

class PlanNode:
    """Base class of all algebra nodes.

    Within a :class:`JoinNode`, children act as *stream operators*:
    solution mappings flow through them in sequence, matching the
    group-graph-pattern semantics the evaluator implements.
    """

    __slots__ = ("actual_rows", "actual_ms")

    def __init__(self) -> None:
        self.actual_rows: Optional[int] = None
        # inclusive wall time spent producing this node's solutions,
        # in milliseconds — filled, like actual_rows, only by EXPLAIN
        self.actual_ms: Optional[float] = None

    def children(self) -> Sequence["PlanNode"]:
        return ()

    def label(self) -> str:
        raise NotImplementedError

    def certain_vars(self) -> frozenset:
        """Variable names this node binds in every solution it emits."""
        return frozenset()


class GeoProbe(NamedTuple):
    """An access path for ``?s geo:geometry ?o``: one of the scan's
    ``filters`` is ``bif:st_intersects`` between ``?o`` and ``center``
    within a constant ``radius_km``, so the solutions can only come
    from the spatial-grid cells around ``center``."""

    #: the ``bif:st_intersects`` call (still applied, exactly)
    filter: FunctionCall
    #: a constant geometry, or a variable bound before the scan runs
    center: Term
    radius_km: float


class Pin(NamedTuple):
    """An access path for a scan whose one ``variable`` position no
    earlier scan binds: one of the scan's ``filters`` is ``variable IN
    (<iri>, …)``, so its solutions can only come from looking each IRI
    up with the variable already in place."""

    #: the ``IN`` expression (applied to a solution that binds
    #: ``variable``; a lookup's rows satisfy it by construction)
    filter: InExpr
    variable: Variable
    #: the IRIs listed, each once
    iris: Tuple[URIRef, ...]


class ScanStep(PlanNode):
    """One triple-pattern lookup inside a :class:`BGPNode`.

    ``filters`` are expressions pushed down by the planner, applied to
    each solution as soon as this scan has extended it. ``probe``, set
    by the reorder pass, lets the executor read the candidates off the
    statistics' spatial grid instead of the triple index; ``pin``, also
    the reorder pass's, lets it look up the listed IRIs instead of
    enumerating the variable. The filters apply either way (the pin's
    own holds on its lookups' rows by construction).

    EXPLAIN's run also leaves ``actual_probes`` — index or grid lookups
    the scan made, one per distinct join key — and, on a probed scan,
    ``actual_paths``: which access path(s) its solutions took.
    """

    __slots__ = (
        "pattern", "filters", "probe", "pin", "est_rows", "actual_probes",
        "actual_paths", "_variables",
    )

    def __init__(
        self,
        pattern: TriplePatternNode,
        filters: Optional[List[Expression]] = None,
        probe: Optional[GeoProbe] = None,
        pin: Optional[Pin] = None,
    ) -> None:
        super().__init__()
        self.pattern = pattern
        self.filters: List[Expression] = list(filters or ())
        self.probe = probe
        self.pin = pin
        self.est_rows: Optional[float] = None
        self.actual_probes: Optional[int] = None
        self.actual_paths: Optional[List[str]] = None
        # the planner asks once per candidate order it weighs
        self._variables = frozenset(str(v) for v in pattern.variables())

    def variables(self) -> frozenset:
        return self._variables

    def certain_vars(self) -> frozenset:
        return self.variables()

    def label(self) -> str:
        text = "Scan " + " ".join(
            _term_text(t)
            for t in (
                self.pattern.subject,
                self.pattern.predicate,
                self.pattern.object,
            )
        )
        for expr in self.filters:
            text += f" | FILTER {render_expression(expr)}"
        if self.probe is not None:
            text += f" via geo grid, r={self.probe.radius_km:g}"
        if self.pin is not None:
            count = len(self.pin.iris)
            text += f" via ?{self.pin.variable} ∈ {count} IRI"
            text += "s" if count > 1 else ""
        return text


class BGPNode(PlanNode):
    """A basic graph pattern: a list of scans, run in the order listed.

    The order is the planner's cost order once ``reorder_scans`` has
    run; a BGP as lowered (the reference plan, every ``EXISTS`` group)
    keeps the written order.

    ``pushed`` holds filters assigned to this BGP by the pushdown pass
    but not yet attached to a specific scan (the reorder pass attaches
    them at the earliest position where their variables are bound; the
    executor applies any leftovers after the final scan).
    """

    __slots__ = ("scans", "pushed", "est_rows")

    def __init__(
        self,
        scans: List[ScanStep],
        pushed: Optional[List[Expression]] = None,
    ) -> None:
        super().__init__()
        self.scans = scans
        self.pushed: List[Expression] = list(pushed or ())
        self.est_rows: Optional[float] = None

    def children(self) -> Sequence[PlanNode]:
        return self.scans

    def variables(self) -> frozenset:
        names: set = set()
        for scan in self.scans:
            names |= scan.variables()
        return frozenset(names)

    def certain_vars(self) -> frozenset:
        return self.variables()

    def label(self) -> str:
        text = f"BGP ({len(self.scans)} scan(s))"
        for expr in self.pushed:
            text += f" | FILTER {render_expression(expr)}"
        return text


class FilterNode(PlanNode):
    """A group-level FILTER applied to the incoming solution stream."""

    __slots__ = ("expression",)

    def __init__(self, expression: Expression) -> None:
        super().__init__()
        self.expression = expression

    def label(self) -> str:
        return f"Filter {render_expression(self.expression)}"


class JoinNode(PlanNode):
    """A group ``{ ... }``: elements applied to the stream in order."""

    __slots__ = ("elements",)

    def __init__(self, elements: List[PlanNode]) -> None:
        super().__init__()
        self.elements = elements

    def children(self) -> Sequence[PlanNode]:
        return self.elements

    def certain_vars(self) -> frozenset:
        names: frozenset = frozenset()
        for element in self.elements:
            names |= element.certain_vars()
        return names

    def label(self) -> str:
        return f"Join ({len(self.elements)} element(s))"


class LeftJoinNode(PlanNode):
    """``OPTIONAL { ... }`` — a left join against the group plan."""

    __slots__ = ("group",)

    def __init__(self, group: PlanNode) -> None:
        super().__init__()
        self.group = group

    def children(self) -> Sequence[PlanNode]:
        return (self.group,)

    def label(self) -> str:
        return "LeftJoin (OPTIONAL)"


class UnionNode(PlanNode):
    """``{ ... } UNION { ... }`` — branch concatenation."""

    __slots__ = ("branches",)

    def __init__(self, branches: List[PlanNode]) -> None:
        super().__init__()
        self.branches = branches

    def children(self) -> Sequence[PlanNode]:
        return self.branches

    def certain_vars(self) -> frozenset:
        if not self.branches:
            return frozenset()
        names = self.branches[0].certain_vars()
        for branch in self.branches[1:]:
            names &= branch.certain_vars()
        return names

    def label(self) -> str:
        return f"Union ({len(self.branches)} branch(es))"


class ExtendNode(PlanNode):
    """``BIND (expr AS ?var)``."""

    __slots__ = ("variable", "expression")

    def __init__(self, variable: Variable, expression: Expression) -> None:
        super().__init__()
        self.variable = variable
        self.expression = expression

    def certain_vars(self) -> frozenset:
        # BIND leaves the variable unbound when the expression errors
        return frozenset()

    def label(self) -> str:
        return (
            f"Extend ?{self.variable} := "
            f"{render_expression(self.expression)}"
        )


class ValuesNode(PlanNode):
    """Inline ``VALUES`` data."""

    __slots__ = ("variables", "rows")

    def __init__(
        self,
        variables: List[Variable],
        rows: List[Tuple[Optional[Term], ...]],
    ) -> None:
        super().__init__()
        self.variables = variables
        self.rows = rows

    def certain_vars(self) -> frozenset:
        certain = set(str(v) for v in self.variables)
        for row in self.rows:
            for var, value in zip(self.variables, row):
                if value is None:
                    certain.discard(str(var))
        return frozenset(certain)

    def label(self) -> str:
        names = " ".join(f"?{v}" for v in self.variables)
        return f"Values [{names}] ({len(self.rows)} row(s))"


class SubSelectNode(PlanNode):
    """A nested ``{ SELECT ... }``: inner plan evaluated once, joined."""

    __slots__ = ("query", "plan")

    def __init__(self, query: SelectQuery, plan: PlanNode) -> None:
        super().__init__()
        self.query = query
        self.plan = plan

    def children(self) -> Sequence[PlanNode]:
        return (self.plan,)

    def certain_vars(self) -> frozenset:
        # projected variables may be unbound (e.g. OPTIONAL-only)
        return frozenset()

    def label(self) -> str:
        names = " ".join(f"?{v}" for v in self.query.variables) or "*"
        return f"SubSelect [{names}]"


class GraphNode(PlanNode):
    """``GRAPH <iri>/?g { ... }`` over the dataset's named graphs."""

    __slots__ = ("target", "group")

    def __init__(self, target: Term, group: PlanNode) -> None:
        super().__init__()
        self.target = target
        self.group = group

    def children(self) -> Sequence[PlanNode]:
        return (self.group,)

    def label(self) -> str:
        return f"Graph {_term_text(self.target)}"


class ProjectNode(PlanNode):
    """Projection onto the SELECT variables."""

    __slots__ = ("variables", "child")

    def __init__(self, variables: List[Variable], child: PlanNode) -> None:
        super().__init__()
        self.variables = variables
        self.child = child

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def label(self) -> str:
        names = " ".join(f"?{v}" for v in self.variables) or "*"
        return f"Project [{names}]"


class DistinctNode(PlanNode):
    """``DISTINCT`` / ``REDUCED`` duplicate-row elimination."""

    __slots__ = ("child",)

    def __init__(self, child: PlanNode) -> None:
        super().__init__()
        self.child = child

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def label(self) -> str:
        return "Distinct"


class OrderNode(PlanNode):
    """``ORDER BY`` — materializes and sorts the stream."""

    __slots__ = ("conditions", "child")

    def __init__(
        self, conditions: List[OrderCondition], child: PlanNode
    ) -> None:
        super().__init__()
        self.conditions = conditions
        self.child = child

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(
            ("DESC(" if c.descending else "ASC(")
            + render_expression(c.expression) + ")"
            for c in self.conditions
        )
        return f"OrderBy {keys}"


class SliceNode(PlanNode):
    """``LIMIT`` / ``OFFSET``."""

    __slots__ = ("limit", "offset", "child")

    def __init__(
        self, limit: Optional[int], offset: int, child: PlanNode
    ) -> None:
        super().__init__()
        self.limit = limit
        self.offset = offset
        self.child = child

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def label(self) -> str:
        parts = []
        if self.offset:
            parts.append(f"offset={self.offset}")
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        return "Slice " + " ".join(parts)


class AggregateNode(PlanNode):
    """GROUP BY / aggregate projection (or plain expression bindings)."""

    __slots__ = ("query", "child")

    def __init__(self, query: SelectQuery, child: PlanNode) -> None:
        super().__init__()
        self.query = query
        self.child = child

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    @property
    def grouped(self) -> bool:
        return bool(self.query.group_by) or any(
            agg.function != "EXPR" for agg in self.query.aggregates
        )

    def label(self) -> str:
        if not self.grouped:
            return "Extend (projection expressions)"
        keys = ", ".join(
            render_expression(e) for e in self.query.group_by
        ) or "()"
        aggs = ", ".join(
            _aggregate_text(a) for a in self.query.aggregates
        )
        return f"Aggregate group-by {keys} [{aggs}]"


# ---------------------------------------------------------------------------
# Lowering: AST -> algebra
# ---------------------------------------------------------------------------


def lower_query(query: Query) -> PlanNode:
    """Lower any query form; non-SELECT forms plan their WHERE group."""
    if isinstance(query, SelectQuery):
        return lower_select(query)
    if isinstance(query, ConstructQuery):
        return _sliced(query, lower_group(query.where))
    if isinstance(query, AskQuery):
        return lower_group(query.where)
    if isinstance(query, DescribeQuery):
        if query.where is None:
            return JoinNode([])
        return lower_group(query.where)
    raise SparqlEvalError(f"cannot lower query form: {query!r}")


def lower_select(query: SelectQuery) -> PlanNode:
    """Lower a SELECT into the modifier chain the evaluator applies."""
    node: PlanNode = lower_group(query.where)
    if query.aggregates or query.group_by:
        node = AggregateNode(query, node)
    if query.order_by:
        node = OrderNode(list(query.order_by), node)
    node = ProjectNode(
        list(query.variables) or collect_variables(query.where), node
    )
    if query.distinct or query.reduced:
        node = DistinctNode(node)
    return _sliced(query, node)


def _sliced(query, node: PlanNode) -> PlanNode:
    """``node`` under the query's LIMIT / OFFSET, if it has one."""
    if query.offset or query.limit is not None:
        return SliceNode(query.limit, query.offset, node)
    return node


def lower_group(group: GroupPattern) -> JoinNode:
    """Lower a group pattern; FILTERs go last (group-level scoping), so
    triple blocks only FILTERs separated become one BGP (joins of
    triple patterns commute). A BGP's scans keep the written order."""
    elements: List[PlanNode] = []
    filters: List[PlanNode] = []
    for element in group.elements:
        if isinstance(element, FilterPattern):
            filters.append(FilterNode(element.expression))
            continue
        node = _lower_element(element)
        if isinstance(node, BGPNode) and elements and isinstance(
            elements[-1], BGPNode
        ):
            elements[-1].scans.extend(node.scans)
        else:
            elements.append(node)
    return JoinNode(elements + filters)


def _lower_element(element: PatternNode) -> PlanNode:
    if isinstance(element, BGP):
        return BGPNode([ScanStep(t) for t in element.triples])
    if isinstance(element, GroupPattern):
        return lower_group(element)
    if isinstance(element, OptionalPattern):
        return LeftJoinNode(lower_group(element.group))
    if isinstance(element, UnionPattern):
        return UnionNode([lower_group(b) for b in element.branches])
    if isinstance(element, BindPattern):
        return ExtendNode(element.variable, element.expression)
    if isinstance(element, ValuesPattern):
        return ValuesNode(list(element.variables), list(element.rows))
    if isinstance(element, SubSelectPattern):
        return SubSelectNode(
            element.query, lower_select(element.query)
        )
    if isinstance(element, GraphGraphPattern):
        return GraphNode(element.target, lower_group(element.group))
    raise SparqlEvalError(f"cannot lower pattern element: {element!r}")


def collect_variables(node: PatternNode) -> List[Variable]:
    """In-order distinct variables of a pattern tree (SELECT *)."""
    found: List[Variable] = []

    def add(variables) -> None:
        for var in variables:
            if var not in found:
                found.append(var)

    def visit(element: PatternNode) -> None:
        if isinstance(element, BGP):
            for triple in element.triples:
                add(triple.variables())
        elif isinstance(element, GroupPattern):
            for child in element.elements:
                visit(child)
        elif isinstance(element, OptionalPattern):
            visit(element.group)
        elif isinstance(element, UnionPattern):
            for branch in element.branches:
                visit(branch)
        elif isinstance(element, BindPattern):
            add([element.variable])
        elif isinstance(element, ValuesPattern):
            add(element.variables)
        elif isinstance(element, SubSelectPattern):
            add(element.query.variables or collect_variables(
                element.query.where
            ))
        elif isinstance(element, GraphGraphPattern):
            if isinstance(element.target, Variable):
                add([element.target])
            visit(element.group)

    visit(node)
    return found


# ---------------------------------------------------------------------------
# Traversal / rendering
# ---------------------------------------------------------------------------


def walk(node: PlanNode) -> Iterator[PlanNode]:
    """Depth-first pre-order walk of a plan tree."""
    yield node
    for child in node.children():
        yield from walk(child)


def render_plan(root: PlanNode) -> str:
    """Render a plan as an indented tree with cardinality annotations."""
    lines: List[str] = []

    def visit(node: PlanNode, prefix: str, tail: str) -> None:
        lines.append(tail + node.label() + _annotation(node))
        children = list(node.children())
        for index, child in enumerate(children):
            last = index == len(children) - 1
            connector = "└─ " if last else "├─ "
            extension = "   " if last else "│  "
            visit(child, prefix + extension, prefix + connector)

    visit(root, "", "")
    return "\n".join(lines)


#: How EXPLAIN words the access path(s) a probed scan's solutions took
#: (the executor's ``repro_geo_probe_total{path}`` values).
_PATH_TAKEN = {
    "grid": "via geo grid",
    "join": "via geo grid, joined on ?{subject}",
    "scan": "via index",
}


def _annotation(node: PlanNode) -> str:
    parts = []
    est_rows = getattr(node, "est_rows", None)
    if est_rows is not None:
        parts.append(f"est={_fmt_rows(est_rows)}")
    if node.actual_rows is not None:
        parts.append(f"actual={node.actual_rows}")
    if node.actual_ms is not None:
        parts.append(f"ms={node.actual_ms:.2f}")
    text = " ".join(parts)
    if isinstance(node, ScanStep) and node.actual_probes is not None:
        text += f" probes={node.actual_probes}"
        if node.actual_paths:
            text += "; " + " + ".join(
                _PATH_TAKEN[path].format(subject=node.pattern.subject)
                for path in node.actual_paths
            )
    return f"  [{text}]" if text else ""


def _fmt_rows(value: float) -> str:
    if value == int(value):
        return str(int(value))
    if value >= 10:
        return str(int(round(value)))
    if value >= 0.095:
        return f"{value:.1f}"
    return f"{value:.2g}"


def _term_text(term: Term) -> str:
    if isinstance(term, Variable):
        return f"?{term}"
    return term.n3()


def _aggregate_text(agg: AggregateBinding) -> str:
    if agg.function == "EXPR":
        inner = render_expression(agg.argument) if agg.argument else ""
        return f"({inner} AS ?{agg.alias})"
    arg = "*" if agg.argument is None else render_expression(agg.argument)
    distinct = "DISTINCT " if agg.distinct else ""
    return f"({agg.function}({distinct}{arg}) AS ?{agg.alias})"


def render_expression(expr: Expression) -> str:
    """Compact SPARQL-ish rendering of an expression tree."""
    if isinstance(expr, TermExpr):
        return _term_text(expr.term)
    if isinstance(expr, OrExpr):
        return "(" + " || ".join(
            render_expression(e) for e in expr.operands
        ) + ")"
    if isinstance(expr, AndExpr):
        return "(" + " && ".join(
            render_expression(e) for e in expr.operands
        ) + ")"
    if isinstance(expr, NotExpr):
        return "!" + render_expression(expr.operand)
    if isinstance(expr, NegExpr):
        return "-" + render_expression(expr.operand)
    if isinstance(expr, CompareExpr):
        return (
            f"({render_expression(expr.left)} {expr.op} "
            f"{render_expression(expr.right)})"
        )
    if isinstance(expr, ArithExpr):
        return (
            f"({render_expression(expr.left)} {expr.op} "
            f"{render_expression(expr.right)})"
        )
    if isinstance(expr, InExpr):
        keyword = "NOT IN" if expr.negated else "IN"
        choices = ", ".join(
            render_expression(c) for c in expr.choices
        )
        return (
            f"({render_expression(expr.operand)} {keyword} ({choices}))"
        )
    if isinstance(expr, FunctionCall):
        args = ", ".join(render_expression(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ExistsExpr):
        keyword = "NOT EXISTS" if expr.negated else "EXISTS"
        return f"{keyword} {{…}}"
    return repr(expr)
