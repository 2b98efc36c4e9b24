"""Static query planner: two rewrites over the SPARQL algebra.

The planner lowers a parsed query (:func:`repro.sparql.algebra`), pushes
FILTERs down into the BGP binding their variables
(:func:`push_filters`) and orders each BGP's scans by estimated
cardinality (:func:`reorder_scans`). The scan order is the one
cardinality model: with statistics, each scan it places records the
running product of the costs it was ordered by (``ScanStep.est_rows``,
and the last one's on ``BGPNode.est_rows``), which is what EXPLAIN
shows.

Soundness notes (why each rewrite preserves the un-rewritten plan's
result multiset) are documented on the individual rewrites. A rewritten
plan differs from the lowering only inside BGPs (scan order, filter
placement, the grid and IN-list access paths): a group's elements run
in the order the query wrote them. Rewrites never mutate the input
AST — plan nodes reference the parser's frozen expressions and triple
patterns, and rewrites rebuild plan structure only.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..rdf.namespace import GEO
from ..rdf.terms import URIRef, Variable
from ..sparql.algebra import (
    CONTAINS,
    AggregateNode,
    BGPNode,
    DistinctNode,
    FilterNode,
    GeoProbe,
    GraphNode,
    JoinNode,
    LeftJoinNode,
    OrderNode,
    Pin,
    PlanNode,
    ProjectNode,
    ScanStep,
    SliceNode,
    SubSelectNode,
    UnionNode,
    lower_query,
    render_plan,
)
from ..sparql.ast import (
    AndExpr,
    ArithExpr,
    CompareExpr,
    ExistsExpr,
    Expression,
    FunctionCall,
    InExpr,
    NegExpr,
    NotExpr,
    OrExpr,
    Query,
    SelectQuery,
    TermExpr,
    TriplePatternNode,
)
from ..sparql.functions import FUNCTIONS
from ..sparql.geo import Point, bounding_box
from .sparql_lint import _expr_vars, _function_calls
from .stats import GraphStatistics, _constant_number


#: The geo filter the spatial grid is an access path for.
_ST_INTERSECTS = "bif:st_intersects"

#: Function names whose value depends on more than their arguments; a
#: filter calling one of these is never pushed.
_BOUNDNESS_SENSITIVE = frozenset({"BOUND", "COALESCE"})


# ---------------------------------------------------------------------------
# Rewrite: FILTER pushdown
# ---------------------------------------------------------------------------


def _contains_exists(expr: Expression) -> bool:
    if isinstance(expr, ExistsExpr):
        return True
    if isinstance(expr, (OrExpr, AndExpr)):
        return any(_contains_exists(o) for o in expr.operands)
    if isinstance(expr, (NotExpr, NegExpr)):
        return _contains_exists(expr.operand)
    if isinstance(expr, (CompareExpr, ArithExpr)):
        return _contains_exists(expr.left) or _contains_exists(
            expr.right
        )
    if isinstance(expr, InExpr):
        return _contains_exists(expr.operand) or any(
            _contains_exists(c) for c in expr.choices
        )
    if isinstance(expr, FunctionCall):
        return any(_contains_exists(a) for a in expr.args)
    return False


def push_filters(root: PlanNode) -> PlanNode:
    """Move group-level FILTERs into the BGP binding their variables.

    Sound when every variable of the filter is *certainly* bound by one
    BGP of the same group: once bound, no later element can rebind a
    variable (joins merge compatibly, BIND refuses rebinding), so the
    filter's value for a solution is fixed as soon as that BGP has run.
    Filters containing EXISTS (which reads the whole current binding)
    or boundness-sensitive calls (BOUND / COALESCE) stay at group
    level.
    """

    def rewrite(node: PlanNode) -> PlanNode:
        if isinstance(node, JoinNode):
            elements = [rewrite(e) for e in node.elements]
            bgps = [e for e in elements if isinstance(e, BGPNode)]
            kept: List[PlanNode] = []
            for element in elements:
                if not isinstance(element, FilterNode):
                    kept.append(element)
                    continue
                expr = element.expression
                if _contains_exists(expr) or any(
                    call.name in _BOUNDNESS_SENSITIVE
                    for call in _function_calls(expr)
                ):
                    kept.append(element)
                    continue
                variables = _expr_vars(expr)
                if not variables:
                    kept.append(element)
                    continue
                target = next(
                    (
                        bgp for bgp in bgps
                        if variables <= bgp.variables()
                    ),
                    None,
                )
                if target is None:
                    kept.append(element)
                    continue
                target.pushed.append(expr)
            return JoinNode(kept)
        return _rewrite_children(node, rewrite)

    return rewrite(root)


# ---------------------------------------------------------------------------
# Rewrite: cardinality-based scan order
# ---------------------------------------------------------------------------


def reorder_scans(root: PlanNode, planner: "QueryPlanner") -> PlanNode:
    """Order the scans of every BGP by estimated cardinality.

    Within a BGP, scans are greedily ordered cheapest-first under the
    accumulating set of bound variables — those of the elements written
    before it included (estimates from :class:`GraphStatistics`,
    falling back to a bound-position count). A scan that first binds a
    variable a pushed ``IN`` list of IRIs constrains is costed, and
    marked, as the lookups of those IRIs (:func:`_bgp_pins`).
    ``bif:contains`` is a constraint, not a scan: it is only eligible
    once its subject is bound. Every other element of a group keeps
    its written place. With statistics, every scan records the
    estimated rows per incoming solution once it has run — the running
    product of the costs the order was decided on — as ``est_rows``,
    and its BGP the last scan's.

    Sound because joins of triple patterns commute — only the result
    *order* changes, never the multiset of solutions.
    """

    def visit(node: PlanNode, bound: Set[str]) -> PlanNode:
        if isinstance(node, JoinNode):
            elements: List[PlanNode] = []
            running = set(bound)
            for element in node.elements:
                element = visit(element, set(running))
                running |= element.certain_vars()
                elements.append(element)
            return JoinNode(elements)
        if isinstance(node, BGPNode):
            return _reorder_bgp(node, bound, planner)
        if isinstance(node, LeftJoinNode):
            return LeftJoinNode(visit(node.group, set(bound)))
        if isinstance(node, UnionNode):
            return UnionNode(
                [visit(b, set(bound)) for b in node.branches]
            )
        if isinstance(node, GraphNode):
            inner = set(bound)
            if isinstance(node.target, Variable):
                inner.add(str(node.target))
            return GraphNode(node.target, visit(node.group, inner))
        if isinstance(node, SubSelectNode):
            # sub-selects are evaluated independently of outer bindings
            return SubSelectNode(node.query, visit(node.plan, set()))
        if isinstance(node, (ProjectNode, DistinctNode, OrderNode,
                             SliceNode, AggregateNode)):
            return _rewrite_children(
                node, lambda child: visit(child, set(bound))
            )
        return node

    return visit(root, set())


def _reorder_bgp(
    node: BGPNode, bound: Set[str], planner: "QueryPlanner"
) -> BGPNode:
    scans = list(node.scans)
    pins = _bgp_pins(node)
    stats = planner.stats

    def probe_of(scan: ScanStep, running: Set[str]):
        return _geo_probe(
            scan, running, node.pushed + scan.filters, planner
        )

    def pin_of(scan: ScanStep, running: Set[str]):
        found = pins.get(id(scan))
        if found is None or str(found[0].variable) in running:
            return None
        return found

    def scan_cost(scan: ScanStep, running: Set[str]) -> float:
        pinned = pin_of(scan, running)
        if pinned is None:
            return _scan_estimate(scan.pattern, running, stats)
        return sum(_scan_estimate(p, running, stats) for p in pinned[1])

    def cost(scan: ScanStep, running: Set[str]) -> float:
        # a grid probe competes on its estimate alone: it is not
        # "connected" to the variable its filter compares against
        probe = probe_of(scan, running)
        if probe is not None:
            return _probe_estimate(scan, probe, running, stats)
        return scan_cost(scan, running)

    if len(scans) > 1:
        scans = _greedy_order(
            scans,
            set(bound),
            cost,
            lambda s: s.variables(),
            defer=_smaller_side_first(node, bound, scan_cost),
        )
    attached: List[ScanStep] = []
    running = set(bound)
    rows = 1.0
    for scan in scans:
        probe = probe_of(scan, running)
        pinned = None if probe is not None else pin_of(scan, running)
        step = ScanStep(
            scan.pattern, scan.filters, probe,
            None if pinned is None else pinned[0],
        )
        if stats is not None:
            # without statistics, cost is a bound-position score
            rows *= cost(scan, running)
            step.est_rows = rows
        attached.append(step)
        running |= scan.variables()
    # attach pushed filters at the earliest scan where all their
    # variables are bound; whatever cannot attach stays on the BGP
    leftover: List[Expression] = []
    for expr in node.pushed:
        variables = _expr_vars(expr)
        running = set(bound)
        placed = False
        for scan in attached:
            running |= scan.variables()
            if variables <= running:
                scan.filters.append(expr)
                placed = True
                break
        if not placed:
            leftover.append(expr)
    result = BGPNode(attached, leftover)
    if stats is not None:
        result.est_rows = rows
    return result


def _smaller_side_first(node: BGPNode, bound: Set[str], estimate):
    """The ``defer`` of a BGP's greedy order: :func:`_scan_deferred`,
    and — where only a filter relates two groups of scans that share
    no variable — the group estimated larger (by ``estimate`` per
    scan) waits for the smaller.

    Left to itself the greedy order starts at the cheapest scan and
    follows shared variables, so the group that scan is in runs first
    and the other is multiplied in at the end, the filter relating
    them with it. Smaller side first, the filter attaches to a scan of
    the larger side, as soon as that binds the variable it compares:
    the monument's two scans, then the friends' pictures *within
    300 m*, instead of every friend's picture times the monument.
    """
    groups: List[Tuple[Set[str], List[ScanStep]]] = []
    for scan in node.scans:
        names, members = set(scan.variables()) - bound, [scan]
        for group in [g for g in groups if g[0] & names]:
            groups.remove(group)
            names |= group[0]
            members = group[1] + members
        groups.append((names, members))
    waits: Dict[int, Set[str]] = {}
    sizes: List[float] = []
    for expr in node.pushed + [e for s in node.scans for e in s.filters]:
        mentioned = _expr_vars(expr)
        related = [
            index for index, (names, _) in enumerate(groups)
            if names & mentioned
        ]
        if len(related) < 2:
            continue
        sizes = sizes or [
            _quick_estimate(members, bound, estimate)
            for _, members in groups
        ]
        related.sort(key=lambda index: (sizes[index], index))
        for position, index in enumerate(related):
            for scan in groups[index][1]:
                waits.setdefault(id(scan), set()).update(
                    *(groups[i][0] for i in related[:position])
                )
    if not waits:
        return _scan_deferred
    return lambda scan, running: _scan_deferred(scan, running) or (
        not waits.get(id(scan), frozenset()) <= running
    )


def _geo_probe(
    scan: ScanStep,
    bound: Set[str],
    filters: Sequence[Expression],
    planner: "QueryPlanner",
) -> Optional[GeoProbe]:
    """The grid access path of ``?s geo:geometry ?o`` (``?o`` unbound),
    if one of ``filters`` is ``bif:st_intersects`` between ``?o`` and a
    constant or already-bound geometry within a constant radius.
    ``?s`` may be bound: the executor then joins the solutions with
    what the grid has around the centre, if that is the smaller side."""
    pattern = scan.pattern
    subject, geometry = pattern.subject, pattern.object
    if (
        pattern.predicate != GEO.geometry
        or planner.stats is None
        or not isinstance(subject, Variable)
        or not isinstance(geometry, Variable)
        or subject == geometry
        or str(geometry) in bound
    ):
        return None
    functions = planner.functions
    if functions is not None and functions.get(
        _ST_INTERSECTS
    ) is not FUNCTIONS[_ST_INTERSECTS]:
        return None  # a deployment's own bif:st_intersects decides
    for expr in filters:
        if not (
            isinstance(expr, FunctionCall)
            and expr.name == _ST_INTERSECTS
            and len(expr.args) == 3
        ):
            continue
        radius = _constant_number(expr.args[2])
        # a radius no centre has a bounding box for (negative, a
        # quarter circumference or more) leaves nothing to probe
        if radius is None or bounding_box(Point(0.0, 0.0), radius) is None:
            continue
        for mine, other in (expr.args[:2], expr.args[1::-1]):
            if (
                isinstance(mine, TermExpr)
                and mine.term == geometry
                and isinstance(other, TermExpr)
                and (
                    not isinstance(other.term, Variable)
                    or str(other.term) in bound
                )
            ):
                return GeoProbe(expr, other.term, radius)
    return None


def _probe_estimate(
    scan: ScanStep, probe: GeoProbe, bound: Set[str],
    stats: GraphStatistics,
) -> float:
    """Estimated matches of a probed scan, its geo filter counted:
    what one grid probe finds, or — the subject already bound — that
    share of the geometries the subject has."""
    near = stats.geo_probe_cardinality(probe.radius_km)
    if str(scan.pattern.subject) not in bound:
        return near
    return (
        stats.scan_cardinality(scan.pattern, bound)
        * min(near / max(stats.geo_points, 1), 1.0)
    )


def _scan_deferred(scan: ScanStep, bound: Set[str]) -> bool:
    """True when a scan may not run yet (magic predicate, subject
    unbound)."""
    pattern = scan.pattern
    if pattern.predicate == CONTAINS:
        subject = pattern.subject
        return isinstance(subject, Variable) and str(
            subject
        ) not in bound
    return False


def _greedy_order(
    items: list,
    bound: Set[str],
    estimate,
    variables_of,
    defer=None,
) -> list:
    """Cheapest-first greedy ordering under an accumulating bound set.

    Prefers items connected to already-bound variables; picks the
    cheapest of all eligible items when none is connected.
    """
    remaining = list(items)
    ordered = []
    running = set(bound)
    while remaining:
        eligible = [
            item for item in remaining
            if defer is None or not defer(item, running)
        ]
        if not eligible:
            # e.g. bif:contains whose subject is never bound: keep the
            # written order and let the executor raise the same error
            # the un-rewritten plan raises.
            ordered.extend(remaining)
            break
        connected = [
            item for item in eligible
            if not running or variables_of(item) & running
            or not variables_of(item)
        ]
        best = min(
            connected or eligible,
            key=lambda item: estimate(item, running),
        )
        ordered.append(best)
        running |= variables_of(best)
        remaining.remove(best)
    return ordered


def _scan_estimate(
    pattern: TriplePatternNode,
    bound: Set[str],
    stats: Optional[GraphStatistics],
) -> float:
    if stats is not None:
        return stats.scan_cardinality(pattern, bound)
    # fallback: prefer patterns with more bound positions
    score = 0
    for position in (pattern.subject, pattern.predicate, pattern.object):
        if not isinstance(position, Variable) or str(
            position
        ) in bound:
            score += 1
    return float(3 - score)


def _quick_estimate(
    scans: List[ScanStep], bound: Set[str], estimate
) -> float:
    """Rough per-input-solution rows of a group of scans: the product
    of their estimates in greedy order."""
    total = 1.0
    running = set(bound)
    for scan in _greedy_order(
        scans,
        set(bound),
        estimate,
        lambda s: s.variables(),
        defer=_scan_deferred,
    ):
        total *= max(estimate(scan, running), 0.001)
        running |= scan.variables()
    return total


def _bgp_pins(
    node: BGPNode,
) -> Dict[int, Tuple[Pin, List[TriplePatternNode]]]:
    """The IN-list access path each scan of ``node`` may take, keyed by
    scan id, with the scan's pattern put to each IRI (for costing): a
    pushed, not negated ``?v IN (<iri>, …)`` of IRI constants only, ``?v``
    in one position of the scan, which is no ``bif:contains``. The
    caller checks that ``?v`` is still unbound and no grid probe wins.

    Sound because ``=`` between an IRI and any other term is term
    identity: the triples a lookup finds with each IRI in ``?v``'s place
    are exactly those the filter lets through. Literal choices are left
    out: ``=`` on literals is value equality (``1 = 1.0``).
    """
    choices: Dict[Variable, Pin] = {}
    for expr in node.pushed:
        if (
            isinstance(expr, InExpr)
            and not expr.negated
            and expr.choices
            and isinstance(expr.operand, TermExpr)
            and isinstance(expr.operand.term, Variable)
            and all(
                isinstance(choice, TermExpr)
                and isinstance(choice.term, URIRef)
                for choice in expr.choices
            )
        ):
            choices.setdefault(expr.operand.term, Pin(
                expr, expr.operand.term,
                tuple(dict.fromkeys(c.term for c in expr.choices)),
            ))
    pins: Dict[int, Tuple[Pin, List[TriplePatternNode]]] = {}
    if not choices:
        return pins
    for scan in node.scans:
        if scan.pattern.predicate == CONTAINS:
            continue
        variables = scan.pattern.variables()
        for variable in variables:
            pin = choices.get(variable)
            if pin is not None and variables.count(variable) == 1:
                pins[id(scan)] = pin, _pinned_patterns(scan.pattern, pin)
                break
    return pins


def _pinned_patterns(
    pattern: TriplePatternNode, pin: Pin
) -> List[TriplePatternNode]:
    """``pattern`` with the pinned variable put to each of its IRIs."""
    return [
        TriplePatternNode(*(
            iri if term == pin.variable else term
            for term in (pattern.subject, pattern.predicate, pattern.object)
        ))
        for iri in pin.iris
    ]


def _rewrite_children(node: PlanNode, rewrite) -> PlanNode:
    """Rebuild a non-join node with rewritten children."""
    if isinstance(node, LeftJoinNode):
        return LeftJoinNode(rewrite(node.group))
    if isinstance(node, UnionNode):
        return UnionNode([rewrite(b) for b in node.branches])
    if isinstance(node, GraphNode):
        return GraphNode(node.target, rewrite(node.group))
    if isinstance(node, SubSelectNode):
        return SubSelectNode(node.query, rewrite(node.plan))
    if isinstance(node, ProjectNode):
        return ProjectNode(node.variables, rewrite(node.child))
    if isinstance(node, DistinctNode):
        return DistinctNode(rewrite(node.child))
    if isinstance(node, OrderNode):
        return OrderNode(node.conditions, rewrite(node.child))
    if isinstance(node, SliceNode):
        return SliceNode(node.limit, node.offset, rewrite(node.child))
    if isinstance(node, AggregateNode):
        return AggregateNode(node.query, rewrite(node.child))
    return node


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------


class PlannedQuery:
    """The outcome of planning one query."""

    def __init__(self, query: Query, plan: PlanNode) -> None:
        self.query = query
        self.plan = plan


class QueryPlanner:
    """Plans lowered queries: FILTER pushdown, then scan order.

    ``stats`` feeds the scan order's cardinality estimates (without it,
    scans are ordered by bound positions and carry no estimate);
    ``functions`` is the evaluator's function table.
    """

    def __init__(
        self,
        stats: Optional[GraphStatistics] = None,
        functions: Optional[Dict[str, object]] = None,
    ) -> None:
        self.stats = stats
        self.functions = functions

    def plan(self, query: Query) -> PlannedQuery:
        """Lower ``query`` and rewrite it; the AST is untouched."""
        plan = reorder_scans(push_filters(lower_query(query)), self)
        return PlannedQuery(query, plan)


# ---------------------------------------------------------------------------
# EXPLAIN
# ---------------------------------------------------------------------------


class Explanation:
    """Everything ``repro explain`` reports for one query."""

    def __init__(
        self,
        planned: PlannedQuery,
        name: Optional[str] = None,
        row_count: Optional[int] = None,
        optimized_ms: Optional[float] = None,
        naive_ms: Optional[float] = None,
        generation: Optional[int] = None,
    ) -> None:
        self.planned = planned
        self.name = name
        self.row_count = row_count
        self.optimized_ms = optimized_ms
        self.naive_ms = naive_ms
        #: MVCC generation the evaluator pinned (None for plain graphs)
        self.generation = generation

    def render(self) -> str:
        lines: List[str] = []
        title = self.name or getattr(
            self.planned.query, "form", "query"
        )
        lines.append(f"== plan for {title} ==")
        if self.generation is not None:
            lines.append(
                f"pinned store generation: {self.generation}"
            )
        lines.append("plan:")
        for line in render_plan(self.planned.plan).splitlines():
            lines.append("  " + line)
        if self.row_count is not None:
            timing = f"rows: {self.row_count}"
            if self.optimized_ms is not None:
                timing += f"  optimized: {self.optimized_ms:.1f} ms"
            if self.naive_ms is not None:
                timing += f"  naive: {self.naive_ms:.1f} ms"
                if self.optimized_ms:
                    speedup = self.naive_ms / self.optimized_ms
                    timing += f"  speedup: {speedup:.1f}x"
            lines.append(timing)
        return "\n".join(lines)


def explain(
    evaluator,
    query,
    name: Optional[str] = None,
    execute: bool = True,
    compare: bool = False,
) -> Explanation:
    """Plan (and optionally run) a query, collecting cardinalities.

    With ``execute`` the optimized plan runs and every node records its
    actual row count; with ``compare`` the un-rewritten lowering — what
    ``Evaluator(optimize=False)`` runs, reported as ``naive`` — is also
    timed so the report shows the speedup.
    """
    from ..sparql.parser import parse_query

    if isinstance(query, str):
        query = parse_query(query)
    planned = evaluator._plan(query)
    row_count = None
    optimized_ms = None
    naive_ms = None
    if execute and isinstance(query, SelectQuery):
        # per-node wall-time accounting (the plan.* spans) is normally
        # off, and a run never writes actual_rows / actual_ms on the
        # plan it executes (evaluate() may be sharing it) — EXPLAIN is
        # the one consumer that wants both, on a plan of its own
        previous = evaluator._time_plan_nodes, evaluator._annotate
        evaluator._time_plan_nodes = evaluator._annotate = True
        try:
            start = time.perf_counter()
            rows = list(evaluator._solutions(planned.plan))
            optimized_ms = (time.perf_counter() - start) * 1000.0
        finally:
            evaluator._time_plan_nodes, evaluator._annotate = previous
        row_count = len(rows)
        if compare:
            start = time.perf_counter()
            list(evaluator._solutions(lower_query(query)))
            naive_ms = (time.perf_counter() - start) * 1000.0
    return Explanation(
        planned,
        name=name,
        row_count=row_count,
        optimized_ms=optimized_ms,
        naive_ms=naive_ms,
        generation=getattr(evaluator, "generation", None),
    )
