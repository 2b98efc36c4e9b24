"""SPARQL query evaluation over :class:`repro.rdf.Graph`.

There is one executor. Every query form — SELECT, ASK, CONSTRUCT,
DESCRIBE, sub-SELECTs and the groups inside ``EXISTS`` — is lowered to
the algebra of :mod:`repro.sparql.algebra` and the plan is run by
:meth:`Evaluator._exec_modifier` (solution modifiers, materialized) over
:meth:`Evaluator._exec_node` (graph patterns, streaming solution
mappings: dicts of variable → term). What ``optimize=`` decides is only
which plan that is:

* ``optimize=True`` — the plan after the rewrite passes of
  :mod:`repro.analysis.plan` (folding, pruning, filter pushdown,
  statistics-driven reordering);
* ``optimize=False`` — the lowering as written, no pass run: FILTERs
  apply after their group's other elements (SPARQL's group-level filter
  scoping), OPTIONAL is a left join, UNION a concatenation, sub-SELECTs
  are evaluated independently and joined back in. This is the reference
  the tests, ``explain(compare=True)`` and the benchmark oracles compare
  the rewritten plan against.

The scans of a BGP run in one of two orders, read off the plan node
(:attr:`BGPNode.ordered`), not off an option:

* *static* — the planner's ``reorder_scans`` pass fixed the order; the
  scans run as listed;
* *picked at run time* — no pass ordered the BGP (the reference plan, a
  custom pipeline without ``reorder_scans``, every ``EXISTS`` group):
  for each incoming solution the pattern with the most bound positions
  goes next, and a ``bif:contains`` constraint waits until its subject
  is bound (:func:`_runtime_order`).

Two facts the reorder pass leaves on an ordered BGP change *how* its
scans run, never what they yield (DESIGN.md, "Read path"):

* :attr:`ScanStep.probe` — ``?s geo:geometry ?o`` under a
  ``bif:st_intersects`` filter reads its candidates off the spatial
  grid of the graph's statistics (:meth:`Evaluator._geo_candidates`
  says when) instead of the triple index; every filter still applies;
* :attr:`BGPNode.tail` — scans sharing no variable with the ones
  before them are evaluated once per incoming solution and paired with
  each row of the head (:meth:`Evaluator._exec_tail_once`).

``evaluate(text)`` parses a text once per process and, when optimizing
with the default planner and function registry, plans it once per
statistics snapshot (:data:`_PARSED`, ``GraphStatistics.plans``). A
cached plan is shared by every evaluator — and thread — reading that
generation, so execution never writes on a plan: the per-node
``actual_rows`` / ``actual_ms`` annotations are EXPLAIN's, which plans
privately.

Expression errors follow the spec: a FILTER whose expression errors
rejects the solution; an ORDER BY key that errors sorts lowest.

Concurrency: thread-safe
(the module's shared state — the parse cache and the per-snapshot plan
caches — is only written under ``_CACHE_LOCK``; one ``Evaluator`` is
still one thread's object)
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs import get_registry, get_tracer
from ..rdf.graph import Dataset, Graph
from ..rdf.terms import BNode, Literal, Term, URIRef, Variable
from .algebra import (
    AggregateNode,
    BGPNode,
    DistinctNode,
    EmptyNode,
    ExtendNode,
    FilterNode,
    GraphNode,
    JoinNode,
    LeftJoinNode,
    OrderNode,
    PlanNode,
    ProjectNode,
    ScanStep,
    SliceNode,
    SubSelectNode,
    UnionNode,
    ValuesNode,
    collect_variables,
    lower_group,
    lower_query,
)
from .ast import (
    AggregateBinding,
    AndExpr,
    ArithExpr,
    AskQuery,
    CompareExpr,
    ConstructQuery,
    DescribeQuery,
    ExistsExpr,
    Expression,
    FunctionCall,
    GroupPattern,
    InExpr,
    NegExpr,
    NotExpr,
    OrExpr,
    SelectQuery,
    TermExpr,
)
from .errors import ExpressionError, SparqlEvalError
from .functions import FUNCTIONS, arithmetic, boolean, compare, ebv
from .geo import try_parse_point
from .parser import parse_query
from .results import Row, SelectResult

Bindings = Dict[Variable, Term]

#: Virtuoso magic predicate for full-text matching in triple position.
_MAGIC_CONTAINS = URIRef("bif:contains")

#: The filter the statistics' spatial grid can answer for — as long as
#: it is the builtin one.
_ST_INTERSECTS = "bif:st_intersects"

#: Entries kept by the parse cache and by each statistics snapshot's
#: plan cache; the oldest entry makes room for a new one.
_CACHE_LIMIT = 256

#: Guards every write to :data:`_PARSED` and to a ``GraphStatistics.plans``.
_CACHE_LOCK = threading.Lock()

#: Query text -> parsed query. The AST is never mutated after parsing
#: and never handed to callers of ``evaluate(text)``, so it is shared.
_PARSED: Dict[str, object] = {}


def _remember(cache: Dict[str, object], key: str, value: object) -> None:
    with _CACHE_LOCK:
        if key not in cache and len(cache) >= _CACHE_LIMIT:
            del cache[next(iter(cache))]
        cache[key] = value


class Evaluator:
    """Evaluates parsed queries against a graph.

    ``graph`` may be a :class:`~repro.rdf.graph.Graph`, a
    :class:`~repro.rdf.graph.Dataset`, or an MVCC quad-store
    (anything exposing ``dataset_snapshot``/``head``/``commit``, i.e.
    :class:`repro.store.QuadStore`) — a store is pinned to one
    immutable generation snapshot when the evaluator is built, so
    concurrent commits never change what a running query sees.

    ``functions`` extends/overrides the builtin function registry — this is
    how deployments register extra ``bif:`` style extensions.

    With ``strict=True`` every query is linted before evaluation
    (:class:`repro.analysis.SparqlLinter`) and evaluation refuses to run
    when error-severity diagnostics are found, raising
    :class:`repro.analysis.AnalysisError`. ``linter`` overrides the
    default linter instance (e.g. to supply a custom vocabulary).

    With ``optimize=True`` (the default) the lowered query is rewritten
    by the static planner (:mod:`repro.analysis.plan`) before it runs;
    with ``optimize=False`` it runs as lowered, no pass applied — same
    rows, only slower, and the reference the rewritten plan is checked
    against. ``planner`` overrides the planner instance (e.g. to pin a
    custom pass pipeline); by default one is built from statistics
    collected off the live graph and re-collected whenever the graph
    changes.
    """

    def __init__(
        self,
        graph,
        functions: Optional[Dict[str, object]] = None,
        strict: bool = False,
        linter=None,
        optimize: bool = True,
        planner=None,
    ) -> None:
        pin = getattr(graph, "dataset_snapshot", None)
        if callable(pin) and hasattr(graph, "head") \
                and hasattr(graph, "commit"):
            # an MVCC quad-store (duck-typed — sparql must not import
            # repro.store): pin one generation for this evaluator's
            # lifetime, so no query ever observes an in-flight write
            # batch. The pinned view is a Dataset, handled below.
            graph = pin()
        if isinstance(graph, Dataset):
            # Virtuoso-style: the default graph for plain BGPs is the
            # union of everything; GRAPH patterns address named graphs.
            self.dataset: Optional[Dataset] = graph
            self.graph = graph.union_graph()
        else:
            self.dataset = None
            self.graph = graph
        #: MVCC generation the evaluator is pinned to (None for plain
        #: graphs) — surfaced by EXPLAIN.
        self.generation = getattr(self.graph, "generation", None)
        self.functions = dict(FUNCTIONS)
        if functions:
            self.functions.update(functions)
        self.strict = strict
        self._linter = linter
        self.optimize = optimize
        self._planner = planner
        self._stats = None
        self._exists_plans: Dict[int, Tuple[GroupPattern, PlanNode]] = {}
        # when true, _exec_node/_exec_modifier measure the inclusive
        # wall time of each plan node and emit plan-node spans; EXPLAIN
        # turns it on for its run, and an enabled tracer turns it on
        # for every evaluation. Off by default: per-solution clock
        # reads are measurable on hot queries.
        self._time_plan_nodes = False
        # when true (EXPLAIN only, together with the timing above, on
        # a plan it made for itself) the run also leaves actual_rows /
        # actual_ms on the plan's nodes
        self._annotate = False

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def evaluate(self, query) -> object:
        """Evaluate a query AST or query string.

        Returns a :class:`SelectResult` for SELECT, ``bool`` for ASK and a
        :class:`~repro.rdf.Graph` for CONSTRUCT/DESCRIBE.
        """
        text = None
        if isinstance(query, str):
            text = query
            query = _PARSED.get(text)
            if query is None:
                query = parse_query(text)
                _remember(_PARSED, text, query)
        if self.strict:
            self._lint(query)
        tracer = get_tracer()
        form = type(query).__name__.replace("Query", "").upper()
        began = time.perf_counter()
        with tracer.span("sparql.evaluate", {"form": form}):
            previous_timing = self._time_plan_nodes
            if tracer.enabled:
                self._time_plan_nodes = True
            try:
                # (an object that is no query at all fails to lower)
                plan = self._executable_plan(query, text)
                if isinstance(query, SelectQuery):
                    result = self._eval_select(query, plan)
                elif isinstance(query, AskQuery):
                    result = self._eval_ask(plan)
                elif isinstance(query, ConstructQuery):
                    result = self._eval_construct(query, plan)
                else:
                    result = self._eval_describe(query, plan)
            finally:
                self._time_plan_nodes = previous_timing
        get_registry().histogram(
            "repro_query_seconds",
            "End-to-end SPARQL evaluation latency.",
        ).labels(form=form).observe(time.perf_counter() - began)
        return result

    def _lint(self, query) -> None:
        """Strict mode: refuse to evaluate queries with error diagnostics."""
        # imported lazily — repro.analysis pulls in vocabulary sources
        # that themselves build evaluators.
        from ..analysis import AnalysisError, Severity, SparqlLinter

        if self._linter is None:
            self._linter = SparqlLinter.default()
        errors = [
            d for d in self._linter.lint(query)
            if d.severity is Severity.ERROR
        ]
        if errors:
            raise AnalysisError(errors)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _executable_plan(
        self, query, text: Optional[str] = None
    ) -> PlanNode:
        """The plan :meth:`evaluate` runs: rewritten by the planner when
        optimizing, otherwise the lowering with no pass applied.

        A query that came in as ``text`` is planned once per statistics
        snapshot; the plan found there may be running on other threads,
        so it is executed but never written to.
        """
        if not self.optimize:
            return lower_query(query)
        if (
            text is None
            or self._planner is not None
            or self.functions != FUNCTIONS
        ):
            # plans are shared through the statistics snapshot only
            # between evaluators that plan alike
            return self._plan(query).plan
        plans = self._statistics().plans
        plan = plans.get(text)
        get_registry().counter(
            "repro_plan_cache_total",
            "Rewritten plans taken from (hit) or added to (miss) the "
            "statistics snapshot's plan cache.",
        ).labels(outcome="miss" if plan is None else "hit").inc()
        if plan is None:
            plan = self._plan(query).plan
            _remember(plans, text, plan)
        return plan

    def _exists_plan(self, group: GroupPattern) -> PlanNode:
        """The plan of an ``EXISTS`` group, lowered once per evaluator.

        No pass rewrites it — the group runs under whatever the outer
        solution has bound, which only the run-time scan order sees.
        """
        cached = self._exists_plans.get(id(group))
        if cached is None:
            # the group rides along so its id cannot be reused
            cached = self._exists_plans[id(group)] = (
                group, lower_group(group)
            )
        return cached[1]

    def _statistics(self):
        """Graph statistics, re-collected whenever the graph changes.

        The snapshot is cached on the graph itself so every evaluator
        over the same store shares one collection pass; the
        version-check/rebuild dance lives in
        :meth:`GraphStatistics.cached`, which serializes concurrent
        rebuilds instead of letting every racing evaluator re-scan.
        """
        from ..analysis.stats import GraphStatistics

        stats = GraphStatistics.cached(self.graph)
        self._stats = stats
        self._observe_stats_age(stats)
        return stats

    @staticmethod
    def _observe_stats_age(stats) -> None:
        age = getattr(stats, "age_seconds", None)
        if age is not None:
            get_registry().gauge(
                "repro_graph_stats_age_seconds",
                "Age of the planner's graph-statistics snapshot at "
                "last use.",
            ).set(age)

    def _plan(self, query, name: Optional[str] = None):
        """Lower and rewrite ``query`` with the static planner."""
        from ..analysis.plan import QueryPlanner

        planner = self._planner
        if planner is None:
            planner = QueryPlanner(
                stats=self._statistics(), functions=self.functions
            )
        return planner.plan(query, name=name)

    def explain(
        self,
        query,
        name: Optional[str] = None,
        execute: bool = True,
        compare: bool = False,
    ):
        """Plan ``query`` and report the annotated algebra tree.

        Returns a :class:`repro.analysis.plan.Explanation`; with
        ``execute`` the plan runs and every node records the row count
        it actually produced, with ``compare`` the un-rewritten plan is
        timed alongside.
        """
        from ..analysis.plan import explain as _explain

        return _explain(
            self, query, name=name, execute=execute, compare=compare
        )

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _eval_select(
        self, query: SelectQuery, plan: PlanNode
    ) -> SelectResult:
        rows = self._exec_modifier(plan)
        variables = query.variables or collect_variables(query.where)
        return SelectResult(variables, rows)

    def _bind_projection_exprs(
        self, query: SelectQuery, solutions: Iterator[Bindings]
    ) -> Iterator[Bindings]:
        for row in solutions:
            extended = dict(row)
            for agg in query.aggregates:
                try:
                    extended[agg.alias] = self._eval_expression(
                        agg.argument, extended
                    )
                except ExpressionError:
                    pass
            yield extended

    def _aggregate(
        self, query: SelectQuery, solutions: Iterator[Bindings]
    ) -> Iterator[Bindings]:
        groups: Dict[Tuple, List[Bindings]] = {}
        for row in solutions:
            key_parts = []
            for expr in query.group_by:
                try:
                    key_parts.append(self._eval_expression(expr, row))
                except ExpressionError:
                    key_parts.append(None)
            groups.setdefault(tuple(key_parts), []).append(row)
        if not groups and not query.group_by:
            groups[()] = []

        for key, rows in groups.items():
            result: Bindings = {}
            for expr, value in zip(query.group_by, key):
                if isinstance(expr, TermExpr) and isinstance(
                    expr.term, Variable
                ) and value is not None:
                    result[expr.term] = value
            for agg in query.aggregates:
                value = self._eval_aggregate(agg, rows)
                if value is not None:
                    result[agg.alias] = value
            yield result

    def _eval_aggregate(
        self, agg: AggregateBinding, rows: List[Bindings]
    ) -> Optional[Term]:
        if agg.function == "COUNT" and agg.argument is None:
            return Literal(len(rows))
        values: List[Term] = []
        for row in rows:
            try:
                if agg.argument is None:
                    continue
                values.append(self._eval_expression(agg.argument, row))
            except ExpressionError:
                continue
        if agg.distinct:
            seen = set()
            unique = []
            for v in values:
                if v not in seen:
                    seen.add(v)
                    unique.append(v)
            values = unique
        if agg.function == "COUNT":
            return Literal(len(values))
        if agg.function == "SAMPLE" or agg.function == "EXPR":
            return values[0] if values else None
        if agg.function in ("MIN", "MAX"):
            if not values:
                return None
            picked = min(values) if agg.function == "MIN" else max(values)
            return picked
        numeric = [
            v.value
            for v in values
            if isinstance(v, Literal) and v.is_numeric
        ]
        if len(numeric) != len(values) or not numeric:
            return None
        if agg.function == "SUM":
            total = sum(numeric)
            return Literal(total)
        if agg.function == "AVG":
            return Literal(sum(numeric) / len(numeric))
        raise SparqlEvalError(f"unknown aggregate {agg.function}")

    def _order_key(self, cond, row: Bindings) -> Tuple:
        try:
            term = self._eval_expression(cond.expression, row)
            key = term._sort_key()
            error = False
        except ExpressionError:
            key = ()
            error = True
        if cond.descending:
            return (_Desc((error, key)),)
        return ((error, key),)

    # ------------------------------------------------------------------
    # ASK / CONSTRUCT / DESCRIBE
    # ------------------------------------------------------------------
    def _where_solutions(self, plan: PlanNode) -> Iterator[Bindings]:
        """Solutions of a query's WHERE group."""
        return self._exec_node(plan, iter([dict()]), self.graph)

    def _eval_ask(self, plan: PlanNode) -> bool:
        for _ in self._where_solutions(plan):
            return True
        return False

    def _eval_construct(
        self, query: ConstructQuery, plan: PlanNode
    ) -> Graph:
        result = Graph()
        materialized = list(self._where_solutions(plan))
        if query.offset:
            materialized = materialized[query.offset :]
        if query.limit is not None:
            materialized = materialized[: query.limit]
        for index, row in enumerate(materialized):
            bnode_map: Dict[BNode, BNode] = {}
            for pattern in query.template:
                triple = []
                ok = True
                for position in (
                    pattern.subject,
                    pattern.predicate,
                    pattern.object,
                ):
                    if isinstance(position, Variable):
                        term = row.get(position)
                        if term is None:
                            ok = False
                            break
                        triple.append(term)
                    elif isinstance(position, BNode):
                        fresh = bnode_map.setdefault(
                            position, BNode(f"c{index}_{position}")
                        )
                        triple.append(fresh)
                    else:
                        triple.append(position)
                if not ok:
                    continue
                s, p, o = triple
                if isinstance(s, Literal) or isinstance(p, (Literal, BNode)):
                    continue
                result.add((s, p, o))
        return result

    def _eval_describe(
        self, query: DescribeQuery, plan: PlanNode
    ) -> Graph:
        result = Graph()
        targets: List[Term] = []
        if query.where is not None:
            for row in self._where_solutions(plan):
                for term in query.terms:
                    if isinstance(term, Variable):
                        bound = row.get(term)
                        if bound is not None:
                            targets.append(bound)
        for term in query.terms:
            if not isinstance(term, Variable):
                targets.append(term)
        for target in dict.fromkeys(targets):
            for triple in self.graph.triples((target, None, None)):
                result.add(triple)
        return result

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
    def _exec_modifier_inner(self, node: PlanNode) -> List[Row]:
        if isinstance(node, SliceNode):
            rows = self._exec_modifier(node.child)
            if node.offset:
                rows = rows[node.offset :]
            if node.limit is not None:
                rows = rows[: node.limit]
        elif isinstance(node, DistinctNode):
            seen = set()
            rows = []
            for row in self._exec_modifier(node.child):
                key = tuple(sorted((str(k), v) for k, v in row.items()))
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
        elif isinstance(node, ProjectNode):
            rows = [
                {v: row[v] for v in node.variables if v in row}
                for row in self._exec_modifier(node.child)
            ]
        elif isinstance(node, OrderNode):
            rows = self._exec_modifier(node.child)
            rows.sort(
                key=lambda row: tuple(
                    self._order_key(cond, row)
                    for cond in node.conditions
                )
            )
        elif isinstance(node, AggregateNode):
            inner = self._exec_modifier(node.child)
            if node.grouped:
                rows = list(self._aggregate(node.query, iter(inner)))
            else:
                rows = list(
                    self._bind_projection_exprs(node.query, iter(inner))
                )
        else:
            rows = list(
                self._exec_node(node, iter([dict()]), self.graph)
            )
            return rows
        if self._annotate:
            node.actual_rows = (node.actual_rows or 0) + len(rows)
        return rows

    def _exec_modifier(self, node: PlanNode) -> List[Row]:
        if not self._time_plan_nodes or not isinstance(
            node,
            (
                SliceNode, DistinctNode, ProjectNode, OrderNode,
                AggregateNode,
            ),
        ):
            # non-modifier roots fall through to _exec_node, which
            # does its own per-node timing — no double counting
            return self._exec_modifier_inner(node)
        began = time.perf_counter()
        rows = self._exec_modifier_inner(node)
        elapsed = time.perf_counter() - began
        if self._annotate:
            node.actual_ms = (node.actual_ms or 0.0) + elapsed * 1000.0
        get_tracer().record_span(
            f"plan.{type(node).__name__}",
            elapsed,
            {"rows": len(rows)},
        )
        return rows

    def _exec_node(
        self,
        node: PlanNode,
        solutions: Iterator[Bindings],
        graph: Graph,
    ) -> Iterator[Bindings]:
        if not self._time_plan_nodes:
            return self._exec_node_inner(node, solutions, graph)
        return self._exec_node_timed(node, solutions, graph)

    def _exec_node_timed(
        self,
        node: PlanNode,
        solutions: Iterator[Bindings],
        graph: Graph,
    ) -> Iterator[Bindings]:
        """Like :meth:`_exec_node_inner` but measures the *inclusive*
        wall time spent inside the node's generator (time in child nodes
        counts toward their ancestors too, matching span semantics) and
        emits one plan-node span when the node is exhausted. Under
        EXPLAIN the time and the row count are also left on the node."""
        annotate = self._annotate
        if annotate:
            node.actual_rows = node.actual_rows or 0
            node.actual_ms = node.actual_ms or 0.0
        inner = self._exec_node_inner(node, solutions, graph)
        produced = 0
        elapsed = 0.0
        while True:
            began = time.perf_counter()
            try:
                binding = next(inner)
            except StopIteration:
                step = time.perf_counter() - began
                elapsed += step
                if annotate:
                    node.actual_ms += step * 1000.0
                break
            step = time.perf_counter() - began
            elapsed += step
            produced += 1
            if annotate:
                # accumulate per step: a partially-consumed generator
                # (ASK, LIMIT upstream) still leaves its time on the node
                node.actual_ms += step * 1000.0
                node.actual_rows += 1
            yield binding
        get_tracer().record_span(
            f"plan.{type(node).__name__}",
            elapsed,
            {"rows": produced},
        )

    def _exec_node_inner(
        self,
        node: PlanNode,
        solutions: Iterator[Bindings],
        graph: Graph,
    ) -> Iterator[Bindings]:
        if isinstance(node, JoinNode):
            for element in node.elements:
                solutions = self._exec_node(element, solutions, graph)
            yield from solutions
        elif isinstance(node, BGPNode):
            scans = node.scans
            for binding in solutions:
                if not node.ordered:
                    scans = _runtime_order(node.scans, binding)
                elif node.tail is not None and not any(
                    variable in binding
                    for scan in scans[node.tail:]
                    for variable in scan.pattern.variables()
                ):
                    yield from self._exec_tail_once(node, binding, graph)
                    continue
                yield from self._exec_scans(
                    scans, node.pushed, 0, binding, graph
                )
        elif isinstance(node, FilterNode):
            for binding in solutions:
                try:
                    value = self._eval_expression(
                        node.expression, binding, graph
                    )
                    if ebv(value):
                        yield binding
                except ExpressionError:
                    continue
        elif isinstance(node, LeftJoinNode):
            for binding in solutions:
                matched = False
                for extended in self._exec_node(
                    node.group, iter([binding]), graph
                ):
                    matched = True
                    yield extended
                if not matched:
                    yield binding
        elif isinstance(node, UnionNode):
            for binding in solutions:
                for branch in node.branches:
                    yield from self._exec_node(
                        branch, iter([binding]), graph
                    )
        elif isinstance(node, ExtendNode):
            for binding in solutions:
                if node.variable in binding:
                    raise SparqlEvalError(
                        f"BIND would rebind ?{node.variable}"
                    )
                extended = dict(binding)
                try:
                    extended[node.variable] = self._eval_expression(
                        node.expression, binding, graph
                    )
                except ExpressionError:
                    pass  # variable stays unbound per spec
                yield extended
        elif isinstance(node, ValuesNode):
            for binding in solutions:
                for row in node.rows:
                    merged = self._merge_row(
                        binding, zip(node.variables, row)
                    )
                    if merged is not None:
                        yield merged
        elif isinstance(node, SubSelectNode):
            inner_rows = self._exec_modifier(node.plan)
            for binding in solutions:
                for row in inner_rows:
                    merged = self._merge_row(binding, row.items())
                    if merged is not None:
                        yield merged
        elif isinstance(node, GraphNode):
            named = (
                self.dataset.graphs() if self.dataset is not None else []
            )
            for binding in solutions:
                target = node.target
                if isinstance(target, Variable) and target in binding:
                    target = binding[target]
                if isinstance(target, Variable):
                    for named_graph in named:
                        extended = dict(binding)
                        extended[target] = named_graph.identifier
                        yield from self._exec_node(
                            node.group, iter([extended]), named_graph
                        )
                else:
                    for named_graph in named:
                        if named_graph.identifier == target:
                            yield from self._exec_node(
                                node.group, iter([binding]), named_graph
                            )
                            break
        elif isinstance(node, EmptyNode):
            return
        else:
            raise SparqlEvalError(
                f"cannot execute plan node: {node.label()}"
            )

    @staticmethod
    def _merge_row(binding: Bindings, items) -> Optional[Bindings]:
        """Compatible-merge ``items`` into ``binding`` (None on clash)."""
        merged = dict(binding)
        for var, value in items:
            if value is None:
                continue
            current = merged.get(var)
            if current is None:
                merged[var] = value
            elif current != value:
                return None
        return merged

    def _exec_scans(
        self,
        scans: List[ScanStep],
        leftover: Sequence[Expression],
        index: int,
        binding: Bindings,
        graph: Graph,
    ) -> Iterator[Bindings]:
        """Match ``scans`` in the order given, from ``index`` on."""
        if index == len(scans):
            if self._filters_pass(leftover, binding, graph):
                yield binding
            return
        scan = scans[index]
        pattern = scan.pattern

        if pattern.predicate == _MAGIC_CONTAINS:
            yield from self._exec_magic_scan(
                scans, leftover, index, binding, graph
            )
            return
        if scan.probe is not None:
            candidates = self._geo_candidates(scan, binding, graph)
            if candidates is not None:
                for subject, geometry, _, _ in candidates:
                    produced = dict(binding)
                    produced[pattern.subject] = subject
                    produced[pattern.object] = geometry
                    if self._filters_pass(scan.filters, produced, graph):
                        if self._annotate:
                            scan.actual_rows = (scan.actual_rows or 0) + 1
                        yield from self._exec_scans(
                            scans, leftover, index + 1, produced, graph
                        )
                return

        def resolve(position):
            if isinstance(position, Variable):
                return binding.get(position)
            return position

        s = resolve(pattern.subject)
        p = resolve(pattern.predicate)
        o = resolve(pattern.object)
        if isinstance(s, Literal) or isinstance(p, (Literal, BNode)):
            return
        for ts, tp, to in graph.triples((s, p, o)):
            extended: Optional[Bindings] = None
            conflict = False
            for position, value in (
                (pattern.subject, ts),
                (pattern.predicate, tp),
                (pattern.object, to),
            ):
                if isinstance(position, Variable):
                    current = (
                        extended.get(position)
                        if extended is not None
                        else binding.get(position)
                    )
                    if current is None:
                        if extended is None:
                            extended = dict(binding)
                        extended[position] = value
                    elif current != value:
                        conflict = True
                        break
            if conflict:
                continue
            produced = extended if extended is not None else binding
            if not self._filters_pass(scan.filters, produced, graph):
                continue
            if self._annotate:
                scan.actual_rows = (scan.actual_rows or 0) + 1
            yield from self._exec_scans(
                scans, leftover, index + 1, produced, graph
            )

    def _exec_tail_once(
        self, node: BGPNode, binding: Bindings, graph: Graph
    ) -> Iterator[Bindings]:
        """Run an ordered BGP whose scans from ``node.tail`` on share no
        variable with the earlier ones (nor with ``binding``).

        The nested loop would re-run those scans for every row of the
        head and get the same rows each time; here they run once — when
        the head yields its first row, so an empty head costs nothing —
        and each head row is paired with them in the same order. The
        filters relating the two halves are the BGP's own
        (``node.pushed``) and apply to each pairing.
        """
        scans = node.scans
        tail_rows: Optional[List[Bindings]] = None
        for row in self._exec_scans(
            scans[:node.tail], (), 0, binding, graph
        ):
            if tail_rows is None:
                tail_rows = list(self._exec_scans(
                    scans[node.tail:], (), 0, binding, graph
                ))
            for extra in tail_rows:
                merged = {**row, **extra}
                if self._filters_pass(node.pushed, merged, graph):
                    yield merged

    def _geo_candidates(
        self, scan: ScanStep, binding: Bindings, graph: Graph
    ) -> Optional[list]:
        """Spatial-grid entries to try for a probed scan, or ``None``
        to read the triple index like any other scan.

        The grid is the one in the statistics cached on ``graph`` and
        is used only when it provably describes what a scan would see:
        ``graph`` is the evaluator's own (not a ``GRAPH`` pattern's
        named graph), the statistics' fingerprint is the graph's
        current one, ``bif:st_intersects`` is the builtin, neither end
        of the pattern is already bound, and the centre is a geometry
        some circle around has a bounding box.
        """
        pattern = scan.pattern
        probe = scan.probe
        candidates = None
        stats = (
            getattr(graph, "_stats_cache", None)
            if graph is self.graph
            and self.functions.get(_ST_INTERSECTS) is FUNCTIONS[_ST_INTERSECTS]
            else None
        )
        if (
            stats is not None
            and stats.describes(graph)
            and pattern.subject not in binding
            and pattern.object not in binding
        ):
            center = probe.center
            if isinstance(center, Variable):
                center = binding.get(center)
            if isinstance(center, (Literal, URIRef)):
                point = try_parse_point(center)
                if point is not None:
                    candidates = stats.geo_candidates(
                        point, probe.radius_km
                    )
        get_registry().counter(
            "repro_geo_probe_total",
            "Scans with a spatial access path, by the path taken: "
            "the statistics' grid, or the triple index.",
        ).labels(path="scan" if candidates is None else "grid").inc()
        return candidates

    def _exec_magic_scan(
        self,
        scans: List[ScanStep],
        leftover: List[Expression],
        index: int,
        binding: Bindings,
        graph: Graph,
    ) -> Iterator[Bindings]:
        """Virtuoso's ``?text bif:contains "pattern"`` magic predicate:
        a full-text constraint on an already-bound literal."""
        from .fulltext import contains as fulltext_contains

        scan = scans[index]
        subject = scan.pattern.subject
        if isinstance(subject, Variable):
            subject = binding.get(subject)
        if subject is None:
            raise SparqlEvalError(
                "bif:contains requires its subject to be bound by "
                "another pattern"
            )
        needle = scan.pattern.object
        if isinstance(needle, Variable):
            needle = binding.get(needle)
        if not isinstance(needle, Literal):
            raise SparqlEvalError(
                "bif:contains requires a literal search pattern"
            )
        if isinstance(subject, Literal) and fulltext_contains(
            subject.lexical, needle.lexical
        ):
            if self._filters_pass(scan.filters, binding, graph):
                if self._annotate:
                    scan.actual_rows = (scan.actual_rows or 0) + 1
                yield from self._exec_scans(
                    scans, leftover, index + 1, binding, graph
                )

    def _filters_pass(
        self,
        filters: Sequence[Expression],
        binding: Bindings,
        graph: Graph,
    ) -> bool:
        for expr in filters:
            try:
                if not ebv(self._eval_expression(expr, binding, graph)):
                    return False
            except ExpressionError:
                return False
        return True

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def _eval_expression(
        self,
        expression: Expression,
        binding: Bindings,
        graph: Optional[Graph] = None,
    ) -> Term:
        graph = graph if graph is not None else self.graph
        if isinstance(expression, TermExpr):
            term = expression.term
            if isinstance(term, Variable):
                value = binding.get(term)
                if value is None:
                    raise ExpressionError(f"unbound variable ?{term}")
                return value
            return term
        if isinstance(expression, OrExpr):
            error: Optional[ExpressionError] = None
            for operand in expression.operands:
                try:
                    if ebv(self._eval_expression(operand, binding, graph)):
                        return boolean(True)
                except ExpressionError as exc:
                    error = exc
            if error is not None:
                raise error
            return boolean(False)
        if isinstance(expression, AndExpr):
            error = None
            for operand in expression.operands:
                try:
                    if not ebv(self._eval_expression(operand, binding, graph)):
                        return boolean(False)
                except ExpressionError as exc:
                    error = exc
            if error is not None:
                raise error
            return boolean(True)
        if isinstance(expression, NotExpr):
            return boolean(
                not ebv(
                    self._eval_expression(
                        expression.operand, binding, graph
                    )
                )
            )
        if isinstance(expression, NegExpr):
            value = self._eval_expression(expression.operand, binding, graph)
            if isinstance(value, Literal) and value.is_numeric:
                negated = -value.value
                return Literal(negated)
            raise ExpressionError(f"cannot negate {value!r}")
        if isinstance(expression, CompareExpr):
            left = self._eval_expression(expression.left, binding, graph)
            right = self._eval_expression(
                expression.right, binding, graph
            )
            return boolean(compare(expression.op, left, right))
        if isinstance(expression, InExpr):
            operand = self._eval_expression(expression.operand, binding, graph)
            found = False
            for choice in expression.choices:
                try:
                    candidate = self._eval_expression(choice, binding, graph)
                except ExpressionError:
                    continue
                from .functions import equals

                if equals(operand, candidate):
                    found = True
                    break
            return boolean(found != expression.negated)
        if isinstance(expression, ArithExpr):
            left = self._eval_expression(expression.left, binding, graph)
            right = self._eval_expression(
                expression.right, binding, graph
            )
            return arithmetic(expression.op, left, right)
        if isinstance(expression, FunctionCall):
            return self._eval_function(expression, binding, graph)
        if isinstance(expression, ExistsExpr):
            exists = any(
                True
                for _ in self._exec_node(
                    self._exists_plan(expression.group),
                    iter([dict(binding)]),
                    graph,
                )
            )
            return boolean(exists != expression.negated)
        raise SparqlEvalError(f"unknown expression: {expression!r}")

    def _eval_function(
        self,
        call: FunctionCall,
        binding: Bindings,
        graph: Optional[Graph] = None,
    ) -> Term:
        graph = graph if graph is not None else self.graph
        if call.name == "BOUND":
            if len(call.args) != 1 or not isinstance(
                call.args[0], TermExpr
            ) or not isinstance(call.args[0].term, Variable):
                raise ExpressionError("BOUND requires a single variable")
            return boolean(call.args[0].term in binding)
        if call.name == "COALESCE":
            for arg in call.args:
                try:
                    return self._eval_expression(arg, binding, graph)
                except ExpressionError:
                    continue
            raise ExpressionError("COALESCE: all arguments errored")
        if call.name == "IF":
            if len(call.args) != 3:
                raise ExpressionError("IF expects 3 arguments")
            condition = ebv(
                self._eval_expression(call.args[0], binding, graph)
            )
            chosen = call.args[1] if condition else call.args[2]
            return self._eval_expression(chosen, binding, graph)

        implementation = self.functions.get(call.name)
        if implementation is None:
            raise SparqlEvalError(f"unknown function: {call.name}")
        args = [self._eval_expression(a, binding, graph) for a in call.args]
        return implementation(args)


def _runtime_order(
    scans: List[ScanStep], binding: Bindings
) -> List[ScanStep]:
    """Scan order for a BGP no planner pass has ordered.

    Greedy: the pattern with the most positions bound so far goes next
    (ties keep the written order), and a ``bif:contains`` constraint is
    held back until its subject is bound. A scan binds all of its
    variables whatever triple it matches, so the whole order follows
    from the incoming ``binding`` alone.
    """
    bound = set(binding)

    def score(scan: ScanStep) -> int:
        pattern = scan.pattern
        if pattern.predicate == _MAGIC_CONTAINS:
            subject = pattern.subject
            ready = not isinstance(subject, Variable) or subject in bound
            return 4 if ready else -5
        return sum(
            not isinstance(position, Variable) or position in bound
            for position in (
                pattern.subject, pattern.predicate, pattern.object
            )
        )

    remaining = list(scans)
    ordered: List[ScanStep] = []
    while remaining:
        best = max(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound.update(best.pattern.variables())
    return ordered


class _Desc:
    """Wrapper inverting sort order for DESC order conditions."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Desc") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and self.value == other.value


def query(graph: Graph, text: str, **kwargs) -> object:
    """One-shot convenience: parse and evaluate ``text`` against ``graph``."""
    return Evaluator(graph, **kwargs).evaluate(text)
