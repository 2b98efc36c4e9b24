"""SPARQL query evaluation over :class:`repro.rdf.Graph`.

There is one executor. Every query form — SELECT, ASK, CONSTRUCT,
DESCRIBE, sub-SELECTs and the groups inside ``EXISTS`` — is lowered to
the algebra of :mod:`repro.sparql.algebra` and the plan is run by
:meth:`Evaluator._exec_node`: every node, graph pattern or solution
modifier, consumes a stream of solution mappings (dicts of variable →
term) and yields one. Only ORDER BY and GROUP BY / aggregates hold
their input; DISTINCT keys each row on its terms, and a LIMIT stops
pulling — through DISTINCT and projection down to the scans — once it
has its rows. What ``optimize=`` decides is only which plan that is:

* ``optimize=True`` — the plan after the rewrites of
  :mod:`repro.analysis.plan` (filter pushdown, statistics-driven scan
  order);
* ``optimize=False`` — the lowering as written, nothing rewritten: FILTERs
  apply after their group's other elements (SPARQL's group-level filter
  scoping), OPTIONAL is a left join, UNION a concatenation, sub-SELECTs
  are evaluated independently and joined back in. This is the reference
  the tests, ``explain(compare=True)`` and the benchmark oracles compare
  the rewritten plan against.

A BGP runs a *step* per scan, and a step runs its scan against the
whole set of solutions the step before it produced
(:meth:`Evaluator._scan_step`): the pattern positions a solution binds
are its join key, the index is asked once per distinct key, and the
solutions are extended in their order — the rows, and their order, of a
nested-loop join, without a lookup and a closure per solution per scan.
A scan sharing no variable with the solutions has one key and is
looked up once. Steps pass solutions on in chunks of :data:`_CHUNK`, so
``ASK``, ``LIMIT`` and ``EXISTS`` still stop early.

The scans run in the order the plan lists them. The planner's
``reorder_scans`` is the one place a scan order is chosen; a BGP it
did not order (the reference plan, every ``EXISTS`` group) runs as
written. Every scan reads the graph: ``bif:contains`` is a FILTER
function, whichever way the query spells it (the parser turns the
magic predicate into the FILTER).

Two facts the reorder pass leaves on the BGPs it orders change *how* a
step reads, never what it yields (DESIGN.md, "Read path"):

* :attr:`ScanStep.probe` — ``?s geo:geometry ?o`` under a
  ``bif:st_intersects`` filter has the spatial grid of the graph's
  statistics as a second access path. Per distinct centre, the grid's
  candidates are put to the exact filter once per statistics snapshot
  — once per store generation — and the hits kept on it
  (``GraphStatistics.probe_memo``); solutions that bind
  neither end are extended by the hits, solutions that bind ``?s`` are
  hash-joined with them when the centre has no more candidates than
  solutions (:meth:`Evaluator._grid_hits`), and the rest read the
  triple index — each geometry they find put to the exact filter once
  per snapshot too (``GraphStatistics.probe_outcomes``). A named
  graph or stale statistics read the triple index and filter as any
  scan does.
* :attr:`ScanStep.pin` — a scan whose variable ``?v`` is filtered by
  ``?v IN (<iri>, …)`` looks each IRI up with ``?v`` in place, for a
  solution that leaves ``?v`` unbound (:func:`_pinned`), and the
  ``IN`` filter is not run on what those lookups return: it holds by
  construction. A solution that binds ``?v`` takes its plain key and
  the filter runs.

``evaluate(text)``, optimizing with the default planner, prepares a
text through three caches (DESIGN.md, "Read path"). The exact text
finds its plan in :data:`_TEXTS` with one lookup. A new text is cut
into its *shape* — its IRI and string constants lifted into numbered
slots in one regex pass — and its constants: the shape is parsed once
(:data:`_SHAPES`) and planned once per set of values in the slots the
planner reads, those values put into a copy of the shape's AST
(:func:`_substituted`). Every other slot keeps its sentinel in the
plan, and every text of the shape runs that one plan: the evaluation
reads a sentinel through its ``slots`` — sentinel → the text's
constant — wherever the executor reads a constant of the plan or the
query (scan positions and a probe's centre once per step, a
``TermExpr`` per evaluation, ``VALUES`` rows, a ``GRAPH`` target, a
CONSTRUCT template, DESCRIBE terms). Slots belong to one evaluation:
an AST handed to ``evaluate`` and EXPLAIN's private plan run with none.
A plan records the counts it was ordered on and is kept by a later
statistics snapshot while none of them has moved by more than
``GraphStatistics.fits`` allows; a stale plan is slow, never wrong.
``optimize=False`` and a private planner parse the literal text and
share no plan. A cached plan is shared by every evaluator — and
thread — so execution never writes on a plan: the per-node
``actual_rows`` / ``actual_ms`` / ``actual_probes`` annotations are
EXPLAIN's, which plans privately.

Expression errors follow the spec: a FILTER whose expression errors
rejects the solution; an ORDER BY key that errors sorts lowest.

Concurrency: thread-safe
(the module's shared state — the prepared-query caches — is only
written under ``_CACHE_LOCK``, except the statistics a plan last fitted,
one reference a racing reader at worst checks again; a statistics
snapshot's probe memo is written without a lock, each value a pure
function of its key; one ``Evaluator`` is still one thread's object)
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
import time
from collections import Counter
from dataclasses import is_dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs import get_registry, get_tracer
from ..rdf.graph import Dataset, Graph
from ..rdf.namespace import RDF
from ..rdf.terms import (
    BNode, Literal, Term, URIRef, Variable, unescape_literal,
)
from .algebra import (
    AggregateNode,
    BGPNode,
    DistinctNode,
    ExtendNode,
    FilterNode,
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
    TriplePatternNode,
)
from .errors import ExpressionError, SparqlEvalError, SparqlSyntaxError
from . import functions as sparql_functions
from .functions import FUNCTIONS, arithmetic, boolean, compare, ebv, equals
from .geo import Point, try_parse_point
from .parser import parse_query
from .results import SelectResult
from .tokenizer import unquote_string

Bindings = Dict[Variable, Term]

#: Solutions a BGP step hands the next at a time — what ``ASK``, ``LIMIT``
#: and ``EXISTS`` may compute per step beyond the rows they consume.
_CHUNK = 256

#: Entries kept by each prepared-query cache — exact texts, shapes, and
#: the plans of one shape; the oldest entry makes room for a new one.
_CACHE_LIMIT = 256

#: Guards every write to the prepared-query caches and their entries.
_CACHE_LOCK = threading.Lock()

#: Query shape -> its :class:`_Shape`, or ``None`` for a shape whose
#: slots did not all parse as terms (its texts are then their own,
#: slotless, shapes).
_SHAPES: Dict[str, Optional[_Shape]] = {}

#: Exact query text -> ``(shape, constants, prepared, slots)``, ``slots``
#: mapping each free slot's sentinel to the text's constant: the front
#: cache, what a repeated text costs is this lookup.
_TEXTS: Dict[str, tuple] = {}

#: The slots of an evaluation that reads no text's constants.
_NO_SLOTS: Dict[Term, Term] = {}

#: Sentinel IRI / string a lifted constant is replaced by in its shape
#: (numbered per slot); a text that already holds it is not lifted.
_SLOT = "urn:x-repro-slot:"

# The tokenizer's own patterns, so lifting cuts a text where it does.
_IRI = r'<[^<>"{}|^`\\\x00-\x20]*>'
_STRING = (
    r'"""(?:[^"\\]|\\.|"(?!""))*"""'
    r"|'''(?:[^'\\]|\\.|'(?!''))*'''"
    r'|"(?:[^"\\\n]|\\.)*"'
    r"|'(?:[^'\\\n]|\\.)*'"
)
#: Whitespace and comments; a comment runs to the end of its line, so
#: there is one way to match a gap (no backtracking blow-up).
_GAP = r"(?:\s|\#[^\n]*(?![^\n]))*"
_PNAME = r"[A-Za-z_][A-Za-z0-9_.\-]*?:[A-Za-z0-9_.\-]*"

#: The ``PREFIX`` / ``BASE`` declarations a text starts with: left as
#: written (a namespace is no constant of the query).
_PROLOGUE_RE = re.compile(
    rf"(?:{_GAP}(?i:PREFIX){_GAP}(?:{_PNAME}){_GAP}{_IRI}"
    rf"|{_GAP}(?i:BASE){_GAP}{_IRI})*"
)

#: One pass over the rest: the IRIs and strings it lifts into slots,
#: and what it leaves as written — comments, datatypes and typed
#: literals, function IRIs. Numbers are never lifted: radii and limits
#: are what the planner reads. (The lookahead lets the scan skip every
#: character no match can start at.)
_LIFT_RE = re.compile(
    r"(?=[#<\"'^])(?:(?P<keep>\#[^\n]*"
    rf"|\^\^{_GAP}(?:{_IRI}|{_PNAME})"
    rf"|(?:{_STRING}){_GAP}\^\^{_GAP}(?:{_IRI}|{_PNAME})"
    rf"|{_IRI}(?={_GAP}\())"
    rf"|(?P<iri>{_IRI})"
    rf"|(?P<string>{_STRING})"
    rf"(?:{_GAP}(?P<lang>@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*))?)"
)


def _remember(cache: Dict, key, value) -> None:
    with _CACHE_LOCK:
        if key not in cache and len(cache) >= _CACHE_LIMIT:
            del cache[next(iter(cache))]
        cache[key] = value


@functools.cache
def _statistics_class() -> type:
    """:class:`repro.analysis.stats.GraphStatistics`, imported on first
    use: importing sparql does not import the analysis layer."""
    from ..analysis.stats import GraphStatistics

    return GraphStatistics


def _count_plan(outcome: str) -> None:
    get_registry().counter(
        "repro_plan_cache_total",
        "Plans of query texts by where they came from: hit (the exact "
        "text again), bound (a new text of a cached shape: the shape's "
        "plan, run with the text's constants), stale (planned again: "
        "a count the plan was ordered on drifted), miss (a new shape, "
        "or new values in a slot the planner reads).",
    ).labels(outcome=outcome).inc()


def _lift(text: str) -> Optional[Tuple[str, Tuple[Term, ...]]]:
    """``text``'s shape and the constants lifted out of it, in slot
    order; ``None`` when it cannot be lifted (it already holds the
    sentinel, or a constant is malformed — the parser reports that)."""
    if _SLOT in text:
        return None
    constants: List[Term] = []

    def lift(match) -> str:
        iri = match["iri"]
        if iri is not None:
            value = iri[1:-1]
            constants.append(URIRef(
                unescape_literal(value) if "\\" in value else value
            ))
            return f"<{_SLOT}{len(constants) - 1}>"
        string = match["string"]
        if string is None:
            return match[0]
        lexical = unquote_string(string)
        if "\\" in lexical:
            lexical = unescape_literal(lexical)
        lang = match["lang"]
        constants.append(
            Literal(lexical, lang=lang[1:]) if lang else Literal(lexical)
        )
        return f'"{_SLOT}{len(constants) - 1}"'

    head = _PROLOGUE_RE.match(text)  # (it matches at least "")
    prologue = head.end() if head else 0
    try:
        shape = text[:prologue] + _LIFT_RE.sub(lift, text[prologue:])
    except ValueError:
        return None
    return shape, tuple(constants)


def _shape_of(text: str) -> Tuple[_Shape, Tuple[Term, ...]]:
    """The shape of ``text`` — parsed once per shape — and the constants
    of ``text`` in its slots. A text whose shape is unusable is its own
    shape, with no slots."""
    lifted = _lift(text)
    if lifted is not None:
        shape_text, constants = lifted
        try:
            shape = _SHAPES[shape_text]
        except KeyError:
            shape = _Shape.parse(shape_text, constants)
            _remember(_SHAPES, shape_text, shape)
        # (a text that is its own shape may have been filed under the
        # very key: it has no slots)
        if shape is not None and len(shape.sentinels) == len(constants):
            return shape, constants
    shape = _SHAPES.get(text)
    if shape is None or shape.sentinels:
        shape = _Shape(parse_query(text), ())
        _remember(_SHAPES, text, shape)
    return shape, ()


def _literal_query(text: str):
    """``parse_query(text)``: the parsed shape when ``text`` is a shape
    without slots, else parsed here — what neither the reference plan
    nor a private planner takes from the prepared-query caches."""
    shape = _SHAPES.get(text)
    if shape is not None and not shape.sentinels:
        return shape.query
    return parse_query(text)


class _Shape:
    """A query text with its IRI and string constants lifted into
    numbered slots, parsed once, and its plans — one per set of values
    in the slots the planner reads (:attr:`keyed`)."""

    __slots__ = ("query", "sentinels", "keyed", "free", "plans")

    def __init__(self, query, sentinels: Sequence[Term]) -> None:
        self.query = query
        self.sentinels = tuple(sentinels)
        slot_of = {term: slot for slot, term in enumerate(sentinels)}
        #: the slots whose values the planner reads: a pattern's
        #: predicate, the object of ``rdf:type`` (the class count) and
        #: the choices of an ``IN`` list (the pin); their values are
        #: put into the query a plan is made of
        self.keyed = _read_slots(query, slot_of)
        #: sentinel -> slot of the others: a plan keeps their sentinels,
        #: which an evaluation reads through its ``slots``
        self.free = {
            term: slot for term, slot in slot_of.items()
            if slot not in self.keyed
        }
        self.plans: Dict[Tuple[Term, ...], _Prepared] = {}

    @classmethod
    def parse(
        cls, shape_text: str, constants: Sequence[Term]
    ) -> Optional[_Shape]:
        """The shape of ``constants``' text, or ``None`` when it does not
        parse or a slot did not come out as one whole term (which the
        text itself then shows)."""
        sentinels = [
            URIRef(f"{_SLOT}{slot}") if isinstance(constant, URIRef)
            else Literal(f"{_SLOT}{slot}")
            for slot, constant in enumerate(constants)
        ]
        try:
            query = parse_query(shape_text)
        except (SparqlSyntaxError, ValueError):
            return None
        terms = {
            obj for obj in _walk(query) if isinstance(obj, (URIRef, Literal))
        }
        if not terms.issuperset(sentinels):
            return None
        return cls(query, sentinels)

    def planned_query(self, constants: Sequence[Term]):
        """The query a plan for ``constants`` is made of: the values of
        the keyed slots in place, sentinels in the others."""
        if not self.keyed:
            return self.query
        return _substituted(self.query, {
            self.sentinels[slot]: constants[slot] for slot in self.keyed
        })


class _Prepared:
    """A plan of a shape, made with the values of its keyed slots in
    place and sentinels in the others, and the counts it was ordered
    on. Every text of the shape with those values runs it as it is."""

    __slots__ = ("query", "plan", "footprint", "stats")

    def __init__(self, query, plan: PlanNode, stats) -> None:
        self.query = query
        self.plan = plan
        self.footprint = stats.footprint(plan)
        #: the latest statistics the plan is known to fit
        self.stats = stats

    def fits(self, stats) -> bool:
        """True while ``stats`` has moved no count the plan was ordered
        on by more than the drift factor (``GraphStatistics.fits``)."""
        if stats is self.stats:
            return True
        if not stats.fits(self.footprint):
            return False
        # one reference stored: a racing reader at worst checks again
        self.stats = stats
        return True


@functools.lru_cache(maxsize=None)
def _kind(cls: type) -> Optional[str]:
    """How the walks below take an object of ``cls`` apart: ``"term"``
    (a possible sentinel), ``"list"``, ``"tuple"``, ``"object"`` (a
    dataclass of the AST), or ``None`` for a leaf."""
    if issubclass(cls, (URIRef, Literal)):
        return "term"
    if issubclass(cls, list):
        return "list"
    if issubclass(cls, tuple):
        return "tuple"
    if is_dataclass(cls):
        return "object"
    return None


def _fields(obj, kind: str):
    """The ``(field, value)`` pairs of a non-leaf ``obj`` of ``kind``."""
    if kind == "object":
        return vars(obj).items()
    return enumerate(obj)


def _walk(obj) -> Iterator[object]:
    """``obj`` and, depth first, everything it is made of."""
    yield obj
    kind = _kind(type(obj))
    if kind is not None and kind != "term":
        for _, value in _fields(obj, kind):
            yield from _walk(value)


def _substituted(obj, values: Dict[Term, Term]):
    """``obj`` with each term ``values`` names replaced by its value:
    the lists, tuples and AST objects it is made of are copied, their
    leaves shared."""
    kind = _kind(type(obj))
    if kind is None:
        return obj
    if kind == "term":
        return values.get(obj, obj)
    fields = [
        (field, _substituted(value, values))
        for field, value in _fields(obj, kind)
    ]
    if kind == "object":
        new = object.__new__(type(obj))
        new.__dict__.update(fields)
        return new
    items = [value for _, value in fields]
    if kind == "list":
        return items
    if hasattr(obj, "_fields"):
        return type(obj)._make(items)
    return tuple(items)


def _read_slots(query, slot_of: Dict[Term, int]) -> Tuple[int, ...]:
    """The slots of ``query``'s WHERE group whose values the planner
    reads: a triple pattern's predicate (its counts), the object of an
    ``rdf:type`` pattern or of one with a slot for its predicate (the
    class count), and a choice of an ``IN`` list (the pin's IRIs)."""
    found: set = set()
    for obj in _walk(query.where):
        if isinstance(obj, TriplePatternNode):
            predicate = slot_of.get(obj.predicate)
            found.add(predicate)
            if predicate is not None or obj.predicate == RDF.type:
                found.add(slot_of.get(obj.object))
        elif isinstance(obj, InExpr):
            found.update(
                slot_of.get(choice.term) for choice in obj.choices
                if isinstance(choice, TermExpr)
            )
    found.discard(None)
    return tuple(sorted(found))


class Evaluator:
    """Evaluates parsed queries against a graph.

    ``graph`` may be a :class:`~repro.rdf.graph.Graph`, a
    :class:`~repro.rdf.graph.Dataset`, or an MVCC quad-store
    (anything exposing ``dataset_snapshot``/``head``/``commit``, i.e.
    :class:`repro.store.QuadStore`) — a store is pinned to one
    immutable generation snapshot when the evaluator is built, so
    concurrent commits never change what a running query sees.

    Function calls go to :data:`~repro.sparql.functions.FUNCTIONS`: SPARQL
    1.0's builtins and Virtuoso's ``bif:`` geo and text functions.

    With ``optimize=True`` (the default) the lowered query is rewritten
    by the static planner (:mod:`repro.analysis.plan`) before it runs;
    with ``optimize=False`` it runs as lowered, no rewrite applied — same
    rows, only slower, and the reference the rewritten plan is checked
    against. ``planner`` overrides the planner instance (e.g. to pin its
    statistics); by default one is built from statistics collected off
    the live graph and re-collected whenever the graph changes.
    """

    def __init__(
        self,
        graph,
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
        self.optimize = optimize
        self._planner = planner
        self._stats = None
        self._exists_plans: Dict[int, Tuple[GroupPattern, PlanNode]] = {}
        # when true, _exec_node measures the inclusive wall time of
        # each plan node and emits plan-node spans; EXPLAIN turns it on
        # for its run, and an enabled tracer turns it on for every
        # evaluation. Off by default: per-solution clock reads are
        # measurable on hot queries.
        self._time_plan_nodes = False
        # when true (EXPLAIN only, together with the timing above, on
        # a plan it made for itself) the run also leaves actual_rows /
        # actual_ms on the plan's nodes
        self._annotate = False
        # sentinel -> constant of the text being evaluated (its free
        # slots): what the executor reads in place of a sentinel it
        # meets in the shared plan or query
        self._slots = _NO_SLOTS

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def evaluate(self, query) -> object:
        """Evaluate a query AST or query string.

        Returns a :class:`SelectResult` for SELECT, ``bool`` for ASK and a
        :class:`~repro.rdf.Graph` for CONSTRUCT/DESCRIBE.
        """
        began = time.perf_counter()
        plan: Optional[PlanNode] = None
        slots = _NO_SLOTS
        if isinstance(query, str):
            if self.optimize and self._planner is None:
                query, plan, slots = self._prepared(query)
            else:
                query = _literal_query(query)
        tracer = get_tracer()
        form = type(query).__name__.replace("Query", "").upper()
        with tracer.span("sparql.evaluate", {"form": form}):
            previous = self._time_plan_nodes, self._slots
            if tracer.enabled:
                self._time_plan_nodes = True
            self._slots = slots
            try:
                if plan is None:
                    # (an object that is no query at all fails to lower)
                    plan = (
                        self._plan(query).plan if self.optimize
                        else lower_query(query)
                    )
                if isinstance(query, SelectQuery):
                    result = self._eval_select(query, plan)
                elif isinstance(query, AskQuery):
                    result = self._eval_ask(plan)
                elif isinstance(query, ConstructQuery):
                    result = self._eval_construct(query, plan)
                else:
                    result = self._eval_describe(query, plan)
            finally:
                self._time_plan_nodes, self._slots = previous
        get_registry().histogram(
            "repro_query_seconds",
            "End-to-end SPARQL evaluation latency.",
        ).labels(form=form).observe(time.perf_counter() - began)
        return result

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _prepared(
        self, text: str
    ) -> Tuple[object, PlanNode, Dict[Term, Term]]:
        """The query and plan of ``text``, through the prepared-query
        caches, and the slots to run them with: the exact text's plan
        while it fits the statistics (``hit``); else the plan of its
        shape for the values of the keyed slots (``bound``), made again
        when it no longer fits (``stale``) or made for the first time
        (``miss``).

        A plan found here may be running on other threads, so it is
        executed but never written to.
        """
        stats = self._statistics()
        front = _TEXTS.get(text)
        if front is not None:
            shape, constants, prepared, slots = front
            if prepared.fits(stats):
                _count_plan("hit")
                return prepared.query, prepared.plan, slots
        else:
            shape, constants = _shape_of(text)
            slots = {
                sentinel: constants[slot]
                for sentinel, slot in shape.free.items()
            }
        key = tuple(constants[slot] for slot in shape.keyed)
        prepared = shape.plans.get(key)
        if prepared is None:
            outcome = "miss"
        elif prepared.fits(stats):
            outcome = "bound"
        else:
            outcome, prepared = "stale", None
        if prepared is None:
            query = shape.planned_query(constants)
            prepared = _Prepared(query, self._plan(query).plan, stats)
            _remember(shape.plans, key, prepared)
        _remember(_TEXTS, text, (shape, constants, prepared, slots))
        _count_plan(outcome)
        return prepared.query, prepared.plan, slots

    def _exists_plan(self, group: GroupPattern) -> PlanNode:
        """The plan of an ``EXISTS`` group, lowered once per evaluator.

        No pass rewrites it — the group runs under whatever the outer
        solution has bound — so its scans run as written.
        """
        cached = self._exists_plans.get(id(group))
        if cached is None:
            # the group rides along so its id cannot be reused
            cached = self._exists_plans[id(group)] = (
                group, lower_group(group)
            )
        return cached[1]

    def _statistics(self):
        """Graph statistics through the derived-view cache
        (:meth:`GraphStatistics.cached`): every evaluator over the same
        store generation shares them, and a commit carries them to the
        next one."""
        stats = _statistics_class().cached(self.graph)
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

    def _plan(self, query):
        """Lower and rewrite ``query`` with the static planner."""
        from ..analysis.plan import QueryPlanner

        planner = self._planner
        if planner is None:
            planner = QueryPlanner(stats=self._statistics())
        return planner.plan(query)

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
        rows = list(self._solutions(plan))
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
        # an unbound or erroring key sorts lowest: first ascending,
        # last descending (SPARQL 1.1 §15.1)
        try:
            key = (1, self._eval_expression(cond.expression, row)._sort_key())
        except ExpressionError:
            key = (0, ())
        if cond.descending:
            return (_Desc(key),)
        return (key,)

    # ------------------------------------------------------------------
    # ASK / CONSTRUCT / DESCRIBE
    # ------------------------------------------------------------------
    def _solutions(self, plan: PlanNode) -> Iterator[Bindings]:
        """Solutions of a query's plan, run on the default graph."""
        return self._exec_node(plan, iter([dict()]), self.graph)

    def _eval_ask(self, plan: PlanNode) -> bool:
        for _ in self._solutions(plan):
            return True
        return False

    def _eval_construct(
        self, query: ConstructQuery, plan: PlanNode
    ) -> Graph:
        result = Graph()
        slots = self._slots
        for index, row in enumerate(self._solutions(plan)):
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
                        triple.append(slots.get(position, position))
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
            for row in self._solutions(plan):
                for term in query.terms:
                    if isinstance(term, Variable):
                        bound = row.get(term)
                        if bound is not None:
                            targets.append(bound)
        for term in query.terms:
            if not isinstance(term, Variable):
                targets.append(self._slots.get(term, term))
        for target in dict.fromkeys(targets):
            for triple in self.graph.triples((target, None, None)):
                result.add(triple)
        return result

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
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
            stream = _chunks(solutions)
            for scan in node.scans:
                stream = self._scan_step(scan, stream, graph)
            for chunk in stream:
                if not node.pushed:
                    yield from chunk
                    continue
                for row in chunk:
                    if self._filters_pass(node.pushed, row, graph):
                        yield row
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
            slots = self._slots
            rows = [
                [slots.get(value, value) for value in row]
                for row in node.rows
            ]
            for binding in solutions:
                for row in rows:
                    merged = self._merge_row(
                        binding, zip(node.variables, row)
                    )
                    if merged is not None:
                        yield merged
        elif isinstance(node, SubSelectNode):
            inner_rows = list(self._solutions(node.plan))
            for binding in solutions:
                for row in inner_rows:
                    merged = self._merge_row(binding, row.items())
                    if merged is not None:
                        yield merged
        elif isinstance(node, GraphNode):
            named = (
                self.dataset.graphs() if self.dataset is not None else []
            )
            constant = self._slots.get(node.target, node.target)
            for binding in solutions:
                target = constant
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
        # the solution modifiers come last: they run once per query or
        # sub-select, the pattern nodes above once per LeftJoin, Union,
        # GRAPH or EXISTS row
        elif isinstance(node, SliceNode):
            stop = None if node.limit is None else node.offset + node.limit
            yield from itertools.islice(
                self._exec_node(node.child, solutions, graph),
                node.offset, stop,
            )
        elif isinstance(node, DistinctNode):
            seen = set()
            for row in self._exec_node(node.child, solutions, graph):
                key = frozenset(row.items())
                if key not in seen:
                    seen.add(key)
                    yield row
        elif isinstance(node, ProjectNode):
            variables = node.variables
            for row in self._exec_node(node.child, solutions, graph):
                yield {v: row[v] for v in variables if v in row}
        elif isinstance(node, OrderNode):
            rows = list(self._exec_node(node.child, solutions, graph))
            rows.sort(key=lambda row: tuple(
                self._order_key(cond, row) for cond in node.conditions
            ))
            yield from rows
        elif isinstance(node, AggregateNode):
            rows = self._exec_node(node.child, solutions, graph)
            if node.grouped:
                yield from self._aggregate(node.query, rows)
            else:
                yield from self._bind_projection_exprs(node.query, rows)
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

    def _scan_step(
        self,
        scan: ScanStep,
        chunks: Iterator[List[Bindings]],
        graph: Graph,
    ) -> Iterator[List[Bindings]]:
        """Run one scan against a whole solution set, chunk by chunk.

        The positions of the pattern a solution binds are its join
        key. Solutions are walked in order and each is extended by
        every match of its key, so the output is in the order a nested
        loop yields — but a key is looked up once per step, whatever
        the number of solutions sharing it, and a scan that shares no
        variable with them has one key. A lone solution (the first
        scan of a query, an ``EXISTS`` group) skips that bookkeeping.
        Rows leave in chunks of at most :data:`_CHUNK`, and what one
        chunk of input produced leaves before the next is read.

        A probed scan (:attr:`ScanStep.probe`) has a second access
        path, :meth:`_grid_hits`; which of its solutions take it is
        decided per chunk, on counted rows. A solution that reads the
        triple index instead — its subject and centre bound, its
        geometry open — has the exact filter answered per geometry once
        per statistics snapshot (:func:`_tested`). A pinned scan (:attr:`ScanStep.pin`)
        looks up one key per listed IRI for a solution that leaves the
        pinned variable open — remembered under that key like any
        lookup — and counts each as a probe; the rows those lookups
        return skip the ``IN`` filter, which holds by construction.
        A scan with neither does no per-row work for them.
        """
        pattern, slots = scan.pattern, self._slots
        subject, predicate, obj = positions = (
            slots.get(pattern.subject, pattern.subject),
            slots.get(pattern.predicate, pattern.predicate),
            slots.get(pattern.object, pattern.object),
        )
        s_var = isinstance(subject, Variable)
        p_var = isinstance(predicate, Variable)
        o_var = isinstance(obj, Variable)
        probe, pin = scan.probe, scan.pin
        special = probe if probe is not None else pin
        stats = None
        if special is not None:
            # what is left to check on a grid hit, a tested geometry or
            # a pinned lookup's row: the exact geo filter has been
            # applied to it already, the IN filter holds by construction
            rest = [e for e in scan.filters if e is not special.filter]
        if probe is not None:
            stats = self._probe_statistics(graph)
        if stats is not None:
            center = slots.get(probe.center, probe.center)
            # what the memo keys hold besides the centre
            first = probe.filter.args[0]
            shape = (
                probe.radius_km,
                isinstance(first, TermExpr) and first.term == obj,
            )
            hits: Dict[Term, Optional[Tuple[list, dict]]] = {}
        memo: Dict[Tuple, List[Bindings]] = {}
        lookups = produced = 0
        paths: List[str] = []
        asked = near = None  # the centre last asked about, its hits
        try:
            for chunk in chunks:
                out: List[Bindings] = []
                # one incoming solution has one key: nothing to share
                shared = len(chunk) > 1
                if stats is not None:
                    lookups += self._grid_hits(
                        scan, center, chunk, stats, shape, hits
                    )
                    asked = near = None  # (hits may know more now)
                for row in chunk:
                    s = row.get(subject) if s_var else subject
                    o = row.get(obj) if o_var else obj
                    if stats is not None:
                        term = (
                            row.get(center)
                            if isinstance(center, Variable) else center
                        )
                        if term is not asked:
                            # (the previous row's very term: same hits)
                            asked, near = term, hits.get(term)
                    if near is not None and o is None:
                        filters = rest
                        if s is None:
                            path, exts = "grid", near[0]
                        else:
                            path, exts = "join", near[1].get(s, ())
                    else:
                        path, filters = "scan", scan.filters
                        key = (
                            s, row.get(predicate) if p_var else predicate, o
                        )
                        exts = memo.get(key) if shared else None
                        if exts is None:
                            if pin is not None and pin.variable not in row:
                                lookups += len(pin.iris)
                                exts = _pinned(positions, key, graph, pin)
                            else:
                                lookups += 1
                                exts = _matches(positions, key, graph)
                            if shared:
                                exts = _remembering(exts, memo, key)
                    if special is not None:
                        if probe is not None:
                            if path not in paths:
                                paths.append(path)
                            if (
                                path == "scan" and stats is not None
                                and s is not None and o is None
                                and asked is not None
                            ):
                                # the index path: each geometry tested
                                # once per generation
                                filters = rest
                                exts = _tested(
                                    exts, stats.probe_outcomes,
                                    (asked, *shape), obj,
                                )
                        elif pin.variable not in row:
                            filters = rest
                    for ext in exts:
                        extended = {**row, **ext} if ext else row
                        if filters and not self._filters_pass(
                            filters, extended, graph
                        ):
                            continue
                        out.append(extended)
                        if len(out) == _CHUNK:
                            produced += _CHUNK
                            yield out
                            out = []
                if out:
                    produced += len(out)
                    yield out
        finally:
            # (also when ASK, LIMIT or EXISTS stopped asking)
            if self._annotate and lookups:  # (none: no solution came)
                if produced:
                    scan.actual_rows = (scan.actual_rows or 0) + produced
                scan.actual_probes = (scan.actual_probes or 0) + lookups
                scan.actual_paths = sorted(
                    {*(scan.actual_paths or ()), *paths}
                )
            for path in paths:
                get_registry().counter(
                    "repro_geo_probe_total",
                    "Steps of scans with a spatial access path, by the "
                    "path taken: candidates read off the statistics' "
                    "grid, grid candidates joined on the bound subject, "
                    "or the triple index. Counted once per step and "
                    "path, not per solution.",
                ).labels(path=path).inc()

    def _probe_statistics(self, graph: Graph):
        """The statistics whose spatial grid a probed scan may read, or
        ``None`` to read the triple index like any other scan.

        The grid is the one in the statistics cached for ``graph`` and
        is used only when it provably describes what a scan would see:
        ``graph`` is the evaluator's own (not a ``GRAPH`` pattern's
        named graph) and the cache holds statistics that still describe
        it (none are collected here).
        """
        if graph is not self.graph:
            return None
        return _statistics_class().current(graph)

    def _grid_hits(
        self,
        scan: ScanStep,
        center: Term,
        chunk: List[Bindings],
        stats,
        shape: Tuple[float, bool],
        hits: Dict[Term, Optional[Tuple[list, dict]]],
    ) -> int:
        """Look up, on the spatial grid, the centres ``chunk`` asks a
        probed scan about (``center``: the probe's, a constant read
        through the evaluation's slots); returns how many it looked up.

        A centre is looked up once per step: the grid's candidates in
        the bounding box of the circle around it, each put to the exact
        ``bif:st_intersects`` once — on parsed points
        (:func:`_intersects`) — and kept in ``hits`` both as
        extensions of a solution that binds neither end of the pattern
        and keyed by subject, for solutions that bind it to be hash
        joined with. Solutions take the triple index instead where
        ``hits`` has ``None`` (the centre is no point, or no plain box
        holds its circle) or nothing: when they bind the subject and
        the centre has more candidates than this chunk has solutions
        asking about it, one index lookup each is the cheaper side.

        What a probe finds depends on the statistics snapshot and the
        probe alone, so it is answered once per snapshot — once per
        store generation — in :attr:`GraphStatistics.probe_memo`: the
        candidate count the join decision reads, and the exact hits
        once a step has taken the grid or join path for the centre. A
        later step rebuilds its solutions from the remembered pairs
        and evaluates nothing.
        """
        probe = scan.probe
        subject, geometry = scan.pattern.subject, scan.pattern.object
        asking: Dict[Optional[Term], int] = Counter()
        if isinstance(center, Variable):
            # (solutions extended off one match share its very terms,
            # and a run of one term costs no Literal comparison)
            for term, run in itertools.groupby(
                row.get(center) for row in chunk
            ):
                asking[term] += sum(1 for _ in run)
        else:
            asking[center] = len(chunk)
        joining = subject in chunk[0]
        memo = stats.probe_memo
        looked_up = 0
        for term, rows in asking.items():
            if term in hits:
                continue
            key = (term, *shape)
            known = memo.get(key)
            candidates = point = None
            if known is None:  # not asked on this snapshot yet
                point = _point_of(term)
                candidates = (
                    stats.geo_candidates(point, probe.radius_km)
                    if point is not None else None
                )
                count = None if candidates is None else len(candidates)
                pairs = None
                memo.setdefault(key, (count, pairs))
            else:
                count, pairs = known
            if count is None:
                hits[term] = None
                continue
            if joining and count > rows:
                continue
            looked_up += 1
            if pairs is None:
                if candidates is None:
                    # (counted on an earlier step: the centre is a point)
                    point = _point_of(term)
                    candidates = stats.geo_candidates(point, probe.radius_km)
                pairs = tuple(
                    (found, value) for found, value, _, _ in candidates
                    if _intersects(point, value, *shape)
                )
                memo[key] = count, pairs
            everything: List[Bindings] = []
            by_subject: Dict[Term, List[Bindings]] = {}
            for found, value in pairs:
                everything.append({subject: found, geometry: value})
                by_subject.setdefault(found, []).append({geometry: value})
            hits[term] = everything, by_subject
        return looked_up

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
            return self._slots.get(term, term) if self._slots else term
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

        implementation = FUNCTIONS.get(call.name)
        if implementation is None:
            raise SparqlEvalError(f"unknown function: {call.name}")
        args = [self._eval_expression(a, binding, graph) for a in call.args]
        return implementation(args)


def _chunks(rows: Iterator[Bindings]) -> Iterator[List[Bindings]]:
    """``rows`` in lists of at most :data:`_CHUNK`."""
    rows = iter(rows)
    while True:
        chunk = list(itertools.islice(rows, _CHUNK))
        if not chunk:
            return
        yield chunk


def _matches(
    positions: Tuple[Term, Term, Term], key: Tuple, graph: Graph
) -> Iterator[Bindings]:
    """What each triple matching ``key`` binds: the variables of
    ``positions`` the key leaves open (``None``)."""
    s, p, _ = key
    if isinstance(s, Literal) or isinstance(p, (Literal, BNode)):
        return
    free = [
        (index, positions[index])
        for index in range(3) if key[index] is None
    ]
    if len({variable for _, variable in free}) == len(free):
        for triple in graph.triples(key):
            yield {variable: triple[index] for index, variable in free}
    else:
        # a variable in two open positions: both must match one term
        for triple in graph.triples(key):
            ext: Bindings = {}
            for index, variable in free:
                if ext.setdefault(variable, triple[index]) != triple[index]:
                    break
            else:
                yield ext


def _pinned(
    positions: Tuple[Term, Term, Term], key: Tuple, graph: Graph, pin: Pin
) -> Iterator[Bindings]:
    """:func:`_matches` of ``key`` with the pinned variable's (open)
    position put to each IRI of ``pin`` in turn; each match binds the
    variable to that IRI."""
    at = positions.index(pin.variable)
    for iri in pin.iris:
        for ext in _matches(positions, key[:at] + (iri,) + key[at + 1:],
                            graph):
            ext[pin.variable] = iri
            yield ext


def _point_of(term: Optional[Term]) -> Optional[Point]:
    """``term`` as ``bif:st_intersects`` reads a geometry: the point of
    a literal's lexical form or an IRI's text; ``None`` where the
    builtin raises :class:`ExpressionError` — any other term, or a text
    that is no WKT point."""
    if isinstance(term, (Literal, URIRef)):
        return try_parse_point(term)
    return None


def _intersects(
    centre: Optional[Point], geometry: Term, radius_km: float,
    geometry_first: bool,
) -> bool:
    """A probe's exact filter on parsed points: the builtin
    ``bif:st_intersects(geometry, centre, radius_km)`` — its first two
    arguments swapped unless ``geometry_first`` — false wherever the
    builtin raises (no centre point, or a geometry that is none). The
    distance test is :func:`repro.sparql.geo.st_intersects`, looked up
    in :mod:`.functions` as the builtin does, so counting it there
    counts every exact test."""
    point = _point_of(geometry)
    if centre is None or point is None:
        return False
    if geometry_first:
        return sparql_functions.st_intersects(point, centre, radius_km)
    return sparql_functions.st_intersects(centre, point, radius_km)


def _tested(
    exts: Iterator[Bindings],
    outcomes: Dict[Tuple, bool],
    probe_key: Tuple[Term, float, bool],
    geometry: Variable,
) -> Iterator[Bindings]:
    """The index path's ``exts`` whose geometry passes a probe's exact
    filter around the centre ``probe_key`` names (with its radius and
    argument order).

    The outcome is a function of the statistics snapshot and its key
    alone, so each geometry is tested once per snapshot — once per
    store generation — and kept in
    :attr:`GraphStatistics.probe_outcomes`; a repeated ask of the same
    centre evaluates nothing.
    """
    centre, radius_km, geometry_first = probe_key
    point = _point_of(centre)
    for ext in exts:
        value = ext[geometry]
        key = (*probe_key, value)
        passed = outcomes.get(key)
        if passed is None:
            passed = outcomes[key] = _intersects(
                point, value, radius_km, geometry_first
            )
        if passed:
            yield ext


def _remembering(
    extensions: Iterator[Bindings], memo: Dict[Tuple, List[Bindings]],
    key: Tuple,
) -> Iterator[Bindings]:
    """Pass ``extensions`` on and, once they have all been asked for,
    file them under ``key`` for the next solution with that key."""
    seen: List[Bindings] = []
    for ext in extensions:
        seen.append(ext)
        yield ext
    memo[key] = seen


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
