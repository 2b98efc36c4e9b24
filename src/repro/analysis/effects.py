"""Interprocedural store-effect analyzer over the repo's own source.

The planned MVCC quad-store (see ROADMAP) needs every read and write of
:class:`repro.rdf.graph.Graph` / ``Dataset`` to flow through a
sanctioned API: generation-stamped snapshots for readers, the single
write lock for mutators. PR 5's concurrency analyzer only sees *locks*;
this pass sees *data flow*. It parses Python files with :mod:`ast`,
infers a per-function effect summary over the vocabulary

    ``graph-read``  ``graph-write``  ``index-mutate``
    ``stats-read``  ``io``  ``clock``

builds a module-level call graph, propagates summaries to a fixpoint
through internal call edges, and emits the shared
:class:`~repro.analysis.diagnostics.Diagnostic` model under the ``EF*``
rule catalog:

* **EF001** — direct mutation of the ``_spo``/``_pos``/``_osp`` hash
  indexes outside ``repro.rdf.graph`` (bypasses size/version/lock).
* **EF002** — a graph writer entangled with a *live* read generator:
  either a write call on a store while lexically inside a ``for`` loop
  iterating that same store's ``triples()``/``subjects()``/``__iter__``
  generator, or a bulk write (``add_all``) whose argument is a call to
  a lazy, io-performing producer — the store lock is then held across
  the whole external scan and a mid-stream failure leaves the store
  half-populated.
* **EF003** — mutation of a graph obtained from ``union_graph()`` /
  ``union()``: a derived merged copy, so the write never reaches the
  underlying stores. The sanctioned build-then-publish idiom — mutate
  the merged copy, then pass it to ``freeze()`` before it escapes — is
  recognized and not flagged.
* **EF004** — a bare statistics read (``len()``, ``count()``,
  ``predicate_statistics()``, ``GraphStatistics.collect``) on a store
  that the same function also writes, without going through the
  freshness-checked ``GraphStatistics.cached()`` (or the atomic
  ``Graph.insert``): the read/write straddle is not a consistent
  snapshot.
* **EF005** — a live reference to an internal index dict returned or
  stored (snapshot escape: the caller now shares mutable index state).
* **EF006** — a module whose functions perform direct graph writes
  without declaring a ``Graph-writes:`` line in its module docstring.
* **EF007** — ``io``/``clock`` effects inferred in a module whose
  docstring declares ``Effects: pure``.
* **EF008** — a function that (transitively) writes the store inside a
  module whose contract is ``Graph-writes: none``.
* **EF009** — ``Dataset.remove_graph()`` called as a bare statement:
  the boolean result is the only record of whether anything happened.
* **EF010** — a function docstring declares an ``Effects:`` summary
  that the inferred effects exceed.

Suppressions mirror the concurrency analyzer: a trailing
``# ef: allow=EF003`` (or bare ``# ef: allow``) comment suppresses the
named rules on that line, and the docstring contracts above are the
reviewable, per-module escape hatch.

Like :mod:`repro.analysis.concurrency`, the analyzer is zero-dependency
and best-effort: provenance is inferred from construction sites
(``Graph()``, ``dump_graph()``, ``union_graph()``, ``freeze()``,
parameter annotations and graph-named parameters), so a store smuggled
through an untyped container is invisible — the runtime complement,
:mod:`repro.analysis.store_sanitizer`, catches those under test.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ._pysource import (
    ImportMap,
    SourceFile,
    dotted_name,
    parse_module,
    read_sources,
)
from .diagnostics import Diagnostic
from .rules import make

__all__ = [
    "EFFECTS",
    "FunctionSummary",
    "StoreEffectAnalyzer",
    "analyze_effects",
]

#: The effect vocabulary, in the order summaries render.
EFFECTS = (
    "graph-read", "graph-write", "index-mutate",
    "stats-read", "io", "clock",
)

_WRITES_CONTRACT_RE = re.compile(
    r"^\s*Graph-writes:\s*(?P<value>\S.*?)\s*$", re.MULTILINE
)
_PURE_CONTRACT_RE = re.compile(
    r"^\s*Effects:\s*pure\s*$", re.MULTILINE
)
_EFFECTS_DECL_RE = re.compile(
    r"^\s*Effects:\s*(?P<effects>[a-z][a-z, -]*?)\s*$", re.MULTILINE
)

#: Graph index internals whose identity must not leak (EF001/EF005).
_INDEX_ATTRS = frozenset({"_spo", "_pos", "_osp"})
#: The module allowed to touch them.
_INDEX_OWNER = "repro.rdf.graph"

#: Graph API classification (method name on a graph-typed receiver).
_WRITE_METHODS = frozenset({"add", "add_all", "insert", "remove",
                            "clear"})
_LAZY_READ_METHODS = frozenset({"triples", "subjects", "predicates",
                                "objects", "predicate_objects",
                                "__iter__"})
_READ_METHODS = frozenset({"value", "label", "types",
                           "resource_exists", "serialize", "copy"})
_STATS_METHODS = frozenset({"count", "predicate_statistics"})

#: Parameter names treated as graph-typed even without an annotation.
_GRAPH_PARAM_NAMES = frozenset({"graph", "target"})
_DB_PARAM_NAMES = frozenset({"db", "database", "conn", "connection"})

#: Call basenames (after import resolution) that return a fresh graph.
_GRAPH_RETURNING = frozenset({
    "Graph", "FrozenGraph", "dump_graph", "load_ntriples",
    "build_ontology",
})

_CLOCK_CALLS = frozenset({
    "time.time", "time.monotonic", "time.perf_counter", "time.sleep",
    "time.strftime", "datetime.datetime.now", "datetime.datetime.utcnow",
})
_IO_CALLS = frozenset({"open", "input"})
_IO_PREFIXES = ("socket.", "urllib.", "subprocess.", "requests.",
                "http.")
_IO_METHODS = frozenset({"read_text", "write_text", "read_bytes",
                         "write_bytes"})

#: Provenance kinds a value can have.
_KIND_GRAPH = "graph"
_KIND_UNION = "union"      # merged copy from union()/union_graph()
_KIND_FROZEN = "frozen"    # freeze() result — read-only view
_KIND_DATASET = "dataset"
_KIND_DB = "db"

_GRAPHLIKE = (_KIND_GRAPH, _KIND_UNION, _KIND_FROZEN)
_DERIVED = (_KIND_UNION, _KIND_FROZEN)


def _name_key(node: ast.AST) -> Optional[str]:
    """A stable per-function identity for a receiver expression."""
    return dotted_name(node)


def _module_for(name: str) -> str:
    """Dotted module name for a source path (``repro.rdf.graph``)."""
    parts = Path(name).parts
    if "repro" in parts:
        tail = parts[len(parts) - parts[::-1].index("repro") - 1:]
        dotted = ".".join(tail)
        for suffix in (".py",):
            if dotted.endswith(suffix):
                dotted = dotted[:-len(suffix)]
        if dotted.endswith(".__init__"):
            dotted = dotted[:-len(".__init__")]
        return dotted
    return Path(name).stem


# ----------------------------------------------------------------------
# Collected facts
# ----------------------------------------------------------------------
@dataclass
class _Call:
    """An internal call site (candidate for a call-graph edge)."""

    keys: Tuple[str, ...]
    node: ast.Call
    arg_kinds: Tuple[Optional[str], ...]
    arg_keys: Tuple[Optional[str], ...]
    is_return: bool = False


@dataclass
class _BulkWrite:
    """``recv.add_all(producer(...))`` — checked against the producer's
    summary (lazy + io ⇒ EF002) once the fixpoint has run."""

    receiver_key: Optional[str]
    producer_keys: Tuple[str, ...]
    node: ast.Call


@dataclass
class FunctionSummary:
    """The inferred effect summary of one function or method."""

    qualname: str
    module: str
    node: ast.AST = field(repr=False)
    params: Tuple[str, ...] = ()
    effects: Set[str] = field(default_factory=set)
    direct_effects: Set[str] = field(default_factory=set)
    writes_params: Set[str] = field(default_factory=set)
    lazy: bool = False
    declared: Optional[Set[str]] = None
    calls: List[_Call] = field(default_factory=list)
    bulk_writes: List[_BulkWrite] = field(default_factory=list)
    freeze_keys: Set[str] = field(default_factory=set)

    def render_effects(self) -> str:
        ordered = [e for e in EFFECTS if e in self.effects]
        return ", ".join(ordered) or "none"


@dataclass
class _ModuleFacts:
    name: str
    module: str
    source: SourceFile
    writes_contract: Optional[str] = None
    pure: bool = False
    functions: List[FunctionSummary] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    first_write: Optional[ast.AST] = None


# ----------------------------------------------------------------------
# Per-function analysis
# ----------------------------------------------------------------------
class _FunctionAnalyzer:
    """One pass over a function body: provenance env, direct effects,
    call edges and the per-function EF diagnostics."""

    def __init__(
        self,
        facts: _ModuleFacts,
        summary: FunctionSummary,
        imports: ImportMap,
        class_name: Optional[str],
        attr_kinds: Dict[str, str],
        param_kinds: Dict[str, str],
    ) -> None:
        self.facts = facts
        self.summary = summary
        self.imports = imports
        self.class_name = class_name
        self.attr_kinds = attr_kinds
        self.env: Dict[str, str] = dict(param_kinds)
        self.write_keys: Set[str] = set()
        self.stats_reads: List[Tuple[str, ast.AST]] = []
        self._returned_calls: Set[int] = set()

    # -- provenance -----------------------------------------------------
    def kind_of(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return self.attr_kinds.get(node.attr)
            base = self.kind_of(node.value)
            if base == _KIND_DATASET and node.attr == "default":
                return _KIND_GRAPH
            return None
        if isinstance(node, ast.Call):
            return self._kind_of_call(node)
        if isinstance(node, ast.IfExp):
            return self.kind_of(node.body) or self.kind_of(node.orelse)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                kind = self.kind_of(value)
                if kind is not None:
                    return kind
        if isinstance(node, ast.NamedExpr):
            return self.kind_of(node.value)
        return None

    def _kind_of_call(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Attribute):
            recv = self.kind_of(func.value)
            if func.attr == "union_graph" or func.attr == "union":
                return _KIND_UNION
            if func.attr == "copy" and recv in _GRAPHLIKE:
                return _KIND_GRAPH
            if func.attr == "graph" and recv == _KIND_DATASET:
                return _KIND_GRAPH
            if func.attr == "as_dataset":
                return _KIND_DATASET
            if recv == _KIND_DB:
                return _KIND_DB  # db.table(...) is still db-side
            return None
        resolved = self.imports.resolve(dotted_name(func)) or ""
        base = resolved.rsplit(".", 1)[-1]
        if base == "freeze":
            return _KIND_FROZEN
        if base in _GRAPH_RETURNING:
            return _KIND_GRAPH
        if base == "Dataset":
            return _KIND_DATASET
        if base == "Database":
            return _KIND_DB
        return None

    # -- env construction ----------------------------------------------
    def build_env(self, body: Sequence[ast.stmt]) -> None:
        nodes = _local_nodes(body)
        for _ in range(3):  # enough for short provenance chains
            changed = False
            for node in nodes:
                if isinstance(node, ast.Assign):
                    kind = self.kind_of(node.value)
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    kind = self._annotation_kind(node.annotation)
                    if kind is None and node.value is not None:
                        kind = self.kind_of(node.value)
                    targets = [node.target]
                else:
                    continue
                if kind is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        if self._stronger(target.id, kind, self.env):
                            changed = True
            if not changed:
                break

    @staticmethod
    def _annotation_kind(annotation: ast.AST) -> Optional[str]:
        try:
            text = ast.unparse(annotation)
        except Exception:  # pragma: no cover - unparse always works
            return None
        if "Graph" in text:
            return _KIND_GRAPH
        if "Dataset" in text:
            return _KIND_DATASET
        if "Database" in text:
            return _KIND_DB
        return None

    @staticmethod
    def _stronger(key: str, kind: str, env: Dict[str, str]) -> bool:
        """Record ``kind`` for ``key`` unless a stronger kind is known
        (derived provenance outranks plain graph provenance)."""
        rank = {_KIND_UNION: 3, _KIND_FROZEN: 3, _KIND_GRAPH: 2,
                _KIND_DATASET: 1, _KIND_DB: 1}
        current = env.get(key)
        if current is None or rank.get(kind, 0) > rank.get(current, 0):
            env[key] = kind
            return True
        return False

    # -- diagnostics ----------------------------------------------------
    def emit(self, rule_id: str, message: str, node: ast.AST,
             suggestion: Optional[str] = None) -> None:
        if self.facts.source.suppressed(rule_id, node.lineno):
            return
        self.facts.diagnostics.append(make(
            rule_id, message,
            span=self.facts.source.span(node),
            source=self.facts.name,
            line=node.lineno,
            suggestion=suggestion,
        ))

    # -- the walk -------------------------------------------------------
    def run(self, fn: ast.AST) -> None:
        self.build_env(fn.body)
        self._visit_block(fn.body, loops=())
        # EF004: a bare stats read on a store this function also writes
        if _INDEX_OWNER != self.facts.module:
            for key, node in self.stats_reads:
                if key in self.write_keys:
                    self.emit(
                        "EF004",
                        f"bare statistics read of {key!r} in a function "
                        f"that also writes it — the read/write straddle "
                        f"is not a consistent snapshot",
                        node,
                        suggestion="Graph.insert() or "
                                   "GraphStatistics.cached()",
                    )

    def _visit_block(
        self, body: Sequence[ast.stmt], loops: Tuple[str, ...]
    ) -> None:
        for stmt in body:
            self._visit(stmt, loops)

    def _visit(self, node: ast.AST, loops: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are summarized separately (or not at all)
        if isinstance(node, ast.For):
            self._visit(node.iter, loops)
            key = self._live_iteration_key(node.iter)
            inner = loops + ((key,) if key else ())
            self._visit_block(node.body, inner)
            self._visit_block(node.orelse, loops)
            return
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "remove_graph"
            ):
                self.emit(
                    "EF009",
                    "remove_graph() result ignored — the boolean is the "
                    "only record of whether the named graph existed",
                    node,
                    suggestion="check (or explicitly discard) the result",
                )
        if isinstance(node, ast.Call):
            self._visit_call(node, loops)
            for child in ast.iter_child_nodes(node):
                self._visit(child, loops)
            return
        if isinstance(node, ast.AugAssign):
            self._visit_augassign(node, loops)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.Return)):
            self._check_index_escape(node)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            self._check_index_mutation(node)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self.summary.lazy = True
        if isinstance(node, ast.Return):
            self._note_return(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child, loops)

    # -- pieces ---------------------------------------------------------
    def _live_iteration_key(self, iter_node: ast.AST) -> Optional[str]:
        """The receiver key when ``iter_node`` lazily reads a store."""
        if isinstance(iter_node, ast.Call):
            func = iter_node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _LAZY_READ_METHODS
                and self.kind_of(func.value) in _GRAPHLIKE
            ):
                return _name_key(func.value)
            return None
        if self.kind_of(iter_node) in _GRAPHLIKE:
            return _name_key(iter_node)
        return None

    def _note_return(self, node: ast.Return) -> None:
        """Flag ``return f(...)`` so laziness propagates through
        delegating wrappers like ``dump_triples``."""
        value = node.value
        if not isinstance(value, ast.Call):
            return
        # the call edge is registered when the child Call is visited,
        # after this statement — remember the node identity instead
        self._returned_calls.add(id(value))
        func = value.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _LAZY_READ_METHODS
            and self.kind_of(func.value) in _GRAPHLIKE
        ):
            self.summary.lazy = True

    def _record_effect(self, effect: str) -> None:
        self.summary.direct_effects.add(effect)
        self.summary.effects.add(effect)

    def _note_write(self, recv_kind: Optional[str],
                    recv_key: Optional[str], node: ast.AST,
                    loops: Tuple[str, ...]) -> None:
        self._record_effect("graph-write")
        if recv_key is not None:
            self.write_keys.add(recv_key)
            if recv_key in self.summary.params:
                self.summary.writes_params.add(recv_key)
            if recv_key in loops:
                self.emit(
                    "EF002",
                    f"write to {recv_key!r} while iterating its live "
                    f"read generator — materialize the matches first",
                    node,
                )

    def _visit_call(self, call: ast.Call,
                    loops: Tuple[str, ...]) -> None:
        func = call.func
        # freeze(x): sanctions mutating the derived copy named x
        resolved = self.imports.resolve(dotted_name(func)) or ""
        base = resolved.rsplit(".", 1)[-1] if resolved else ""
        if base == "freeze":
            for arg in call.args:
                key = _name_key(arg)
                if key is not None:
                    self.summary.freeze_keys.add(key)
        if base == "len" and call.args:
            if self.kind_of(call.args[0]) in _GRAPHLIKE:
                self._record_effect("stats-read")
                key = _name_key(call.args[0])
                if key is not None:
                    self.stats_reads.append((key, call))
        if resolved in _CLOCK_CALLS:
            self._record_effect("clock")
        elif resolved in _IO_CALLS or any(
            resolved.startswith(p) for p in _IO_PREFIXES
        ):
            self._record_effect("io")
        if resolved.endswith("GraphStatistics.collect"):
            self._record_effect("stats-read")
            if call.args:
                key = _name_key(call.args[0])
                if key is not None:
                    self.stats_reads.append((key, call))

        if isinstance(func, ast.Attribute):
            self._visit_method_call(call, func, loops)

        # call-graph edge candidates
        keys = self._callee_keys(call)
        if keys:
            arg_kinds = tuple(self.kind_of(a) for a in call.args)
            arg_keys = tuple(_name_key(a) for a in call.args)
            self.summary.calls.append(_Call(
                keys=keys, node=call,
                arg_kinds=arg_kinds, arg_keys=arg_keys,
                is_return=id(call) in self._returned_calls,
            ))

    def _visit_method_call(self, call: ast.Call, func: ast.Attribute,
                           loops: Tuple[str, ...]) -> None:
        recv_kind = self.kind_of(func.value)
        recv_key = _name_key(func.value)
        name = func.attr
        if recv_kind in _GRAPHLIKE:
            if name in _WRITE_METHODS:
                self._note_write(recv_kind, recv_key, call, loops)
                if recv_kind in _DERIVED:
                    self._pending_derived(recv_key, call, recv_kind)
                if name == "add_all" and call.args and isinstance(
                    call.args[0], ast.Call
                ):
                    producer_keys = self._callee_keys(call.args[0])
                    if producer_keys:
                        self.summary.bulk_writes.append(_BulkWrite(
                            receiver_key=recv_key,
                            producer_keys=producer_keys,
                            node=call,
                        ))
            elif name in _LAZY_READ_METHODS:
                self._record_effect("graph-read")
            elif name in _READ_METHODS:
                self._record_effect("graph-read")
            elif name in _STATS_METHODS:
                self._record_effect("stats-read")
                if recv_key is not None:
                    self.stats_reads.append((recv_key, call))
        if recv_kind == _KIND_DB:
            self._record_effect("io")
        if name in _IO_METHODS:
            self._record_effect("io")
        # index dicts mutated through their methods (g._spo.clear())
        if (
            isinstance(func.value, ast.Attribute)
            and func.value.attr in _INDEX_ATTRS
            and name in ("clear", "setdefault", "update", "pop",
                         "popitem")
            and self.facts.module != _INDEX_OWNER
        ):
            self._record_effect("index-mutate")
            self.emit(
                "EF001",
                f"direct mutation of Graph index {func.value.attr!r} "
                f"outside {_INDEX_OWNER} bypasses the size/version/"
                f"lock bookkeeping",
                call,
                suggestion="use add()/remove()/clear()",
            )

    def _pending_derived(self, key: Optional[str], node: ast.AST,
                         kind: str) -> None:
        pending = getattr(self, "_derived", None)
        if pending is None:
            pending = []
            self._derived = pending
        pending.append((key, node, kind))

    def flush_derived(self) -> None:
        """EF003 for direct writes to derived copies, after the whole
        function has been seen (freeze() may appear later)."""
        for key, node, kind in getattr(self, "_derived", []):
            if key is not None and key in self.summary.freeze_keys:
                continue
            what = (
                "frozen union view" if kind == _KIND_FROZEN
                else "derived union copy"
            )
            self.emit(
                "EF003",
                f"write to {key or 'a union graph'!s} mutates a {what} "
                f"— the change never reaches the underlying stores",
                node,
                suggestion="write to the source graphs, or freeze() "
                           "the copy before publishing it",
            )

    def _visit_augassign(self, node: ast.AugAssign,
                         loops: Tuple[str, ...]) -> None:
        if not isinstance(node.op, ast.Add):
            return
        kind = self.kind_of(node.target)
        if kind in _GRAPHLIKE:
            key = _name_key(node.target)
            self._note_write(kind, key, node, loops)
            if kind in _DERIVED:
                self._pending_derived(key, node, kind)

    def _check_index_escape(self, node: ast.AST) -> None:
        if self.facts.module == _INDEX_OWNER:
            return
        value = getattr(node, "value", None)
        target = value
        if isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and target.attr in _INDEX_ATTRS
        ):
            verb = (
                "returned" if isinstance(node, ast.Return) else "stored"
            )
            self.emit(
                "EF005",
                f"live reference to internal index {target.attr!r} "
                f"{verb} — the caller now shares mutable index state",
                node,
                suggestion="copy the data out, or go through "
                           "triples()/count()",
            )

    def _check_index_mutation(self, node: ast.AST) -> None:
        if self.facts.module == _INDEX_OWNER:
            return
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            probe = target
            while isinstance(probe, ast.Subscript):
                probe = probe.value
            if (
                isinstance(probe, ast.Attribute)
                and probe.attr in _INDEX_ATTRS
            ):
                self._record_effect("index-mutate")
                self.emit(
                    "EF001",
                    f"direct mutation of Graph index {probe.attr!r} "
                    f"outside {_INDEX_OWNER} bypasses the size/version/"
                    f"lock bookkeeping",
                    node,
                    suggestion="use add()/remove()/clear()",
                )

    # -- call resolution ------------------------------------------------
    def _callee_keys(self, call: ast.Call) -> Tuple[str, ...]:
        func = call.func
        keys: List[str] = []
        if isinstance(func, ast.Name):
            keys.append(f"{self.facts.module}.{func.id}")
            resolved = self.imports.resolve(func.id)
            if resolved and resolved != func.id:
                keys.append(resolved)
        elif isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and self.class_name is not None
            ):
                keys.append(
                    f"{self.facts.module}.{self.class_name}.{func.attr}"
                )
            else:
                dotted = dotted_name(func)
                resolved = self.imports.resolve(dotted)
                if resolved:
                    keys.append(resolved)
        return tuple(keys)


def _local_nodes(body: Sequence[ast.stmt]) -> List[ast.AST]:
    """Every node in ``body`` without descending into nested defs."""
    out: List[ast.AST] = []

    def rec(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            out.append(child)
            rec(child)

    for stmt in body:
        out.append(stmt)
        rec(stmt)
    return out


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------
class StoreEffectAnalyzer:
    """Whole-program pass: per-file facts, then a call-graph fixpoint,
    then the interprocedural EF diagnostics.

    Use :meth:`analyze_paths` (or module-level :func:`analyze_effects`)
    — effect propagation needs every file before the cross-function
    rules (EF002's producer check, EF003 through calls, EF007/EF008/
    EF010) can run.
    """

    def __init__(self) -> None:
        self.modules: List[_ModuleFacts] = []
        self.registry: Dict[str, FunctionSummary] = {}

    # -- entry points ---------------------------------------------------
    def analyze_source(
        self, text: str, name: str = "<input>"
    ) -> List[Diagnostic]:
        self._collect(text, name)
        return self.finish()

    def analyze_paths(
        self, paths: Iterable[Path]
    ) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for name, text in read_sources(paths, diags):
            self._collect(text, name)
        diags.extend(self.finish())
        return diags

    # -- pass 1: per-file -----------------------------------------------
    def _collect(self, text: str, name: str) -> None:
        module = _module_for(name)
        source = SourceFile(text, name, "ef")
        facts = _ModuleFacts(name=name, module=module, source=source)
        self.modules.append(facts)
        tree, docstring = parse_module(
            text, name, "cannot parse", facts.diagnostics
        )
        if tree is None:
            return
        contract = _WRITES_CONTRACT_RE.search(docstring)
        facts.writes_contract = (
            contract.group("value") if contract else None
        )
        facts.pure = bool(_PURE_CONTRACT_RE.search(docstring))
        imports = ImportMap(tree, module)

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(facts, imports, node, None, {})
            elif isinstance(node, ast.ClassDef):
                attr_kinds = self._class_attr_kinds(
                    facts, imports, node
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self._collect_function(
                            facts, imports, item, node.name, attr_kinds
                        )

    def _class_attr_kinds(
        self, facts: _ModuleFacts, imports: ImportMap,
        cls: ast.ClassDef,
    ) -> Dict[str, str]:
        """``self.X`` provenance, from assignments anywhere in the
        class (``__init__`` usually, but later methods may refine —
        e.g. a cache attribute re-assigned from ``union()``)."""
        kinds: Dict[str, str] = {}
        for _ in range(2):
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                probe = _FunctionAnalyzer(
                    facts, FunctionSummary("", facts.module, item),
                    imports, cls.name, kinds,
                    self._param_kinds(item),
                )
                probe.build_env(item.body)
                for node in _local_nodes(item.body):
                    if isinstance(node, ast.Assign):
                        kind = probe.kind_of(node.value)
                        targets = node.targets
                    elif isinstance(node, ast.AnnAssign):
                        kind = probe._annotation_kind(node.annotation)
                        if kind is None and node.value is not None:
                            kind = probe.kind_of(node.value)
                        targets = [node.target]
                    else:
                        continue
                    if kind is None:
                        continue
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            _FunctionAnalyzer._stronger(
                                target.attr, kind, kinds
                            )
        return kinds

    @staticmethod
    def _param_kinds(fn: ast.AST) -> Dict[str, str]:
        kinds: Dict[str, str] = {}
        args = fn.args
        every = (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
        )
        for arg in every:
            kind: Optional[str] = None
            if arg.annotation is not None:
                kind = _FunctionAnalyzer._annotation_kind(
                    arg.annotation
                )
            if kind is None:
                if arg.arg in _GRAPH_PARAM_NAMES or arg.arg.endswith(
                    "_graph"
                ):
                    kind = _KIND_GRAPH
                elif arg.arg in _DB_PARAM_NAMES:
                    kind = _KIND_DB
            if kind is not None:
                kinds[arg.arg] = kind
        return kinds

    def _collect_function(
        self,
        facts: _ModuleFacts,
        imports: ImportMap,
        fn: ast.AST,
        class_name: Optional[str],
        attr_kinds: Dict[str, str],
    ) -> None:
        path = f"{class_name}.{fn.name}" if class_name else fn.name
        qualname = f"{facts.module}.{path}"
        summary = FunctionSummary(
            qualname=qualname, module=facts.module, node=fn,
        )
        args = fn.args
        summary.params = tuple(
            a.arg for a in (
                list(args.posonlyargs) + list(args.args)
            ) if a.arg != "self"
        )
        doc = ast.get_docstring(fn) or ""
        decl = _EFFECTS_DECL_RE.search(doc)
        if decl and decl.group("effects").strip() != "pure":
            summary.declared = {
                e.strip() for e in decl.group("effects").split(",")
                if e.strip()
            }
        analyzer = _FunctionAnalyzer(
            facts, summary, imports, class_name, attr_kinds,
            self._param_kinds(fn),
        )
        analyzer.run(fn)
        analyzer.flush_derived()
        if "graph-write" in summary.direct_effects:
            if facts.first_write is None:
                facts.first_write = fn
        facts.functions.append(summary)
        self.registry[qualname] = summary

    # -- pass 2: fixpoint + global rules --------------------------------
    def finish(self) -> List[Diagnostic]:
        self._fixpoint()
        diags: List[Diagnostic] = []
        for facts in self.modules:
            diags.extend(facts.diagnostics)
            diags.extend(self._module_rules(facts))
        return diags

    def _resolve(self, keys: Tuple[str, ...]) -> Optional[FunctionSummary]:
        for key in keys:
            summary = self.registry.get(key)
            if summary is not None:
                return summary
        return None

    def _fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for summary in self.registry.values():
                for call in summary.calls:
                    callee = self._resolve(call.keys)
                    if callee is None or callee is summary:
                        continue
                    if callee.effects - summary.effects:
                        summary.effects |= callee.effects
                        changed = True
                    if callee.lazy and call.is_return and not summary.lazy:
                        summary.lazy = True
                        changed = True
                    # a written callee param backed by one of our params
                    for index, key in enumerate(call.arg_keys):
                        if key is None or key not in summary.params:
                            continue
                        if index >= len(callee.params):
                            continue
                        if (
                            callee.params[index] in callee.writes_params
                            and key not in summary.writes_params
                        ):
                            summary.writes_params.add(key)
                            changed = True

    def _module_rules(self, facts: _ModuleFacts) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        source = facts.source

        def emit(rule_id: str, message: str, node: ast.AST,
                 suggestion: Optional[str] = None) -> None:
            if source.suppressed(rule_id, node.lineno):
                return
            diags.append(make(
                rule_id, message, span=source.span(node),
                source=facts.name, line=node.lineno,
                suggestion=suggestion,
            ))

        contract = facts.writes_contract
        contract_none = (
            contract is not None and contract.strip().lower() == "none"
        )
        wrote_directly = any(
            "graph-write" in s.direct_effects for s in facts.functions
        )
        # EF006: writers must declare their contract
        if wrote_directly and contract is None:
            emit(
                "EF006",
                f"module {facts.module} performs graph writes but its "
                f"docstring declares no 'Graph-writes:' contract",
                facts.first_write,
                suggestion="add a 'Graph-writes: <what>' line to the "
                           "module docstring",
            )

        for summary in facts.functions:
            fn = summary.node
            # EF002 (producer form): bulk write fed by a lazy io source
            for bulk in summary.bulk_writes:
                producer = self._resolve(bulk.producer_keys)
                if (
                    producer is not None and producer.lazy
                    and "io" in producer.effects
                ):
                    emit(
                        "EF002",
                        f"add_all() consumes the live generator "
                        f"{producer.qualname.rsplit('.', 1)[-1]}() — "
                        f"the store lock is held across the whole "
                        f"external scan and a mid-stream failure "
                        f"leaves the store half-populated",
                        bulk.node,
                        suggestion="materialize with list(...) before "
                                   "add_all()",
                    )
            # EF003 (call form): a derived union copy passed to a writer
            for call in summary.calls:
                callee = self._resolve(call.keys)
                if callee is None:
                    continue
                for index, kind in enumerate(call.arg_kinds):
                    if kind not in _DERIVED:
                        continue
                    key = call.arg_keys[index]
                    if key is not None and key in summary.freeze_keys:
                        continue
                    if index >= len(callee.params):
                        continue
                    if callee.params[index] in callee.writes_params:
                        emit(
                            "EF003",
                            f"{callee.qualname.rsplit('.', 1)[-1]}() "
                            f"writes its {callee.params[index]!r} "
                            f"argument, but {key or 'the value'!s} is a "
                            f"derived union copy — the change never "
                            f"reaches the underlying stores",
                            call.node,
                            suggestion="mutate before merging, or "
                                       "freeze() the copy before "
                                       "publishing it",
                        )
            # EF007: io/clock in a declared-pure module
            if facts.pure:
                impure = summary.effects & {"io", "clock"}
                if impure:
                    emit(
                        "EF007",
                        f"{summary.qualname} has inferred effects "
                        f"{sorted(impure)} in a module declared "
                        f"'Effects: pure'",
                        fn,
                    )
            # EF008: transitive writer under a no-writes contract
            if contract_none and "graph-write" in summary.effects:
                emit(
                    "EF008",
                    f"{summary.qualname} (transitively) writes the "
                    f"store, but the module contract is "
                    f"'Graph-writes: none'",
                    fn,
                )
            # EF010: declared summary must cover the inferred one
            if summary.declared is not None:
                extra = summary.effects - summary.declared
                if extra:
                    emit(
                        "EF010",
                        f"{summary.qualname} declares effects "
                        f"[{', '.join(sorted(summary.declared))}] but "
                        f"[{', '.join(sorted(extra))}] were also "
                        f"inferred",
                        fn,
                        suggestion="update the 'Effects:' line",
                    )
        return diags


def analyze_effects(paths: Iterable[Path]) -> List[Diagnostic]:
    """Run the store-effect analyzer over ``paths`` (files or trees)."""
    return StoreEffectAnalyzer().analyze_paths(paths)
