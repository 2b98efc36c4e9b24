"""Static concurrency-safety analyzer over the repo's own Python source.

The ROADMAP's next refactor — a concurrent MVCC quad-store serving
batch writers and query readers at once — lands on modules with wildly
different lock discipline: :mod:`repro.resolvers.resilience` and
:mod:`repro.obs` are carefully locked, :mod:`repro.rdf.graph` follows a
single-writer contract, and a future contributor can silently break
either. This module makes thread-safety a *checked* property, exactly
the way the SPARQL linter made the declarative surface checked: it
parses Python files with :mod:`ast`, reconstructs each class's lock
discipline, and emits the shared :class:`~repro.analysis.diagnostics.
Diagnostic` model under the ``CC*`` rule catalog.

Checked properties (see :mod:`repro.analysis.rules` for severities):

* **CC001** — an attribute written under a class's lock (a
  ``Lock``, ``RLock`` or ``Condition``) in one method but read or
  written outside that lock in another. Only attributes
  with at least one *guarded write* participate, so configuration
  fields set in ``__init__`` and read under a lock never fire.
* **CC002** — inconsistent nested lock acquisition order. Every nested
  ``with`` acquisition contributes an edge to an inter-module
  lock-order graph (lock identity is ``Class.attr`` / ``module:name``);
  any strongly-connected component is a potential deadlock cycle.
* **CC003** — blocking work while holding a lock: ``time`` functions,
  ``sleep``, ``Future.result()``, ``Thread.join()``, ``open()``,
  socket/urllib calls, and — the class of bug fixed in
  :class:`~repro.resolvers.resilience.TTLCache` — calls through
  *injected* attributes (``self._clock()``, ``self.on_progress(...)``:
  anything assigned from a constructor parameter is caller-supplied
  code of unknown cost and lock appetite).
* **CC005** — ``threading.Lock()`` created inside a regular function
  or method: a fresh lock per call guards nothing.
* **CC006** — manual ``lock.acquire()`` not immediately followed by a
  ``try/finally`` that releases it.
* **CC008** — a mutable class-body attribute (list/dict/set literal)
  mutated through ``self``: shared across every instance.
* **CC009** — ``Condition.wait()`` whose innermost enclosing loop is
  not a ``while`` predicate loop (wakeups are spurious by contract, so
  the predicate is re-checked right around the wait; a ``for`` loop or
  a ``while True:`` further out does not re-check it).

Suppressions are explicit and reviewable:

* a trailing ``# cc: allow=CC001,CC003`` (or bare ``# cc: allow``)
  comment suppresses the named rules on that line;
* a module docstring line ``Concurrency: <contract>`` declares the
  module's concurrency contract. ``single-threaded`` and ``immutable``
  disable the shared-state rules (CC001/CC008) for the
  whole module; ``single-writer`` keeps guarded-write checking but
  accepts lock-free *reads* (the :class:`repro.rdf.graph.Graph`
  contract); ``thread-safe`` (the default) checks everything.

The analyzer is intra-procedural by design — it tracks ``with`` blocks
on ``self.<lock>`` / module-level locks and does not chase calls. Its
runtime complement, :mod:`repro.analysis.sanitizer`, observes the
*actual* acquisition order of every lock under test and catches what
static analysis cannot.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ._pysource import (
    ImportMap,
    SourceFile,
    dotted_name,
    read_sources,
)
from .diagnostics import Diagnostic, Span
from .rules import make

__all__ = [
    "ConcurrencyAnalyzer",
    "LockOrderEdge",
    "ModuleContract",
    "analyze_paths",
]

#: Module docstring contract values (``Concurrency: <value>`` line).
CONTRACT_THREAD_SAFE = "thread-safe"
CONTRACT_SINGLE_WRITER = "single-writer"
CONTRACT_SINGLE_THREADED = "single-threaded"
CONTRACT_IMMUTABLE = "immutable"

_CONTRACTS = (
    CONTRACT_THREAD_SAFE,
    CONTRACT_SINGLE_WRITER,
    CONTRACT_SINGLE_THREADED,
    CONTRACT_IMMUTABLE,
)

#: Rules that check shared mutable state (disabled by a
#: ``single-threaded`` / ``immutable`` module contract).
_SHARED_STATE_RULES = ("CC001", "CC008")

_CONTRACT_RE = re.compile(
    r"^\s*Concurrency:\s*([a-z-]+)", re.MULTILINE
)

#: Dotted call names that block (or read clocks) — forbidden under a
#: held lock. Matched after import-alias resolution.
_BLOCKING_CALLS = {
    "time.sleep",
    "time.time",
    "time.monotonic",
    "time.perf_counter",
    "socket.create_connection",
    "urllib.request.urlopen",
    "subprocess.run",
    "subprocess.check_output",
    "subprocess.check_call",
}

#: Dotted-prefixes that imply I/O under a lock.
_BLOCKING_PREFIXES = ("socket.", "urllib.", "requests.", "subprocess.")

#: Method calls on an attribute that count as *writes* to it.
_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem",
    "clear", "add", "discard", "update", "setdefault",
    "move_to_end", "appendleft", "popleft", "sort", "reverse",
}

_CONSTRUCTORS = {"__init__", "__new__", "__post_init__", "__del__"}


# ----------------------------------------------------------------------
# Collected facts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LockOrderEdge:
    """``held`` was held while ``acquired`` was acquired at ``span``."""

    held: str
    acquired: str
    source: str
    span: Span
    lineno: int


@dataclass
class ModuleContract:
    """The concurrency contract a module declares in its docstring."""

    name: str
    contract: str = CONTRACT_THREAD_SAFE

    @property
    def skip_shared_state(self) -> bool:
        return self.contract in (
            CONTRACT_SINGLE_THREADED, CONTRACT_IMMUTABLE
        )

    @property
    def reads_unguarded_ok(self) -> bool:
        return self.contract == CONTRACT_SINGLE_WRITER


@dataclass
class _Access:
    """One ``self.X`` access inside a method."""

    attr: str
    is_write: bool
    held: FrozenSet[str]
    span: Span
    lineno: int
    method: str


@dataclass
class _FileFacts:
    """Everything one file contributes to the whole-repo analysis."""

    name: str
    contract: ModuleContract
    diagnostics: List[Diagnostic] = field(default_factory=list)
    edges: List[LockOrderEdge] = field(default_factory=list)


# ----------------------------------------------------------------------
# Per-file analysis
# ----------------------------------------------------------------------
def _is_self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in (
            "list", "dict", "set", "collections.OrderedDict",
            "collections.defaultdict", "collections.deque",
            "OrderedDict", "defaultdict", "deque",
        )
    return False


def _lock_ctor_kind(
    call: ast.Call, imports: ImportMap
) -> Optional[str]:
    """``"lock"`` (a ``Lock`` or an ``RLock``) / ``"condition"`` if
    ``call`` creates one, else ``None``."""
    resolved = imports.resolve(dotted_name(call.func))
    if resolved in ("threading.Lock", "threading.RLock"):
        return "lock"
    if resolved == "threading.Condition":
        return "condition"
    return None


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------
class ConcurrencyAnalyzer:
    """AST-based lock-discipline analysis with a shared order graph.

    ``analyze_source`` runs every per-file rule; CC002 needs the union
    of lock-order edges across files, so callers analyzing a tree
    should use :meth:`analyze_paths` (or the module-level
    :func:`analyze_paths`) which appends the cross-file cycle
    diagnostics after the per-file passes.

    ``long_hold`` style runtime properties are out of scope here — the
    :mod:`repro.analysis.sanitizer` owns everything observable only at
    runtime.
    """

    def __init__(self) -> None:
        self._edges: List[LockOrderEdge] = []
        self.contracts: Dict[str, ModuleContract] = {}

    # -- entry points ---------------------------------------------------
    def analyze_source(
        self, text: str, name: str = "<input>"
    ) -> List[Diagnostic]:
        facts = self._analyze_file(text, name)
        self._edges.extend(facts.edges)
        self.contracts[name] = facts.contract
        return facts.diagnostics

    def analyze_paths(
        self, paths: Iterable[Path]
    ) -> List[Diagnostic]:
        """Per-file rules over every path, then cross-file CC002."""
        diags: List[Diagnostic] = []
        for name, text in read_sources(paths):
            diags.extend(self.analyze_source(text, name))
        diags.extend(self.order_graph_diagnostics())
        return diags

    # -- CC002: the lock-order graph ------------------------------------
    def order_graph_diagnostics(self) -> List[Diagnostic]:
        """Cycles in the accumulated (cross-file) lock-order graph."""
        adjacency: Dict[str, Set[str]] = {}
        for edge in self._edges:
            adjacency.setdefault(edge.held, set()).add(edge.acquired)
            adjacency.setdefault(edge.acquired, set())
        cyclic = _cyclic_nodes(adjacency)
        diags: List[Diagnostic] = []
        seen: Set[Tuple[str, str, str, int]] = set()
        for edge in self._edges:
            if edge.held in cyclic and edge.acquired in cyclic:
                key = (
                    edge.held, edge.acquired, edge.source, edge.lineno
                )
                if key in seen:
                    continue
                seen.add(key)
                diags.append(make(
                    "CC002",
                    f"acquiring {edge.acquired!r} while holding "
                    f"{edge.held!r} participates in a lock-order "
                    f"cycle; acquire locks in one global order",
                    span=edge.span,
                    source=edge.source,
                    line=edge.lineno,
                ))
        return diags

    # -- per-file machinery ---------------------------------------------
    def _analyze_file(self, text: str, name: str) -> _FileFacts:
        contract = ModuleContract(name)
        facts = _FileFacts(name=name, contract=contract)
        tree = ast.parse(text, name)
        match = _CONTRACT_RE.search(ast.get_docstring(tree) or "")
        if match and match.group(1) in _CONTRACTS:
            contract.contract = match.group(1)

        source = SourceFile(text, name)
        imports = ImportMap(tree)

        def emit(rule_id: str, message: str, node: ast.AST,
                 lineno: Optional[int] = None) -> None:
            if contract.skip_shared_state and (
                rule_id in _SHARED_STATE_RULES
            ):
                return
            line = lineno if lineno is not None else node.lineno
            if source.suppressed(rule_id, line):
                return
            span = getattr(node, "precomputed", None)
            if span is None:
                span = source.span(node)
            facts.diagnostics.append(make(
                rule_id, message, span=span, source=name, line=line,
            ))

        # module-level locks
        module_locks: Set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and isinstance(
                    node.value, ast.Call
                ) and _lock_ctor_kind(node.value, imports) is not None:
                    module_locks.add(target.id)

        checker = _FunctionChecker(
            source=source,
            imports=imports,
            emit=emit,
            module_locks=module_locks,
            module_name=Path(name).stem,
            edges=facts.edges,
            contract=contract,
        )

        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                checker.check_class(node)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                checker.check_function(
                    node, cls=None, class_locks=set(),
                    injected=set(), class_mutables=set(),
                    conditions=set(),
                )
        checker.finish()
        return facts


def _cyclic_nodes(adjacency: Dict[str, Set[str]]) -> Set[str]:
    """Nodes on any cycle (Tarjan SCCs of size > 1, plus self-loops)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    cyclic: Set[str] = set()

    def strongconnect(node: str) -> None:
        # iterative Tarjan: (node, iterator) frames
        work = [(node, iter(sorted(adjacency.get(node, ()))))]
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append(
                        (succ, iter(sorted(adjacency.get(succ, ()))))
                    )
                    advanced = True
                    break
                if succ in on_stack:
                    low[current] = min(low[current], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[current])
            if low[current] == index[current]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1:
                    cyclic.update(component)
                elif current in adjacency.get(current, ()):
                    cyclic.add(current)

    for node in adjacency:
        if node not in index:
            strongconnect(node)
    return cyclic


# ----------------------------------------------------------------------
# Function-level walking
# ----------------------------------------------------------------------
class _FunctionChecker:
    """Walks classes and functions tracking the held-lock context."""

    def __init__(self, source, imports, emit, module_locks,
                 module_name, edges, contract):
        self.source = source
        self.imports = imports
        self.emit = emit
        self.module_locks = module_locks
        self.module_name = module_name
        self.edges = edges
        self.contract = contract
        self._accesses: List[Tuple[str, _Access]] = []

    # -- classes --------------------------------------------------------
    def check_class(self, cls: ast.ClassDef) -> None:
        methods = [
            n for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        class_locks: Set[str] = set()
        conditions: Set[str] = set()
        injected: Set[str] = set()
        class_mutables: Set[str] = set()

        for node in cls.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and (
                        _mutable_literal(node.value)
                    ):
                        class_mutables.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.value is not None
                    and _mutable_literal(node.value)
                ):
                    class_mutables.add(node.target.id)

        for method in methods:
            params = set()
            if method.name in _CONSTRUCTORS:
                params = {
                    a.arg for a in (
                        method.args.posonlyargs
                        + method.args.args
                        + method.args.kwonlyargs
                    )
                    if a.arg != "self"
                }
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    attr = _is_self_attr(target)
                    if attr is None:
                        continue
                    if isinstance(node.value, ast.Call):
                        kind = _lock_ctor_kind(
                            node.value, self.imports
                        )
                        if kind == "condition":
                            # a condition is a lock too: holding it
                            # guards what is written under it
                            conditions.add(attr)
                        if kind is not None:
                            class_locks.add(attr)
                            continue
                    if params and any(
                        isinstance(n, ast.Name) and n.id in params
                        for n in ast.walk(node.value)
                    ):
                        injected.add(attr)

        for method in methods:
            self.check_function(
                method, cls=cls.name, class_locks=class_locks,
                injected=injected, class_mutables=class_mutables,
                conditions=conditions,
            )

    # -- functions ------------------------------------------------------
    def check_function(self, func, cls, class_locks, injected,
                       class_mutables, conditions) -> None:
        in_ctor = cls is not None and func.name in _CONSTRUCTORS
        local_threads: Set[str] = set()
        local_conditions: Set[str] = set(conditions)

        # pre-pass: local threads and conditions — order-insensitive
        # on purpose
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            resolved = self.imports.resolve(dotted_name(node.value.func))
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if resolved == "threading.Thread":
                    local_threads.add(target.id)
                elif resolved == "threading.Condition":
                    local_conditions.add(target.id)

        ctx = _WalkContext(
            checker=self, cls=cls, func=func, in_ctor=in_ctor,
            class_locks=class_locks, injected=injected,
            class_mutables=class_mutables,
            conditions=local_conditions, threads=local_threads,
        )
        ctx.walk_body(func.body, held=())

    # -- aggregation ----------------------------------------------------
    def record_access(self, cls: str, access: _Access) -> None:
        self._accesses.append((cls, access))

    def finish(self) -> None:
        """CC001 aggregation once every class has been walked."""
        guarded_writes: Dict[Tuple[str, str], Set[str]] = {}
        for cls, access in self._accesses:
            if access.is_write and access.held:
                guarded_writes.setdefault(
                    (cls, access.attr), set()
                ).update(access.held)
        for cls, access in self._accesses:
            guards = guarded_writes.get((cls, access.attr))
            if not guards:
                continue
            if access.held & guards:
                continue
            if (
                self.contract.reads_unguarded_ok
                and not access.is_write
            ):
                continue
            if self.source.suppressed("CC001", access.lineno):
                continue
            kind = "written" if access.is_write else "read"
            lock_list = ", ".join(sorted(guards))
            self.emit(
                "CC001",
                f"attribute {access.attr!r} is {kind} in "
                f"{access.method!r} without holding {lock_list} "
                f"(mutations of it are guarded elsewhere)",
                _SpanNode(access.span, access.lineno),
                lineno=access.lineno,
            )


class _SpanNode:
    """A pre-computed span masquerading as an AST node for emit()."""

    def __init__(self, span: Span, lineno: int) -> None:
        self._span = span
        self.lineno = lineno
        self.col_offset = 0
        self.end_lineno = lineno
        self.end_col_offset = 0
        self.precomputed = span


@dataclass
class _WalkContext:
    checker: _FunctionChecker
    cls: Optional[str]
    func: ast.AST
    in_ctor: bool
    class_locks: Set[str]
    injected: Set[str]
    class_mutables: Set[str]
    conditions: Set[str]
    threads: Set[str]
    #: per enclosing loop, innermost last: is it a predicate loop (a
    #: ``while`` whose test is not a constant)?
    loops: List[bool] = field(default_factory=list)

    # -- lock identity --------------------------------------------------
    def lock_key(self, expr: ast.AST) -> Optional[str]:
        """The lock's identity when ``expr`` denotes a known lock."""
        attr = _is_self_attr(expr)
        if attr is not None and attr in self.class_locks:
            return f"{self.cls}.{attr}"
        if isinstance(expr, ast.Name) and (
            expr.id in self.checker.module_locks
        ):
            return f"{self.checker.module_name}:{expr.id}"
        return None

    # -- statement walking ----------------------------------------------
    def walk_body(
        self, stmts: Sequence[ast.stmt], held: Tuple[str, ...]
    ) -> None:
        for index, stmt in enumerate(stmts):
            self.walk_stmt(stmt, held, stmts, index)

    def walk_stmt(self, stmt, held, siblings, index) -> None:
        source = self.checker.source
        if isinstance(stmt, ast.With) or isinstance(
            stmt, ast.AsyncWith
        ):
            new_held = held
            for item in stmt.items:
                name = self.lock_key(item.context_expr)
                if name is None:
                    self.walk_expr(item.context_expr, new_held)
                    continue
                for holder in new_held:
                    if holder != name:
                        self.checker.edges.append(LockOrderEdge(
                            held=holder,
                            acquired=name,
                            source=source.name,
                            span=source.span(item.context_expr),
                            lineno=item.context_expr.lineno,
                        ))
                new_held = new_held + (name,)
            self.walk_body(stmt.body, new_held)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs run later
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self.loops.append(isinstance(stmt, ast.While) and not (
                isinstance(stmt.test, ast.Constant)
            ))
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self.walk_expr(stmt.iter, held)
                self.walk_target(stmt.target, held)
            else:
                self.walk_expr(stmt.test, held)
            self.walk_body(stmt.body, held)
            self.walk_body(stmt.orelse, held)
            self.loops.pop()
            return
        if isinstance(stmt, ast.If):
            self.walk_expr(stmt.test, held)
            self.walk_body(stmt.body, held)
            self.walk_body(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self.walk_body(stmt.body, held)
            for handler in stmt.handlers:
                self.walk_body(handler.body, held)
            self.walk_body(stmt.orelse, held)
            self.walk_body(stmt.finalbody, held)
            return
        if isinstance(stmt, ast.Expr):
            self.check_manual_acquire(stmt, siblings, index)
            self.walk_expr(stmt.value, held)
            return
        if isinstance(stmt, ast.Assign):
            self.walk_expr(stmt.value, held)
            for target in stmt.targets:
                self.walk_target(target, held)
            return
        if isinstance(stmt, ast.AugAssign):
            self.walk_expr(stmt.value, held)
            self.walk_target(stmt.target, held)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.walk_expr(stmt.value, held)
            self.walk_target(stmt.target, held)
            return
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self.walk_expr(stmt.value, held)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self.walk_target(target, held)
            return
        # fall back: walk child expressions generically
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.walk_expr(child, held)
            elif isinstance(child, ast.stmt):
                self.walk_stmt(child, held, [child], 0)

    # -- CC006 ----------------------------------------------------------
    def check_manual_acquire(self, stmt, siblings, index) -> None:
        value = stmt.value
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "acquire"
        ):
            return
        if self.lock_key(value.func.value) is None:
            return
        next_stmt = (
            siblings[index + 1] if index + 1 < len(siblings) else None
        )
        if isinstance(next_stmt, ast.Try) and any(
            self._releases_lock(s, value.func.value)
            for s in next_stmt.finalbody
        ):
            return
        self.checker.emit(
            "CC006",
            "manual acquire() without an immediate try/finally "
            "release; prefer a with statement",
            value,
        )

    def _releases_lock(self, stmt, lock_expr) -> bool:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "release"
                and ast.dump(node.func.value) == ast.dump(lock_expr)
            ):
                return True
        return False

    # -- targets (writes) ------------------------------------------------
    def walk_target(self, target, held) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.walk_target(element, held)
            return
        attr = _is_self_attr(target)
        if attr is not None:
            self.record_self_access(target, attr, held, is_write=True)
            return
        if isinstance(target, ast.Subscript):
            inner = _is_self_attr(target.value)
            if inner is not None:
                self.record_self_access(
                    target.value, inner, held, is_write=True
                )
            self.walk_expr(target.slice, held)
            return
        if isinstance(target, ast.Attribute):
            # attribute write on something other than self: walk the
            # receiver for reads (x.y.z = ... reads x.y)
            self.walk_expr(target.value, held)

    # -- expressions -----------------------------------------------------
    def walk_expr(self, expr, held) -> None:
        if expr is None:
            return
        for node in self._iter_nodes(expr):
            if isinstance(node, ast.Call):
                self.check_call(node, held)
            attr = _is_self_attr(node)
            if attr is not None and isinstance(node.ctx, ast.Load):
                # receiver of a mutating-method call is a write
                self.record_self_access(
                    node, attr, held, is_write=False
                )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
            ):
                pass  # global reads are fine

    def _iter_nodes(self, expr):
        """Walk an expression, skipping nested function/lambda bodies."""
        stack = [expr]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef,
                     ast.Lambda),
                ):
                    continue
                stack.append(child)

    # -- access recording ------------------------------------------------
    def record_self_access(
        self, node, attr: str, held, is_write: bool
    ) -> None:
        if self.cls is None or self.in_ctor:
            return
        if attr in self.class_locks:
            return
        source = self.checker.source
        self.checker.record_access(self.cls, _Access(
            attr=attr,
            is_write=is_write,
            held=frozenset(held),
            span=source.span(node),
            lineno=node.lineno,
            method=self.func.name,
        ))
        if is_write and attr in self.class_mutables:
            self.checker.emit(
                "CC008",
                f"class-level mutable attribute {attr!r} mutated "
                f"through an instance — state is shared across every "
                f"instance of {self.cls}",
                node,
            )

    # -- calls -----------------------------------------------------------
    def check_call(self, call: ast.Call, held) -> None:
        func = call.func
        dotted = dotted_name(func)
        resolved = self.checker.imports.resolve(dotted)

        # CC005: lock construction inside a regular function
        kind = _lock_ctor_kind(call, self.checker.imports)
        if kind == "lock" and not self.in_ctor:
            self.checker.emit(
                "CC005",
                "lock created per-call guards nothing — create it "
                "once per instance (in __init__) or at module level",
                call,
            )

        # CC008 via mutating method on a class-level mutable; also a
        # write access for CC001 purposes
        if isinstance(func, ast.Attribute) and (
            func.attr in _MUTATING_METHODS
        ):
            receiver = func.value
            attr = _is_self_attr(receiver)
            if attr is not None:
                self.record_self_access(
                    receiver, attr, held, is_write=True
                )

        # CC009: condition wait outside a while loop
        if isinstance(func, ast.Attribute) and func.attr == "wait":
            receiver_attr = _is_self_attr(func.value)
            is_condition = (
                receiver_attr is not None
                and receiver_attr in self.conditions
            ) or (
                isinstance(func.value, ast.Name)
                and func.value.id in self.conditions
            )
            if is_condition and not (self.loops and self.loops[-1]):
                self.checker.emit(
                    "CC009",
                    "Condition.wait() outside a while predicate loop — "
                    "wakeups are spurious; re-check the predicate in "
                    "the innermost loop around the wait",
                    call,
                )

        # CC003: blocking work while a lock is held
        if held:
            self.check_blocking(call, resolved)

    def check_blocking(self, call: ast.Call, resolved) -> None:
        func = call.func
        if resolved in _BLOCKING_CALLS or (
            resolved is not None
            and resolved.startswith(_BLOCKING_PREFIXES)
        ):
            self.checker.emit(
                "CC003",
                f"blocking call {resolved}() while holding a lock",
                call,
            )
            return
        if resolved == "open":
            self.checker.emit(
                "CC003",
                "file open() while holding a lock — open outside "
                "the critical section",
                call,
            )
            return
        if isinstance(func, ast.Attribute):
            receiver_attr = _is_self_attr(func.value)
            # injected callable: self._clock(), self.on_progress(...)
            if (
                receiver_attr is not None
                and func.attr != receiver_attr
                and receiver_attr in self.injected
                and isinstance(func.value, ast.Attribute)
            ):
                pass  # self.X.method handled below
            if func.attr == "result":
                self.checker.emit(
                    "CC003",
                    "Future.result() while holding a lock blocks "
                    "every other acquirer until the future resolves",
                    call,
                )
                return
            if func.attr == "join" and (
                not call.args
                or (
                    isinstance(func.value, ast.Name)
                    and func.value.id in self.threads
                )
            ):
                self.checker.emit(
                    "CC003",
                    "thread join() while holding a lock",
                    call,
                )
                return
            # method on an injected object: self.inner.resolve(...)
            inner = _is_self_attr(func.value)
            if inner is not None and inner in self.injected:
                self.checker.emit(
                    "CC003",
                    f"call through injected attribute "
                    f"{inner!r} while holding a lock — caller-"
                    f"supplied code has unknown cost and may "
                    f"acquire locks of its own",
                    call,
                )
                return
        # direct injected callable: self._clock()
        direct = _is_self_attr(func)
        if direct is not None and direct in self.injected:
            self.checker.emit(
                "CC003",
                f"injected callable self.{direct}() invoked while "
                f"holding a lock — move the call outside the "
                f"critical section",
                call,
            )


# ----------------------------------------------------------------------
# Convenience entry point
# ----------------------------------------------------------------------
def analyze_paths(paths: Iterable[Path]) -> List[Diagnostic]:
    """One-shot analysis of files/directories with cross-file CC002."""
    return ConcurrencyAnalyzer().analyze_paths(paths)
