"""Runtime store sanitizer: observe every quad-store access live.

Graph-writes: none

Concurrency: thread-safe

The static effect analyzer (:mod:`repro.analysis.effects`) proves
read/write discipline it can see in the AST; this module catches what
it cannot — the *actual* store traffic of a live run. While installed,
it patches the :class:`repro.rdf.graph.Graph` entry points:

* **writes** (``insert``, ``remove``, ``clear`` — ``add`` and
  ``add_all`` funnel through ``insert``) are counted, and the *caller's*
  module docstring is checked against its declared ``Graph-writes:``
  contract: a write issued from a module that declares
  ``Graph-writes: none`` is recorded as a **contract violation** (the
  runtime shadow of the EF008 lint rule). Modules without a contract
  are not flagged at runtime — that is the static EF006 warning's job;
* **reads** (``triples`` — ``subjects``/``objects``/``__iter__``/the
  SPARQL evaluator all route through it) are counted, and each returned
  iterator snapshots the graph's ``_version``: if the version moves
  between two ``__next__`` calls, the store was **mutated during
  iteration** (the runtime shadow of EF002) and one violation is
  recorded per iterator;
* counters are exported through the :mod:`repro.obs` metrics registry
  (``repro_store_*``) so sanitized runs surface in the same exposition
  as production metrics.

Wrapping only the ``Graph`` base class keeps the signal clean:
:class:`repro.rdf.graph.FrozenGraph` overrides every mutation entry
point to raise before any wrapper runs, so frozen views never count as
writes, and the sanitizer's own bookkeeping touches no graph.

Usage::

    sanitizer = StoreSanitizer()
    with sanitizer.installed():
        run_store_workload()
    report = sanitizer.report()
    assert not report.iter_mutations

or via the opt-in pytest fixture ``store_sanitizer`` (see
``tests/conftest.py``); ``REPRO_SANITIZE=1`` test runs install it for
every test alongside the lock sanitizer.

The ``enabled`` flag mirrors :class:`LockSanitizer`: a disabled
sanitizer's ``installed()`` is a no-op context manager, so call sites
keep the ``with`` structure unconditionally.
"""

from __future__ import annotations

import functools
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..obs import get_registry
from .effects import _WRITES_CONTRACT_RE
from .sanitizer import _thread_name

__all__ = [
    "StoreSanitizer",
    "StoreReport",
    "IterMutation",
    "ContractViolation",
]

#: Frames from these modules are the store's own plumbing (``add`` →
#: ``insert`` delegation, the wrappers themselves) — the *writer* for
#: contract purposes is the first frame outside them.
_PLUMBING_MODULES = frozenset({
    "repro.rdf.graph",
    # the MVCC storage engine: its writes to private base/overlay
    # graphs are store plumbing, attributed to the committing caller
    "repro.store.engine",
    "repro.store.persistence",
    __name__,
})


@dataclass(frozen=True)
class IterMutation:
    """The store's version moved while an iterator was live."""

    identifier: str
    start_version: int
    seen_version: int
    thread: str

    def describe(self) -> str:
        return (
            f"store mutated during iteration of {self.identifier} in "
            f"{self.thread}: version {self.start_version} -> "
            f"{self.seen_version} between __next__ calls"
        )


@dataclass(frozen=True)
class ContractViolation:
    """A write issued from a module declaring ``Graph-writes: none``."""

    module: str
    op: str
    identifier: str

    def describe(self) -> str:
        return (
            f"{self.module} declares 'Graph-writes: none' but called "
            f"{self.op}() on {self.identifier}"
        )


@dataclass
class StoreReport:
    """Everything one sanitized run observed about store traffic."""

    reads: int = 0
    writes: int = 0
    iter_mutations: List[IterMutation] = field(default_factory=list)
    contract_violations: List[ContractViolation] = field(
        default_factory=list
    )

    @property
    def violations(self) -> int:
        return len(self.iter_mutations) + len(self.contract_violations)

    def render(self) -> str:
        lines = [
            f"reads:               {self.reads}",
            f"writes:              {self.writes}",
            f"iter mutations:      {len(self.iter_mutations)}",
            f"contract violations: {len(self.contract_violations)}",
        ]
        for mutation in self.iter_mutations:
            lines.append(f"  ITER MUTATION {mutation.describe()}")
        for violation in self.contract_violations:
            lines.append(f"  CONTRACT {violation.describe()}")
        return "\n".join(lines)


class StoreSanitizer:
    """Patch ``Graph`` access points to record store traffic.

    Parameters
    ----------
    enabled:
        A disabled sanitizer installs nothing; ``installed()`` becomes
        a no-op so the guard costs one attribute check.
    """

    _WRITE_OPS = ("insert", "remove", "clear")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._state_lock = threading.Lock()
        self._reads = 0
        self._writes = 0
        self._iter_mutations: List[IterMutation] = []
        self._contract_violations: List[ContractViolation] = []
        #: module name -> its ``Graph-writes:`` contract value (or
        #: ``None`` when the module declares nothing)
        self._contract_cache: Dict[str, Optional[str]] = {}
        self._installed = False
        registry = get_registry()
        self._read_counter = registry.counter(
            "repro_store_reads_total",
            "Graph read iterations observed by the store sanitizer",
        )
        self._write_counter = registry.counter(
            "repro_store_writes_total",
            "Graph write operations observed by the store sanitizer",
        )
        self._iter_counter = registry.counter(
            "repro_store_iter_mutations_total",
            "Mutations of a graph during a live iteration",
        )
        self._contract_counter = registry.counter(
            "repro_store_contract_violations_total",
            "Writes issued from modules declaring 'Graph-writes: none'",
        )

    # -- installation ---------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["StoreSanitizer"]:
        """Patch the ``Graph`` entry points for the ``with`` body."""
        if not self.enabled or self._installed:
            yield self
            return
        from ..rdf.graph import Graph

        originals = {
            name: Graph.__dict__[name]
            for name in self._WRITE_OPS + ("triples",)
        }
        for op in self._WRITE_OPS:
            setattr(Graph, op, self._wrap_write(originals[op], op))
        Graph.triples = self._wrap_triples(  # type: ignore[assignment]
            originals["triples"]
        )
        self._installed = True
        try:
            yield self
        finally:
            for name, original in originals.items():
                setattr(Graph, name, original)
            self._installed = False

    # -- wrappers -------------------------------------------------------
    def _wrap_write(self, original, op: str):
        sanitizer = self

        @functools.wraps(original)
        def wrapper(graph, *args, **kwargs):
            sanitizer._on_write(graph, op)
            return original(graph, *args, **kwargs)

        return wrapper

    def _wrap_triples(self, original):
        sanitizer = self

        @functools.wraps(original)
        def wrapper(graph, pattern=(None, None, None)):
            sanitizer._on_read()
            start = graph._version
            reported = False
            iterator = original(graph, pattern)
            while True:
                try:
                    triple = next(iterator)
                except StopIteration:
                    return
                except RuntimeError:
                    # the underlying index dict blew up mid-iteration
                    # ("dictionary changed size ...") — that IS the
                    # violation; record it before propagating
                    if not reported and graph._version != start:
                        sanitizer._on_iter_mutation(
                            graph, start, graph._version
                        )
                    raise
                if not reported and graph._version != start:
                    reported = True
                    sanitizer._on_iter_mutation(
                        graph, start, graph._version
                    )
                yield triple

        return wrapper

    # -- recording ------------------------------------------------------
    def _on_read(self) -> None:
        with self._state_lock:
            self._reads += 1
        self._read_counter.inc()

    def _on_write(self, graph, op: str) -> None:
        with self._state_lock:
            self._writes += 1
        self._write_counter.inc()
        module, doc = self._writer_module()
        if self._contract_value(module, doc) == "none":
            violation = ContractViolation(
                module=module, op=op,
                identifier=str(graph.identifier),
            )
            with self._state_lock:
                self._contract_violations.append(violation)
            self._contract_counter.inc()

    def _on_iter_mutation(
        self, graph, start: int, seen: int
    ) -> None:
        mutation = IterMutation(
            identifier=str(graph.identifier),
            start_version=start,
            seen_version=seen,
            thread=_thread_name(),
        )
        with self._state_lock:
            self._iter_mutations.append(mutation)
        self._iter_counter.inc()

    def _writer_module(self):
        """The first caller frame outside the store's own plumbing."""
        frame = sys._getframe(2)  # skip _on_write and the wrapper
        while frame is not None:
            name = frame.f_globals.get("__name__", "")
            if name not in _PLUMBING_MODULES:
                return name, frame.f_globals.get("__doc__")
            frame = frame.f_back
        return "<unknown>", None

    def _contract_value(
        self, module: str, doc: Optional[str]
    ) -> Optional[str]:
        with self._state_lock:
            if module in self._contract_cache:
                return self._contract_cache[module]
        value: Optional[str] = None
        if doc:
            match = _WRITES_CONTRACT_RE.search(doc)
            if match is not None:
                value = match.group("value")
        with self._state_lock:
            self._contract_cache[module] = value
        return value

    # -- results --------------------------------------------------------
    def report(self) -> StoreReport:
        with self._state_lock:
            return StoreReport(
                reads=self._reads,
                writes=self._writes,
                iter_mutations=list(self._iter_mutations),
                contract_violations=list(self._contract_violations),
            )

    def reset(self) -> None:
        with self._state_lock:
            self._reads = 0
            self._writes = 0
            self._iter_mutations.clear()
            self._contract_violations.clear()
