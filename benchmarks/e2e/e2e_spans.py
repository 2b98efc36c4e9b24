"""Benchmark-side span tracer: timing wrappers around layer entry points.

The program's own tracer (:mod:`repro.obs`) stays disabled; everything
here is installed *from the benchmark's files* for the traced replay
only and removed afterwards, so the untraced replay runs the program
exactly as shipped.

A span is ``[name, start, end, parent, extra, child_seconds]``; each
thread keeps its own stack and span list (no lock on the hot path),
a span's parent is whatever was open on the same thread when it began,
and ``self time = (end - start) - child_seconds``. Spans stay in memory
and are written out only once the run has ended (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

NAME, START, END, PARENT, EXTRA, CHILDREN = range(6)

#: The span whose ``extra`` is the number of ``Graph.triples`` calls
#: made inside it (sync_dataset and index builds scan too, outside it).
QUERY_SPAN = "sparql.evaluate"


_NULL = contextlib.nullcontext()


class _ThreadState:
    __slots__ = ("stack", "spans")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.spans: List[list] = []


class _OpenSpan:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> list:
        self.record = self.tracer.begin(self.name)
        return self.record

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer.end(self.record)


class Tracer:
    """In-memory span recorder plus the monkey-patch bookkeeping."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def begin(self, name: str) -> list:
        state = self._state()
        stack = state.stack
        record = [name, 0.0, 0.0, stack[-1] if stack else None, None, 0.0]
        stack.append(record)
        state.spans.append(record)
        if name == QUERY_SPAN:
            record[EXTRA] = -getattr(self._local, "scans", 0)
        record[START] = time.perf_counter()
        return record

    def end(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._state().stack.pop()
        if record[NAME] == QUERY_SPAN:
            # index scans this thread made while the query ran
            record[EXTRA] += getattr(self._local, "scans", 0)
        parent = record[PARENT]
        if parent is not None:
            parent[CHILDREN] += record[END] - record[START]

    def span(self, name: str):
        """Context manager for a driver-level span (free when disabled)."""
        return _OpenSpan(self, name) if self.enabled else _NULL

    # -- patching --------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        extra: Optional[Callable[[tuple, dict, Any], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``extra(args, kwargs, result)`` runs after the span has ended
        and its value is kept on the span (work counts measured where
        the work happens)."""
        original = vars(owner)[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return func(*args, **kwargs)
            record = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(record)
            if extra is not None:
                record[EXTRA] = extra(args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod
                else traced)
        self._patched.append((owner, attr, original))

    def count_scans(self, owner: Any, attr: str) -> None:
        """Count-only wrapper (no span: index scans are the hottest
        call in the program). The per-thread total is sampled at the
        start and end of each query span, which attributes scans to
        queries exactly even beside the store's background thread."""
        func = vars(owner)[attr]
        local = self._local

        @functools.wraps(func)
        def counted(*args: Any, **kwargs: Any) -> Any:
            try:
                local.scans += 1
            except AttributeError:
                local.scans = 1
            return func(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patched.append((owner, attr, func))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------
    def spans(self) -> List[list]:
        with self._lock:
            threads = list(self._threads)
        return [record for state in threads for record in state.spans]

    def dump(self, path: str) -> None:
        """Write every span as JSON (id, thread, parent id, self time)."""
        with self._lock:
            threads = list(self._threads)
        ids: Dict[int, int] = {}
        rows = []
        for thread_index, state in enumerate(threads):
            for record in state.spans:
                ids[id(record)] = len(ids)
                rows.append((thread_index, record))
        out = []
        for thread_index, record in rows:
            parent = record[PARENT]
            out.append({
                "id": ids[id(record)],
                "thread": thread_index,
                "name": record[NAME],
                "start": record[START],
                "end": record[END],
                "parent": None if parent is None else ids.get(id(parent)),
                "self": self_seconds(record),
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(out, handle)


def duration(record: list) -> float:
    return record[END] - record[START]


def self_seconds(record: list) -> float:
    return duration(record) - record[CHILDREN]


def ancestors(record: list) -> Iterable[list]:
    parent = record[PARENT]
    while parent is not None:
        yield parent
        parent = parent[PARENT]


# ---------------------------------------------------------------------------
# What gets wrapped: (module, "Class.attr" or "attr", span name, extra)
# ---------------------------------------------------------------------------


def _dump_size(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _broker_outcome(args: tuple, kwargs: dict, result: Any):
    words = len(result.per_word)
    candidates = sum(len(c) for c in result.per_word.values())
    return words, candidates, len(result.failures)


def _sync_compared(args: tuple, kwargs: dict, result: Any) -> int:
    store, dataset = args[0], args[1]
    desired = len(dataset.default) + sum(
        len(graph) for graph in dataset.graphs()
    )
    return desired + store.size


def _apply_counts(args: tuple, kwargs: dict, result: Any):
    return len(args[1]), result[1]  # ops submitted, ops effective


def _file_size(args: tuple, kwargs: dict, result: Any) -> int:
    return result.stat().st_size


_WRAPS = (
    ("repro.platform.gallery", "Platform.upload", "platform.upload", None),
    ("repro.platform.gallery", "Platform.semanticize",
     "platform.semanticize", None),
    ("repro.platform.gallery", "Platform.evaluator",
     "platform.evaluator", None),
    ("repro.platform.search", "SearchInterface.__init__",
     "platform.search_build", None),
    ("repro.platform.search", "SearchInterface.suggest",
     "platform.suggest", None),
    ("repro.platform.web", "WebInterface.browse", "platform.browse", None),
    # gallery binds dump_graph by name, so the call site is patched
    ("repro.platform.gallery", "dump_graph", "d2r.dump", _dump_size),
    ("repro.relational.database", "Database.execute",
     "relational.execute", None),
    ("repro.relational.database", "Database.insert",
     "relational.execute", None),
    ("repro.lod.datasets", "LodCorpus.as_dataset", "lod.union", None),
    ("repro.lod.datasets", "LodCorpus.union", "lod.union", None),
    ("repro.core.annotator", "SemanticAnnotator.annotate",
     "core.annotate", None),
    ("repro.core.location", "LocationAnalyzer.analyze",
     "core.location", None),
    ("repro.nlp.langdetect", "LanguageDetector.detect", "nlp.detect", None),
    ("repro.nlp.morpho", "MorphologicalAnalyzer.proper_nouns",
     "nlp.proper_nouns", None),
    ("repro.resolvers.broker", "SemanticBroker.resolve",
     "resolvers.resolve", _broker_outcome),
    ("repro.sparql.evaluator", "parse_query", "sparql.parse", None),
    ("repro.sparql.evaluator", "Evaluator.__init__",
     "sparql.evaluator_init", None),
    ("repro.sparql.evaluator", "Evaluator.evaluate", QUERY_SPAN, None),
    ("repro.analysis.plan", "QueryPlanner.plan", "analysis.plan", None),
    ("repro.analysis.stats", "GraphStatistics.cached",
     "analysis.stats", None),
    ("repro.analysis.stats", "GraphStatistics.collect",
     "analysis.stats_rebuild", None),
    ("repro.store.engine", "QuadStore.sync_dataset",
     "store.sync_dataset", _sync_compared),
    ("repro.store.engine", "QuadStore.dataset_snapshot", "store.pin", None),
    ("repro.store.engine", "QuadStore.apply", "store.commit",
     _apply_counts),
    ("repro.store.engine", "QuadStore.checkpoint",
     "store.checkpoint", None),
    ("repro.store.engine", "write_snapshot", "store.snapshot_write",
     _file_size),
    ("repro.store.wal", "WriteAheadLog.append", "store.wal_append",
     lambda args, kwargs, result: result),
    ("os", "fsync", "store.fsync", None),
)

_SCANS = (
    ("repro.rdf.graph", "Graph.triples"),
    ("repro.store.engine", "SnapshotGraph.triples"),
)


def _resolve(module_name: str, dotted: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point and switch span recording on."""
    for module_name, dotted, name, extra in _WRAPS:
        owner, attr = _resolve(module_name, dotted)
        tracer.wrap(owner, attr, name, extra)
    for module_name, dotted in _SCANS:
        owner, attr = _resolve(module_name, dotted)
        tracer.count_scans(owner, attr)
    tracer.enabled = True


def uninstall(tracer: Tracer) -> None:
    tracer.enabled = False
    tracer.uninstall()
