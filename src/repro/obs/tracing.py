"""Zero-dependency tracing core.

A :class:`Tracer` produces nested :class:`Span` records — name,
attributes, monotonic start/duration, status, parent id — with
*thread-local* context propagation: a span opened on a thread becomes
the parent of every span opened on that same thread until it closes.
Cross-thread parenting (a :class:`~repro.core.batch.BatchAnnotator`
worker attaching its item span to the batch root span that lives on
the coordinating thread) is explicit: pass ``parent=``.

Exporters receive every finished span. Three ship in-tree:

* :class:`InMemorySpanExporter` — a bounded ring buffer, the default
  sink for CLI ``--trace`` runs and tests;
* :class:`JsonLinesExporter` — one JSON object per finished span,
  appended to a file (or any writable handle);
* :func:`render_span_tree` — not an exporter but the human-readable
  companion: renders a batch of finished spans as an indented tree
  with per-span durations.

A disabled tracer (``Tracer(enabled=False)`` — the process-wide
default) hands out a shared no-op span, so instrumented hot paths pay
one attribute load and one ``if`` when tracing is off.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "InMemorySpanExporter",
    "JsonLinesExporter",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "render_span_tree",
]


class _NoopSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_status(self, status: str, error: Optional[str] = None) -> None:
        pass

    @property
    def is_recording(self) -> bool:
        return False


NOOP_SPAN = _NoopSpan()

#: Finished spans an :class:`InMemorySpanExporter` keeps, newest last.
SPAN_CAPACITY = 1 << 16


class Span:
    """One timed operation; a context manager.

    ``start`` is a monotonic clock reading (``time.perf_counter``),
    ``duration`` is in seconds; ``started_at`` is wall-clock epoch time
    for log correlation. ``status`` is ``"ok"`` or ``"error"`` (set
    automatically when the ``with`` body raises).
    """

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id", "start",
        "started_at", "duration", "status", "error", "attributes",
        "_tracer", "_explicit_parent",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        parent: Optional["Span"] = None,
    ) -> None:
        self._tracer = tracer
        self._explicit_parent = parent
        self.name = name
        # adopted, not copied — hot instrumentation sites pass fresh
        # (or frozen shared) dicts and never mutate them afterwards
        self.attributes: Dict[str, Any] = (
            attributes if attributes is not None else {}
        )
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.trace_id: Optional[int] = None
        self.start: Optional[float] = None
        self.started_at: Optional[float] = None
        self.duration: Optional[float] = None
        self.status: str = "unset"
        self.error: Optional[str] = None

    # -- context management -------------------------------------------
    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = span_id = next(tracer._ids)
        try:
            stack = tracer._local.stack
        except AttributeError:
            stack = tracer._local.stack = []
        parent = self._explicit_parent
        if parent is None and stack:
            parent = stack[-1]
        if parent is not None and parent.span_id is not None:
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
        else:
            self.trace_id = span_id
        stack.append(self)
        self.start = start = time.perf_counter()
        self.started_at = tracer._epoch + start
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        if exc_type is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        elif self.status == "unset":
            self.status = "ok"
        tracer = self._tracer
        stack = getattr(tracer._local, "stack", ())
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # defensive: tolerate out-of-order exits
            stack.remove(self)
        for exporter in tracer.exporters:
            exporter.export(self)
        return False

    # -- mutation ------------------------------------------------------
    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_status(self, status: str, error: Optional[str] = None) -> None:
        self.status = status
        if error is not None:
            self.error = error

    @property
    def is_recording(self) -> bool:
        return True

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "started_at": self.started_at,
            "duration_ms": (
                self.duration * 1000.0
                if self.duration is not None else None
            ),
            "status": self.status,
        }
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.error is not None:
            record["error"] = self.error
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name!r} id={self.span_id} "
            f"parent={self.parent_id} status={self.status}>"
        )


class Tracer:
    """Produces spans and feeds finished ones to its exporters.

    ``enabled=False`` makes :meth:`span` return the shared no-op span —
    the cheap path instrumented code takes in production when nobody is
    tracing.
    """

    def __init__(
        self,
        enabled: bool = True,
        exporters: Optional[Sequence] = None,
    ) -> None:
        self.enabled = enabled
        self.exporters: List = list(exporters or ())
        self._ids = itertools.count(1)
        self._local = threading.local()
        # wall-clock epoch of the perf_counter origin: a span's
        # ``started_at`` without a second clock read per span
        self._epoch = time.time() - time.perf_counter()

    # -- public API ----------------------------------------------------
    def span(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        parent: Optional[Span] = None,
    ):
        """A context manager for one operation.

        ``parent`` overrides the thread-local context — the cross-thread
        hand-off (a no-op span passed as parent is ignored, so callers
        can thread through whatever an outer ``span()`` returned).
        """
        if not self.enabled:
            return NOOP_SPAN
        if not isinstance(parent, Span):
            parent = None
        return Span(self, name, attributes, parent)

    def record_span(
        self,
        name: str,
        duration: float,
        attributes: Optional[Dict[str, Any]] = None,
        parent: Optional[Span] = None,
    ) -> Optional[Span]:
        """Export an already-measured operation as a finished span.

        For code that times itself (e.g. generator pipelines where a
        ``with`` block cannot bracket the work): the span parents to
        the current thread-local span unless ``parent`` says otherwise.
        """
        if not self.enabled:
            return None
        span = Span(self, name, attributes, parent)
        span.span_id = next(self._ids)
        anchor = parent if isinstance(parent, Span) else self.current_span()
        if anchor is not None:
            span.parent_id = anchor.span_id
            span.trace_id = anchor.trace_id
        else:
            span.trace_id = span.span_id
        span.started_at = time.time() - duration
        span.start = time.perf_counter() - duration
        span.duration = duration
        span.status = "ok"
        self._export(span)
        return span

    def current_span(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- span export ---------------------------------------------------
    def _export(self, span: Span) -> None:
        for exporter in self.exporters:
            exporter.export(span)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class InMemorySpanExporter:
    """Ring buffer of the last :data:`SPAN_CAPACITY` finished spans,
    thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: "deque[Span]" = deque(maxlen=SPAN_CAPACITY)
        self.dropped = 0

    def export(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == SPAN_CAPACITY:
                self.dropped += 1
            self._spans.append(span)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0


class JsonLinesExporter:
    """Appends one JSON object per finished span to ``target``.

    ``target`` is a path (opened lazily, append mode) or any object
    with a ``write`` method. Writes are serialized by a lock so worker
    threads never interleave half-lines.
    """

    def __init__(self, target) -> None:
        self._lock = threading.Lock()
        if hasattr(target, "write"):
            self._handle = target
            self._path = None
        else:
            self._handle = None
            self._path = target

    def export(self, span: Span) -> None:
        line = json.dumps(
            span.to_dict(), sort_keys=True, default=str
        )
        # Lazy open happens OUTSIDE the lock: the filesystem can block
        # arbitrarily long and every exporting thread would queue
        # behind it (CC003). Double-checked publication keeps exactly
        # one handle; a loser of the race closes its extra one.
        handle = self._handle  # cc: allow=CC001 (racy fast-path peek)
        if handle is None:
            opened = open(self._path, "a", encoding="utf-8")
            stale = None
            with self._lock:
                if self._handle is None:
                    self._handle = opened
                else:
                    stale = opened
            if stale is not None:
                stale.close()
        with self._lock:
            # the write itself is the resource this lock serializes
            self._handle.write(line + "\n")  # cc: allow=CC003

    def close(self) -> None:
        stale = None
        with self._lock:
            if self._handle is not None and self._path is not None:
                stale = self._handle
                self._handle = None
        if stale is not None:
            stale.close()  # flush outside the lock (CC003)


# ----------------------------------------------------------------------
# Tree rendering
# ----------------------------------------------------------------------
def render_span_tree(spans: Iterable[Span]) -> str:
    """Render finished spans as an indented tree with durations and
    attributes.

    Spans whose parent is absent from the batch (e.g. evicted from the
    ring buffer) are treated as roots. Siblings sort by start time, so
    the tree reads in execution order even when spans finished out of
    order.
    """
    batch = [s for s in spans if s.span_id is not None]
    by_id = {span.span_id: span for span in batch}
    children: Dict[Optional[int], List[Span]] = {}
    roots: List[Span] = []
    for span in batch:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)

    def sort_key(span: Span):
        return (span.start or 0.0, span.span_id)

    width = max(
        (len(span.name) + _depth(span, by_id) * 3 for span in batch),
        default=0,
    )
    lines: List[str] = []

    def visit(span: Span, prefix: str, tail: str) -> None:
        label = tail + span.name
        duration = (
            f"{span.duration * 1000.0:10.2f} ms"
            if span.duration is not None else " " * 13
        )
        text = f"{label:<{width + 2}} {duration}"
        if span.status == "error":
            text += "  !error"
            if span.error:
                text += f" {span.error}"
        if span.attributes:
            rendered = " ".join(
                f"{key}={value}"
                for key, value in sorted(span.attributes.items())
            )
            text += f"  [{rendered}]"
        lines.append(text.rstrip())
        kids = sorted(children.get(span.span_id, ()), key=sort_key)
        for index, child in enumerate(kids):
            last = index == len(kids) - 1
            connector = "└─ " if last else "├─ "
            extension = "   " if last else "│  "
            visit(child, prefix + extension, prefix + connector)

    for root in sorted(roots, key=sort_key):
        visit(root, "", "")
    return "\n".join(lines)


def _depth(span: Span, by_id: Dict[int, Span]) -> int:
    depth = 0
    seen = set()
    while (
        span.parent_id is not None
        and span.parent_id in by_id
        and span.parent_id not in seen
    ):
        seen.add(span.parent_id)
        span = by_id[span.parent_id]
        depth += 1
    return depth
