"""Observability: tracing + metrics for the whole pipeline.

One process-wide :class:`Tracer` (disabled by default — instrumented
code pays a single ``if`` until someone turns it on) and one
process-wide :class:`MetricsRegistry` (always on; counters are cheap).
Both are injectable for tests and embeddings via the ``set_*``
functions; instrumented components call ``get_*`` at use time, never
at import time, so swaps take effect immediately.
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.profiler import (
    ProfilerError,
    ProfileStats,
    SamplingProfiler,
)
from repro.obs.slo import (
    Objective,
    ObjectiveResult,
    SLOError,
    SLOReport,
    SLOSpec,
    default_slo,
    evaluate_slo,
)
from repro.obs.tracing import (
    NOOP_SPAN,
    InMemorySpanExporter,
    JsonLinesExporter,
    Span,
    Tracer,
    render_span_tree,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "InMemorySpanExporter",
    "JsonLinesExporter",
    "MetricError",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Objective",
    "ObjectiveResult",
    "ProfileStats",
    "ProfilerError",
    "SLOError",
    "SLOReport",
    "SLOSpec",
    "SamplingProfiler",
    "Span",
    "Tracer",
    "default_slo",
    "evaluate_slo",
    "get_registry",
    "get_tracer",
    "render_span_tree",
    "set_registry",
    "set_tracer",
]

_tracer: Tracer = Tracer(enabled=False)
_registry: MetricsRegistry = MetricsRegistry()


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled unless someone enabled it)."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous
