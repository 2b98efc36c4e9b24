"""Fixtures isolating the process-wide tracer/registry per test.

Every test in this package swaps in a fresh enabled :class:`Tracer`
(backed by an in-memory span buffer) and a fresh
:class:`MetricsRegistry`, restoring the previous globals afterwards so
the rest of the suite keeps running against the default disabled
tracer.
"""

import pytest

from repro.obs import (
    InMemorySpanExporter,
    MetricsRegistry,
    Tracer,
    set_registry,
    set_tracer,
)


@pytest.fixture
def span_buffer():
    return InMemorySpanExporter()


@pytest.fixture
def obs_tracer(span_buffer):
    tracer = Tracer(enabled=True, exporters=[span_buffer])
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


@pytest.fixture
def obs_registry():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)
