"""BATCH — legacy-content batch annotation (paper §6).

The paper's conclusion calls for "automatic batch processing mechanisms"
to annotate the back catalog. Throughput over the catalog sizes of the
corpus-size ladder (one ``annotate`` call per item) is a rung of
``bench_ladder.py``; here: the checkpoint/resume overhead, fault
degradation, and the parallel fan-out. With a 5 ms simulated latency on
the DBpedia resolver (the hot term resolver — every word hits it), a
4-worker run must have at least 3 calls in that latency at once, while
producing the sequential run's triple set; the wall-time speedup is
recorded ungated.
"""

from __future__ import annotations

import threading
import time

import pytest

from _harness import record
from repro.core import BatchAnnotator
from repro.core.annotator import SemanticAnnotator
from repro.core.filtering import SemanticFilter
from repro.lod import build_lod_corpus
from repro.platform import Platform
from repro.rdf import Graph
from repro.resolvers import (
    FlakyResolver,
    SemanticBroker,
    default_resolvers,
)
from repro.workloads import (
    WorkloadConfig,
    generate_workload,
    populate_platform,
)


def bench_batch_resume_overhead(benchmark, small_platform):
    """Running in two halves must cost about the same as one pass; the
    checkpoint bookkeeping is the delta being measured."""

    def run():
        batch = BatchAnnotator(small_platform, Graph(), batch_size=10)
        batch.run(max_items=50)
        return batch.run()

    stats = benchmark(run)
    assert stats.processed == len(small_platform.contents())


class _InFlight:
    """A resolver's simulated network latency that counts, thread-safely,
    how many calls are in it at once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.active = self.peak = 0

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(seconds)
        finally:
            with self._lock:
                self.active -= 1


@pytest.fixture(scope="module")
def latency_platform():
    """A 500-item catalog whose DBpedia resolver sleeps 5 ms per call —
    the simulated remote LOD endpoint of the fan-out guard — and the
    gauge of the calls in that sleep."""
    platform = Platform()
    workload = generate_workload(WorkloadConfig(
        n_users=10, n_contents=500, cities=("Turin",), seed=7,
    ))
    populate_platform(platform, workload)
    corpus = build_lod_corpus()
    in_flight = _InFlight()
    resolvers = [
        FlakyResolver(r, failure_rate=0.0, latency=0.005,
                      sleep=in_flight.sleep)
        if r.name == "dbpedia" else r
        for r in default_resolvers(corpus)
    ]
    platform.annotator = SemanticAnnotator(
        SemanticBroker(resolvers), SemanticFilter(corpus)
    )
    return platform, in_flight


def bench_batch_parallel_speedup(benchmark, latency_platform):
    """4 workers on 500 items with 5 ms simulated resolver latency keep
    >= 3 resolver calls in flight at once — and are triple-identical to
    the sequential run."""
    platform, in_flight = latency_platform

    def timed_run(workers):
        target = Graph()
        batch = BatchAnnotator(platform, target, workers=workers)
        in_flight.peak = 0
        start = time.perf_counter()
        stats = batch.run()
        took = (time.perf_counter() - start) * 1000.0
        return took, in_flight.peak, stats, target

    sequential_ms, seq_peak, seq_stats, seq_graph = timed_run(1)
    parallel_ms, par_peak, par_stats, par_graph = timed_run(4)

    assert seq_stats.summary() == par_stats.summary()
    assert seq_stats.failed == 0
    assert set(seq_graph) == set(par_graph)
    assert len(seq_graph) == len(par_graph)

    extra = {
        "contents": 500,
        "workers": 4,
        "peak_in_flight": [seq_peak, par_peak],
        "sequential_ms": round(sequential_ms, 1),
        "speedup": round(sequential_ms / parallel_ms, 2),
    }
    benchmark.extra_info.update(extra)
    record("batch_parallel_speedup", [parallel_ms], extra=extra)
    assert par_peak >= 3, (
        f"batch at 500 items: at most {par_peak} resolver call(s) in "
        "flight at once with 4 workers — the fan-out no longer overlaps "
        "the latency"
    )

    benchmark.pedantic(
        lambda: timed_run(4)[2], rounds=1, iterations=1
    )


def bench_batch_fault_degradation(benchmark):
    """With DBpedia failing 100% of calls behind the resilience layer,
    the batch still annotates everything the healthy resolvers can."""
    corpus = build_lod_corpus()
    from repro.resolvers.resilience import RetryPolicy, wrap_resilient

    resolvers = [
        FlakyResolver(r, failure_rate=1.0, seed=3)
        if r.name == "dbpedia" else r
        for r in default_resolvers(corpus)
    ]
    resolvers = wrap_resilient(
        resolvers,
        retry=RetryPolicy(attempts=2, base_delay=0.0, jitter=0.0),
        reset_timeout=3600.0,
    )
    platform = Platform()
    workload = generate_workload(WorkloadConfig(
        n_users=10, n_contents=100, cities=("Turin",), seed=7,
    ))
    populate_platform(platform, workload)
    platform.annotator = SemanticAnnotator(
        SemanticBroker(resolvers), SemanticFilter(corpus)
    )

    def run():
        batch = BatchAnnotator(
            platform, Graph(), batch_size=50, workers=4
        )
        return batch.run()

    stats = benchmark(run)
    assert stats.failed == 0  # no exception escapes a single item
    assert stats.processed == 100
    assert stats.annotated > 0  # healthy resolvers still deliver
    benchmark.extra_info["degraded_items"] = stats.degraded_items
    benchmark.extra_info["breaker_trips"] = stats.breaker_trips
    benchmark.extra_info["annotated"] = stats.annotated
