"""BATCH — legacy-content batch annotation throughput (paper §6).

The paper's conclusion calls for "automatic batch processing mechanisms"
to annotate the back catalog. We measure batch throughput at three
catalog sizes, the checkpoint/resume overhead, and the parallel
speedup: with a 5 ms simulated latency on the DBpedia resolver (the
hot term resolver — every word hits it), a 4-worker run must beat the
sequential one by >= 2x while producing the identical triple set.
"""

from __future__ import annotations

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


def bench_batch_throughput(benchmark, sized_platform):
    size, platform = sized_platform

    def run():
        batch = BatchAnnotator(platform, Graph(), batch_size=100)
        return batch.run()

    stats = benchmark(run)
    benchmark.extra_info["contents"] = size
    benchmark.extra_info["annotated"] = stats.annotated
    benchmark.extra_info["triples"] = stats.triples_added
    assert stats.failed == 0


def bench_batch_resume_overhead(benchmark, small_platform):
    """Running in two halves must cost about the same as one pass; the
    checkpoint bookkeeping is the delta being measured."""

    def run():
        batch = BatchAnnotator(small_platform, Graph(), batch_size=10)
        batch.run(max_items=50)
        return batch.run()

    stats = benchmark(run)
    assert stats.processed == 100


@pytest.fixture(scope="module")
def latency_platform():
    """A 500-item catalog whose DBpedia resolver sleeps 5 ms per call —
    the simulated remote LOD endpoint of the speedup guard."""
    platform = Platform()
    workload = generate_workload(WorkloadConfig(
        n_users=10, n_contents=500, cities=("Turin",), seed=7,
    ))
    populate_platform(platform, workload)
    corpus = build_lod_corpus()
    resolvers = [
        FlakyResolver(r, failure_rate=0.0, latency=0.005)
        if r.name == "dbpedia" else r
        for r in default_resolvers(corpus)
    ]
    platform.annotator = SemanticAnnotator(
        SemanticBroker(resolvers), SemanticFilter(corpus)
    )
    return platform


def bench_batch_parallel_speedup(benchmark, latency_platform):
    """4 workers must be >= 2x faster than sequential on 500 items with
    5 ms simulated resolver latency — and triple-identical."""

    def timed_run(workers):
        target = Graph()
        batch = BatchAnnotator(
            latency_platform, target, batch_size=100, workers=workers
        )
        start = time.perf_counter()
        stats = batch.run()
        return (time.perf_counter() - start) * 1000.0, stats, target

    sequential_ms, seq_stats, seq_graph = timed_run(1)
    parallel_ms, par_stats, par_graph = timed_run(4)

    assert seq_stats.summary() == par_stats.summary()
    assert seq_stats.failed == 0
    assert set(seq_graph) == set(par_graph)
    assert len(seq_graph) == len(par_graph)

    benchmark.extra_info["contents"] = 500
    benchmark.extra_info["sequential_ms"] = round(sequential_ms, 1)
    benchmark.extra_info["parallel_ms"] = round(parallel_ms, 1)
    benchmark.extra_info["speedup"] = round(
        sequential_ms / parallel_ms, 2
    )
    record(
        "batch_parallel_speedup",
        [parallel_ms],
        extra={
            "contents": 500,
            "workers": 4,
            "sequential_ms": round(sequential_ms, 1),
            "speedup": round(sequential_ms / parallel_ms, 2),
        },
    )
    assert sequential_ms >= 2.0 * parallel_ms, (
        f"batch at 500 items: parallel {parallel_ms:.0f} ms vs "
        f"sequential {sequential_ms:.0f} ms — speedup below the 2x bar"
    )

    benchmark.pedantic(
        lambda: timed_run(4)[1], rounds=1, iterations=1
    )


def bench_batch_fault_degradation(benchmark, latency_platform):
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
