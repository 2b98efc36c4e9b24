"""FIG1 — the semantic annotation pipeline (paper Figure 1).

Reproduces the pipeline as a measurable artifact: end-to-end latency per
title, per-stage latencies (language id, morphological analysis,
brokering+filtering) and the acceptance/abstention statistics over the
gold corpus. The paper gives no numbers for this figure; EXPERIMENTS.md
records what we measure.

An annotator memoises each stage per distinct input (its text stage per
title, its filter per word and candidates, its resolvers per word), so
the pipeline's cost is timed on annotators whose memos are empty, and
the memoised repeat is reported beside it as the warm figure.
"""

from __future__ import annotations

import statistics

from _harness import record, timed_samples
from repro.core import build_default_annotator
from repro.nlp import MorphologicalAnalyzer, default_detector
from repro.obs import InMemorySpanExporter, Tracer, set_tracer
from repro.workloads import GOLD_CORPUS, score_pipeline

TITLES = [example.title for example in GOLD_CORPUS]


def test_pipeline_quality_headline(annotator):
    """The summary row: precision/recall over the gold corpus."""
    score = score_pipeline(annotator)
    assert score.precision >= 0.9
    assert score.recall >= 0.9
    print(
        f"\nFIG1 gold-corpus quality: precision={score.precision:.3f} "
        f"recall={score.recall:.3f} f1={score.f1:.3f} "
        f"language-accuracy={score.language_accuracy:.3f} "
        f"abstention={score.abstain_correct}/{score.abstain_expected}"
    )


def _cold(benchmark, corpus, run, rounds: int = 10):
    """Time ``run(annotator)`` on annotators whose memos are empty (the
    annotator, its resolvers and its filter), each built outside the
    timed region; then record the warm figure beside it: the same run
    on an annotator that has seen every title once. Returns the last
    cold run's value."""
    results = []

    def fresh():
        return (build_default_annotator(corpus),), {}

    benchmark.pedantic(
        lambda annotator: results.append(run(annotator)),
        setup=fresh, rounds=rounds, iterations=1,
    )
    warm = build_default_annotator(corpus)
    run(warm)
    warm_ms = statistics.median(timed_samples(lambda: run(warm), 10))
    cold_ms = benchmark.stats.stats.median * 1000.0
    benchmark.extra_info["cold_ms"] = round(cold_ms, 2)
    benchmark.extra_info["warm_ms"] = round(warm_ms, 2)
    print(f"\nFIG1 {benchmark.name}: cold {cold_ms:.2f} ms, "
          f"warm {warm_ms:.2f} ms (30 titles)")
    return results[-1]


def bench_full_pipeline(benchmark, corpus):
    """End-to-end annotation latency over the whole gold corpus: the
    pipeline's cost (cold), with the memoised repeat beside it (warm)."""
    results = _cold(
        benchmark, corpus,
        lambda annotator: [annotator.annotate(t) for t in TITLES],
    )
    annotated = sum(1 for r in results if r.annotations)
    benchmark.extra_info["titles"] = len(TITLES)
    benchmark.extra_info["titles_with_annotations"] = annotated


def bench_tracing_overhead(benchmark, annotator):
    """The observability tax gate: running the full gold-corpus
    pipeline with an enabled tracer (in-memory exporter) must stay
    within 1.10x of the uninstrumented run (measured ~1.05x).

    Plain and traced rounds are interleaved and compared on their
    best-of-N times so scheduler noise and machine-load drift cancel
    instead of deciding the verdict."""

    def run():
        for title in TITLES:
            annotator.annotate(title)

    run()
    run()  # warm resolver caches out of the timed region

    buffer = InMemorySpanExporter()
    plain_samples = []
    traced_samples = []
    for _ in range(15):
        plain_samples.extend(timed_samples(run, repeats=1))
        previous = set_tracer(
            Tracer(enabled=True, exporters=[buffer])
        )
        try:
            traced_samples.extend(timed_samples(run, repeats=1))
        finally:
            set_tracer(previous)

    plain_ms = min(plain_samples)
    traced_ms = min(traced_samples)
    ratio = traced_ms / plain_ms
    benchmark.extra_info["plain_ms"] = round(plain_ms, 2)
    benchmark.extra_info["traced_ms"] = round(traced_ms, 2)
    benchmark.extra_info["overhead_ratio"] = round(ratio, 3)
    benchmark.extra_info["spans"] = len(buffer.spans())
    record(
        "tracing_overhead",
        traced_samples,
        extra={
            "plain_median_ms": round(plain_ms, 2),
            "overhead_ratio": round(ratio, 3),
            "spans": len(buffer.spans()),
        },
    )
    assert ratio <= 1.10, (
        f"tracing overhead {ratio:.3f}x exceeds the 1.10x budget "
        f"(plain {plain_ms:.2f} ms, traced {traced_ms:.2f} ms)"
    )

    benchmark(run)


def bench_stage_language_detection(benchmark):
    detector = default_detector()
    benchmark(lambda: [detector.detect(t) for t in TITLES])


def bench_stage_morphology(benchmark):
    analyzer = MorphologicalAnalyzer("it")
    benchmark(lambda: [analyzer.proper_nouns(t) for t in TITLES])


def bench_stage_broker_and_filter(benchmark, annotator, corpus):
    """Brokering+filtering isolated: pre-computed word lists, resolved
    and filtered by annotators with empty memos (warm figure beside)."""
    word_lists = []
    for title in TITLES:
        result = annotator.annotate(title)
        word_lists.append((result.words, title, result.language))

    def run(annotator):
        outcomes = []
        for words, title, language in word_lists:
            broker_result = annotator.broker.resolve(
                words, text=title, language=language
            )
            for word, candidates in broker_result.per_word.items():
                outcomes.append(
                    annotator.filter.filter_word(word, candidates)
                )
        return outcomes

    _cold(benchmark, corpus, run)
