"""WRITE PATH — upload -> queryable must not grow with the corpus.

A mutation is flushed as one delta commit (DESIGN.md, "Write path"), so
what an upload costs until ``platform.evaluator()`` shows it — one
annotation, one location analysis, one ~20-quad commit — is the same
on a platform of 100 contents and on one of 800. Two machine-independent
guards:

* ``bench_upload_visible_flat`` — median upload -> visible at 800
  contents divided by the median at 100 must stay <= 1.5 (it was ~8x
  while every read rebuilt and re-diffed the whole platform graph). The
  two platforms take their uploads in alternation, so a noisy neighbour
  slows both sides of the ratio.
* ``bench_evaluator_idle`` — ``platform.evaluator()`` with nothing
  pending only pins the store head: <= 1 ms at 800 contents.
* ``bench_commit_flat_in_overlay`` — a commit thaws the context's
  overlay instead of copying it (DESIGN.md, "Compaction policy"), so
  the median in-memory 8-quad commit into a context whose overlay holds
  ~1 000 ops divided by the same with ~16 ops must stay <= 3 (it was
  ~30x while every commit re-inserted the whole overlay), again taken
  in alternation. ``bench_fold_cost`` records, ungated, what folding a
  ~1 000-op overlay costs at 2 000 and at 20 000 base quads — the fold
  thaws the base, so the two should be close.

``bench_upload_visible_scaling`` (100 / 1 000 / 10 000 contents,
ungated, not part of ``make bench-write-path``: the largest size takes
half a minute to populate) produces the WRITE PATH table of
EXPERIMENTS.md — timings as measured, next to the machine-speed index
of the end-to-end benchmark's meter so they can be read against its
reference sandbox.

Results persist to ``BENCH_write_path.json`` via :mod:`_harness`.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import pytest

from _harness import percentile, record
from repro.platform import Platform
from repro.rdf import Literal, URIRef
from repro.store import QuadStore, WriteBatch
from repro.workloads import (
    WorkloadConfig,
    generate_workload,
    populate_platform,
)

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
from e2e_speed import REFERENCE_S, SpeedMeter  # noqa: E402

SMALL, LARGE = 100, 800
UPLOADS = 40
SEED = 7

_CHECK = (
    "PREFIX comm: <http://comm.semanticweb.org/core.owl#> "
    "SELECT ?v WHERE {{ <{picture}> comm:image-data ?v }}"
)


def _stack(contents: int):
    """A populated platform attached to a store, and the captures to
    upload next (the timeline continuing where the corpus stopped)."""
    base = generate_workload(WorkloadConfig(
        n_users=10, n_contents=contents, seed=SEED,
    ))
    platform = Platform()
    populate_platform(platform, base)
    platform.attach_store(QuadStore(name=f"write-path-{contents}"))
    extra = generate_workload(WorkloadConfig(
        n_users=10, n_contents=UPLOADS, seed=SEED + 1,
        start_timestamp=base.captures[-1].timestamp,
    ))
    return platform, extra.captures


def _upload_visible_ms(platform: Platform, capture) -> float:
    began = time.perf_counter()
    item = platform.upload(capture)
    evaluator = platform.evaluator()
    took = time.perf_counter() - began
    rows = evaluator.evaluate(_CHECK.format(picture=item.resource))
    assert [row["v"].lexical for row in rows] == [item.media_url]
    return took * 1000.0


def _idle_evaluator_ms(platform: Platform, calls: int):
    """Samples of ``platform.evaluator()`` with nothing pending."""
    generation = platform.evaluator().generation
    samples_ms = []
    for _ in range(calls):
        began = time.perf_counter()
        evaluator = platform.evaluator()
        samples_ms.append((time.perf_counter() - began) * 1000.0)
        assert evaluator.generation == generation
    return samples_ms


def bench_upload_visible_flat(benchmark):
    small, small_captures = _stack(SMALL)
    large, large_captures = _stack(LARGE)
    small_ms, large_ms = [], []
    for a, b in zip(small_captures, large_captures):
        small_ms.append(_upload_visible_ms(small, a))
        large_ms.append(_upload_visible_ms(large, b))
    at_small = statistics.median(small_ms)
    at_large = statistics.median(large_ms)
    ratio = at_large / at_small

    benchmark.extra_info["ms_at_100"] = round(at_small, 2)
    benchmark.extra_info["ms_at_800"] = round(at_large, 2)
    benchmark.extra_info["ratio"] = round(ratio, 2)
    record(
        "write_path",
        large_ms,
        extra={
            "section": "upload_visible",
            "contents": [SMALL, LARGE],
            "median_ms_at_100": round(at_small, 3),
            "median_ms_at_800": round(at_large, 3),
            "ratio_800_over_100": round(ratio, 3),
        },
    )
    assert ratio <= 1.5, (
        f"upload -> visible grows with the corpus: {at_large:.2f} ms at "
        f"{LARGE} contents vs {at_small:.2f} ms at {SMALL} ({ratio:.2f}x)"
    )

    extra = iter(generate_workload(WorkloadConfig(
        n_users=10, n_contents=UPLOADS, seed=SEED + 2,
        start_timestamp=large_captures[-1].timestamp,
    )).captures)
    benchmark.pedantic(
        lambda: _upload_visible_ms(large, next(extra)),
        rounds=UPLOADS, iterations=1,
    )


def bench_evaluator_idle(benchmark):
    platform, _ = _stack(LARGE)
    samples_ms = _idle_evaluator_ms(platform, 200)
    median = statistics.median(samples_ms)

    benchmark.extra_info["idle_evaluator_ms"] = round(median, 4)
    record(
        "write_path",
        samples_ms,
        extra={"section": "evaluator_idle", "contents": LARGE},
    )
    assert median <= 1.0, (
        f"platform.evaluator() with nothing pending took {median:.3f} ms "
        f"at {LARGE} contents; it should only pin the store head"
    )

    benchmark.pedantic(platform.evaluator, rounds=50, iterations=1)


_NS = "http://example.org/bench/"
_CONTEXT = URIRef(_NS + "scratch")
BATCH_QUADS = 8


def _quads(first: int, count: int) -> WriteBatch:
    """``count`` quads, eight to a subject — the store-durable shape."""
    batch = WriteBatch()
    for index in range(first, first + count):
        subject, j = divmod(index, BATCH_QUADS)
        batch.insert(
            (URIRef(f"{_NS}batch/{subject}"), URIRef(f"{_NS}vocab#p{j}"),
             Literal(f"payload-{subject}-{j}")),
            _CONTEXT,
        )
    return batch


def _inverse(batch: WriteBatch) -> WriteBatch:
    """The batch that removes what ``batch`` inserts."""
    undo = WriteBatch()
    for _, triple, key in batch.ops:
        undo.remove(triple, key)
    return undo


def _store_with(base: int, overlay: int) -> QuadStore:
    """An in-memory store whose one context has ``base`` folded quads
    and ``overlay`` more in its overlay."""
    store = QuadStore(name=f"overlay-{overlay}")
    store.commit(_quads(0, base))  # past the limit: becomes the base
    store.commit(_quads(base, overlay))
    assert store.info()["overlay_ops"] == overlay
    return store


def _commit_ms(store: QuadStore, serial: int) -> float:
    """Time one 8-quad commit, then take it back untimed so the overlay
    keeps its size (the quads leave the overlay again, no fold)."""
    batch = _quads(1_000_000 + serial * BATCH_QUADS, BATCH_QUADS)
    overlay = store.info()["overlay_ops"]
    began = time.perf_counter()
    store.commit(batch)
    took = time.perf_counter() - began
    store.commit(_inverse(batch))
    assert store.info()["overlay_ops"] == overlay
    return took * 1000.0


def bench_commit_flat_in_overlay(benchmark):
    shallow = _store_with(2_000, 16)
    deep = _store_with(2_000, 1_000)
    shallow_ms, deep_ms = [], []
    for serial in range(200):
        shallow_ms.append(_commit_ms(shallow, serial))
        deep_ms.append(_commit_ms(deep, serial))
    at_shallow = statistics.median(shallow_ms)
    at_deep = statistics.median(deep_ms)
    ratio = at_deep / at_shallow

    benchmark.extra_info["ms_at_16_ops"] = round(at_shallow, 4)
    benchmark.extra_info["ms_at_1000_ops"] = round(at_deep, 4)
    benchmark.extra_info["ratio"] = round(ratio, 2)
    record(
        "write_path",
        deep_ms,
        extra={
            "section": "commit_in_overlay",
            "overlay_ops": [16, 1_000],
            "median_ms_at_16": round(at_shallow, 4),
            "median_ms_at_1000": round(at_deep, 4),
            "ratio_1000_over_16": round(ratio, 3),
        },
    )
    assert ratio <= 3.0, (
        f"an 8-quad commit grows with the overlay it lands in: "
        f"{at_deep:.3f} ms at 1 000 ops vs {at_shallow:.3f} ms at 16 "
        f"({ratio:.1f}x)"
    )

    serials = iter(range(200, 10_000))
    benchmark.pedantic(
        lambda: _commit_ms(deep, next(serials)), rounds=50, iterations=1,
    )


def _fold_ms(base: int, folds: int = 6):
    """Samples of folding a 1 000-op overlay into ~``base`` quads: the
    overlay alternately adds 1 000 quads and removes them again."""
    store = _store_with(base, 0)
    samples_ms = []
    for serial in range(folds):
        batch = _quads(base, 1_000)
        store.commit(_inverse(batch) if serial % 2 else batch)
        began = time.perf_counter()
        summary = store.compact()
        samples_ms.append((time.perf_counter() - began) * 1000.0)
        assert summary["folded_contexts"] == 1
    return samples_ms


def bench_fold_cost(benchmark):
    meter = SpeedMeter()
    meter.sample(long=True)
    small_ms = _fold_ms(2_000)
    large_ms = _fold_ms(20_000)
    meter.sample(long=True)
    speed_index = statistics.mean(meter.samples) / REFERENCE_S
    at_small = statistics.median(small_ms)
    at_large = statistics.median(large_ms)

    entry = record(
        "write_path",
        large_ms,
        extra={
            "section": "fold",
            "base_quads": [2_000, 20_000],
            "overlay_ops": 1_000,
            "median_ms_at_2000": round(at_small, 3),
            "median_ms_at_20000": round(at_large, 3),
            "ratio_20000_over_2000": round(at_large / at_small, 3),
            "speed_index": round(speed_index, 2),
        },
    )
    benchmark.extra_info.update(entry["extra"])
    store = _store_with(20_000, 1_000)
    benchmark.pedantic(store.compact, rounds=1, iterations=1)


@pytest.mark.parametrize("contents", [100, 1_000, 10_000])
def bench_upload_visible_scaling(benchmark, contents):
    platform, captures = _stack(contents)
    meter = SpeedMeter()
    meter.sample(long=True)
    samples_ms = [_upload_visible_ms(platform, c) for c in captures]
    meter.sample(long=True)
    idle_ms = _idle_evaluator_ms(platform, 50)
    speed_index = statistics.mean(meter.samples) / REFERENCE_S

    entry = record(
        "write_path",
        samples_ms,
        extra={
            "section": "scaling",
            "contents": contents,
            "uploads": len(samples_ms),
            "mean_ms": round(statistics.mean(samples_ms), 3),
            "p90_ms": round(percentile(samples_ms, 0.9), 3),
            "idle_evaluator_ms": round(statistics.median(idle_ms), 4),
            "speed_index": round(speed_index, 2),
        },
    )
    benchmark.extra_info.update(entry["extra"])
    benchmark.extra_info["median_ms"] = entry["median_ms"]
    benchmark.pedantic(platform.evaluator, rounds=20, iterations=1)
