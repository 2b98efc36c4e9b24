"""WRITE PATH — a commit must cost what it touches.

A mutation is flushed as one delta commit (DESIGN.md, "Write path");
that an upload stays one generation of three contributions, and what it
looks up flat, as the corpus grows is guarded by ``bench_ladder.py``,
with ``platform.evaluator()`` with nothing pending (no lookup, no
commit). This file holds the store-side guard:

* ``bench_commit_flat_in_overlay`` — a commit thaws the context's
  overlay instead of copying it (DESIGN.md, "Compaction policy"), so
  the median in-memory 8-quad commit into a context whose overlay holds
  ~1 000 ops divided by the same with ~16 ops must stay <= 3 (it was
  ~30x while every commit re-inserted the whole overlay). The two
  stores take their commits in alternation, so a noisy neighbour slows
  both sides of the ratio. ``bench_fold_cost`` records, ungated, what
  folding a ~1 000-op overlay costs at 2 000 and at 20 000 base quads —
  the fold thaws the base, so the two should be close.

Results persist to ``BENCH_write_path.json`` via :mod:`_harness`.
"""

from __future__ import annotations

import statistics
import time

from _harness import metered, record
from repro.rdf import Literal, URIRef
from repro.store import QuadStore, WriteBatch

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
    (small_ms, large_ms), speed_index = metered(
        lambda: (_fold_ms(2_000), _fold_ms(20_000))
    )
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
            "speed_index": speed_index,
        },
    )
    benchmark.extra_info.update(entry["extra"])
    store = _store_with(20_000, 1_000)
    benchmark.pedantic(store.compact, rounds=1, iterations=1)
