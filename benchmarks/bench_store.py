"""STORE ENGINE — snapshot restart guard + MVCC reader throughput.

Two numbers pin the storage engine's reason to exist:

* ``bench_snapshot_restart_speedup`` — restarting from a snapshot must
  replay nothing, while the equivalent WAL-only store replays at least
  10x as many ops as the snapshot holds quads.  The WAL records
  *history* — an update-churn workload (re-annotation batches that
  retract the previous annotations before asserting new ones) writes
  many more delta ops than the live set it converges to, while a
  snapshot holds the live set only: 7 800 ops replayed against 200
  snapshot quads (39x).  The gate reads the two stores'
  ``RecoveryReport`` counts, which do not depend on the machine; the
  replay / restart time ratio (155 ms / 3.7 ms ≈ 41x on an x86-64
  Linux host under CPython 3.11) is recorded ungated.
* ``bench_reader_throughput_with_writer`` — snapshot reads are
  lock-free, so read throughput should *not* collapse while a writer
  commits batches.  Recorded for the history (machine-dependent), not
  gated.

Results persist to ``BENCH_store.json`` via :mod:`_harness`.
"""

from __future__ import annotations

import statistics
import threading
import time

from _harness import record, timed_samples
from repro.rdf import Literal, URIRef
from repro.store import QuadStore

EX = "http://example.org/"
P = URIRef(EX + "p")

#: Update churn: each commit asserts PER_BATCH new quads and retracts
#: the batch from KEEP commits ago, so the live set converges to
#: KEEP * PER_BATCH while the WAL accumulates the whole history.
N_BATCHES = 800
PER_BATCH = 5
KEEP = 40

LIVE_QUADS = KEEP * PER_BATCH


def _batch_triples(b):
    return [
        (URIRef(f"{EX}s{b}_{j}"), P, Literal(str(b)))
        for j in range(PER_BATCH)
    ]


def _populate(directory):
    with QuadStore(directory) as store:
        for b in range(N_BATCHES):
            batch = store.batch()
            for triple in _batch_triples(b):
                batch.insert(triple)
            if b >= KEEP:
                for triple in _batch_triples(b - KEEP):
                    batch.remove(triple)
            store.commit(batch)
        return store.generation


def bench_snapshot_restart_speedup(benchmark, tmp_path):
    wal_dir = tmp_path / "wal-only"
    snap_dir = tmp_path / "snapshotted"
    generation = _populate(wal_dir)
    assert _populate(snap_dir) == generation
    with QuadStore(snap_dir) as store:
        store.compact()  # snapshot written, WAL pruned

    def open_store(directory):
        with QuadStore(directory) as store:
            assert store.generation >= generation
            assert store.size == LIVE_QUADS
            return store.recovery

    wal_report = open_store(wal_dir)  # also warms the page cache
    snap_report = open_store(snap_dir)
    replay = timed_samples(lambda: open_store(wal_dir), repeats=5)
    snapshot = timed_samples(lambda: open_store(snap_dir), repeats=5)

    replay_ms = statistics.median(replay)
    snapshot_ms = statistics.median(snapshot)
    speedup = replay_ms / max(snapshot_ms, 1e-6)

    benchmark.extra_info["wal_replay_ms"] = round(replay_ms, 1)
    benchmark.extra_info["snapshot_ms"] = round(snapshot_ms, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["ops_replayed"] = wal_report.ops_replayed
    benchmark.extra_info["snapshot_quads"] = snap_report.snapshot_quads
    record(
        "store",
        snapshot,
        extra={
            "section": "snapshot_restart",
            "batches": N_BATCHES,
            "live_quads": LIVE_QUADS,
            "wal_replay_ms": round(replay_ms, 1),
            "snapshot_restart_ms": round(snapshot_ms, 1),
            "speedup": round(speedup, 2),
            "wal_ops_replayed": wal_report.ops_replayed,
            "snapshot_quads": snap_report.snapshot_quads,
            "snapshot_ops_replayed": snap_report.ops_replayed,
        },
    )
    assert snap_report.ops_replayed == 0, (
        f"the snapshotted store replayed {snap_report.ops_replayed} ops"
    )
    assert wal_report.ops_replayed >= 10 * snap_report.snapshot_quads, (
        f"WAL replay read only {wal_report.ops_replayed} ops against "
        f"{snap_report.snapshot_quads} snapshot quads"
    )

    benchmark.pedantic(
        lambda: open_store(snap_dir), rounds=1, iterations=1
    )


def bench_reader_throughput_with_writer(benchmark):
    """Pattern scans over pinned snapshots while a writer commits."""
    store = QuadStore()
    store.commit(store.batch().add_all(
        (URIRef(f"{EX}seed{i}"), P, Literal("seed"))
        for i in range(500)
    ))
    stop = threading.Event()

    def writer():
        b = 0
        while not stop.is_set():
            batch = store.batch()
            for j in range(PER_BATCH):
                batch.insert(
                    (URIRef(f"{EX}w{b}_{j}"), P, Literal(str(b)))
                )
            store.commit(batch)
            b += 1

    def read_burst(duration_s=0.25):
        scans = 0
        deadline = time.perf_counter() + duration_s
        while time.perf_counter() < deadline:
            view = store.head()
            matched = sum(
                1 for _ in view.triples((None, P, None))
            )
            assert matched >= 500
            scans += 1
        return scans, duration_s

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        read_burst(0.05)  # warm-up
        bursts = [read_burst() for _ in range(4)]
    finally:
        stop.set()
        thread.join()

    rates = [scans / duration for scans, duration in bursts]
    samples_ms = [
        (duration / scans) * 1000.0 for scans, duration in bursts
    ]
    benchmark.extra_info["scans_per_s"] = round(
        statistics.median(rates), 1
    )
    benchmark.extra_info["writer_generations"] = store.generation
    record(
        "store",
        samples_ms,
        extra={
            "section": "reader_throughput_with_writer",
            "scans_per_s": round(statistics.median(rates), 1),
            "writer_generations": store.generation,
            "final_quads": store.size,
        },
    )

    benchmark.pedantic(
        lambda: read_burst(0.05), rounds=1, iterations=1
    )
