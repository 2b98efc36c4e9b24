"""LADDER — what the paper's reads and writes cost as the corpus grows.

One size axis for every rung: the stacks of ``conftest.LADDER`` (100 /
1 000 / 10 000 contents, 10 users, seed 7, scattered over an area that
grows with the corpus, so a fixed radius around a monument holds about
as many contents at every size), each built once per session. A rung
counts what one operation does at every size — exact
``bif:st_intersects`` evaluations, index lookups (``triples`` calls),
contributions recomputed, commits, ``annotate`` calls — and guards
counts only, never a time:

* the growth exponent of a count, ``log(count at 10⁴ / count at 10²) /
  2``, stays <= :data:`GROWTH` (0 is flat, 1 linear in the corpus);
* where the code promises a number, the number: a cap at the top rung
  or an exact value at every rung.

The rungs: a fully-bound index lookup (STORE); the virtual albums Q1,
Q2 and Q3 (§2.3); the About mashup M1 (§4.1); Q3 without the planner's
rewrites; batch annotation (§6); ``platform.evaluator()`` with nothing
pending; a checkpoint of a durable copy of the store after 100 small
commits; upload -> queryable, last, because it adds to the stacks.
Rows and timings are recorded ungated, next to the end-to-end
benchmark's speed index, in ``BENCH_ladder.json`` via :mod:`_harness`;
each rung also prints one line per value with its growth exponent.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Sequence

from _harness import counted, metered, record, timed_samples
from repro.core import BatchAnnotator, geo_album, rated_album, social_album
from repro.core.annotator import SemanticAnnotator
from repro.core.mashup import mashup_query, run_mashup
from repro.platform import Platform
from repro.rdf import Graph, Literal, URIRef
from repro.sparql import Evaluator
from repro.sparql import functions as sparql_functions
from repro.sparql.geo import Point, haversine_km
from repro.store import QuadStore, WriteBatch
from repro.store import engine as store_engine
from repro.store import wal as store_wal
from repro.store.engine import SnapshotGraph
from repro.store.persistence import snapshot_path

#: Largest growth exponent a guarded count may show over the ladder:
#: a count may grow 4.6x over 100x the corpus (2x over 8x).
GROWTH = 0.33
FLAT = ("evaluations", "lookups")
PROBES = 1_000
RADII = (0.2, 0.3, 1.0, 5.0)
MASHUP_PIDS = 12
MOLE = Point(7.6934, 45.0692)
UPLOADS = 20
#: Commits of 8 quads between a durable copy's load and its checkpoint.
COMMITS = 100
_DELTA_NS = "http://example.org/checkpoint/"

_CHECK = (
    "PREFIX comm: <http://comm.semanticweb.org/core.owl#> "
    "SELECT ?v WHERE {{ <{picture}> comm:image-data ?v }}"
)

Table = Dict[int, Dict[str, float]]


def _exponent(table: Table, name: str) -> float:
    """Growth exponent of ``name`` between the smallest and the largest
    rung: 0 flat, 1 linear in the corpus."""
    smallest, largest = min(table), max(table)
    low, high = table[smallest][name], table[largest][name]
    if low == high:
        return 0.0
    if low <= 0 or high <= 0:
        return math.inf if high > low else -math.inf
    return math.log(high / low) / math.log(largest / smallest)


def _climb(benchmark, ladder, rung: str, measure: Callable,
           timed: Callable, flat: Sequence[str] = (),
           caps: Dict[str, float] = {}) -> None:
    """Run ``measure(contents, stack) -> {name: value}`` on every stack
    between two passes of the speed meter; record and print every value
    with its growth exponent; guard the ``flat`` exponents and the
    ``caps`` at the top rung; then time ``timed`` with pytest-benchmark."""
    table, speed_index = metered(
        lambda: {n: measure(n, ladder[n]) for n in sorted(ladder)}
    )
    sizes = sorted(table)
    names = list(table[sizes[0]])
    exponents = {name: round(_exponent(table, name), 3) for name in names}
    extra = {
        "rung": rung,
        "contents": sizes,
        **{name: [table[n][name] for n in sizes] for name in names},
        "exponents": exponents,
        "speed_index": speed_index,
    }
    record("ladder", [table[sizes[-1]].get("ms", 0.0)], extra=extra)
    benchmark.extra_info.update(extra)
    for name in names:
        values = " -> ".join(f"{table[n][name]:g}" for n in sizes)
        print(f"\n{rung:>14} {name:<20} {values}  "
              f"(exponent {exponents[name]:.2f})", end="")
    for name in flat:
        assert exponents[name] <= GROWTH, (
            f"{rung}: {name} grows with the corpus, {extra[name]} at "
            f"{sizes} contents (exponent {exponents[name]:.2f} > {GROWTH})"
        )
    for name, cap in caps.items():
        assert table[sizes[-1]][name] <= cap, (
            f"{rung}: {table[sizes[-1]][name]:g} {name} at {sizes[-1]} "
            f"contents, over the cap of {cap}"
        )
    benchmark.pedantic(timed, rounds=20, iterations=1)


def _query_counts(store: QuadStore, query: str, repeats: int = 5,
                  **options):
    """``({evaluations, lookups, rows, ms}, result)`` of ``query`` over
    ``store``: the filter evaluations and index lookups of one run with
    statistics and plan warmed, and the median time of ``repeats``."""
    Evaluator(store, **options).evaluate(query)
    # st_intersects is looked up in its own module at every call, so
    # counting there leaves the function table — and the probe — alone
    with counted(sparql_functions, "st_intersects") as evaluations, \
            counted(SnapshotGraph, "triples") as lookups:
        result = Evaluator(store, **options).evaluate(query)
    samples = timed_samples(
        lambda: Evaluator(store, **options).evaluate(query), repeats
    )
    return {
        "evaluations": len(evaluations),
        "lookups": len(lookups),
        "rows": len(result),
        "ms": round(statistics.median(samples), 3),
    }, result


def _top(ladder):
    return ladder[max(ladder)]


def bench_index_scan(benchmark, ladder):
    """STORE: fully-bound lookups on the pinned head find exactly their
    one triple; the time per lookup is recorded."""

    def measure(contents, stack):
        head = stack.store.head()
        probes = list(itertools.islice(
            head.triples((None, None, None)), 0, None,
            max(1, len(head) // PROBES),
        ))[:PROBES]
        hits = [len(list(head.triples(t))) for t in probes]
        assert hits == [1] * len(probes), (
            f"a fully-bound lookup at {contents} contents found "
            f"{max(hits)} triples"
        )
        samples = timed_samples(
            lambda: [list(head.triples(t)) for t in probes], 5
        )
        return {
            "quads": len(head),
            "probes": len(probes),
            "lookup_us": round(
                statistics.median(samples) * 1000.0 / len(probes), 3
            ),
        }

    head = _top(ladder).store.head()
    probe = next(iter(head.triples((None, None, None))))
    _climb(benchmark, ladder, "STORE", measure,
           timed=lambda: list(head.triples(probe)))


def bench_geo_album(benchmark, ladder):
    """Q1: the filter sees what the spatial grid hands it, not every
    geometry of the store."""
    query = geo_album().query

    def measure(contents, stack):
        counts, _ = _query_counts(stack.store, query)
        matches = [
            len(Evaluator(stack.store).evaluate(
                geo_album(radius_km=radius).query))
            for radius in RADII
        ]
        assert counts["rows"] and matches == sorted(matches), (
            f"Q1 at {contents} contents is empty or not monotone in the "
            f"radius {RADII}: {matches}"
        )
        return counts

    store = _top(ladder).store
    _climb(benchmark, ladder, "Q1", measure, flat=FLAT,
           timed=lambda: Evaluator(store).evaluate(query))


def _friend(ladder) -> str:
    """The first user whose Q2 is non-empty at every size."""
    stacks = ladder.values()
    return next(
        name for name in next(iter(stacks)).workload.usernames
        if all(
            Evaluator(stack.store).evaluate(
                social_album(friend_of=name).query)
            for stack in stacks
        )
    )


def bench_social_album(benchmark, ladder):
    """Q2: the filter is put to what the grid has around the monument,
    and a scan is looked up once per distinct join key, not once per
    picture of every friend; its links are within Q1's."""
    album = social_album(friend_of=_friend(ladder))
    query = album.query

    def measure(contents, stack):
        evaluator = Evaluator(stack.store)
        q1 = set(geo_album().links(evaluator))
        assert set(album.links(evaluator)) <= q1, (
            f"Q2 at {contents} contents is not within Q1"
        )
        return _query_counts(stack.store, query)[0]

    store = _top(ladder).store
    _climb(benchmark, ladder, "Q2", measure, flat=FLAT,
           caps={"lookups": 60},
           timed=lambda: Evaluator(store).evaluate(query))


def bench_rated_album(benchmark, ladder):
    """Q3: Q2's shape, its rows by descending rating."""
    query = rated_album(friend_of=_friend(ladder)).query

    def measure(contents, stack):
        counts, result = _query_counts(stack.store, query)
        ratings = [row["points"].value for row in result]
        assert ratings == sorted(ratings, reverse=True), (
            f"Q3 at {contents} contents is not rating-descending"
        )
        return counts

    store = _top(ladder).store
    _climb(benchmark, ladder, "Q3", measure, flat=FLAT,
           caps={"lookups": 60},
           timed=lambda: Evaluator(store).evaluate(query))


def _pid_near_mole(platform: Platform) -> int:
    located = [item for item in platform.contents() if item.point]
    return min(located, key=lambda item: haversine_km(item.point, MOLE)).pid


def bench_mashup(benchmark, ladder):
    """M1 over 12 pictures: each branch's ``?entType IN (<class>)``
    keys its type scan, so the city branch starts from the 7 cities and
    the attraction branch from the 18 attractions."""

    def measure(contents, stack):
        items = stack.platform.contents()
        pids = [
            item.pid for item in items[::len(items) // MASHUP_PIDS]
        ][:MASHUP_PIDS]
        per_query = [
            _query_counts(stack.store, mashup_query(pid), repeats=1)[0]
            for pid in pids
        ]
        evaluator = Evaluator(stack.store)
        near = run_mashup(evaluator, pid=_pid_near_mole(stack.platform))
        assert near["city"] and near["tourism"], (
            f"M1 near the Mole at {contents} contents has no city or no "
            "tourism section"
        )
        for view in [near, *(run_mashup(evaluator, pid=p) for p in pids)]:
            assert all(
                len(view[kind]) <= 5
                for kind in ("city", "restaurant", "tourism", "ugc")
            ), f"M1 at {contents} contents: a section over its LIMIT 5"
        return {
            name: round(statistics.mean(c[name] for c in per_query), 2)
            for name in per_query[0]
        }

    top = _top(ladder)
    query = mashup_query(_pid_near_mole(top.platform))
    _climb(benchmark, ladder, "M1", measure, flat=FLAT,
           caps={"lookups": 80, "evaluations": 70},
           timed=lambda: Evaluator(top.store).evaluate(query))


def bench_unoptimized_q3(benchmark, ladder):
    """The planner pays for itself, counted: Q3 as lowered
    (``optimize=False``) makes >= 10x the index lookups of the planned
    Q3 at every rung, and both return the same rows."""
    query = rated_album().query

    def measure(contents, stack):
        planned, optimized = _query_counts(stack.store, query)
        lowered, naive = _query_counts(stack.store, query, repeats=1,
                                       optimize=False)
        assert planned["lookups"] * 10 <= lowered["lookups"], (
            f"Q3 at {contents} contents: {planned['lookups']} lookups "
            f"planned vs {lowered['lookups']} lowered — below 10x"
        )
        assert Counter(frozenset(r.items()) for r in optimized) == Counter(
            frozenset(r.items()) for r in naive)
        # ties may order differently; the rating sequence may not
        assert [r["points"].value for r in optimized] == [
            r["points"].value for r in naive
        ]
        return {
            "lookups": planned["lookups"],
            "lookups_lowered": lowered["lookups"],
            "ms": planned["ms"],
            "lowered_ms": lowered["ms"],
        }

    store = _top(ladder).store
    _climb(benchmark, ladder, "Q3 lowered", measure,
           timed=lambda: Evaluator(store).evaluate(query))


def bench_batch_throughput(benchmark, ladder):
    """Batch annotation of the whole catalog (§6): one ``annotate``
    call per item, none failing."""

    def measure(contents, stack):
        items = len(stack.platform.contents())
        batch = BatchAnnotator(stack.platform, Graph(), batch_size=100)
        with counted(SemanticAnnotator, "annotate") as calls:
            began = time.perf_counter()
            stats = batch.run()
            took = time.perf_counter() - began
        assert stats.failed == 0 and len(calls) == stats.processed == items, (
            f"batch at {contents} contents: {len(calls)} annotate calls, "
            f"{stats.failed} failed, for {items} items"
        )
        return {
            "annotate_per_item": len(calls) / items,
            "triples": stats.triples_added,
            "items_per_s": round(items / took),
            "ms": round(took * 1000.0, 1),
        }

    platform = ladder[min(ladder)].platform
    _climb(benchmark, ladder, "BATCH", measure,
           timed=lambda: BatchAnnotator(platform, Graph()).run())


@contextmanager
def _write_path_counts():
    """Counts one write-path step: ``(index lookups of either graph
    kind, contributions recomputed, store commits)``, each a call list."""
    lookups = []
    with counted(Graph, "triples", lookups), \
            counted(SnapshotGraph, "triples", lookups), \
            counted(Platform, "_contribution") as contributions, \
            counted(QuadStore, "commit") as commits:
        yield lookups, contributions, commits


def bench_idle_evaluator(benchmark, ladder):
    """``platform.evaluator()`` with nothing pending only pins the
    store head: no lookup, no contribution, no commit."""

    def measure(contents, stack):
        platform = stack.platform
        generation = platform.evaluator().generation
        with _write_path_counts() as counts:
            for _ in range(10):
                assert platform.evaluator().generation == generation
        made = tuple(len(calls) for calls in counts)
        assert made == (0, 0, 0), (
            f"10 idle evaluator() calls at {contents} contents made "
            "%d lookups, %d contributions and %d commits" % made
        )
        samples = timed_samples(platform.evaluator, 50)
        return {
            "lookups": made[0],
            "contributions": made[1],
            "commits": made[2],
            "us": round(statistics.median(samples) * 1000.0, 2),
        }

    _climb(benchmark, ladder, "idle evaluator", measure,
           timed=_top(ladder).platform.evaluator)


class _HeldFor:
    """Stands in for a store's commit lock and times how long each
    acquisition holds it."""

    def __init__(self, lock) -> None:
        self.lock = lock
        self.held = []

    def __enter__(self) -> None:
        self.lock.acquire()
        self.began = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self.held.append(time.perf_counter() - self.began)
        self.lock.release()


def _checkpoint_batch(index: int) -> WriteBatch:
    batch = WriteBatch()
    for j in range(8):
        batch.insert((URIRef(f"{_DELTA_NS}s{index}"),
                      URIRef(f"{_DELTA_NS}p{j}"), Literal(str(index))),
                     URIRef(_DELTA_NS))
    return batch


def bench_checkpoint(benchmark, ladder, tmp_path_factory):
    """A checkpoint costs its delta: a durable copy of each stack's
    store takes 100 commits of 8 quads, then one checkpoint, which
    serializes no more quads than the delta has ops (the snapshot is the
    last one merged with the sealed WAL). How long the checkpoint holds
    the commit lock is recorded ungated."""
    smallest = min(ladder)
    kept = {}

    def measure(contents, stack):
        directory = tmp_path_factory.mktemp(f"durable-{contents}")
        snapshot_path(directory, stack.store.generation).write_text(
            stack.store.to_nquads(), encoding="utf-8")
        store = QuadStore(directory)
        ops = sum(store.apply(_checkpoint_batch(i).ops)[1]
                  for i in range(COMMITS))
        serialized = []
        store._commit_lock = lock = _HeldFor(store._commit_lock)
        with counted(store_engine, "serialize_quad", serialized), \
                counted(store_wal, "serialize_quad", serialized):
            began = time.perf_counter()
            store.checkpoint()
            took = time.perf_counter() - began
        store._commit_lock = lock.lock
        if contents == smallest:
            kept[contents] = store  # what the timed rounds checkpoint
        else:
            store.close()
        assert len(serialized) <= ops, (
            f"a checkpoint at {contents} contents ({store.size} quads) "
            f"serialized {len(serialized)} quads for a delta of {ops} ops"
        )
        return {
            "quads": store.size,
            "delta_ops": ops,
            "serialized": len(serialized),
            "lock_ms": round(sum(lock.held) * 1000.0, 3),
            "ms": round(took * 1000.0, 1),
        }

    def commit_and_checkpoint(index: int) -> None:
        kept[smallest].commit(_checkpoint_batch(index))
        kept[smallest].checkpoint()

    commits = itertools.count(COMMITS)
    try:
        _climb(benchmark, ladder, "checkpoint", measure,
               timed=lambda: commit_and_checkpoint(next(commits)))
    finally:
        for store in kept.values():
            store.close()


def bench_upload_queryable(benchmark, ladder):
    """Upload -> queryable: a mutation is flushed as one delta commit,
    so an upload is one generation from three contributions (its row,
    annotation and location) at every size, and what it looks up does
    not grow with the corpus."""

    def measure(contents, stack):
        platform, store = stack.platform, stack.store
        # as in a store that serves reads: the commits carry the
        # planner statistics forward, and that is counted too
        store.statistics()
        lookups, samples_ms = [], []
        for capture in stack.next_captures(UPLOADS):
            generation = store.generation
            with _write_path_counts() as (looked_up, contributions, _):
                began = time.perf_counter()
                item = platform.upload(capture)
                evaluator = platform.evaluator()
                samples_ms.append((time.perf_counter() - began) * 1000.0)
            made = (store.generation - generation, len(contributions))
            assert made == (1, 3), (
                f"an upload at {contents} contents made %d generation(s) "
                "from %d contributions" % made
            )
            lookups.append(len(looked_up))
            rows = evaluator.evaluate(_CHECK.format(picture=item.resource))
            assert [row["v"].lexical for row in rows] == [item.media_url]
        return {
            "lookups": statistics.mean(lookups),
            "lookups_max": max(lookups),
            "ms": round(statistics.median(samples_ms), 3),
        }

    top = _top(ladder)
    captures = iter(top.next_captures(UPLOADS))
    _climb(benchmark, ladder, "upload", measure, flat=("lookups",),
           timed=lambda: (top.platform.upload(next(captures)),
                          top.platform.evaluator()))
