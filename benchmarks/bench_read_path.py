"""READ PATH — a geo read must not grow with the corpus, nor a commit
rebuild what reads rely on.

Machine-independent guards, counts not timings (DESIGN.md, "Read
path"):

* ``bench_geo_filter_flat`` — ``bif:st_intersects`` evaluations of one
  geo album (Q1) at 1 600 contents divided by the same at 200 must stay
  <= 2. The larger corpus is scattered over a proportionally larger
  area, so the album's answer stays the same size: what the filter is
  asked about is what the spatial grid hands it, not every geometry in
  the store (8x before the grid — linear in the corpus).
* ``bench_social_album_flat`` — the same for the friend-first albums
  (Q2, Q3), and their index lookups at 1 600 contents must stay <= 60:
  the filter is put to what the grid has around the monument, and a
  scan is looked up once per distinct join key, not once per picture
  of every friend (8.6x and 2 380 / 3 170 lookups before).
* ``bench_mashup_flat`` — the About mashup (M1) over 12 pictures at 200
  and 1 600 contents: per query at 1 600, index lookups must stay
  <= 80 and ``bif:st_intersects`` evaluations <= 70, and the
  evaluations at 1 600 divided by those at 200 <= 2. Each branch's
  ``?entType IN (<class>)`` keys its type scan, so the city branch
  starts from the 7 cities and the attraction branch from the 18
  attractions (197 lookups and 153 evaluations before, 40 and 33
  with it).
* ``bench_upload_rewrites_its_cells_only`` — the grid a commit carries
  forward rewrites at most as many cells as its delta has geometry
  triples, and no statistics pass over the store runs.
* ``bench_repeat_plans_nothing`` — a query repeated against an
  unchanged store generation is parsed and planned zero times.

``bench_single_scan_latency`` records, ungated, what a one-pattern
lookup costs — the fixed price of a step.

Results persist to ``BENCH_read_path.json`` via :mod:`_harness`.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from pathlib import Path

from _harness import record, timed_samples
from repro.analysis.plan import QueryPlanner
from repro.core import geo_album, rated_album, social_album
from repro.core.mashup import mashup_query
from repro.obs import get_registry
from repro.platform import Platform
from repro.rdf import GEO
from repro.sparql import Evaluator
from repro.sparql import evaluator as evaluator_module
from repro.sparql import functions as sparql_functions
from repro.store import QuadStore
from repro.store.engine import SnapshotGraph
from repro.workloads import (
    WorkloadConfig,
    generate_workload,
    populate_platform,
)

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
from e2e_speed import REFERENCE_S, SpeedMeter  # noqa: E402

SMALL, LARGE = 200, 1600
MASHUP_PIDS = 12
UPLOADS = 20
SEED = 7
SCATTER_KM = 1.5  # at SMALL; grows with the corpus to keep its density


def _stack(contents: int):
    """A populated platform attached to a store, its workload, and the
    store. The scatter area grows with the corpus, so a fixed radius
    around a monument holds about as many contents at every size."""
    workload = generate_workload(WorkloadConfig(
        n_users=10, n_contents=contents, seed=SEED,
        scatter_km=SCATTER_KM * math.sqrt(contents / SMALL),
    ))
    platform = Platform()
    populate_platform(platform, workload)
    store = QuadStore(name=f"read-path-{contents}")
    platform.attach_store(store)
    return platform, workload, store


def _count_calls(owner, name: str):
    """Wrap ``owner.name`` with a call counter; returns (calls, undo)."""
    original = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    setattr(owner, name, counting)
    return calls, lambda: setattr(owner, name, original)


def _album_counts(store: QuadStore, query: str):
    """(filter evaluations, index lookups, links, seconds) of one album
    query over ``store``."""
    Evaluator(store).evaluate(query)  # statistics + plan out of the way
    # fn_st_intersects looks the geometry test up in its own module, so
    # counting there leaves FUNCTIONS — and with it the probe — alone
    calls, undo_calls = _count_calls(sparql_functions, "st_intersects")
    lookups, undo_lookups = _count_calls(SnapshotGraph, "triples")
    try:
        began = time.perf_counter()
        links = Evaluator(store).evaluate(query)
        took = time.perf_counter() - began
    finally:
        undo_calls()
        undo_lookups()
    return len(calls), len(lookups), len(links), took


def bench_geo_filter_flat(benchmark):
    _, _, small = _stack(SMALL)
    _, _, large = _stack(LARGE)
    query = geo_album().query
    at_small, _, links_small, _ = _album_counts(small, query)
    at_large, lookups, links_large, took = _album_counts(large, query)
    ratio = at_large / max(1, at_small)

    benchmark.extra_info.update({
        "evaluations_at_200": at_small,
        "evaluations_at_1600": at_large,
        "ratio": round(ratio, 2),
    })
    record(
        "read_path",
        [took * 1000.0],
        extra={
            "section": "geo_filter_flat",
            "contents": [SMALL, LARGE],
            "evaluations": [at_small, at_large],
            "index_lookups_at_1600": lookups,
            "links": [links_small, links_large],
            "geometries": [
                small.statistics().geo_points,
                large.statistics().geo_points,
            ],
            "ratio_1600_over_200": round(ratio, 3),
        },
    )
    assert links_small and links_large, "the album must not be empty"
    assert ratio <= 2.0, (
        f"geo filter evaluations grow with the corpus: {at_large} at "
        f"{LARGE} contents vs {at_small} at {SMALL} ({ratio:.1f}x)"
    )
    benchmark.pedantic(
        lambda: Evaluator(large).evaluate(query), rounds=20, iterations=1
    )


def bench_social_album_flat(benchmark):
    _, workload, small = _stack(SMALL)
    _, _, large = _stack(LARGE)
    # (the same users at both sizes) one whose album is never empty
    friend = next(
        name for name in workload.usernames
        if all(
            len(Evaluator(store).evaluate(
                social_album(friend_of=name).query))
            for store in (small, large)
        )
    )
    for name, album in (("Q2", social_album), ("Q3", rated_album)):
        query = album(friend_of=friend).query
        at_small, _, links_small, _ = _album_counts(small, query)
        at_large, lookups, links_large, took = _album_counts(large, query)
        ratio = at_large / max(1, at_small)
        record(
            "read_path",
            [took * 1000.0],
            extra={
                "section": "social_album_flat",
                "query": name,
                "contents": [SMALL, LARGE],
                "evaluations": [at_small, at_large],
                "index_lookups_at_1600": lookups,
                "links": [links_small, links_large],
                "ratio_1600_over_200": round(ratio, 3),
            },
        )
        benchmark.extra_info.update({
            f"{name}_evaluations": [at_small, at_large],
            f"{name}_index_lookups_at_1600": lookups,
        })
        assert links_small and links_large, "the album must not be empty"
        assert ratio <= 2.0, (
            f"{name}: geo filter evaluations grow with the friends' "
            f"content: {at_large} at {LARGE} contents vs {at_small} at "
            f"{SMALL} ({ratio:.1f}x)"
        )
        assert lookups <= 60, (
            f"{name}: {lookups} index lookups at {LARGE} contents — one "
            "per solution again, not one per distinct join key?"
        )
    benchmark.pedantic(
        lambda: Evaluator(large).evaluate(query), rounds=20, iterations=1
    )


def bench_mashup_flat(benchmark):
    per_size = {}
    for contents in (SMALL, LARGE):
        platform, _, store = _stack(contents)
        items = platform.contents()
        pids = [item.pid for item in items[::len(items) // MASHUP_PIDS]]
        counts = [
            _album_counts(store, mashup_query(pid))
            for pid in pids[:MASHUP_PIDS]
        ]
        per_size[contents] = [
            sum(c[i] for c in counts) / len(counts) for i in range(4)
        ]
    evaluations, lookups, rows, took = per_size[LARGE]
    ratio = evaluations / max(per_size[SMALL][0], 1e-9)
    record(
        "read_path",
        [took * 1000.0],
        extra={
            "section": "mashup_flat",
            "contents": [SMALL, LARGE],
            "pids": MASHUP_PIDS,
            "evaluations_per_query": [
                round(per_size[n][0], 1) for n in (SMALL, LARGE)
            ],
            "index_lookups_per_query": [
                round(per_size[n][1], 1) for n in (SMALL, LARGE)
            ],
            "rows_per_query": [
                round(per_size[n][2], 1) for n in (SMALL, LARGE)
            ],
            "ratio_1600_over_200": round(ratio, 3),
        },
    )
    benchmark.extra_info.update({
        "evaluations_at_1600": round(evaluations, 1),
        "index_lookups_at_1600": round(lookups, 1),
        "ratio": round(ratio, 2),
    })
    assert rows, "the mashup must not be empty"
    assert evaluations <= 70, (
        f"M1: {evaluations:.0f} geo filter evaluations per query at "
        f"{LARGE} contents — every geometry within 1 km again?"
    )
    assert lookups <= 80, (
        f"M1: {lookups:.0f} index lookups per query at {LARGE} contents "
        "— the entity-type IN lists no longer key their scans?"
    )
    assert ratio <= 2.0, (
        f"M1: geo filter evaluations grow with the corpus: "
        f"{evaluations:.0f} at {LARGE} contents vs "
        f"{per_size[SMALL][0]:.0f} at {SMALL} ({ratio:.1f}x)"
    )
    benchmark.pedantic(
        lambda: Evaluator(store).evaluate(mashup_query(pids[0])),
        rounds=20, iterations=1,
    )


def bench_single_scan_latency(benchmark):
    """What the upload / mixed workloads' check queries cost: one
    pattern, one incoming solution. Recorded, not gated — the fixed
    price of a step (a list, a generator or two) must stay visible."""
    _, _, store = _stack(SMALL)
    subject = next(iter(store.head().triples((None, GEO.geometry, None))))[0]
    query = (
        f"PREFIX geo: <{GEO}>\n"
        f"SELECT ?v WHERE {{ <{subject}> geo:geometry ?v }}"
    )
    evaluator = Evaluator(store)
    assert len(evaluator.evaluate(query)) == 1
    meter = SpeedMeter()
    meter.sample()
    samples_ms = timed_samples(lambda: evaluator.evaluate(query), 200)
    meter.sample()
    speed_index = statistics.mean(meter.samples) / REFERENCE_S
    entry = record(
        "read_path",
        samples_ms,
        extra={
            "section": "single_scan",
            "median_us": round(statistics.median(samples_ms) * 1000.0, 1),
            "speed_index": round(speed_index, 2),
        },
    )
    benchmark.extra_info.update(entry["extra"])
    benchmark.pedantic(
        lambda: evaluator.evaluate(query), rounds=50, iterations=1
    )


def bench_upload_rewrites_its_cells_only(benchmark):
    platform, base, store = _stack(SMALL)
    extra = generate_workload(WorkloadConfig(
        n_users=10, n_contents=UPLOADS, seed=SEED + 1,
        start_timestamp=base.captures[-1].timestamp,
    ))
    rebuilds = get_registry().counter("repro_graph_stats_rebuilds_total")
    before = store.statistics()
    rebuilt_before = rebuilds.value
    worst = (0, 0)
    for capture in extra.captures:
        old_head = store.head()
        platform.upload(capture)
        platform.evaluator()  # flushes the upload as one commit
        after = store.statistics()
        old = set(old_head.triples((None, GEO.geometry, None)))
        new = set(store.head().triples((None, GEO.geometry, None)))
        delta = len(old ^ new)
        cells = set(before.geo_grid) | set(after.geo_grid)
        rewritten = sum(
            1 for cell in cells
            if after.geo_grid.get(cell) is not before.geo_grid.get(cell)
        )
        assert rewritten <= delta, (
            f"a commit with {delta} geometry triple(s) rewrote "
            f"{rewritten} grid cell(s)"
        )
        worst = max(worst, (rewritten, delta))
        before = after
    assert rebuilds.value == rebuilt_before, (
        "statistics were re-collected instead of carried by the commits"
    )
    benchmark.extra_info["cells_rewritten_max"] = worst[0]
    record(
        "read_path",
        [0.0],
        extra={
            "section": "upload_cells",
            "uploads": UPLOADS,
            "cells_rewritten_max": worst[0],
            "geometry_triples_in_that_delta": worst[1],
            "occupied_cells": len(before.geo_grid),
        },
    )
    benchmark.pedantic(store.statistics, rounds=20, iterations=1)


def bench_repeat_plans_nothing(benchmark):
    _, _, store = _stack(SMALL)
    query = geo_album().query
    Evaluator(store).evaluate(query)
    plans, undo_plan = _count_calls(QueryPlanner, "plan")
    parses, undo_parse = _count_calls(evaluator_module, "parse_query")
    try:
        for _ in range(10):
            Evaluator(store).evaluate(query)
    finally:
        undo_plan()
        undo_parse()
    benchmark.extra_info.update({"plans": len(plans), "parses": len(parses)})
    record(
        "read_path",
        [0.0],
        extra={
            "section": "repeat", "repeats": 10,
            "plans": len(plans), "parses": len(parses),
        },
    )
    assert not plans and not parses, (
        f"10 repeats of one query on one generation planned "
        f"{len(plans)} and parsed {len(parses)} time(s)"
    )
    benchmark.pedantic(
        lambda: Evaluator(store).evaluate(query), rounds=20, iterations=1
    )
