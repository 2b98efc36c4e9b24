"""READ PATH — a commit must not rebuild what reads rely on, nor a
repeated query be planned again.

Machine-independent guards, counts not timings (DESIGN.md, "Read
path"), on the smallest stack of the corpus-size ladder; how the
reads themselves grow with the corpus — Q1, Q2, Q3 and M1 — is guarded
by ``bench_ladder.py``:

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

import statistics

from _harness import counted, metered, record, timed_samples
from repro.analysis.plan import QueryPlanner
from repro.core import geo_album
from repro.obs import get_registry
from repro.rdf import GEO
from repro.sparql import Evaluator
from repro.sparql import evaluator as evaluator_module

UPLOADS = 20


def bench_single_scan_latency(benchmark, small_stack):
    """What the upload / mixed workloads' check queries cost: one
    pattern, one incoming solution. Recorded, not gated — the fixed
    price of a step (a list, a generator or two) must stay visible."""
    store = small_stack.store
    subject = next(iter(store.head().triples((None, GEO.geometry, None))))[0]
    query = (
        f"PREFIX geo: <{GEO}>\n"
        f"SELECT ?v WHERE {{ <{subject}> geo:geometry ?v }}"
    )
    evaluator = Evaluator(store)
    assert len(evaluator.evaluate(query)) == 1
    samples_ms, speed_index = metered(
        lambda: timed_samples(lambda: evaluator.evaluate(query), 200)
    )
    entry = record(
        "read_path",
        samples_ms,
        extra={
            "section": "single_scan",
            "median_us": round(statistics.median(samples_ms) * 1000.0, 1),
            "speed_index": speed_index,
        },
    )
    benchmark.extra_info.update(entry["extra"])
    benchmark.pedantic(
        lambda: evaluator.evaluate(query), rounds=50, iterations=1
    )


def bench_upload_rewrites_its_cells_only(benchmark, small_stack):
    platform, store = small_stack.platform, small_stack.store
    rebuilds = get_registry().counter("repro_graph_stats_rebuilds_total")
    before = store.statistics()
    rebuilt_before = rebuilds.value
    worst = (0, 0)
    for capture in small_stack.next_captures(UPLOADS):
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


def bench_repeat_plans_nothing(benchmark, small_stack):
    store = small_stack.store
    query = geo_album().query
    Evaluator(store).evaluate(query)
    with counted(QueryPlanner, "plan") as plans, \
            counted(evaluator_module, "parse_query") as parses:
        for _ in range(10):
            Evaluator(store).evaluate(query)
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
