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
  2``, stays <= :data:`GROWTH` (0 is flat, 1 linear in the corpus), or
  <= :data:`LEVEL` for the work of one interactive page or keystroke;
* where the code promises a number, the number: a cap at the top rung
  or an exact value at every rung.

The rungs: a fully-bound index lookup (STORE); the virtual albums Q1,
Q2 and Q3 (§2.3) and the About mashup M1 (§4.1), their evaluations,
lookups and context segment reads counted on the first ask after a
commit (a grid probe is answered once per generation, and so is each
geometry a probed scan tests on the index path: a second ask makes no
evaluation answering one, ``warm_probe_evaluations``, and none at all,
``warm_evaluations``; the first ask's time, ``cold_ms``, is printed
next to the repeated ask's ``ms``); M1 and Q2 texts never
seen before, each after a commit (M1 fresh); Q3 without the planner's
rewrites; a page of the web interface's content browsing (BROWSE, §3);
the search box's label index and suggestions (SEARCH, Figures 2–3);
batch annotation (§6); ``platform.evaluator()`` with
nothing pending; a checkpoint of a durable copy of the store after 100
small commits; the bulk LODification of a freshly populated platform,
``attach_store`` (§6's batch processing; in a process of its own, so
its peak RSS is its own); upload -> queryable, last, because it adds
to the stacks.
Rows and timings are recorded ungated, next to the end-to-end
benchmark's speed index, in ``BENCH_ladder.json`` via :mod:`_harness`;
each rung also prints one line per value with its growth exponent.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Dict, Sequence

from _harness import counted, metered, record, timed_samples
from conftest import ladder_workload
from e2e_workloads import SEARCH_PREFIXES
from repro.analysis import stats as stats_module
from repro.analysis.plan import QueryPlanner
from repro.analysis.stats import GraphStatistics
from repro.core import BatchAnnotator, geo_album, rated_album, social_album
from repro.core.annotator import SemanticAnnotator, build_default_annotator
from repro.core.filtering import SemanticFilter
from repro.core.mashup import mashup_query, run_mashup
from repro.platform import Platform, SearchInterface, WebInterface
from repro.platform.models import ContentItem
from repro.platform.search import LABEL_PREDICATES, LabelIndex
from repro.rdf import Graph, Literal, URIRef
from repro.resolvers import (
    DBpediaResolver,
    GeonamesResolver,
    SemanticBroker,
    SindiceResolver,
)
from repro.sparql import Evaluator
from repro.sparql import evaluator as evaluator_module
from repro.sparql import functions as sparql_functions
from repro.sparql.geo import Point, haversine_km
from repro.sparql.parser import parse_query
from repro.store import QuadStore, WriteBatch
from repro.store import engine as store_engine
from repro.store import wal as store_wal
from repro.store.engine import SnapshotGraph
from repro.store.persistence import snapshot_path
from repro.workloads import populate_platform

#: Largest growth exponent a guarded count may show over the ladder:
#: a count may grow 4.6x over 100x the corpus (2x over 8x).
GROWTH = 0.33
#: Largest growth exponent of the work one browse page or one keystroke
#: does: 1.6x over 100x the corpus.
LEVEL = 0.1
FLAT = ("evaluations", "lookups")
#: A second ask on one generation finds every grid probe answered and
#: every geometry the index path tested (an M1 branch whose type scan
#: has fewer rows than the grid candidates) known: it evaluates
#: nothing, answering a probe or at all.
WARM = {"warm_evaluations": 0, "warm_probe_evaluations": 0}
PROBES = 1_000
RADII = (0.2, 0.3, 1.0, 5.0)
MASHUP_PIDS = 12
#: Friend names Q2 is asked for by the fresh-text rung: the users, then
#: names no user has.
FRIENDS = 20
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
           level: Sequence[str] = (),
           caps: Dict[str, float] = {},
           exact: Dict[str, float] = {}) -> None:
    """Run ``measure(contents, stack) -> {name: value}`` on every stack
    between two passes of the speed meter; record and print every value
    with its growth exponent; guard the ``flat`` exponents (<=
    :data:`GROWTH`), the ``level`` ones (<= :data:`LEVEL`), the ``caps``
    at the top rung and the ``exact`` values at every rung; then time
    ``timed`` with pytest-benchmark."""
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
    for names, bound in ((flat, GROWTH), (level, LEVEL)):
        for name in names:
            assert exponents[name] <= bound, (
                f"{rung}: {name} grows with the corpus, {extra[name]} at "
                f"{sizes} contents (exponent {exponents[name]:.2f} > "
                f"{bound})"
            )
    for name, cap in caps.items():
        assert table[sizes[-1]][name] <= cap, (
            f"{rung}: {table[sizes[-1]][name]:g} {name} at {sizes[-1]} "
            f"contents, over the cap of {cap}"
        )
    for name, value in exact.items():
        assert extra[name] == [value] * len(sizes), (
            f"{rung}: {name} is {extra[name]} at {sizes} contents, "
            f"not {value}"
        )
    benchmark.pedantic(timed, rounds=20, iterations=1)


def _query_counts(store: QuadStore, query: str, repeats: int = 5,
                  **options):
    """``({evaluations, warm_evaluations, warm_probe_evaluations,
    lookups, segment_reads, rows, ms, cold_ms}, result)`` of ``query``
    over ``store``: the filter evaluations, index lookups and reads of
    a context's segments (ungated) of the first run after a commit,
    with the plan warmed and no grid probe answered on the new
    generation yet; the evaluations of a second run on that
    generation, all of them and those made answering grid probes; the
    median time of ``repeats`` runs on one generation; and the median
    time of ``repeats`` first runs, each after a commit of its own
    (ungated)."""
    Evaluator(store, **options).evaluate(query)
    _fresh_generation(store)
    # st_intersects is looked up in its own module at every call, so
    # counting there leaves the function table — and the probe — alone;
    # a segment is a frozen Graph, whose triples SnapshotGraph overrides
    with counted(sparql_functions, "st_intersects") as evaluations, \
            counted(SnapshotGraph, "triples") as lookups, \
            counted(Graph, "triples") as segment_reads:
        result = Evaluator(store, **options).evaluate(query)
    with counted(sparql_functions, "st_intersects") as warm, \
            _made_inside(Evaluator, "_grid_hits", warm) as in_probes:
        Evaluator(store, **options).evaluate(query)
    samples = timed_samples(
        lambda: Evaluator(store, **options).evaluate(query), repeats
    )
    cold = []
    for _ in range(repeats):
        _fresh_generation(store)
        cold += timed_samples(
            lambda: Evaluator(store, **options).evaluate(query), 1
        )
    return {
        "evaluations": len(evaluations),
        "warm_evaluations": len(warm),
        "warm_probe_evaluations": sum(in_probes),
        "lookups": len(lookups),
        "segment_reads": len(segment_reads),
        "rows": len(result),
        "ms": round(statistics.median(samples), 3),
        "cold_ms": round(statistics.median(cold), 3),
    }, result


@contextmanager
def _made_inside(owner, name: str, calls: list):
    """Per call of ``owner.<name>`` while the block runs, how many
    entries ``calls`` gained during it."""
    original = getattr(owner, name)
    made: list = []

    def measuring(*args, **kwargs):
        before = len(calls)
        try:
            return original(*args, **kwargs)
        finally:
            made.append(len(calls) - before)

    setattr(owner, name, measuring)
    try:
        yield made
    finally:
        setattr(owner, name, original)


def _fresh_generation(store: QuadStore) -> None:
    """Two commits that leave the triples as they were: the head is a
    new generation whose statistics have answered no grid probe."""
    scratch = URIRef(_DELTA_NS + "generation")
    store.insert((scratch, scratch, scratch), scratch)
    store.remove((scratch, None, None), scratch)


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
    _climb(benchmark, ladder, "Q1", measure, flat=FLAT, exact=WARM,
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
    _climb(benchmark, ladder, "Q2", measure, flat=FLAT, exact=WARM,
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
    _climb(benchmark, ladder, "Q3", measure, flat=FLAT, exact=WARM,
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
    _climb(benchmark, ladder, "M1", measure, flat=FLAT, exact=WARM,
           caps={"lookups": 80, "evaluations": 70},
           timed=lambda: Evaluator(top.store).evaluate(query))


@contextmanager
def _cold_caches():
    """The prepared-query caches emptied for the block (they are
    process-wide, and a shape prepared at one rung would be found at
    the next), then put back."""
    saved = evaluator_module._TEXTS, evaluator_module._SHAPES
    evaluator_module._TEXTS, evaluator_module._SHAPES = {}, {}
    try:
        yield
    finally:
        evaluator_module._TEXTS, evaluator_module._SHAPES = saved


def _fresh_texts(store: QuadStore, texts: Sequence[str]):
    """``(parses, plans, median ms)`` of ``texts`` run one by one, each
    after a commit of its own, on cold caches; each must return the
    rows of its literal text planned on that generation."""
    scratch = URIRef(_DELTA_NS + "fresh")
    parsed = [parse_query(text) for text in texts]
    samples = []
    with _cold_caches(), \
            counted(evaluator_module, "parse_query") as parses, \
            counted(QueryPlanner, "plan") as plans:
        for index, text in enumerate(texts):
            store.insert((scratch, scratch, Literal(index)), scratch)
            began = time.perf_counter()
            rows = Evaluator(store).evaluate(text)
            samples.append((time.perf_counter() - began) * 1000.0)
            planner = QueryPlanner(stats=store.statistics())
            expected = Evaluator(store, planner=planner).evaluate(
                parsed[index])
            assert list(rows) == list(expected), text
    store.remove((scratch, None, None), scratch)
    # (less the plans of the check)
    return (len(parses), len(plans) - len(texts),
            round(statistics.median(samples), 3))


def bench_fresh_texts(benchmark, ladder):
    """M1 FRESH: 12 mashups of pictures never asked about and Q2 for 20
    friend names, each after a commit, are parsed once and planned once
    per query at every size — every text of a shape runs the shape's
    one plan with its own constants read through its slots, and the
    plan is kept across commits that leave its counts alone (parsing
    and planning every text would read 12 / 12 and 20 / 20).
    Parse, plan and execution times of M1 are printed ungated."""

    def measure(contents, stack):
        store = stack.store
        items = stack.platform.contents()
        pids = [item.pid for item in items[1::len(items) // MASHUP_PIDS]]
        friends = list(stack.workload.usernames)
        friends += [f"nobody{n}" for n in range(FRIENDS - len(friends))]
        m1 = _fresh_texts(
            store, [mashup_query(p) for p in pids[:MASHUP_PIDS]]
        )
        q2 = _fresh_texts(store, [
            social_album(friend_of=friend).query for friend in friends
        ])
        assert (m1[:2], q2[:2]) == ((1, 1), (1, 1)), (
            f"at {contents} contents, 12 fresh M1 texts were parsed / "
            f"planned {m1[:2]} times, 20 fresh Q2 texts {q2[:2]} times "
            "(1 / 1 each)"
        )
        text = mashup_query(pids[0])
        parsed = parse_query(text)
        planner = QueryPlanner(stats=store.statistics())
        Evaluator(store).evaluate(text)

        def median(fn) -> float:
            return round(statistics.median(timed_samples(fn)), 3)

        return {
            "m1_parses": m1[0], "m1_plans": m1[1], "q2_parses": q2[0],
            "q2_plans": q2[1],
            "m1_fresh_ms": m1[2],
            "q2_fresh_ms": q2[2],
            "m1_parse_ms": median(lambda: parse_query(text)),
            "m1_plan_ms": median(lambda: planner.plan(parsed)),
            "m1_repeat_ms": median(
                lambda: Evaluator(store).evaluate(text)),
        }

    top = _top(ladder)
    texts = itertools.cycle(
        mashup_query(item.pid) for item in top.platform.contents()[:50]
    )
    _climb(benchmark, ladder, "M1 fresh", measure,
           timed=lambda: Evaluator(top.store).evaluate(next(texts)))


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


@contextmanager
def _triples_yielded():
    """Counts the triples ``SnapshotGraph.triples`` yields while the
    block runs; yields the list that grows by one entry per triple."""
    original = SnapshotGraph.triples
    triples = []

    def yielding(self, pattern=(None, None, None)):
        for triple in original(self, pattern):
            triples.append(1)
            yield triple

    SnapshotGraph.triples = yielding
    try:
        yield triples
    finally:
        SnapshotGraph.triples = original


@contextmanager
def _reindexed():
    """Counts the label triples the commits of the block re-index: the
    literal label triples of each delta ``LabelIndex.apply_delta`` is
    handed, plus the triples it reads from the graph. Yields that list
    and the list of each carry's seconds."""
    original = LabelIndex.apply_delta
    read, spent = [], []

    def counting(self, added, removed, *args, **kwargs):
        read.extend(
            1 for _, p, o in itertools.chain(added, removed)
            if p in LABEL_PREDICATES and isinstance(o, Literal)
        )
        with _triples_yielded() as triples:
            began = time.perf_counter()
            view = original(self, added, removed, *args, **kwargs)
            spent.append(time.perf_counter() - began)
        read.extend(triples)
        return view

    LabelIndex.apply_delta = counting
    try:
        yield read, spent
    finally:
        LabelIndex.apply_delta = original


def _next_generation(stack):
    """``(triples read to build an interface on the head after one
    upload commit, label triples that commit re-indexed, milliseconds
    it spent carrying the label index)``; the upload is deleted again
    afterwards, so later rungs see the same corpus."""
    platform = stack.platform
    with _reindexed() as (reindexed, spent):
        item = platform.upload(stack.next_captures(1)[0])
        platform.evaluator()  # one commit, carrying the label index
    assert len(spent) == 1, f"{len(spent)} label carries for one upload"
    union, contents = platform.union_graph(), platform.contents()
    with _triples_yielded() as read:
        search = SearchInterface(union, contents)
    entry = search.labels.entries.get(item.resource)
    assert entry is not None and entry.label == item.title, (
        f"the upload {item.title!r} is not in the next head's index"
    )
    platform.delete_content(item.pid)
    platform.evaluator()
    return len(read), len(reindexed), spent[0] * 1000.0


def _label_kb(union) -> float:
    """The kilobytes a :class:`LabelIndex` of ``union`` holds, under
    ``tracemalloc``: a collection of its own, apart from the timed
    one."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        labels = LabelIndex.collect(union)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
        del labels  # alive until measured
    finally:
        tracemalloc.stop()
    return round(kept / 1024.0, 1)


@contextmanager
def _items_visited():
    """Collects the ids of the content items whose fields are read while
    the block runs."""
    visited = set()

    def reading(self, name):
        visited.add(id(self))
        return object.__getattribute__(self, name)

    ContentItem.__getattribute__ = reading
    try:
        yield visited
    finally:
        del ContentItem.__getattribute__


def bench_browse(benchmark, ladder):
    """BROWSE (§3, content browsing): the items one page of 10 visits —
    whose fields ``browse`` reads, plus those it returns — newest first
    and top-rated (page 3 each) and one owner's newest page, level with
    the corpus: a page is a slice of an ordered view, not a sort of every
    content. Page times are printed ungated."""
    webs = {}

    def measure(contents, stack):
        web = webs[contents] = WebInterface(stack.platform)
        pages = {
            "newest_items": {"page": 3},
            "top_rated_items": {"page": 3, "order": "top-rated"},
            "owner_items": {"owner": stack.workload.usernames[0]},
        }
        row = {}
        for name, request in pages.items():
            with _items_visited() as visited:
                page = web.browse(**request)
            visited.update(id(item) for item in page.items)
            assert len(page.items) == min(10, page.total), (name, page)
            row[name] = len(visited)
        samples = timed_samples(
            lambda: [web.browse(**request) for request in pages.values()],
            5)
        row["browse_us"] = round(
            statistics.median(samples) * 1000.0 / len(pages), 1)
        return row

    _climb(benchmark, ladder, "BROWSE", measure,
           level=("newest_items", "top_rated_items", "owner_items"),
           timed=lambda: webs[max(ladder)].browse(page=3))


@contextmanager
def _scored():
    """Counts the candidates ``SearchInterface.suggest`` scores while the
    block runs; yields the list that grows by one entry per score."""
    original = SearchInterface._prefix_score
    calls = []

    def scoring(lowered, tokens):
        calls.append(1)
        return original(lowered, tokens)

    SearchInterface._prefix_score = staticmethod(scoring)
    try:
        yield calls
    finally:
        SearchInterface._prefix_score = staticmethod(original)


def bench_search(benchmark, ladder):
    """SEARCH (Figures 2–3): the label index is collected from the label
    triples and nothing else, once — a commit carries it to the next
    generation, re-indexing only the label triples it adds or removes
    (an upload's title: 1, flat in the corpus), so building an interface
    on the head after an upload reads 0 triples — and a keystroke is answered
    from the index alone: 0 graph lookups per warm ``suggest`` over the
    end-to-end benchmark's eight prefixes. A prefix's candidates are
    printed ungated: the walk stops at the first token that brings them
    to 200, and at 10⁴ contents one token ("mole") names about 950
    content items. The candidates a keystroke scores stay level with the
    corpus: ``suggest`` scores the first class and reads the others in
    ``str`` order only until the top 10 is decided. Build and suggest
    times, the upload commit's label carry time and the kilobytes a
    label index holds (a second collection, under ``tracemalloc``) are
    printed ungated."""
    built = {}

    def measure(contents, stack):
        union = stack.platform.union_graph()
        labels = sum(1 for _, p, _ in union if p in LABEL_PREDICATES)
        # a collection, whatever the session cached: what the first
        # interface on a store pays
        with _triples_yielded() as read:
            began = time.perf_counter()
            LabelIndex.collect(union)
            build_ms = (time.perf_counter() - began) * 1000.0
        assert len(read) == labels, (
            f"the search index at {contents} contents read {len(read)} "
            f"triples for {labels} label triples"
        )
        search = built[contents] = SearchInterface(
            union, stack.platform.contents()
        )
        label_kb = _label_kb(union)
        next_reads, reindexed, carry_ms = _next_generation(stack)
        assert next_reads == 0, (
            f"an interface on the head after an upload at {contents} "
            f"contents read {next_reads} triples (0 expected)"
        )
        for prefix in SEARCH_PREFIXES:
            search.suggest(prefix)
        with counted(SnapshotGraph, "triples") as lookups, \
                _scored() as scored:
            for prefix in SEARCH_PREFIXES:
                search.suggest(prefix)
        assert not lookups, (
            f"{len(lookups)} graph lookups for {len(SEARCH_PREFIXES)} warm "
            f"suggestions at {contents} contents (0 expected)"
        )
        candidates = [
            len(search.labels.index.search_prefix(prefix, limit=200))
            for prefix in SEARCH_PREFIXES
        ]
        samples = timed_samples(
            lambda: [search.suggest(p) for p in SEARCH_PREFIXES], 5)
        return {
            "label_triples": labels,
            "build_reads": len(read),
            "next_build_reads": next_reads,
            "reindexed": reindexed,
            "lookups": len(lookups),
            "candidates_max": max(candidates),
            "scored_per_keystroke": len(scored) / len(SEARCH_PREFIXES),
            "build_ms": round(build_ms, 2),
            "label_kb": label_kb,
            "carry_ms": round(carry_ms, 3),
            "suggest_us": round(
                statistics.median(samples) * 1000.0 / len(SEARCH_PREFIXES),
                1),
        }

    prefixes = itertools.cycle(SEARCH_PREFIXES)
    _climb(benchmark, ladder, "SEARCH", measure, flat=("reindexed",),
           level=("scored_per_keystroke",),
           timed=lambda: built[max(ladder)].suggest(next(prefixes)))


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


#: The resolvers that answer a (word, language) from the corpus alone.
TERM_RESOLVERS = (DBpediaResolver, GeonamesResolver, SindiceResolver)


def _asking(asked: set, method: Callable, key: Callable) -> Callable:
    """``method`` recording ``key(self, *args)`` in ``asked`` per call."""
    def asking(self, *args, **kwargs):
        asked.add((id(self), *key(*args, **kwargs)))
        return method(self, *args, **kwargs)
    return asking


def _attach_counts(contents: int) -> Dict[str, float]:
    """The stack of ``contents`` contents populated afresh and attached
    to a fresh store: per term resolver, its evaluations per distinct
    ``(word, language)`` asked of one instance; the annotator's stage-1
    evaluations per distinct ``(title, language)`` and the filter's
    evaluations per distinct ``(word, candidates)``; the triples added
    to any graph before the store's commit; the quads, the memo entries,
    the attach's time and the process's peak RSS; then the bytes the
    memos hold, under ``tracemalloc``, after the peak was read."""
    platform = Platform()
    populate_platform(platform, ladder_workload(contents))
    asked = {cls: set() for cls in TERM_RESOLVERS}
    texts, verdicts = set(), set()
    copied, at_commit = [], []
    commit = QuadStore.commit

    def committing(self, batch):
        at_commit.append(len(copied))
        return commit(self, batch)

    with ExitStack() as counts:
        evaluated = {
            cls: counts.enter_context(counted(cls, "_resolve_term"))
            for cls in TERM_RESOLVERS
        }
        text_stages = counts.enter_context(
            counted(SemanticAnnotator, "_text_stage"))
        rules = counts.enter_context(counted(SemanticFilter, "_apply_rules"))
        counts.enter_context(counted(Graph, "add", copied))
        asks = [(cls, "resolve_term", asked[cls],
                 lambda word, language=None, *rest: (word, language, *rest))
                for cls in TERM_RESOLVERS]
        asks.append((SemanticAnnotator, "annotate", texts,
                     lambda title, tags=(), language=None: (title, language)))
        asks.append((SemanticFilter, "filter_word", verdicts,
                     lambda word, candidates: (word, tuple(candidates))))
        for owner, name, keys, key in asks:
            method = getattr(owner, name)
            counts.callback(setattr, owner, name, method)
            setattr(owner, name, _asking(keys, method, key))
        QuadStore.commit = committing
        counts.callback(setattr, QuadStore, "commit", commit)
        store = QuadStore(name=f"attach-{contents}")
        began = time.perf_counter()
        platform.attach_store(store)
        took = time.perf_counter() - began
    annotator = platform.annotator
    row: Dict[str, float] = {
        f"{cls.name}_evals_per_pair": round(
            len(evaluated[cls]) / max(len(asked[cls]), 1), 3)
        for cls in TERM_RESOLVERS
    }
    row.update({
        "text_evals_per_input": round(
            len(text_stages) / max(len(texts), 1), 3),
        "filter_evals_per_input": round(
            len(rules) / max(len(verdicts), 1), 3),
        "pairs": len(asked[DBpediaResolver]),
        "copied_before_commit": at_commit[0],
        "quads": store.size,
        "memo_entries": sum(len(memo) for memo in _term_memos(annotator)),
        "text_memo_entries": len(annotator._texts),
        "filter_memo_entries": len(annotator.filter._outcomes),
        "ms": round(took * 1000.0, 1),
        "peak_rss_mb": _peak_rss_mb(),
        "memo_kb": _memo_kb(platform),
    })
    return row


def _term_memos(annotator: SemanticAnnotator) -> list:
    """The memos of an annotator's term resolvers."""
    return [
        resolver._memo for resolver in annotator.broker.resolvers
        if isinstance(resolver, TERM_RESOLVERS)
    ]


def _memos(annotator: SemanticAnnotator) -> list:
    """Every memo an annotator asks: its text stage's, its filter's and
    its term resolvers'."""
    return [annotator._texts, annotator.filter._outcomes,
            *_term_memos(annotator)]


def _memo_kb(platform: Platform) -> float:
    """The kilobytes an annotator's memos hold once they have seen every
    content of ``platform``, under ``tracemalloc``. A fresh annotator
    finds the inputs that add a memo entry; a second one, built before
    ``tracemalloc`` starts, annotates only those (what the others ask is
    already kept by then, so its memos end up the same); what that
    leaves allocated is what its memos keep."""
    inputs = dict.fromkeys(
        (item.title, tuple(item.plain_tags)) for item in platform.contents()
    )
    finder, filling = build_default_annotator(platform.corpus), []
    for title, tags in inputs:
        entries = sum(len(memo) for memo in _memos(finder))
        finder.annotate(title, tags)
        if sum(len(memo) for memo in _memos(finder)) > entries:
            filling.append((title, tags))
    fresh = build_default_annotator(platform.corpus)
    for language in fresh.detector.languages:
        fresh._analyzer(language)  # built once per annotator, not kept
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for title, tags in filling:
            fresh.annotate(title, tags)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [len(memo) for memo in _memos(fresh)] == [
        len(memo) for memo in _memos(finder)]
    return round(kept / 1024.0, 1)


def _peak_rss_mb() -> float:
    """This process image's peak RSS (Linux ``VmHWM``, which starts
    afresh at exec; ``ru_maxrss`` would carry the peak of the process
    that forked it); NaN where there is no ``/proc``."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except FileNotFoundError:
        pass
    return math.nan


def bench_attach_store(benchmark, ladder):
    """Bulk LODification pays once per distinct input and once per
    triple: a freshly populated platform attached to a fresh store asks
    each term resolver for one evaluation per distinct (word, language)
    pair, the annotator for one stage-1 evaluation per distinct (title,
    language) and its filter for one per distinct (word, candidates),
    and copies no triple into a graph before the store's one commit.
    Each size runs in a child process, so the peak RSS printed (ungated,
    with the time, the memo entries and the memos' bytes) is that
    populate and attach's alone."""
    source = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(source), os.environ.get("PYTHONPATH")))))

    def measure(contents, stack):
        child = subprocess.run(
            [sys.executable, __file__, "attach", str(contents)],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(child.stdout.splitlines()[-1])

    platform = Platform()
    populate_platform(platform, ladder_workload(min(ladder)))
    _climb(benchmark, ladder, "attach_store", measure,
           exact={"copied_before_commit": 0, "text_evals_per_input": 1,
                  "filter_evals_per_input": 1, **{
                      f"{cls.name}_evals_per_pair": 1
                      for cls in TERM_RESOLVERS}},
           timed=lambda: platform.attach_store(QuadStore()))


@contextmanager
def _upload_layers(corpus):
    """Attributes one upload: yields ``(layers, probes)``, ``layers``
    holding the lookups made on each LOD graph of ``corpus``
    (``"corpus"``, by graph), the distinct (s, p) plus (p, o) pairs of
    the deltas the planner statistics were carried over (``"pairs"``)
    and the seconds spent in the resolver broker (``"resolve_s"``);
    ``probes`` is the statistics' membership probes, a call list."""
    graphs = {
        id(corpus.dbpedia): "dbpedia",
        id(corpus.geonames): "geonames",
        id(corpus.linkedgeodata): "linkedgeodata",
    }
    layers = {"corpus": Counter(), "pairs": 0, "resolve_s": 0.0}
    triples = Graph.triples
    apply_delta = GraphStatistics.apply_delta
    resolve = SemanticBroker.resolve

    def reading(self, *args, **kwargs):
        if id(self) in graphs:
            layers["corpus"][graphs[id(self)]] += 1
        return triples(self, *args, **kwargs)

    def carrying(self, added, removed, *args, **kwargs):
        delta = list(added) + list(removed)
        layers["pairs"] += len({(s, p) for s, p, _ in delta}) + len(
            {(p, o) for _, p, o in delta}
        )
        return apply_delta(self, added, removed, *args, **kwargs)

    def resolving(self, *args, **kwargs):
        began = time.perf_counter()
        try:
            return resolve(self, *args, **kwargs)
        finally:
            layers["resolve_s"] += time.perf_counter() - began

    Graph.triples = reading
    GraphStatistics.apply_delta = carrying
    SemanticBroker.resolve = resolving
    try:
        with counted(stats_module, "_has") as probes:
            yield layers, probes
    finally:
        Graph.triples = triples
        GraphStatistics.apply_delta = apply_delta
        SemanticBroker.resolve = resolve


def bench_upload_queryable(benchmark, ladder):
    """Upload -> queryable: a mutation is flushed as one delta commit,
    so an upload is one generation from three contributions (its row,
    annotation and location) at every size, and what it looks up does
    not grow with the corpus. Attributed per upload: lookups on the LOD
    graphs (the Geonames resolver answers from its name table: 0 on
    Geonames at every size), the planner statistics' membership probes
    (one per distinct (s, p) / (p, o) pair of the delta at most: the
    delta answers the other side) and the resolver broker's time
    (printed, not gated; measured under the counters)."""

    def measure(contents, stack):
        platform, store = stack.platform, stack.store
        # as in a store that serves reads: the commits carry the
        # planner statistics forward, and that is counted too
        store.statistics()
        lookups, samples_ms = [], []
        corpus_reads, geonames_reads, probed, resolve_ms = [], [], [], []
        for capture in stack.next_captures(UPLOADS):
            generation = store.generation
            with _write_path_counts() as (looked_up, contributions, _), \
                    _upload_layers(platform.corpus) as (layers, probes):
                began = time.perf_counter()
                item = platform.upload(capture)
                evaluator = platform.evaluator()
                samples_ms.append((time.perf_counter() - began) * 1000.0)
            made = (store.generation - generation, len(contributions))
            assert made == (1, 3), (
                f"an upload at {contents} contents made %d generation(s) "
                "from %d contributions" % made
            )
            assert len(probes) <= layers["pairs"], (
                f"an upload at {contents} contents probed {len(probes)} "
                f"times for a delta of {layers['pairs']} (s, p) / (p, o) "
                "pairs"
            )
            lookups.append(len(looked_up))
            corpus_reads.append(sum(layers["corpus"].values()))
            geonames_reads.append(layers["corpus"]["geonames"])
            probed.append(len(probes))
            resolve_ms.append(layers["resolve_s"] * 1000.0)
            rows = evaluator.evaluate(_CHECK.format(picture=item.resource))
            assert [row["v"].lexical for row in rows] == [item.media_url]
        return {
            "lookups": statistics.mean(lookups),
            "lookups_max": max(lookups),
            "corpus_reads": statistics.mean(corpus_reads),
            "geonames_reads": max(geonames_reads),
            "stats_probes": statistics.mean(probed),
            "resolve_ms": round(statistics.median(resolve_ms), 3),
            "ms": round(statistics.median(samples_ms), 3),
        }

    top = _top(ladder)
    captures = iter(top.next_captures(UPLOADS))
    _climb(benchmark, ladder, "upload", measure, flat=("lookups",),
           exact={"geonames_reads": 0},
           timed=lambda: (top.platform.upload(next(captures)),
                          top.platform.evaluator()))


if __name__ == "__main__":
    # the child process of bench_attach_store: ``attach <contents>``
    print(json.dumps(_attach_counts(int(sys.argv[2]))))
