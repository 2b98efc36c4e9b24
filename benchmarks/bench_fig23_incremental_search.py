"""FIG23 — incremental mobile search (Figures 2–3).

The AJAX search box fires one suggestion query per debounce window; we
measure suggestion latency per prefix length (the user typing "t", "tu",
"tur", ... as in the paper's "Turin" walkthrough), with and without the
geographic ranking the mobile interface applies.
"""

from __future__ import annotations

import pytest

from repro.platform import SearchInterface
from repro.platform.search import LabelIndex
from repro.sparql.geo import Point

USER_POSITION = Point(7.6931, 45.0691)
PREFIXES = ["t", "tu", "tur", "turi", "turin"]


@pytest.fixture(scope="module")
def search(small_platform):
    return SearchInterface(
        small_platform.union_graph(), small_platform.contents()
    )


def bench_suggest_prefix_series(benchmark, search):
    """The full typing session: one query per prefix."""

    def run():
        return [search.suggest(p, limit=10) for p in PREFIXES]

    results = benchmark(run)
    benchmark.extra_info["candidates_per_prefix"] = {
        p: len(r) for p, r in zip(PREFIXES, results)
    }
    # "Turin" must be suggested once the prefix is long enough
    assert any("Turin" in s.label for s in results[-1])


def bench_suggest_with_geo_ranking(benchmark, search):
    def run():
        return search.suggest(
            "mole", user_point=USER_POSITION, limit=10
        )

    suggestions = benchmark(run)
    assert suggestions
    assert any("Mole" in s.label for s in suggestions[:3])


def bench_content_for_selected_resource(benchmark, search,
                                        small_platform):
    """Figure 4's list view: content associated to the tapped result."""
    from repro.rdf import DBPR

    items = benchmark(
        lambda: search.content_for_resource(
            DBPR.Mole_Antonelliana, radius_km=0.3
        )
    )
    benchmark.extra_info["associated_items"] = len(items)


def bench_index_construction(benchmark, small_platform):
    """Cost of collecting the label index from scratch: what the first
    interface on a store pays (later generations carry it)."""
    union = small_platform.union_graph()
    benchmark(lambda: LabelIndex.collect(union))
