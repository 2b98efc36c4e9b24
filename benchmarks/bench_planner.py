"""Planner ablation: Q1-Q3 with the static optimizer on vs. off.

Every benchmark first asserts that the optimized and naive paths return
byte-identical result rows, then times one of the two. The Q3 guard
also counts the ``triples`` calls one query makes on the union graph,
and requires the naive plan to make at least 10x as many as the
optimized one at every size — the planner must pay for itself, counted
rather than timed. Measured (optimized vs naive): 18 vs 355 calls at
100 contents, 51 vs 3 236 at 1 000, 46-49 vs 15 370 at 5 000 (the
optimized count moves with the process's string-hash order); the
naive / optimized wall-time ratio read 7.5-8x, 19-21x and 38-48x there
and is recorded ungated.
"""

from __future__ import annotations

import pytest

from _harness import record, timed_samples
from repro.core import geo_album, rated_album, social_album
from repro.sparql import Evaluator

ALBUMS = [
    pytest.param("Q1", geo_album, id="Q1"),
    pytest.param("Q2", social_album, id="Q2"),
    pytest.param("Q3", rated_album, id="Q3"),
]


def _rows(result):
    return sorted(
        tuple(sorted((str(k), str(v)) for k, v in row.items()))
        for row in result
    )


def _prime(graph):
    """Collect the statistics snapshot outside the timed region."""
    Evaluator(graph)._statistics()


@pytest.mark.parametrize("optimize", [True, False],
                         ids=["opt", "naive"])
@pytest.mark.parametrize("name,album", ALBUMS)
def bench_planner_query(benchmark, sized_union_graph, name, album,
                        optimize):
    size, graph = sized_union_graph
    _prime(graph)
    text = album().query
    evaluator = Evaluator(graph, optimize=optimize)
    reference = Evaluator(graph, optimize=not optimize)
    assert _rows(evaluator.evaluate(text)) == _rows(
        reference.evaluate(text)
    )

    result = benchmark(lambda: evaluator.evaluate(text))

    benchmark.extra_info["contents"] = size
    benchmark.extra_info["query"] = name
    benchmark.extra_info["optimize"] = optimize
    benchmark.extra_info["rows"] = len(result)


def _triples_calls(graph, run) -> int:
    """``graph.triples`` calls made while ``run()`` runs."""
    cls = type(graph)
    original = cls.triples
    calls = []

    def counting(self, *args, **kwargs):
        if self is graph:
            calls.append(1)
        return original(self, *args, **kwargs)

    cls.triples = counting
    try:
        run()
    finally:
        cls.triples = original
    return len(calls)


def bench_q3_speedup_guard(benchmark, sized_union_graph):
    """Naive Q3 makes >= 10x the index lookups of optimized Q3."""
    size, graph = sized_union_graph
    _prime(graph)
    text = rated_album().query
    optimized = Evaluator(graph, optimize=True)
    naive = Evaluator(graph, optimize=False)

    opt_rows = optimized.evaluate(text)
    naive_rows = naive.evaluate(text)
    assert _rows(opt_rows) == _rows(naive_rows)
    # ORDER BY DESC(?points): the rating sequences must match (ties may
    # order differently between the two paths; both sorts are stable
    # over their own row production order)
    assert (
        [r["points"].value for r in opt_rows]
        == [r["points"].value for r in naive_rows]
    )

    opt_samples = timed_samples(
        lambda: optimized.evaluate(text), repeats=3
    )
    naive_samples = timed_samples(
        lambda: naive.evaluate(text), repeats=3
    )
    opt_ms = sorted(opt_samples)[len(opt_samples) // 2]
    naive_ms = sorted(naive_samples)[len(naive_samples) // 2]
    opt_calls = _triples_calls(graph, lambda: optimized.evaluate(text))
    naive_calls = _triples_calls(graph, lambda: naive.evaluate(text))
    benchmark.extra_info["contents"] = size
    benchmark.extra_info["optimized_ms"] = round(opt_ms, 2)
    benchmark.extra_info["naive_ms"] = round(naive_ms, 2)
    benchmark.extra_info["triples_calls"] = [opt_calls, naive_calls]
    record(
        f"planner_q3_n{size}",
        opt_samples,
        extra={
            "contents": size,
            "naive_median_ms": round(naive_ms, 2),
            "speedup": round(naive_ms / max(opt_ms, 1e-9), 2),
            "triples_calls_optimized": opt_calls,
            "triples_calls_naive": naive_calls,
        },
    )
    assert naive_calls >= 10 * opt_calls, (
        f"Q3 at {size}: optimized {opt_calls} triples() calls vs naive "
        f"{naive_calls} — below the 10x bar"
    )

    benchmark(lambda: optimized.evaluate(text))
