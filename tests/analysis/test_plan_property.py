"""Property tests: the planner is semantics-preserving by construction.

For workload-generated graphs and the paper's parameterized query
family, every permutation of the rewrite-pass pipeline must produce the
same multiset of rows as the naive evaluator, and planning must never
mutate the parsed AST. Hypothesis drives the graph seed, the query
parameters and the pass order. A second property drops the "same as
each other" indirection: over a hand-built dataset, any *subset* of the
passes in any order — the empty pipeline included — must produce the
literal rows written next to each query.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis import DEFAULT_PASSES, GraphStatistics, QueryPlanner
from repro.analysis.plan import estimate as estimate_pass
from repro.core import geo_album, rated_album, social_album
from repro.platform import Platform
from repro.sparql import parse_query
from repro.sparql.evaluator import Evaluator
from repro.workloads import (
    WorkloadConfig,
    generate_workload,
    populate_platform,
)

from ..sparql.executor_cases import CASES, build_dataset, normalize

_GRAPH_CACHE = {}


def workload_graph(seed, n_contents=25):
    key = (seed, n_contents)
    if key not in _GRAPH_CACHE:
        platform = Platform()
        workload = generate_workload(WorkloadConfig(
            n_users=6,
            n_contents=n_contents,
            cities=("Turin",),
            seed=seed,
        ))
        populate_platform(platform, workload)
        platform.semanticize()
        _GRAPH_CACHE[key] = platform.union_graph()
    return _GRAPH_CACHE[key]


def multiset(result):
    return sorted(
        tuple(sorted((str(k), str(v)) for k, v in row.items()))
        for row in result
    )


QUERIES = st.one_of(
    st.builds(
        lambda radius: geo_album(radius_km=radius).query,
        st.sampled_from([0.05, 0.3, 1.0, 5.0]),
    ),
    st.builds(
        lambda radius, friend: social_album(
            radius_km=radius, friend_of=friend
        ).query,
        st.sampled_from([0.3, 2.0]),
        st.sampled_from(["oscar", "walter", "nobody"]),
    ),
    st.builds(
        lambda radius: rated_album(radius_km=radius).query,
        st.sampled_from([0.3, 2.0]),
    ),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=3),
    text=QUERIES,
    order=st.permutations(list(DEFAULT_PASSES)),
)
def test_any_pass_order_matches_naive(seed, text, order):
    graph = workload_graph(seed)
    naive = multiset(Evaluator(graph, optimize=False).evaluate(text))
    planner = QueryPlanner(
        stats=GraphStatistics.collect(graph), passes=order
    )
    evaluator = Evaluator(graph, planner=planner)
    optimized = multiset(evaluator.evaluate(text))
    assert optimized == naive


PIPELINES = st.lists(
    st.sampled_from(list(DEFAULT_PASSES)), unique_by=lambda p: p[0]
)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES), passes=PIPELINES)
def test_any_pass_subset_yields_the_literal_rows(case, passes):
    _, text, expected = case
    dataset = build_dataset()
    for optimize in (True, False):
        # with optimize=False the planner is never consulted
        evaluator = Evaluator(
            dataset,
            optimize=optimize,
            planner=QueryPlanner(
                stats=GraphStatistics.collect(dataset.union_graph()),
                passes=passes,
            ),
        )
        assert normalize(evaluator.evaluate(text)) == expected
    # the same pipelines over the statistics cached on the evaluator's
    # own graph: a scan the reorder pass marked is then really answered
    # from the spatial grid
    evaluator = Evaluator(dataset)
    evaluator._planner = QueryPlanner(
        stats=GraphStatistics.cached(evaluator.graph), passes=passes
    )
    assert normalize(evaluator.evaluate(text)) == expected


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=3),
    text=QUERIES,
    order=st.permutations(list(DEFAULT_PASSES)),
)
def test_planning_never_mutates_ast(seed, text, order):
    graph = workload_graph(seed)
    parsed = parse_query(text)
    reference = parse_query(text)
    planner = QueryPlanner(
        stats=GraphStatistics.collect(graph), passes=order
    )
    planner.plan(parsed)
    assert parsed == reference


def test_estimate_runs_after_any_permutation():
    # estimate() is appended by the planner, not part of the permuted
    # pipeline: a planner built with a single pass still annotates.
    graph = workload_graph(0)
    planner = QueryPlanner(
        stats=GraphStatistics.collect(graph),
        passes=[DEFAULT_PASSES[0]],
    )
    planned = planner.plan(parse_query(geo_album().query))
    assert planned.plan.est_rows is not None
    assert estimate_pass is not None
