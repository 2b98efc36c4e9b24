"""Property tests: the planner is semantics-preserving by construction.

For workload-generated graphs and the paper's parameterized query
family, the planned query must produce the same multiset of rows as the
un-rewritten lowering (``optimize=False``), whether the planner's
statistics were collected fresh or cached on the graph, and planning
must never mutate the parsed AST. Hypothesis drives the graph seed and
the query parameters. A second test drops the "same as each other"
indirection: over a hand-built dataset, every planned query must
produce the literal rows written next to it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis import GraphStatistics, QueryPlanner
from repro.core import geo_album, rated_album, social_album
from repro.platform import Platform
from repro.sparql import parse_query
from repro.sparql.algebra import ScanStep, walk
from repro.sparql.evaluator import Evaluator
from repro.workloads import (
    WorkloadConfig,
    generate_workload,
    populate_platform,
)

from ..sparql.executor_cases import CASES, build_dataset, normalize

_GRAPH_CACHE = {}

#: The two ways a planner gets its statistics: collected off the graph,
#: or the snapshot cached on it (which also carries the spatial grid).
STATISTICS = (GraphStatistics.collect, GraphStatistics.cached)


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
    statistics=st.sampled_from(STATISTICS),
)
def test_plan_matches_naive(seed, text, statistics):
    graph = workload_graph(seed)
    naive = multiset(Evaluator(graph, optimize=False).evaluate(text))
    planner = QueryPlanner(stats=statistics(graph))
    planned = planner.plan(parse_query(text))
    scans = [n for n in walk(planned.plan) if isinstance(n, ScanStep)]
    assert scans and all(scan.est_rows is not None for scan in scans)
    evaluator = Evaluator(graph, planner=planner)
    optimized = multiset(evaluator.evaluate(text))
    assert optimized == naive


def test_plan_yields_the_literal_rows():
    dataset = build_dataset()
    for name, text, expected in CASES:
        for statistics in STATISTICS:
            evaluator = Evaluator(dataset)
            # over the evaluator's own graph, a scan the planner marked
            # for the spatial grid is really answered from it
            evaluator._planner = QueryPlanner(
                stats=statistics(evaluator.graph)
            )
            assert normalize(evaluator.evaluate(text)) == expected, name


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=3),
    text=QUERIES,
)
def test_planning_never_mutates_ast(seed, text):
    graph = workload_graph(seed)
    parsed = parse_query(text)
    reference = parse_query(text)
    planner = QueryPlanner(stats=GraphStatistics.collect(graph))
    planner.plan(parsed)
    assert parsed == reference
