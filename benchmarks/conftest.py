"""Shared benchmark fixtures.

Platforms are built once per size and cached for the whole benchmark
session; the timed sections are the queries/pipelines themselves.
"""

from __future__ import annotations

import pytest

from repro.core import build_default_annotator
from repro.lod import build_lod_corpus
from repro.platform import Platform
from repro.workloads import (
    WorkloadConfig,
    generate_workload,
    populate_platform,
)

#: Content-population sizes the scaling benchmarks sweep.
SIZES = (100, 1000, 5000)

_platform_cache = {}


def build_platform(n_contents: int, cities=("Turin",), seed=42) -> Platform:
    """A semanticized platform with ``n_contents`` synthetic uploads."""
    key = (n_contents, tuple(cities), seed)
    if key not in _platform_cache:
        platform = Platform()
        workload = generate_workload(
            WorkloadConfig(
                n_users=max(10, n_contents // 50),
                n_contents=n_contents,
                cities=cities,
                seed=seed,
            )
        )
        populate_platform(platform, workload)
        # force the LODification + store bootstrap out of the timed
        # region
        platform.union_graph()
        _platform_cache[key] = platform
    return _platform_cache[key]


@pytest.fixture(scope="session")
def corpus():
    return build_lod_corpus()


@pytest.fixture(scope="session")
def annotator(corpus):
    return build_default_annotator(corpus)


@pytest.fixture(scope="session", params=SIZES)
def sized_platform(request):
    """One semanticized platform per size in :data:`SIZES`."""
    return request.param, build_platform(request.param)


@pytest.fixture(scope="session")
def small_platform():
    return build_platform(100)


@pytest.fixture(scope="session", params=SIZES, ids=lambda n: f"n{n}")
def sized_union_graph(request):
    """``(size, union graph)`` built once per size.

    Sharing one graph object means the planner's statistics snapshot
    (cached on the graph) is collected once and reused by every
    evaluator, mirroring a long-lived deployment.
    """
    platform = build_platform(request.param)
    return request.param, platform.union_graph()
