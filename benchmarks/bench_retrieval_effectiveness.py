"""RET — keyword vs. semantic retrieval effectiveness (§1.2 / §2).

The paper's motivating claim: "Keyword-based searches, especially when
relying on user-generated tags with wild-free vocabulary, restrict the
amount of retrievable content [...] the main problem of such approach is
the ambiguity".

Setup: a multi-city workload where titles are written in five languages.
A user searches for content about *Turin*. Ground truth = contents
captured in Turin (known from the generator). The keyword baseline
matches the English token "turin" only; the semantic path resolves the
concept (Geonames Turin) and retrieves by annotation + location, which
also covers "Torino"/"Turín" titles. The *shape* the paper predicts:
semantic recall ≫ keyword recall at comparable precision.
"""

from __future__ import annotations

import pytest

from repro.lod.geonames import geonames_uri
from repro.platform import Platform, SearchInterface
from repro.sparql.geo import Point, haversine_km
from repro.workloads import (
    WorkloadConfig,
    generate_workload,
    populate_platform,
)

TURIN_CENTER = Point(7.6869, 45.0703)
GN_TURIN = geonames_uri(3165524)


@pytest.fixture(scope="module")
def retrieval_world():
    platform = Platform()
    workload = generate_workload(
        WorkloadConfig(
            n_users=12,
            n_contents=300,
            cities=("Turin", "Rome", "Paris"),
            seed=13,
        )
    )
    pids = populate_platform(platform, workload)
    search = SearchInterface(
        platform.union_graph(), platform.contents()
    )
    # ground truth: pids captured within 25 km of Turin's center
    relevant = {
        pid
        for pid, capture in zip(pids, workload.captures)
        if haversine_km(capture.point, TURIN_CENTER) <= 25.0
    }
    return platform, search, relevant


def _prf(retrieved, relevant):
    retrieved = set(retrieved)
    tp = len(retrieved & relevant)
    precision = tp / len(retrieved) if retrieved else 1.0
    recall = tp / len(relevant) if relevant else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


def bench_keyword_baseline(benchmark, retrieval_world):
    _, search, relevant = retrieval_world

    items = benchmark(lambda: search.keyword_search("turin"))

    precision, recall, f1 = _prf({i.pid for i in items}, relevant)
    benchmark.extra_info["precision"] = round(precision, 3)
    benchmark.extra_info["recall"] = round(recall, 3)
    benchmark.extra_info["f1"] = round(f1, 3)
    benchmark.extra_info["retrieved"] = len(items)


def bench_semantic_retrieval(benchmark, retrieval_world):
    _, search, relevant = retrieval_world

    items = benchmark(
        lambda: search.content_for_resource(GN_TURIN, radius_km=25.0)
    )

    precision, recall, f1 = _prf({i.pid for i in items}, relevant)
    benchmark.extra_info["precision"] = round(precision, 3)
    benchmark.extra_info["recall"] = round(recall, 3)
    benchmark.extra_info["f1"] = round(f1, 3)
    benchmark.extra_info["retrieved"] = len(items)


def test_semantic_beats_keyword(retrieval_world):
    """The headline comparison the paper motivates semantics with."""
    _, search, relevant = retrieval_world
    keyword = {i.pid for i in search.keyword_search("turin")}
    semantic = {
        i.pid
        for i in search.content_for_resource(GN_TURIN, radius_km=25.0)
    }
    _, keyword_recall, _ = _prf(keyword, relevant)
    semantic_precision, semantic_recall, _ = _prf(semantic, relevant)
    print(
        f"\nRET: keyword recall={keyword_recall:.3f} "
        f"semantic recall={semantic_recall:.3f} "
        f"semantic precision={semantic_precision:.3f}"
    )
    assert semantic_recall > keyword_recall, (
        "semantic retrieval must dominate the wild-vocabulary keyword "
        "baseline on recall"
    )
    assert semantic_precision >= 0.9
