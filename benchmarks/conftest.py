"""Shared benchmark fixtures and the corpus-size ladder.

Every benchmark whose cost may grow with the corpus runs on the stacks
of :data:`LADDER`: a platform populated with that many synthetic
uploads and attached to a :class:`~repro.store.QuadStore`. Each stack
is built once and shared by the whole benchmark session; the timed
sections are the queries/pipelines themselves.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple

import pytest

from repro.core import build_default_annotator
from repro.lod import build_lod_corpus
from repro.platform import Capture, Platform
from repro.store import QuadStore
from repro.workloads import (
    Workload,
    WorkloadConfig,
    generate_workload,
    populate_platform,
)

#: The corpus sizes (contents) every size-dependent benchmark runs at.
LADDER = (100, 1_000, 10_000)
SEED = 7
#: Content scatter at 200 contents. It grows with the corpus to keep
#: its density, so a fixed radius around a monument holds about as many
#: contents at every size.
SCATTER_KM = 1.5


class Stack(NamedTuple):
    platform: Platform
    workload: Workload
    store: QuadStore

    def next_captures(self, count: int) -> List[Capture]:
        """``count`` captures to upload next: the corpus timeline,
        continued with another seed."""
        return generate_workload(WorkloadConfig(
            n_users=10, n_contents=count, seed=SEED + 1,
            start_timestamp=self.workload.captures[-1].timestamp,
        )).captures


def ladder_workload(contents: int) -> Workload:
    """The synthetic uploads of the stack of ``contents`` contents."""
    return generate_workload(WorkloadConfig(
        n_users=10, n_contents=contents, seed=SEED,
        scatter_km=SCATTER_KM * math.sqrt(contents / 200),
    ))


class Stacks(dict):
    """The stack of each corpus size, built on first use."""

    def __missing__(self, contents: int) -> Stack:
        workload = ladder_workload(contents)
        platform = Platform()
        populate_platform(platform, workload)
        store = QuadStore(name=f"ladder-{contents}")
        platform.attach_store(store)
        self[contents] = Stack(platform, workload, store)
        return self[contents]


@pytest.fixture(scope="session")
def stacks() -> Stacks:
    """One set of stacks for the whole benchmark session."""
    return Stacks()


@pytest.fixture(scope="session")
def ladder(stacks) -> Dict[int, Stack]:
    """Every stack of :data:`LADDER`, by size."""
    return {contents: stacks[contents] for contents in LADDER}


@pytest.fixture(scope="session")
def small_stack(stacks) -> Stack:
    return stacks[LADDER[0]]


@pytest.fixture(scope="session")
def corpus():
    return build_lod_corpus()


@pytest.fixture(scope="session")
def annotator(corpus):
    return build_default_annotator(corpus)


@pytest.fixture(scope="session", params=LADDER, ids=lambda n: f"n{n}")
def sized_platform(request, stacks):
    """``(size, platform)`` for every size of :data:`LADDER`."""
    return request.param, stacks[request.param].platform


@pytest.fixture(scope="session")
def small_platform(small_stack):
    return small_stack.platform
