"""BatchAnnotator tests: checkpoint ordering, parallel fan-out,
watermark resume semantics, and resolver-fault degradation.

(The original sequential happy-path tests live in
``tests/core/test_extensions.py``; this module pins the bugs fixed in
the resilience PR and the parallel/sequential equivalence contract.)
"""

import time
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro import resolvers as resolvers_module
from repro.core import BatchAnnotator
from repro.core.annotator import SemanticAnnotator, build_default_annotator
from repro.core.filtering import SemanticFilter
from repro.lod import build_lod_corpus
from repro.platform import Platform
from repro.rdf import Graph, URIRef
from repro.resolvers import (
    FlakyResolver,
    RetryPolicy,
    SemanticBroker,
    default_resolvers,
    wrap_resilient,
)
from repro.store import QuadStore, StoreError
from repro.workloads import (
    WorkloadConfig,
    generate_workload,
    populate_platform,
)


# ----------------------------------------------------------------------
# Lightweight fakes: exact control over pid order and annotate timing
# ----------------------------------------------------------------------
class FakeAnnotator:
    """Annotates every title with one fixed resource; optionally sleeps
    per pid (to force out-of-order completion) or fails specific pids."""

    def __init__(self, delays=None, failing=()):
        self.delays = delays or {}
        self.failing = set(failing)
        self.broker = None

    def annotate(self, title, tags):
        pid = int(title)  # the fake items carry their pid as title
        if pid in self.delays:
            time.sleep(self.delays[pid])
        if pid in self.failing:
            raise RuntimeError(f"fake failure for {pid}")
        return SimpleNamespace(
            annotations=[SimpleNamespace(
                resource=URIRef(f"urn:concept:{pid}")
            )],
            broker_result=None,
        )


class FakePlatform:
    """A platform stub whose ``contents()`` order is programmable."""

    def __init__(self, pids, order=None, **annotator_kwargs):
        self._items = {
            pid: SimpleNamespace(
                pid=pid,
                title=str(pid),
                plain_tags=[],
                resource=URIRef(f"urn:content:{pid}"),
            )
            for pid in pids
        }
        self._order = list(order) if order is not None else list(pids)
        self.annotator = FakeAnnotator(**annotator_kwargs)

    def contents(self):
        return [self._items[pid] for pid in self._order]

    def content(self, pid):
        return self._items[pid]


class TestTriplesAdded:
    def test_duplicate_annotations_not_double_counted(self):
        # triples_added is computed with Graph.insert()'s atomic
        # newness answer — a len()-before/len()-after comparison would
        # measure the same thing only by racing the store's statistics
        platform = FakePlatform([1, 2, 3])
        target = Graph()
        first = BatchAnnotator(platform, target, workers=1)
        assert first.run().triples_added == 3
        # re-annotating the same catalog into the same target adds
        # nothing: every insert() reports the triple as already present
        second = BatchAnnotator(platform, target, workers=1)
        assert second.run().triples_added == 0
        assert len(target) == 3

    def test_insert_reports_newness(self):
        g = Graph()
        triple = (URIRef("urn:s"), URIRef("urn:p"), URIRef("urn:o"))
        assert g.insert(triple) is True
        assert g.insert(triple) is False
        assert len(g) == 1


class TestCheckpointOrdering:
    def test_pending_pids_sorted_despite_platform_order(self):
        platform = FakePlatform(
            [1, 2, 3, 4, 5], order=[4, 1, 5, 2, 3]
        )
        batch = BatchAnnotator(platform)
        assert batch.pending_pids() == [1, 2, 3, 4, 5]

    def test_resume_on_shuffled_platform_processes_everything(self):
        """Regression: with an unsorted platform the old per-item
        ``last_pid = pid`` checkpoint skipped unprocessed smaller pids
        on resume."""
        order = [4, 1, 5, 2, 6, 3]
        platform = FakePlatform([1, 2, 3, 4, 5, 6], order=order)
        target = Graph()
        batch = BatchAnnotator(platform, target, batch_size=2)
        batch.run(max_items=3)
        assert batch.checkpoint.last_pid == 3
        stats = batch.run()  # resume
        assert stats.processed == 6
        assert batch.done
        for pid in [1, 2, 3, 4, 5, 6]:
            assert any(
                s == URIRef(f"urn:content:{pid}") for s, _, _ in target
            ), f"pid {pid} was skipped"

    def test_watermark_holds_back_out_of_order_completitems(self):
        """pid 1 finishes last; the checkpoint must not advance past it
        while faster later pids complete."""
        platform = FakePlatform(
            [1, 2, 3, 4, 5, 6], delays={1: 0.05}
        )
        seen = []
        batch = BatchAnnotator(
            platform, batch_size=1, workers=4,
            on_progress=lambda cp: seen.append(cp.last_pid),
        )
        stats = batch.run()
        assert stats.processed == 6
        # watermark advances contiguously: one callback per item, in
        # ascending pid order, exactly as a sequential run would fire
        assert seen == [1, 2, 3, 4, 5, 6]
        assert batch.checkpoint.last_pid == 6


class TestParallelEquivalence:
    @pytest.fixture(scope="class")
    def catalog(self):
        platform = Platform()
        workload = generate_workload(WorkloadConfig(
            n_users=5, n_contents=40, cities=("Turin",), seed=11,
        ))
        populate_platform(platform, workload)
        return platform

    def test_same_stats_and_triples(self, catalog):
        seq_graph, par_graph = Graph(), Graph()
        seq = BatchAnnotator(catalog, seq_graph, batch_size=10)
        par = BatchAnnotator(
            catalog, par_graph, batch_size=10, workers=4
        )
        seq_stats = seq.run()
        par_stats = par.run()
        assert seq_stats.summary() == par_stats.summary()
        assert seq_stats.failures == par_stats.failures
        assert set(seq_graph) == set(par_graph)
        assert len(seq_graph) == len(par_graph)

    def test_parallel_resume_matches_sequential(self, catalog):
        seq_graph, par_graph = Graph(), Graph()
        seq = BatchAnnotator(catalog, seq_graph, batch_size=10)
        seq_stats = seq.run()

        par = BatchAnnotator(
            catalog, par_graph, batch_size=10, workers=4
        )
        par.run(max_items=15)
        assert not par.done
        par_stats = par.run()  # resume to completion
        assert par.done
        assert par_stats.summary() == seq_stats.summary()
        assert set(seq_graph) == set(par_graph)

    def test_progress_callbacks_identical(self, catalog):
        def collect(workers):
            seen = []
            batch = BatchAnnotator(
                catalog, Graph(), batch_size=7, workers=workers,
                on_progress=lambda cp: seen.append(
                    (cp.last_pid, cp.stats.processed)
                ),
            )
            batch.run()
            return seen

        assert collect(1) == collect(4)

    def test_failures_recorded_in_pid_order(self):
        platform = FakePlatform(
            list(range(1, 13)), failing=[3, 7, 11],
            delays={3: 0.02},
        )
        batch = BatchAnnotator(platform, batch_size=4, workers=4)
        stats = batch.run()
        assert stats.processed == 12
        assert [pid for pid, _ in stats.failures] == [3, 7, 11]
        assert all("fake failure" in msg for _, msg in stats.failures)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            BatchAnnotator(FakePlatform([1]), workers=0)


class TestStoreTarget:
    """A ``QuadStore`` target: one ``WriteBatch`` commit per checkpoint
    batch, counted by the effective ops the commit reports (the
    generation-per-batch case itself is
    ``tests/store/test_integration.py::TestBatchAnnotatorCommits``)."""

    def test_second_run_over_the_same_catalog_adds_nothing(self):
        platform = FakePlatform(range(1, 8))
        store = QuadStore()
        first = BatchAnnotator(platform, store, batch_size=3)
        assert first.run().triples_added == store.size == 7
        generation = store.generation
        # nothing pending: a resumed run commits and counts nothing
        assert first.run().triples_added == 7
        # a fresh annotator re-annotates everything; no op is effective
        second = BatchAnnotator(platform, store, batch_size=3)
        assert second.run().triples_added == 0
        assert store.size == 7
        assert store.generation == generation

    def test_sequential_and_parallel_summaries_agree(self):
        def run(workers):
            platform = FakePlatform(
                range(1, 25), failing=[5, 13], delays={1: 0.02},
            )
            store = QuadStore()
            generations = []
            stats = BatchAnnotator(
                platform, store, batch_size=5, workers=workers,
                on_progress=lambda cp: generations.append(
                    store.generation
                ),
            ).run()
            return stats.summary(), generations, store.to_nquads()

        assert run(1) == run(4)

    def test_failed_commit_raises_and_the_next_run_commits_it(
        self, tmp_path
    ):
        store = QuadStore(tmp_path / "s")
        seen = []
        batch = BatchAnnotator(
            FakePlatform(range(1, 7)), store, batch_size=4,
            on_progress=lambda cp: seen.append(cp.last_pid),
        )
        append = store._wal.append

        def disk_full(generation, ops):
            raise OSError("disk full")

        store._wal.append = disk_full
        with pytest.raises(OSError, match="disk full"):
            batch.run()
        # no checkpoint was announced past durable data
        assert seen == []
        assert store.generation == 0 and store.size == 0
        assert batch.checkpoint.stats.triples_added == 0

        store._wal.append = append
        stats = batch.run()
        # the held-back batch and the rest of the catalog both landed
        assert seen == [6]
        assert stats.processed == 6
        assert stats.triples_added == store.size == 6
        dump = store.to_nquads()
        store.close()
        with QuadStore(tmp_path / "s") as reopened:
            assert reopened.to_nquads() == dump

    def test_closed_durable_store_refuses_the_commit(self, tmp_path):
        store = QuadStore(tmp_path / "s")
        seen = []
        batch = BatchAnnotator(
            FakePlatform([1, 2, 3]), store,
            on_progress=lambda cp: seen.append(cp.last_pid),
        )
        store.close()
        with pytest.raises(StoreError, match="closed"):
            batch.run()
        assert seen == []
        assert batch.checkpoint.stats.triples_added == 0


class TestFaultDegradation:
    """Acceptance: one resolver failing 100% of calls, 100-item batch —
    every item resolvable by the remaining resolvers still succeeds,
    the stats report the degradation, and no exception escapes."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return build_lod_corpus()

    def _platform(self, n=100):
        platform = Platform()
        workload = generate_workload(WorkloadConfig(
            n_users=10, n_contents=n, cities=("Turin",), seed=5,
        ))
        populate_platform(platform, workload)
        return platform

    def _annotator(self, corpus, resolvers):
        return SemanticAnnotator(
            SemanticBroker(resolvers), SemanticFilter(corpus)
        )

    def test_batch_survives_dead_resolver(self, corpus):
        # reference: the same catalog annotated *without* DBpedia —
        # what "every item resolvable by the remaining resolvers" means
        reference = self._platform()
        reference.annotator = self._annotator(corpus, [
            r for r in default_resolvers(corpus) if r.name != "dbpedia"
        ])
        ref_graph = Graph()
        ref_stats = BatchAnnotator(reference, ref_graph).run()

        # the run under test: DBpedia present but failing 100% of
        # calls behind the full resilience layer, 4 workers
        broken = self._platform()
        resolvers = [
            FlakyResolver(r, failure_rate=1.0, seed=1)
            if r.name == "dbpedia" else r
            for r in default_resolvers(corpus)
        ]
        broken.annotator = self._annotator(corpus, wrap_resilient(
            resolvers,
            retry=RetryPolicy(attempts=2, base_delay=0.0, jitter=0.0),
            failure_threshold=5,
            reset_timeout=3600.0,
        ))
        graph = Graph()
        batch = BatchAnnotator(broken, graph, workers=4)
        stats = batch.run()  # must not raise

        assert stats.processed == 100
        assert stats.failed == 0
        assert stats.annotated == ref_stats.annotated
        assert set(graph) == set(ref_graph)

        # the degradation is visible, not silent
        assert stats.degraded_items == 100
        assert stats.resolver_failures >= 100
        report = stats.resolver_report["dbpedia"]
        assert report.successes == 0
        assert report.failures > 0
        assert report.breaker_trips >= 1
        assert stats.breaker_trips >= 1

    def test_degraded_flag_on_broker_result(self, corpus):
        resolvers = [
            FlakyResolver(r, failure_rate=1.0)
            if r.name == "dbpedia" else r
            for r in default_resolvers(corpus)
        ]
        broker = SemanticBroker(resolvers)
        result = broker.resolve(["Turin"])
        assert result.degraded
        assert result.failed_resolvers() == ["dbpedia"]
        assert result.per_word["Turin"]  # healthy candidates survived

    def test_resilient_path_counts(self, corpus, monkeypatch):
        # every resolver behind seeded faults and the full resilience
        # layer, one worker: the counters are a function of the input
        # stream, pinned here as literals (latencies aside)
        plain = resolvers_module.default_resolvers
        monkeypatch.setattr(
            resolvers_module, "default_resolvers",
            lambda corpus: [
                FlakyResolver(r, failure_rate=0.2, seed=5)
                for r in plain(corpus)
            ],
        )
        platform = Platform()
        populate_platform(platform, generate_workload(WorkloadConfig(
            n_users=6, n_contents=40, seed=7,
        )))
        platform.annotator = build_default_annotator(
            corpus, resilient=True, resilience={
                "retry": RetryPolicy(attempts=2, base_delay=0.0, jitter=0.0),
                "failure_threshold": 2,
                "reset_timeout": 0.0,
            },
        )
        stats = BatchAnnotator(platform, Graph(), batch_size=10).run()

        assert (
            stats.processed, stats.annotated, stats.triples_added,
            stats.failures, stats.degraded_items, stats.resolver_failures,
        ) == (40, 40, 52, [], 4, 20)
        term = dict(
            calls=124, successes=100, failures=4, retries=20, timeouts=0,
            rejected=0, breaker_trips=5, breaker_state="closed",
            cache_hits=87, cache_misses=104,
        )
        text = dict(term, calls=161, successes=132, retries=25,
                    cache_hits=95, cache_misses=136)
        for name, report in stats.resolver_report.items():
            counters = asdict(report)
            del counters["latency_total"], counters["latency_max"]
            assert counters == dict(
                text if name in ("evri", "zemanta") else term,
                name=name,
                last_error=f"RuntimeError: {name}: injected fault "
                "(attempt 0)",
            ), name
        assert sorted(stats.resolver_report) == [
            "dbpedia", "evri", "geonames", "sindice", "zemanta",
        ]
