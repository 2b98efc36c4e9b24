"""Load generator: deterministic schedules, config validation, and a
small end-to-end run reporting out of the metrics registry."""

import threading

import pytest

from repro.obs import MetricsRegistry, set_registry
from repro.workloads import (
    MIXES,
    LoadConfig,
    LoadGenerator,
    build_schedule,
    render_schedule,
    schedule_digest,
)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestConfig:
    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            LoadConfig(mix="nope")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            LoadConfig(mode="half-open")

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            LoadConfig(ops=0)
        with pytest.raises(ValueError):
            LoadConfig(workers=0)
        with pytest.raises(ValueError):
            LoadConfig(rate=0.0)
        with pytest.raises(ValueError):
            LoadConfig(sync_every=0)

    def test_all_mixes_constructible(self):
        for mix in MIXES:
            assert LoadConfig(mix=mix).mix == mix


class TestSchedule:
    def test_same_seed_same_schedule(self):
        a = build_schedule(LoadConfig(seed=7, ops=50))
        b = build_schedule(LoadConfig(seed=7, ops=50))
        assert render_schedule(a) == render_schedule(b)
        assert schedule_digest(a) == schedule_digest(b)

    def test_seed_changes_schedule(self):
        a = build_schedule(LoadConfig(seed=7, ops=50))
        b = build_schedule(LoadConfig(seed=8, ops=50))
        assert schedule_digest(a) != schedule_digest(b)

    def test_mix_changes_schedule(self):
        a = build_schedule(LoadConfig(mix="default", seed=7, ops=50))
        b = build_schedule(LoadConfig(mix="ingest", seed=7, ops=50))
        assert schedule_digest(a) != schedule_digest(b)

    def test_mix_weights_respected(self):
        # the ingest mix has zero mashup weight: none may be drawn
        schedule = build_schedule(
            LoadConfig(mix="ingest", seed=3, ops=200)
        )
        kinds = {op.kind for op in schedule}
        assert "mashup" not in kinds
        assert "upload" in kinds

    def test_arrivals_monotonic(self):
        schedule = build_schedule(LoadConfig(seed=1, ops=40))
        arrivals = [op.arrival_s for op in schedule]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)

    def test_render_lines_up_with_ops(self):
        schedule = build_schedule(LoadConfig(seed=1, ops=12))
        lines = render_schedule(schedule).splitlines()
        assert len(lines) == 12
        assert lines[0].startswith("0000 ")


class TestRun:
    def test_small_run_reports_latencies(self, registry):
        config = LoadConfig(
            seed=7, ops=32, workers=3, base_contents=12, sync_every=2
        )
        report = LoadGenerator(config).run()
        assert report.completed == 32
        assert report.errors == 0, report.error_samples
        assert report.digest == schedule_digest(build_schedule(config))
        assert report.wall_seconds > 0
        assert report.throughput > 0
        # every op kind in the schedule shows up with a distribution
        kinds = {op.kind for op in build_schedule(config)}
        assert set(report.per_op) == kinds
        for row in report.per_op.values():
            assert row["count"] >= 1
            assert row["p95_ms"] >= row["p50_ms"] >= 0
            assert row["max_ms"] > 0
        # every op's latency and every upload's staleness is kept: the
        # workers' samples merge, and concurrent syncs lose none
        schedule = build_schedule(config)
        assert sum(row["count"] for row in report.per_op.values()) == 32
        uploads = sum(1 for op in schedule if op.kind == "upload")
        assert uploads and report.freshness["count"] == uploads
        # the registry snapshot rides along for offline SLO evaluation
        assert "repro_loadgen_op_seconds" in report.metrics

    def test_store_writes_commit_into_the_scratch_context(self, registry):
        """The ``store_write`` op is ``QuadStore.insert`` into the
        scratch context through the group-commit queue; the seed-7
        schedule (digest and op count pinned) lands one quad per op."""
        config = LoadConfig(
            mix="default", seed=7, ops=48, workers=4, base_contents=12
        )
        generator = LoadGenerator(config)
        writes = [
            op for op in generator.schedule if op.kind == "store_write"
        ]
        assert schedule_digest(generator.schedule) == "7bdd35d69dd7cec0"
        assert len(writes) == 9
        report = generator.run()
        assert report.errors == 0, report.error_samples
        assert report.per_op["store_write"]["count"] == 9
        store = generator._store
        scratch = store.graph("http://repro.local/loadgen/scratch")
        assert len(scratch) == 9
        assert store.info()["group_commit"]["submissions"] >= 9

    def test_report_serializes(self, registry):
        config = LoadConfig(seed=5, ops=8, workers=2, base_contents=8)
        report = LoadGenerator(config).run()
        data = report.to_dict()
        assert data["schedule_digest"] == report.digest
        assert data["completed"] == 8
        text = report.render()
        assert "load run:" in text and "op/s" in text


class _Clock:
    """Stands in for the ``time`` module of the load generator: it moves
    only when an op runs, by that op's scripted latency."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class TestPercentiles:
    def test_exact_median_inside_one_bucket(self, registry, monkeypatch):
        """The seed-7 schedule's nine album ops take 101..109 ms, all in
        one histogram bucket (100-215 ms); the report gives their exact
        nearest-rank order statistics, not a value interpolated inside
        the bucket (104.5 ms for the median)."""
        from repro.workloads import loadgen

        clock = _Clock()
        monkeypatch.setattr(loadgen, "time", clock)
        generator = LoadGenerator(LoadConfig(seed=7, ops=40, workers=1))
        generator._platform = object()  # no stack: ops are scripted
        albums = iter([0.104, 0.101, 0.109, 0.107, 0.102, 0.108, 0.103,
                       0.106, 0.105])

        def execute(op):
            clock.now += next(albums) if op.kind == "album" else 0.001

        monkeypatch.setattr(generator, "_execute", execute)
        row = generator.run().per_op["album"]
        assert row["count"] == 9
        assert row["p50_ms"] == pytest.approx(105.0)
        assert row["p95_ms"] == pytest.approx(109.0)
        assert row["mean_ms"] == pytest.approx(105.0)
        assert row["max_ms"] == pytest.approx(109.0)


class _PausingLock:
    """Stands in for the platform lock: the ``paused`` thread stops
    right after its first release until ``resume`` is set."""

    def __init__(self, lock) -> None:
        self.lock = lock
        self.paused = None
        self.released = threading.Event()
        self.resume = threading.Event()

    def __enter__(self) -> None:
        self.lock.acquire()

    def __exit__(self, *exc_info) -> None:
        self.lock.release()
        if threading.current_thread() is self.paused \
                and not self.released.is_set():
            self.released.set()
            self.resume.wait(timeout=30)


class TestSync:
    def test_a_sync_finishing_late_keeps_the_newer_interface(
        self, registry
    ):
        """Sync A drains an upload and commits; before A goes on past
        the platform lock, sync B drains a later upload and commits. The
        interface kept is B's, on the newest generation, whichever sync
        returns last."""
        config = LoadConfig(seed=7, ops=8, workers=2, base_contents=8,
                            sync_every=2)
        generator = LoadGenerator(config).setup()
        gate = generator._platform_lock = _PausingLock(
            generator._platform_lock
        )
        generator._op_upload("u0")
        late = threading.Thread(target=generator._sync_store)
        gate.paused = late
        late.start()
        assert gate.released.wait(timeout=30)
        generator._op_upload("u1")
        generator._sync_store()
        newest = generator._store.generation
        gate.resume.set()
        late.join(timeout=30)
        assert not late.is_alive()
        assert generator._search.graph.generation == newest
        assert generator._search.suggest("mole")
