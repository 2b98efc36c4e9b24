"""Sampling profiler: lifecycle, aggregation, output formats."""

import threading
import time

import pytest

from repro.obs.profiler import ProfilerError, SamplingProfiler


def _spin(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(range(500))


def busy_wrapper(stop: threading.Event) -> None:
    _spin(stop)


class TestLifecycle:
    def test_rejects_bad_rates(self):
        with pytest.raises(ProfilerError):
            SamplingProfiler(hz=0)
        with pytest.raises(ProfilerError):
            SamplingProfiler(hz=5000)

    def test_double_start_and_stop_misuse_raise(self):
        profiler = SamplingProfiler(hz=100)
        profiler.start()
        try:
            with pytest.raises(ProfilerError):
                profiler.start()
        finally:
            profiler.stop()
        with pytest.raises(ProfilerError):
            profiler.stop()

    def test_context_manager_collects_samples(self):
        with SamplingProfiler(hz=250) as profiler:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                sum(range(1000))
        stats = profiler.stats()
        assert stats.samples > 5
        assert stats.wall_seconds > 0
        assert profiler.collapsed()


class TestAggregation:
    def test_collapsed_stacks_name_thread_and_frames(self):
        stop = threading.Event()
        worker = threading.Thread(
            target=busy_wrapper, args=(stop,), name="busy-thread"
        )
        worker.start()
        try:
            profiler = SamplingProfiler(hz=250)
            profiler.start()
            time.sleep(0.25)
            stats = profiler.stop()
        finally:
            stop.set()
            worker.join()
        collapsed = profiler.collapsed()
        busy_lines = [
            line for line in collapsed.splitlines()
            if line.startswith("busy-thread;")
        ]
        assert busy_lines, collapsed
        # root-to-leaf order: the wrapper appears before the spin loop
        spin_line = next(
            (line for line in busy_lines if "test_profiler._spin" in line),
            None,
        )
        assert spin_line is not None, busy_lines
        assert spin_line.index("busy_wrapper") < spin_line.index("._spin")
        # flamegraph format: semicolon-joined frames, space, count
        stack, count = spin_line.rsplit(" ", 1)
        assert int(count) >= 1
        assert stats.threads_seen >= 2  # worker + this thread

    def test_top_ranks_hot_leaves(self):
        stop = threading.Event()
        worker = threading.Thread(
            target=busy_wrapper, args=(stop,), name="hot"
        )
        worker.start()
        try:
            with SamplingProfiler(hz=250) as profiler:
                time.sleep(0.25)
        finally:
            stop.set()
            worker.join()
        leaves = dict(profiler.top(50))
        assert any("_spin" in leaf for leaf in leaves)

    def test_sampler_never_samples_itself(self):
        with SamplingProfiler(hz=250) as profiler:
            time.sleep(0.1)
        assert "repro-profiler" not in profiler.collapsed()

    def test_write_collapsed(self, tmp_path):
        with SamplingProfiler(hz=250) as profiler:
            deadline = time.perf_counter() + 0.1
            while time.perf_counter() < deadline:
                sum(range(1000))
        target = tmp_path / "out" / "profile.txt"
        written = profiler.write_collapsed(target)
        assert written == target
        text = target.read_text(encoding="utf-8")
        assert text.strip()
        for line in text.strip().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1 and ";" in stack

