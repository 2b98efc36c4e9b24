"""Runtime lock sanitizer tests: inversion detection, hold timing,
Condition compatibility, and metrics export."""

import threading
import time

import pytest

from repro.analysis.sanitizer import LockSanitizer
from repro.obs import MetricsRegistry, set_registry


@pytest.fixture
def registry():
    """An isolated metrics registry for counter assertions."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def run_in_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join()


class TestInstallation:
    def test_factories_patched_and_restored(self):
        original_lock = threading.Lock
        original_rlock = threading.RLock
        sanitizer = LockSanitizer()
        with sanitizer.installed():
            assert threading.Lock is not original_lock
            assert threading.RLock is not original_rlock
            lock = threading.Lock()
            assert "test_sanitizer.py" in lock.name
        assert threading.Lock is original_lock
        assert threading.RLock is original_rlock

    def test_disabled_sanitizer_is_a_noop(self):
        # nothing patched, so code under it runs exactly as without it
        original_lock = threading.Lock
        original_rlock = threading.RLock
        sanitizer = LockSanitizer(enabled=False)
        with sanitizer.installed():
            assert threading.Lock is original_lock
            assert threading.RLock is original_rlock
            lock, rlock = threading.Lock(), threading.RLock()
        assert type(lock) is type(original_lock())
        assert type(rlock) is type(original_rlock())
        assert sanitizer.report().locks_created == 0

    def test_locks_made_before_install_are_untouched(self):
        plain = threading.Lock()
        sanitizer = LockSanitizer()
        with sanitizer.installed():
            with plain:
                pass
        assert sanitizer.report().acquisitions == 0


class TestOrderTracking:
    def test_consistent_order_no_inversion(self, registry):
        sanitizer = LockSanitizer()
        with sanitizer.installed():
            a = threading.Lock()
            b = threading.Lock()
            for _ in range(3):
                with a:
                    with b:
                        pass
        report = sanitizer.report()
        assert report.inversions == []
        assert report.acquisitions == 6
        assert len(report.edges) == 1

    def test_inversion_detected_across_threads(self, registry):
        sanitizer = LockSanitizer()
        with sanitizer.installed():
            a = threading.Lock()
            b = threading.Lock()

            def forward():
                with a:
                    with b:
                        pass

            def backward():
                with b:
                    with a:
                        pass

            run_in_thread(forward)
            run_in_thread(backward)
        report = sanitizer.report()
        assert len(report.inversions) == 1
        inversion = report.inversions[0]
        assert inversion.first != inversion.second
        assert "inversion" in inversion.describe()
        counter = registry.get("repro_sanitizer_inversions_total")
        assert counter.value == 1

    def test_inversion_reported_once_per_pair(self, registry):
        sanitizer = LockSanitizer()
        with sanitizer.installed():
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
            for _ in range(5):
                with b:
                    with a:
                        pass
        assert len(sanitizer.report().inversions) == 1

    def test_same_site_nesting_not_an_inversion(self, registry):
        sanitizer = LockSanitizer()
        with sanitizer.installed():
            def make():
                return threading.Lock()  # one shared creation site

            first, second = make(), make()
            with first:
                with second:
                    pass
            with second:
                with first:
                    pass
        report = sanitizer.report()
        assert report.inversions == []
        assert report.same_site_nestings == 2

    def test_rlock_reentry_is_not_an_edge(self, registry):
        sanitizer = LockSanitizer()
        with sanitizer.installed():
            lock = threading.RLock()
            with lock:
                with lock:
                    pass
        report = sanitizer.report()
        assert report.edges == set()
        assert report.inversions == []


class TestHoldTiming:
    def test_long_hold_recorded(self, registry):
        sanitizer = LockSanitizer(long_hold_threshold=0.02)
        with sanitizer.installed():
            lock = threading.Lock()
            with lock:
                time.sleep(0.04)
        report = sanitizer.report()
        assert len(report.long_holds) == 1
        hold = report.long_holds[0]
        assert hold.seconds >= 0.02
        assert "held for" in hold.describe()
        counter = registry.get("repro_sanitizer_long_holds_total")
        assert counter.value == 1

    def test_short_hold_not_recorded(self, registry):
        sanitizer = LockSanitizer(long_hold_threshold=5.0)
        with sanitizer.installed():
            lock = threading.Lock()
            with lock:
                pass
        assert sanitizer.report().long_holds == []

    def test_none_threshold_disables_timing(self, registry):
        sanitizer = LockSanitizer(long_hold_threshold=None)
        with sanitizer.installed():
            lock = threading.Lock()
            with lock:
                time.sleep(0.01)
        assert sanitizer.report().long_holds == []


class TestContention:
    def test_contended_acquisition_counted(self, registry):
        sanitizer = LockSanitizer()
        with sanitizer.installed():
            lock = threading.Lock()
            entered = threading.Event()

            def holder():
                with lock:
                    entered.set()
                    time.sleep(0.05)

            thread = threading.Thread(target=holder)
            thread.start()
            entered.wait()
            with lock:  # must wait for the holder
                pass
            thread.join()
        assert sanitizer.report().contended >= 1


class TestConditionCompatibility:
    def test_condition_over_sanitized_rlock(self, registry):
        sanitizer = LockSanitizer()
        with sanitizer.installed():
            cond = threading.Condition(threading.RLock())
            items = []

            def consumer():
                with cond:
                    while not items:
                        cond.wait(timeout=2)

            thread = threading.Thread(target=consumer)
            thread.start()
            time.sleep(0.02)
            with cond:
                items.append(1)
                cond.notify()
            thread.join()
        report = sanitizer.report()
        assert report.inversions == []
        assert report.acquisitions >= 3  # enter/exit + wait cycles


class TestReport:
    def test_render_mentions_every_section(self, registry):
        sanitizer = LockSanitizer()
        with sanitizer.installed():
            with threading.Lock():
                pass
        text = sanitizer.report().render()
        assert "acquisitions" in text
        assert "inversions" in text
        assert "long holds" in text

    def test_reset_clears_state(self, registry):
        sanitizer = LockSanitizer()
        with sanitizer.installed():
            with threading.Lock():
                pass
        sanitizer.reset()
        report = sanitizer.report()
        assert report.acquisitions == 0
        assert report.locks_created == 0

    def test_acquisition_counter_exported(self, registry):
        sanitizer = LockSanitizer()
        with sanitizer.installed():
            lock = threading.Lock()
            for _ in range(4):
                with lock:
                    pass
        counter = registry.get("repro_sanitizer_acquisitions_total")
        assert counter.value == 4
