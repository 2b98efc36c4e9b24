"""Shared fixtures: the opt-in runtime lock sanitizer.

Two ways to run tests under :class:`repro.analysis.LockSanitizer`:

* request the ``lock_sanitizer`` fixture explicitly (the stress tests
  do) — the test gets the sanitizer object and the fixture fails the
  test on any lock-order inversion at teardown;
* set ``REPRO_SANITIZE=1`` in the environment to wrap *every* test in
  the sanitizer (CI's fault-injection step runs the thread-heavy
  suites in this mode).
"""

import os

import pytest

from repro.analysis.sanitizer import LockSanitizer

_SANITIZE_ALL = os.environ.get("REPRO_SANITIZE") == "1"


def _run_lock_sanitized():
    sanitizer = LockSanitizer()
    with sanitizer.installed():
        yield sanitizer
    report = sanitizer.report()
    if report.inversions:
        pytest.fail(
            "lock-order inversion(s) under the sanitizer:\n"
            + report.render()
        )


@pytest.fixture
def lock_sanitizer():
    """Run this test under the lock sanitizer; fail on inversions."""
    yield from _run_lock_sanitized()


@pytest.fixture(autouse=_SANITIZE_ALL)
def _sanitize_everything():
    """With REPRO_SANITIZE=1, every test runs under the lock sanitizer."""
    yield from _run_lock_sanitized()
