"""Concurrency analyzer tests — one golden (rule id + span) test per
CC rule on a crafted fixture, plus suppression/contract semantics and
the repo's own clean baseline (the PR 1 lint-test idiom)."""

from pathlib import Path
from textwrap import dedent

import pytest

import repro
from repro.analysis import Severity, Span
from repro.analysis.concurrency import (
    ConcurrencyAnalyzer,
    analyze_paths,
)


def lint(source, name="fixture.py"):
    """Per-file rules plus the (single-file) lock-order graph."""
    analyzer = ConcurrencyAnalyzer()
    diags = analyzer.analyze_source(dedent(source), name)
    return diags + analyzer.order_graph_diagnostics()


def rules_of(diags):
    return [d.rule for d in diags]


def only(diags, rule):
    matching = [d for d in diags if d.rule == rule]
    assert len(matching) == 1, f"expected one {rule}, got {diags}"
    return matching[0]


# ---------------------------------------------------------------------------
# CC001 — guarded attribute accessed unguarded
# ---------------------------------------------------------------------------


CC001_SOURCE = dedent('''
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}

        def put(self, key, value):
            with self._lock:
                self._items[key] = value

        def peek(self, key):
            return self._items.get(key)
''')


def test_cc001_unguarded_read():
    diag = only(lint(CC001_SOURCE), "CC001")
    assert diag.severity is Severity.ERROR
    assert "_items" in diag.message
    assert "Box._lock" in diag.message
    assert "peek" in diag.message
    start = CC001_SOURCE.find("self._items.get")
    assert diag.span == Span(start, start + len("self._items"))


def test_cc001_silent_when_all_accesses_guarded():
    clean = CC001_SOURCE.replace(
        "        return self._items.get(key)",
        "        with self._lock:\n"
        "            return self._items.get(key)",
    )
    assert "CC001" not in rules_of(lint(clean))


def test_cc001_config_read_in_init_does_not_arm():
    # attributes only *read* under a lock (never written there) are
    # configuration, not shared mutable state
    source = '''
        import threading

        class Breaker:
            def __init__(self, threshold):
                self._lock = threading.Lock()
                self.threshold = threshold
                self._failures = 0

            def record(self):
                with self._lock:
                    self._failures += 1
                    return self._failures >= self.threshold

            def describe(self):
                return f"threshold={self.threshold}"
    '''
    assert "CC001" not in rules_of(lint(source))


def test_cc001_unguarded_write_flagged_too():
    source = '''
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def safe(self):
                with self._lock:
                    self._n += 1

            def racy(self):
                self._n += 1
    '''
    diag = only(lint(source), "CC001")
    assert "written" in diag.message


# ---------------------------------------------------------------------------
# CC002 — inconsistent lock order
# ---------------------------------------------------------------------------


CC002_SOURCE = dedent('''
    import threading

    class Transfer:
        def __init__(self):
            self._accounts = threading.Lock()
            self._audit = threading.Lock()

        def debit(self):
            with self._accounts:
                with self._audit:
                    pass

        def log(self):
            with self._audit:
                with self._accounts:
                    pass
''')


def test_cc002_lock_order_cycle():
    diags = [d for d in lint(CC002_SOURCE) if d.rule == "CC002"]
    assert len(diags) == 2  # one per conflicting edge
    assert all(d.severity is Severity.ERROR for d in diags)
    assert any("Transfer._audit" in d.message for d in diags)
    start = CC002_SOURCE.find("self._audit:", CC002_SOURCE.find("debit"))
    assert diags[0].span == Span(start, start + len("self._audit"))


def test_cc002_consistent_order_is_silent():
    consistent = CC002_SOURCE.replace(
        "    def log(self):\n"
        "        with self._audit:\n"
        "            with self._accounts:",
        "    def log(self):\n"
        "        with self._accounts:\n"
        "            with self._audit:",
    )
    assert consistent != CC002_SOURCE
    assert "CC002" not in rules_of(lint(consistent))


def test_cc002_cross_file_cycle():
    # each file is order-consistent on its own; the cycle only exists
    # in the union of their edges
    file_a = '''
        import threading
        from app import locks

        def forward():
            with locks.A:
                with locks.B:
                    pass
    '''
    file_b = '''
        import threading
        from app import locks

        def backward():
            with locks.B:
                with locks.A:
                    pass
    '''
    # module-level lock identities must match across files, so craft
    # them as module locks of one shared module name
    shared = '''
        import threading

        A = threading.Lock()
        B = threading.Lock()

        def forward():
            with A:
                with B:
                    pass
    '''
    reverse = '''
        import threading

        A = threading.Lock()
        B = threading.Lock()

        def backward():
            with B:
                with A:
                    pass
    '''
    del file_a, file_b
    analyzer = ConcurrencyAnalyzer()
    first = analyzer.analyze_source(dedent(shared), "locks.py")
    second = analyzer.analyze_source(dedent(reverse), "locks.py")
    assert first == [] and second == []
    cycle = analyzer.order_graph_diagnostics()
    assert {d.rule for d in cycle} == {"CC002"}
    assert len(cycle) == 2


# ---------------------------------------------------------------------------
# CC003 — blocking work under a lock
# ---------------------------------------------------------------------------


def test_cc003_sleep_under_lock():
    source = '''
        import threading
        import time

        class Poller:
            def __init__(self):
                self._lock = threading.Lock()

            def poll(self):
                with self._lock:
                    time.sleep(0.1)
    '''
    diag = only(lint(source), "CC003")
    assert diag.severity is Severity.ERROR
    assert "time.sleep" in diag.message


def test_cc003_injected_clock_under_lock():
    source = '''
        import threading

        class Cache:
            def __init__(self, clock):
                self._lock = threading.Lock()
                self._clock = clock

            def now(self):
                with self._lock:
                    return self._clock()
    '''
    diag = only(lint(source), "CC003")
    assert "_clock" in diag.message
    assert "injected" in diag.message


def test_cc003_future_result_and_open_under_lock():
    source = '''
        import threading

        class Collector:
            def __init__(self):
                self._lock = threading.Lock()

            def wait_for(self, future, path):
                with self._lock:
                    value = future.result()
                    with open(path) as handle:
                        return value, handle.read()
    '''
    diags = [d for d in lint(source) if d.rule == "CC003"]
    assert len(diags) == 2
    assert any("result()" in d.message for d in diags)
    assert any("open()" in d.message for d in diags)


def test_cc003_clock_sampled_before_lock_is_silent():
    source = '''
        import threading

        class Cache:
            def __init__(self, clock):
                self._lock = threading.Lock()
                self._clock = clock

            def now(self):
                now = self._clock()
                with self._lock:
                    return now
    '''
    assert "CC003" not in rules_of(lint(source))


# ---------------------------------------------------------------------------
# CC005 — per-call lock
# ---------------------------------------------------------------------------


def test_cc005_lock_created_per_call():
    source = '''
        import threading

        def guard(data):
            lock = threading.Lock()
            with lock:
                data.append(1)
    '''
    diag = only(lint(source), "CC005")
    assert diag.severity is Severity.ERROR
    start = dedent(source).find("threading.Lock()")
    assert diag.span == Span(start, start + len("threading.Lock()"))


def test_cc005_init_and_module_level_are_silent():
    source = '''
        import threading

        GLOBAL = threading.Lock()

        class Holder:
            def __init__(self):
                self._lock = threading.RLock()
    '''
    assert "CC005" not in rules_of(lint(source))


# ---------------------------------------------------------------------------
# CC006 — manual acquire without try/finally
# ---------------------------------------------------------------------------


def test_cc006_manual_acquire_unprotected():
    source = '''
        import threading

        _lock = threading.Lock()

        def work():
            _lock.acquire()
            step()
            _lock.release()
    '''
    diag = only(lint(source), "CC006")
    assert diag.severity is Severity.WARNING


def test_cc006_try_finally_is_silent():
    source = '''
        import threading

        _lock = threading.Lock()

        def work():
            _lock.acquire()
            try:
                step()
            finally:
                _lock.release()
    '''
    assert "CC006" not in rules_of(lint(source))


# ---------------------------------------------------------------------------
# CC008 — class-level mutable attribute mutated via instances
# ---------------------------------------------------------------------------


def test_cc008_shared_class_attribute():
    source = '''
        import threading

        class Registry:
            entries = []

            def register(self, item):
                self.entries.append(item)
    '''
    diag = only(lint(source), "CC008")
    assert diag.severity is Severity.WARNING
    assert "entries" in diag.message


def test_cc008_instance_attribute_is_silent():
    source = '''
        import threading

        class Registry:
            def __init__(self):
                self.entries = []

            def register(self, item):
                self.entries.append(item)
    '''
    assert "CC008" not in rules_of(lint(source))


# ---------------------------------------------------------------------------
# CC009 — Condition.wait outside a while loop
# ---------------------------------------------------------------------------


def test_cc009_wait_without_predicate_loop():
    source = '''
        import threading

        class Queue:
            def __init__(self):
                self._cond = threading.Condition()
                self._items = []

            def take(self):
                with self._cond:
                    self._cond.wait()
                    return self._items.pop()
    '''
    diag = only(lint(source), "CC009")
    assert diag.severity is Severity.WARNING


def test_cc009_wait_in_while_is_silent():
    source = '''
        import threading

        class Queue:
            def __init__(self):
                self._cond = threading.Condition()
                self._items = []

            def take(self):
                with self._cond:
                    while not self._items:
                        self._cond.wait()
                    return self._items.pop()
    '''
    assert "CC009" not in rules_of(lint(source))


# ---------------------------------------------------------------------------
# Suppressions: inline pragmas and module contracts
# ---------------------------------------------------------------------------


def test_inline_pragma_suppresses_named_rule():
    suppressed = CC001_SOURCE.replace(
        "        return self._items.get(key)",
        "        return self._items.get(key)  # cc: allow=CC001",
    )
    assert "CC001" not in rules_of(lint(suppressed))


def test_inline_pragma_other_rule_does_not_suppress():
    wrong = CC001_SOURCE.replace(
        "        return self._items.get(key)",
        "        return self._items.get(key)  # cc: allow=CC003",
    )
    assert "CC001" in rules_of(lint(wrong))


def test_bare_pragma_suppresses_everything_on_the_line():
    suppressed = CC001_SOURCE.replace(
        "        return self._items.get(key)",
        "        return self._items.get(key)  # cc: allow",
    )
    assert "CC001" not in rules_of(lint(suppressed))


def test_single_writer_contract_allows_unguarded_reads():
    contracted = (
        '"""Module under test.\n\nConcurrency: single-writer\n"""\n'
        + CC001_SOURCE
    )
    assert "CC001" not in rules_of(lint(contracted))


def test_single_writer_contract_still_flags_unguarded_writes():
    contracted = (
        '"""Module under test.\n\nConcurrency: single-writer\n"""\n'
        + CC001_SOURCE.replace(
            "        return self._items.get(key)",
            "        self._items[key] = None",
        )
    )
    diag = only(lint(contracted), "CC001")
    assert "written" in diag.message


def test_single_threaded_contract_disables_shared_state_rules():
    contracted = (
        '"""Module under test.\n\nConcurrency: single-threaded\n"""\n'
        + CC001_SOURCE
    )
    assert rules_of(lint(contracted)) == []


def test_unreadable_path_raises():
    with pytest.raises(FileNotFoundError):
        analyze_paths([Path("/nonexistent/code.py")])


def test_syntax_error_raises():
    with pytest.raises(SyntaxError) as excinfo:
        lint("def broken(:\n    pass")
    assert excinfo.value.filename == "fixture.py"


# ---------------------------------------------------------------------------
# The repo's own baseline is clean (tentpole acceptance criterion)
# ---------------------------------------------------------------------------


def test_repro_package_is_concurrency_clean():
    package = Path(repro.__file__).resolve().parent
    diags = analyze_paths([package])
    rendered = "\n".join(
        f"{d.rule} {d.source}: {d.message}" for d in diags
    )
    assert diags == [], rendered

