"""Resilience-layer tests: retry/backoff schedules, breaker state
transitions, cache TTL/LRU behavior, timeout, and fault injection."""

import threading

import pytest

from repro.rdf import DBPR
from repro.resolvers import Candidate, Resolver
from repro.resolvers.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    CircuitOpenError,
    FlakyResolver,
    ResilientResolver,
    ResolverTimeoutError,
    RetryPolicy,
    TTLCache,
    wrap_resilient,
)


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class ScriptedResolver(Resolver):
    """Fails for the first ``fail_first`` calls, then succeeds."""

    name = "scripted"

    def __init__(self, fail_first: int = 0) -> None:
        self.fail_first = fail_first
        self.calls = 0

    def resolve_term(self, word, language=None):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise RuntimeError(f"scripted failure #{self.calls}")
        return [Candidate(
            resource=DBPR.Turin, label="Turin", score=1.0,
            resolver=self.name, word=word,
        )]


class TestRetryPolicy:
    def test_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=0.5, jitter=0.0,
        )
        assert policy.schedule() == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            attempts=3, base_delay=0.1, max_delay=10.0, jitter=0.5,
        )
        first = policy.schedule("dbpedia:turin")
        again = policy.schedule("dbpedia:turin")
        other = policy.schedule("dbpedia:rome")
        assert first == again          # same key -> same schedule
        assert first != other          # different key -> spread out
        for base, delayed in zip([0.1, 0.2], first):
            assert base <= delayed <= base * 1.5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout=10.0, clock=clock
        )
        assert breaker.state == BREAKER_CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()          # the single probe slot
        assert not breaker.allow()      # concurrent probe rejected
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 2
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()          # a fresh probe after the wait

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED


class LockProbeClock:
    """A clock that fails the test if invoked while the owner's
    internal lock is held (regression guard: time functions must be
    sampled *before* ``self._lock`` is taken, never under it)."""

    def __init__(self) -> None:
        self.now = 0.0
        self.owner = None
        self.calls = 0
        self.violations = 0

    def __call__(self) -> float:
        self.calls += 1
        lock = self.owner._lock
        if lock.acquire(blocking=False):
            lock.release()
        else:
            self.violations += 1
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestNoClockCallsUnderLock:
    """The breaker and cache must never invoke the injected clock while
    holding ``self._lock`` — a slow or reentrant clock would otherwise
    stall every other thread (or deadlock a reentrant caller)."""

    def test_breaker_never_calls_clock_under_lock(self):
        clock = LockProbeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        clock.owner = breaker

        breaker.record_failure()            # trips open
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

        assert clock.calls > 0
        assert clock.violations == 0

    def test_cache_never_calls_clock_under_lock(self):
        clock = LockProbeClock()
        cache = TTLCache(max_size=4, ttl=10.0, clock=clock)
        clock.owner = cache

        cache.put("k", "v")
        assert cache.get("k") == (True, "v")
        clock.advance(10.0)
        assert cache.get("k") == (False, None)
        cache.put("k", "v2")

        assert clock.calls > 0
        assert clock.violations == 0


class TestTTLCache:
    def test_hit_and_miss(self):
        cache = TTLCache(max_size=4, ttl=None)
        assert cache.get("k") == (False, None)
        cache.put("k", [1, 2])
        assert cache.get("k") == (True, [1, 2])
        assert cache.hits == 1
        assert cache.misses == 1

    def test_cached_empty_list_is_a_hit(self):
        cache = TTLCache(max_size=4, ttl=None)
        cache.put("empty", [])
        hit, value = cache.get("empty")
        assert hit is True
        assert value == []

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = TTLCache(max_size=4, ttl=60.0, clock=clock)
        cache.put("k", "v")
        clock.advance(59.9)
        assert cache.get("k") == (True, "v")
        clock.advance(0.1)              # exactly at the TTL boundary
        assert cache.get("k") == (False, None)
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = TTLCache(max_size=2, ttl=None)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")                  # refresh a -> b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.get("c") == (True, 3)
        assert cache.evictions == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TTLCache(max_size=0)
        with pytest.raises(ValueError):
            TTLCache(ttl=0.0)


class TestResilientResolver:
    def _wrap(self, inner, **kwargs):
        kwargs.setdefault(
            "retry",
            RetryPolicy(attempts=3, base_delay=0.01, jitter=0.0),
        )
        kwargs.setdefault("sleep", lambda _: None)
        return ResilientResolver(inner, **kwargs)

    def test_retries_until_success(self):
        inner = ScriptedResolver(fail_first=2)
        slept = []
        resolver = self._wrap(inner, sleep=slept.append)
        candidates = resolver.resolve_term("Turin")
        assert candidates[0].resource == DBPR.Turin
        assert inner.calls == 3
        # two backoffs: 0.01 then 0.02 (no jitter)
        assert slept == pytest.approx([0.01, 0.02])
        stats = resolver.stats()
        assert stats.retries == 2
        assert stats.successes == 1
        assert stats.failures == 0

    def test_exhausted_retries_raise_original_error(self):
        inner = ScriptedResolver(fail_first=10)
        resolver = self._wrap(inner)
        with pytest.raises(RuntimeError, match="scripted failure"):
            resolver.resolve_term("Turin")
        assert inner.calls == 3
        assert resolver.stats().failures == 1

    def test_cache_prevents_second_call(self):
        inner = ScriptedResolver()
        resolver = self._wrap(inner)
        first = resolver.resolve_term("Turin")
        second = resolver.resolve_term("Turin")
        assert first == second
        assert inner.calls == 1
        stats = resolver.stats()
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert stats.cache_hit_rate == 0.5

    def test_cached_value_is_copied(self):
        inner = ScriptedResolver()
        resolver = self._wrap(inner)
        first = resolver.resolve_term("Turin")
        first.append("tampered")
        assert resolver.resolve_term("Turin") != first

    def test_cache_ttl_expiry_recalls_inner(self):
        clock = FakeClock()
        inner = ScriptedResolver()
        resolver = self._wrap(
            inner,
            cache=TTLCache(max_size=8, ttl=30.0, clock=clock),
            clock=clock,
        )
        resolver.resolve_term("Turin")
        clock.advance(31.0)
        resolver.resolve_term("Turin")
        assert inner.calls == 2

    def test_breaker_opens_and_rejects(self):
        clock = FakeClock()
        inner = ScriptedResolver(fail_first=100)
        resolver = self._wrap(
            inner,
            breaker=CircuitBreaker(
                failure_threshold=3, reset_timeout=60.0, clock=clock
            ),
            clock=clock,
        )
        with pytest.raises(RuntimeError):
            resolver.resolve_term("Turin")   # 3 attempts -> breaker opens
        with pytest.raises(CircuitOpenError):
            resolver.resolve_term("Rome")    # rejected without a call
        assert inner.calls == 3
        stats = resolver.stats()
        assert stats.breaker_state == BREAKER_OPEN
        assert stats.breaker_trips == 1
        assert stats.rejected == 1

    def test_breaker_half_open_recovery(self):
        clock = FakeClock()
        inner = ScriptedResolver(fail_first=3)
        resolver = self._wrap(
            inner,
            breaker=CircuitBreaker(
                failure_threshold=3, reset_timeout=60.0, clock=clock
            ),
            clock=clock,
        )
        with pytest.raises(RuntimeError):
            resolver.resolve_term("Turin")
        clock.advance(60.0)
        # the probe call succeeds (inner recovered) and closes the loop
        assert resolver.resolve_term("Rome")
        assert resolver.stats().breaker_state == BREAKER_CLOSED

    def test_timeout_raises(self):
        done = threading.Event()

        class Slow(Resolver):
            name = "slow"

            def resolve_term(self, word, language=None):
                done.wait(5.0)
                return []

        resolver = ResilientResolver(
            Slow(),
            retry=RetryPolicy(attempts=1),
            timeout=0.05,
        )
        with pytest.raises(ResolverTimeoutError):
            resolver.resolve_term("Turin")
        done.set()
        assert resolver.stats().timeouts == 1

    def test_full_text_delegation(self):
        class FullText(Resolver):
            name = "ft"

            def resolve_term(self, word, language=None):
                return []

            def resolve_text(self, text, language=None):
                return [Candidate(
                    resource=DBPR.Turin, label="Turin", score=0.5,
                    resolver=self.name, word="turin",
                )]

        plain = self._wrap(ScriptedResolver())
        assert plain.supports_full_text is False
        full = self._wrap(FullText())
        assert full.supports_full_text is True
        assert full.resolve_text("a view of turin")

    def test_wrap_resilient_isolates_breakers_and_caches(self):
        resolvers = wrap_resilient(
            [ScriptedResolver(), ScriptedResolver()]
        )
        assert resolvers[0].breaker is not resolvers[1].breaker
        assert resolvers[0].cache is not resolvers[1].cache


class TestFlakyResolver:
    def test_always_failing(self):
        flaky = FlakyResolver(ScriptedResolver(), failure_rate=1.0)
        with pytest.raises(RuntimeError, match="injected fault"):
            flaky.resolve_term("Turin")
        assert flaky.injected_failures == 1

    def test_never_failing_delegates(self):
        inner = ScriptedResolver()
        flaky = FlakyResolver(inner, failure_rate=0.0)
        assert flaky.resolve_term("Turin")
        assert inner.calls == 1

    def test_seeded_determinism_per_input(self):
        def outcomes(seed):
            flaky = FlakyResolver(
                ScriptedResolver(), failure_rate=0.5, seed=seed
            )
            result = []
            for word in ["a", "b", "c", "d", "e", "f"]:
                try:
                    flaky.resolve_term(word)
                    result.append(True)
                except RuntimeError:
                    result.append(False)
            return result

        assert outcomes(1) == outcomes(1)
        assert outcomes(1) != outcomes(2)

    def test_fail_first_shape(self):
        inner = ScriptedResolver()
        flaky = FlakyResolver(inner, fail_first=2)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                flaky.resolve_term("Turin")
        assert flaky.resolve_term("Turin")
        # a different input gets its own fail-first counter
        with pytest.raises(RuntimeError):
            flaky.resolve_term("Rome")

    def test_retry_through_resilient_wrapper_succeeds(self):
        inner = ScriptedResolver()
        flaky = FlakyResolver(inner, fail_first=2)
        resolver = ResilientResolver(
            flaky,
            retry=RetryPolicy(attempts=3, base_delay=0.0, jitter=0.0),
            sleep=lambda _: None,
        )
        assert resolver.resolve_term("Turin")
        assert resolver.stats().retries == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FlakyResolver(ScriptedResolver(), failure_rate=1.5)
        with pytest.raises(ValueError):
            FlakyResolver(ScriptedResolver(), latency=-1.0)
