"""Resilience layer around resolvers (paper §2.2.2, hardened).

The paper's brokering component exists because external LOD resolvers
(DBpedia lookup, Geonames, Sindice, Zemanta, Evri) are slow and
unreliable. This module makes that explicit: :class:`ResilientResolver`
wraps any :class:`~repro.resolvers.base.Resolver` with

* a **per-call timeout** (the wrapped call runs on a helper thread and
  is abandoned when the deadline passes),
* **retry** with exponential backoff and *deterministic* jitter
  (:class:`RetryPolicy` — the jitter is a hash of the call key and the
  attempt number, so schedules are reproducible in tests and logs),
* a per-resolver **circuit breaker** (:class:`CircuitBreaker`,
  closed → open → half-open) that stops hammering a resolver that keeps
  failing,
* a bounded, thread-safe **LRU + TTL cache** (:class:`TTLCache`) keyed
  on ``(word, language)`` so repeated lookups — the common case in
  batch annotation, where titles share words — never leave the process,
* and per-resolver **counters** (:class:`ResolverStats`: calls,
  failures, retries, timeouts, breaker trips, cache hit rate, latency)
  that batch runs and the ``repro annotate-batch`` CLI surface.

:class:`FlakyResolver` is the matching fault-injection wrapper: seeded,
per-input-deterministic failures and simulated latency, used by the
fault-injection test-suite and the batch benchmark.

Everything here is thread-safe: one wrapped resolver instance is meant
to be shared by all of a :class:`~repro.core.batch.BatchAnnotator`'s
workers.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import get_registry, get_tracer
from .base import Candidate, Resolver

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "CircuitOpenError",
    "FlakyResolver",
    "ResilientResolver",
    "ResolverStats",
    "ResolverTimeoutError",
    "RetryPolicy",
    "TTLCache",
    "wrap_resilient",
]


def _hash_fraction(text: str) -> float:
    """Deterministic, well-mixed fraction in [0, 1) from ``text``.

    blake2b, not crc32: crc32 is GF(2)-linear, so nearby inputs (a
    seed bumped by one) produce correlated — often complementary —
    decision patterns instead of independent-looking ones.
    """
    digest = hashlib.blake2b(
        text.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2 ** 64


class ResolverTimeoutError(RuntimeError):
    """A resolver call exceeded its per-call deadline."""


class CircuitOpenError(RuntimeError):
    """The resolver's circuit breaker is open — call skipped."""


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``attempts`` is the *total* number of tries (1 = no retry). The
    delay before retry ``n`` (0-based) doubles each time::

        min(base_delay * 2**n, max_delay) * (1 + jitter * h)

    where ``h`` in [0, 1) is a hash of ``(key, n)`` — stable across
    runs, different across keys, so a thundering herd of identical
    words still spreads out without any global randomness.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(
            self.base_delay * 2 ** attempt, self.max_delay
        )
        if self.jitter:
            raw *= 1.0 + self.jitter * _hash_fraction(
                f"{key}#{attempt}"
            )
        return raw

    def schedule(self, key: str = "") -> List[float]:
        """All backoff delays for ``key`` — ``attempts - 1`` entries."""
        return [self.delay(n, key) for n in range(self.attempts - 1)]


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Classic closed/open/half-open breaker, thread-safe.

    ``failure_threshold`` consecutive failures trip the breaker open;
    after ``reset_timeout`` seconds one probe call is let through
    (half-open). A successful probe closes the breaker, a failing one
    re-opens it for another full timeout.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.trips = 0

    @property
    def state(self) -> str:
        now = self._clock()  # injected callable: never under _lock
        with self._lock:
            return self._effective_state(now)

    def _effective_state(self, now: float) -> str:
        # Called with self._lock held; ``now`` is sampled by the caller
        # before acquiring it so the injected clock never runs inside
        # the critical section. The analyzer is intra-procedural and
        # cannot see the caller's lock, hence the CC001 pragmas.
        if (
            self._state == BREAKER_OPEN  # cc: allow=CC001
            and now - self._opened_at >= self.reset_timeout  # cc: allow=CC001
        ):
            return BREAKER_HALF_OPEN
        return self._state  # cc: allow=CC001

    def allow(self) -> bool:
        """May a call proceed right now?

        In the half-open state only one caller wins the probe slot;
        concurrent callers are rejected until the probe reports back.
        """
        now = self._clock()
        with self._lock:
            state = self._effective_state(now)
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_HALF_OPEN and not self._probe_in_flight:
                # claim the single probe slot
                self._state = BREAKER_HALF_OPEN
                self._probe_in_flight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = BREAKER_CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        now = self._clock()  # sampled before the lock (CC003)
        with self._lock:
            if self._state == BREAKER_HALF_OPEN:
                # failed probe: straight back to open
                self._state = BREAKER_OPEN
                self._opened_at = now
                self._probe_in_flight = False
                self.trips += 1
                return
            self._consecutive_failures += 1
            if (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = BREAKER_OPEN
                self._opened_at = now
                self.trips += 1


# ----------------------------------------------------------------------
# LRU + TTL cache
# ----------------------------------------------------------------------
class TTLCache:
    """Bounded LRU cache with per-entry TTL, thread-safe.

    ``get`` returns ``(hit, value)`` so a cached empty candidate list is
    distinguishable from a miss. Expired entries count as misses and are
    dropped on access; inserting into a full cache evicts the least
    recently used entry.
    """

    def __init__(
        self,
        max_size: int = 1024,
        ttl: Optional[float] = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        self.max_size = max_size
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Any, Tuple[float, Any]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Any) -> Tuple[bool, Any]:
        # the injected clock is caller-supplied code of unknown cost:
        # sample it before entering the critical section (CC003)
        now = self._clock() if self.ttl is not None else 0.0
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return False, None
            stored_at, value = entry
            if self.ttl is not None and now - stored_at >= self.ttl:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            return True, value

    def put(self, key: Any, value: Any) -> None:
        now = self._clock()  # sampled before the lock (CC003)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            elif len(self._entries) >= self.max_size:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = (now, value)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
@dataclass
class ResolverStats:
    """Counters one :class:`ResilientResolver` accumulates."""

    name: str = ""
    calls: int = 0            # resolver invocations that ran (not cached)
    successes: int = 0
    failures: int = 0         # guarded calls that raised (exhausted
    #                           retries or rejected by an open breaker)
    retries: int = 0          # extra attempts after a failed one
    timeouts: int = 0
    rejected: int = 0         # calls skipped by an open breaker
    breaker_trips: int = 0
    breaker_state: str = BREAKER_CLOSED
    cache_hits: int = 0
    cache_misses: int = 0
    latency_total: float = 0.0  # seconds spent inside the resolver
    latency_max: float = 0.0
    last_error: Optional[str] = None

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def mean_latency_ms(self) -> float:
        return (
            self.latency_total / self.calls * 1000.0 if self.calls else 0.0
        )

    def delta(self, earlier: "ResolverStats") -> "ResolverStats":
        """Counters accumulated since the ``earlier`` snapshot."""
        return ResolverStats(
            name=self.name,
            calls=self.calls - earlier.calls,
            successes=self.successes - earlier.successes,
            failures=self.failures - earlier.failures,
            retries=self.retries - earlier.retries,
            timeouts=self.timeouts - earlier.timeouts,
            rejected=self.rejected - earlier.rejected,
            breaker_trips=self.breaker_trips - earlier.breaker_trips,
            breaker_state=self.breaker_state,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_misses=self.cache_misses - earlier.cache_misses,
            latency_total=self.latency_total - earlier.latency_total,
            latency_max=self.latency_max,
            last_error=self.last_error,
        )


# ----------------------------------------------------------------------
# The resilient wrapper
# ----------------------------------------------------------------------
#: Registry counter families backing :class:`ResolverStats` fields.
#: Children carry ``{resolver, instance}`` labels; the ``instance``
#: label is unique per wrapper, so a fresh resolver reads zero even
#: though the registry is process-wide.
_RESOLVER_COUNTERS: Dict[str, Tuple[str, str]] = {
    "calls": (
        "repro_resolver_calls_total",
        "Resolver invocations that ran (not served from cache).",
    ),
    "successes": (
        "repro_resolver_successes_total",
        "Resolver invocations that returned.",
    ),
    "failures": (
        "repro_resolver_failures_total",
        "Guarded calls that raised after exhausting retries or were "
        "rejected by an open breaker.",
    ),
    "retries": (
        "repro_resolver_retries_total",
        "Extra attempts after a failed one.",
    ),
    "timeouts": (
        "repro_resolver_timeouts_total",
        "Resolver invocations that exceeded the per-call deadline.",
    ),
    "rejected": (
        "repro_resolver_rejected_total",
        "Calls skipped because the circuit breaker was open.",
    ),
}

_RESOLVER_LATENCY = (
    "repro_resolver_latency_seconds",
    "Wall time spent inside the wrapped resolver, per invocation.",
)

_BREAKER_STATE_CODES = {
    BREAKER_CLOSED: 0,
    BREAKER_HALF_OPEN: 1,
    BREAKER_OPEN: 2,
}

_INSTANCE_IDS = itertools.count(1)


class ResilientResolver(Resolver):
    """Hardens an inner resolver with timeout/retry/breaker/cache.

    The wrapper is a drop-in :class:`Resolver`: it keeps the inner
    resolver's ``name`` and full-text capability, so brokers and
    filters never know it is there. All state (cache, breaker,
    counters) is thread-safe and shared across workers using the same
    instance.

    ``clock`` and ``sleep`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        inner: Resolver,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        cache: Optional[TTLCache] = None,
        timeout: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        self.inner = inner
        self.name = inner.name
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.cache = cache if cache is not None else TTLCache()
        self.timeout = timeout
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        # counters live in the obs registry (see _RESOLVER_COUNTERS);
        # the unique instance label keeps this wrapper's view at zero
        # regardless of what earlier instances accumulated there.
        self._instance = str(next(_INSTANCE_IDS))
        self._last_error: Optional[str] = None
        # hot-path span constants: resolvers are called once per word
        # per resolver, so skip per-call f-strings and dict literals
        self._span_name = f"resolver.{self.name}"
        self._span_attrs = {"instance": self._instance}

    # -- Resolver interface --------------------------------------------
    def resolve_term(
        self, word: str, language: Optional[str] = None
    ) -> List[Candidate]:
        return self._guarded(
            ("term", word, language),
            lambda: self.inner.resolve_term(word, language),
        )

    def resolve_text(
        self, text: str, language: Optional[str] = None
    ) -> List[Candidate]:
        return self._guarded(
            ("text", text, language),
            lambda: self.inner.resolve_text(text, language),
        )

    @property
    def supports_full_text(self) -> bool:
        return self.inner.supports_full_text

    # -- Metrics plumbing ----------------------------------------------
    def _labels(self) -> Dict[str, str]:
        return {"resolver": self.name, "instance": self._instance}

    def _counter(self, which: str):
        name, help = _RESOLVER_COUNTERS[which]
        return get_registry().counter(name, help).labels(
            **self._labels()
        )

    def _latency(self):
        name, help = _RESOLVER_LATENCY
        return get_registry().histogram(name, help).labels(
            **self._labels()
        )

    def _refresh_gauges(self) -> None:
        """Mirror breaker/cache state into registry gauges so the
        Prometheus exposition carries them (their source of truth stays
        on :class:`CircuitBreaker` / :class:`TTLCache`)."""
        registry = get_registry()
        labels = self._labels()
        registry.gauge(
            "repro_resolver_breaker_state",
            "Circuit breaker state (0=closed, 1=half-open, 2=open).",
        ).labels(**labels).set(
            _BREAKER_STATE_CODES.get(self.breaker.state, 2)
        )
        registry.gauge(
            "repro_resolver_breaker_trips",
            "Times the circuit breaker tripped open.",
        ).labels(**labels).set(self.breaker.trips)
        if self.cache is not None:
            registry.gauge(
                "repro_resolver_cache_hits",
                "Resolver cache hits.",
            ).labels(**labels).set(self.cache.hits)
            registry.gauge(
                "repro_resolver_cache_misses",
                "Resolver cache misses.",
            ).labels(**labels).set(self.cache.misses)

    # -- Machinery -----------------------------------------------------
    def stats(self) -> ResolverStats:
        """A consistent snapshot of the counters.

        Counter values are sourced from the obs registry (this wrapper
        is just a labelled view over them); breaker and cache state are
        read from their owning objects, exactly as before.
        """
        latency = self._latency()
        snapshot = ResolverStats(
            name=self.name,
            calls=int(self._counter("calls").value),
            successes=int(self._counter("successes").value),
            failures=int(self._counter("failures").value),
            retries=int(self._counter("retries").value),
            timeouts=int(self._counter("timeouts").value),
            rejected=int(self._counter("rejected").value),
            latency_total=latency.sum,
            latency_max=latency.max,
        )
        with self._lock:
            snapshot.last_error = self._last_error
        snapshot.breaker_state = self.breaker.state
        snapshot.breaker_trips = self.breaker.trips
        if self.cache is not None:
            snapshot.cache_hits = self.cache.hits
            snapshot.cache_misses = self.cache.misses
        self._refresh_gauges()
        return snapshot

    def _guarded(
        self, key: Tuple[Any, ...], call: Callable[[], List[Candidate]]
    ) -> List[Candidate]:
        if self.cache is not None:
            hit, value = self.cache.get(key)
            if hit:
                return list(value)

        with get_tracer().span(self._span_name, self._span_attrs):
            return self._guarded_uncached(key, call)

    def _guarded_uncached(
        self, key: Tuple[Any, ...], call: Callable[[], List[Candidate]]
    ) -> List[Candidate]:
        if not self.breaker.allow():
            self._counter("rejected").inc()
            self._counter("failures").inc()
            raise CircuitOpenError(
                f"{self.name}: circuit open, call rejected"
            )

        retry_key = f"{self.name}:{key!r}"
        error: Optional[BaseException] = None
        for attempt in range(self.retry.attempts):
            if attempt:
                self._counter("retries").inc()
                self._sleep(self.retry.delay(attempt - 1, retry_key))
                if not self.breaker.allow():
                    self._counter("rejected").inc()
                    self._counter("failures").inc()
                    raise CircuitOpenError(
                        f"{self.name}: circuit opened during retries"
                    )
            started = self._clock()
            try:
                value = self._timed_call(call)
            except Exception as exc:  # noqa: BLE001 - resolver fault
                error = exc
                self.breaker.record_failure()
                self._counter("calls").inc()
                if isinstance(exc, ResolverTimeoutError):
                    self._counter("timeouts").inc()
                with self._lock:
                    self._last_error = f"{type(exc).__name__}: {exc}"
                self._latency().observe(
                    max(self._clock() - started, 0.0)
                )
                continue
            self.breaker.record_success()
            self._counter("calls").inc()
            self._counter("successes").inc()
            self._latency().observe(max(self._clock() - started, 0.0))
            if self.cache is not None:
                self.cache.put(key, list(value))
            return list(value)

        self._counter("failures").inc()
        assert error is not None
        raise error

    def _timed_call(
        self, call: Callable[[], List[Candidate]]
    ) -> List[Candidate]:
        if self.timeout is None:
            return call()
        outcome: Dict[str, Any] = {}

        def runner() -> None:
            try:
                outcome["value"] = call()
            except BaseException as exc:  # noqa: BLE001 - reraised below
                outcome["error"] = exc

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        thread.join(self.timeout)
        if thread.is_alive():
            # the helper thread is abandoned; it finishes (or hangs) on
            # its own, the caller moves on — standard soft timeout.
            raise ResolverTimeoutError(
                f"{self.name}: call exceeded {self.timeout:.3f}s"
            )
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]


#: Entries in each wrapped resolver's cache.
_CACHE_SIZE = 4096


def wrap_resilient(
    resolvers,
    retry: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    reset_timeout: float = 30.0,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> List[ResilientResolver]:
    """Wrap every resolver with its own breaker and cache: the breaker
    opens after five consecutive failures, the cache keeps
    :data:`_CACHE_SIZE` answers for five minutes.

    One cache and one breaker *per resolver* (a DBpedia outage must not
    open Geonames' breaker, and cache keys are per-resolver anyway);
    the instances themselves are shared by all batch workers.
    """
    return [
        ResilientResolver(
            resolver,
            retry=retry,
            breaker=CircuitBreaker(reset_timeout=reset_timeout, clock=clock),
            cache=TTLCache(max_size=_CACHE_SIZE, clock=clock),
            timeout=timeout,
            clock=clock,
            sleep=sleep,
        )
        for resolver in resolvers
    ]


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class FlakyResolver(Resolver):
    """Seeded fault-injection wrapper for tests and benchmarks.

    Failures are *per-input deterministic*: whether call number ``n``
    for a given input fails is a hash of ``(seed, input, n)``, so a
    parallel run injects exactly the same faults as a sequential one
    regardless of thread interleaving. ``failure_rate=1.0`` gives the
    always-failing resolver of the acceptance tests; ``fail_first=k``
    makes the first ``k`` calls per input fail and the rest succeed
    (the shape retry tests want). ``latency`` seconds are slept before
    every call — the benchmark's simulated network.
    """

    def __init__(
        self,
        inner: Resolver,
        failure_rate: float = 0.5,
        seed: int = 0,
        fail_first: Optional[int] = None,
        latency: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be within [0, 1]")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.inner = inner
        self.name = inner.name
        self.failure_rate = failure_rate
        self.seed = seed
        self.fail_first = fail_first
        self.latency = latency
        self._sleep = sleep
        self._lock = threading.Lock()
        self._attempts: Dict[Any, int] = {}
        self.calls = 0
        self.injected_failures = 0

    def resolve_term(
        self, word: str, language: Optional[str] = None
    ) -> List[Candidate]:
        self._maybe_fail(("term", word, language))
        return self.inner.resolve_term(word, language)

    def resolve_text(
        self, text: str, language: Optional[str] = None
    ) -> List[Candidate]:
        self._maybe_fail(("text", text, language))
        return self.inner.resolve_text(text, language)

    @property
    def supports_full_text(self) -> bool:
        return self.inner.supports_full_text

    def _maybe_fail(self, key: Any) -> None:
        if self.latency:
            self._sleep(self.latency)
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            self.calls += 1
        if self.fail_first is not None:
            fail = attempt < self.fail_first
        else:
            fail = _hash_fraction(
                f"{self.seed}:{key!r}:{attempt}"
            ) < self.failure_rate
        if fail:
            with self._lock:
                self.injected_failures += 1
            raise RuntimeError(
                f"{self.name}: injected fault (attempt {attempt})"
            )
