"""Batch annotation of legacy content (paper §6 / conclusion).

"There's a huge amount of content already present in our platform that
remains to be semantically annotated. Solving this issue requires to
create and introduce new automatic batch processing mechanisms."

:class:`BatchAnnotator` walks the platform's existing content in stable
pid order, annotates each item, writes the triples into a target graph,
and checkpoints progress so an interrupted run resumes where it left
off. Failures are isolated per item and reported, never fatal.

With ``workers > 1`` annotation fans out over a
``ThreadPoolExecutor`` — the resolver stage is dominated by (simulated)
network latency, so threads overlap it. Results are *recorded* in pid
order behind a contiguous watermark regardless of completion order:
``checkpoint.last_pid`` only advances to pid *p* once every pending pid
≤ *p* has finished, so a crash mid-run never skips an unprocessed item
on resume (an item completed ahead of the watermark may be re-annotated
— at-least-once semantics, and annotation is idempotent on the target
graph). Stats, triples and progress callbacks are therefore identical
between sequential and parallel runs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..obs import get_registry, get_tracer
from ..rdf.graph import Graph
from ..rdf.namespace import DCTERMS
from ..store import QuadStore, WriteBatch


@dataclass
class BatchStats:
    """Progress/outcome counters of a batch run.

    Beyond the item counters, a run against resilient resolvers
    (:mod:`repro.resolvers.resilience`) also reports the health of the
    resolver fleet: ``degraded_items`` counts items annotated from
    partial candidates because at least one resolver failed,
    ``resolver_failures`` the individual isolated failures, and
    ``resolver_report`` maps resolver names to the
    :class:`~repro.resolvers.resilience.ResolverStats` accumulated
    *during this run* (cache hit rate, retries, breaker trips,
    latency).
    """

    processed: int = 0
    annotated: int = 0
    triples_added: int = 0
    failures: List[Tuple[int, str]] = field(default_factory=list)
    degraded_items: int = 0
    resolver_failures: int = 0
    resolver_report: Dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.resolver_report.values())

    @property
    def cache_misses(self) -> int:
        return sum(
            s.cache_misses for s in self.resolver_report.values()
        )

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def retries(self) -> int:
        return sum(s.retries for s in self.resolver_report.values())

    @property
    def breaker_trips(self) -> int:
        return sum(
            s.breaker_trips for s in self.resolver_report.values()
        )

    @property
    def timeouts(self) -> int:
        return sum(s.timeouts for s in self.resolver_report.values())

    def summary(self) -> Dict[str, int]:
        """The order-independent outcome of a run — what sequential and
        parallel executions of the same catalog must agree on."""
        return {
            "processed": self.processed,
            "annotated": self.annotated,
            "triples_added": self.triples_added,
            "failed": self.failed,
            "degraded_items": self.degraded_items,
            "resolver_failures": self.resolver_failures,
        }


@dataclass
class Checkpoint:
    """Resumable position: the last pid *contiguously* processed —
    every pending pid ≤ ``last_pid`` is done."""

    last_pid: int = 0
    stats: BatchStats = field(default_factory=BatchStats)


class BatchAnnotator:
    """Annotates a platform's back catalog in resumable batches.

    ``target`` is a plain :class:`~repro.rdf.graph.Graph` (each triple
    is inserted as it is recorded) or a
    :class:`~repro.store.engine.QuadStore`: the triples of one
    checkpoint batch then go into the store's default context as one
    :class:`~repro.store.engine.WriteBatch` commit — one generation,
    one WAL record — so concurrent readers only ever observe whole
    batches, and ``triples_added`` counts the ops that commit made
    effective.
    """

    def __init__(
        self,
        platform,
        target: Union[Graph, QuadStore, None] = None,
        batch_size: int = 100,
        workers: int = 1,
        on_progress: Optional[Callable[[Checkpoint], None]] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.platform = platform
        self.target = target if target is not None else Graph()
        self.batch_size = batch_size
        self.workers = workers
        self.on_progress = on_progress
        self.checkpoint = Checkpoint()
        #: a store target's triples recorded since its last commit
        self._batch = WriteBatch()

    # ------------------------------------------------------------------
    def pending_pids(self) -> List[int]:
        """Pids newer than the checkpoint, in ascending pid order.

        Sorted here — not trusted from ``platform.contents()`` — because
        the watermark semantics of ``checkpoint.last_pid`` require the
        processing order to be ascending: with an unsorted platform a
        plain ``last_pid = pid`` assignment would mark still-unprocessed
        smaller pids as done and silently skip them on resume.
        """
        return sorted(
            item.pid
            for item in self.platform.contents()
            if item.pid > self.checkpoint.last_pid
        )

    def run(self, max_items: Optional[int] = None) -> BatchStats:
        """Process up to ``max_items`` pending contents (all by default).

        Progress callbacks fire after every completed batch; the
        checkpoint advances per contiguously-completed item, so a crash
        loses at most the items in flight (``workers`` of them).
        """
        pending = self.pending_pids()
        if max_items is not None:
            pending = pending[:max_items]
        stats = self.checkpoint.stats
        baseline = self._resolver_snapshot()
        tracer = get_tracer()
        with tracer.span("batch.run") as root:
            root.set_attribute("items", len(pending))
            root.set_attribute("workers", self.workers)
            if self.workers == 1:
                outcomes = (
                    (pid, self._annotate_item(pid, root))
                    for pid in pending
                )
                self._drain(pending, outcomes)
            else:
                self._run_parallel(pending, root)
        self._settle_store()
        self._update_resolver_report(stats, baseline)
        return stats

    def _settle_store(self) -> None:
        """Let a policy-triggered background checkpoint finish.

        A store target whose :class:`~repro.store.engine.
        CheckpointPolicy` tripped during this run may still be writing
        its snapshot; waiting here means that when ``run`` returns, the
        WAL replay cost the policy bounds is actually bounded — a
        restart right after a completed batch replays only the tail."""
        if isinstance(self.target, QuadStore):
            self.target.wait_for_checkpoints()

    @property
    def done(self) -> bool:
        return not self.pending_pids()

    # ------------------------------------------------------------------
    # Item processing (worker side: no shared mutable state)
    # ------------------------------------------------------------------
    def _annotate_item(self, pid: int, parent=None):
        """Annotate one content item.

        ``parent`` is the batch root span: workers run on pool threads
        whose thread-local span stack is empty, so the cross-thread
        parent is passed explicitly (sequential runs pass it too, for
        identical trace shapes).
        """
        counter = get_registry().counter(
            "repro_batch_items_total",
            "Content items processed by batch annotation runs.",
        )
        with get_tracer().span(
            "batch.item", {"pid": pid}, parent=parent
        ) as span:
            item = self.platform.content(pid)
            try:
                result = self.platform.annotator.annotate(
                    item.title, item.plain_tags
                )
            except Exception as exc:  # noqa: BLE001 - isolate per item
                span.set_status(
                    "error", f"{type(exc).__name__}: {exc}"
                )
                counter.labels(outcome="error").inc()
                return ("error", f"{type(exc).__name__}: {exc}", None)
            span.set_attribute(
                "annotations", len(result.annotations)
            )
            counter.labels(outcome="ok").inc()
            return ("ok", item.resource, result)

    # ------------------------------------------------------------------
    # Recording (single-threaded: graph writes and stats stay ordered)
    # ------------------------------------------------------------------
    def _drain(self, pending: List[int], outcomes) -> None:
        """Record ``(pid, outcome)`` pairs arriving in *any* order,
        advancing the contiguous watermark and firing batch callbacks
        exactly as a sequential in-order run would."""
        buffered: Dict[int, tuple] = {}
        watermark = 0  # index into pending of the next pid to record
        in_batch = 0
        for pid, outcome in outcomes:
            buffered[pid] = outcome
            while (
                watermark < len(pending)
                and pending[watermark] in buffered
            ):
                next_pid = pending[watermark]
                self._record(next_pid, buffered.pop(next_pid))
                self.checkpoint.last_pid = next_pid
                watermark += 1
                in_batch += 1
                if in_batch >= self.batch_size:
                    in_batch = 0
                    self._commit_watermark()
        # a batch whose commit failed in an earlier run is still pending
        if in_batch or self._batch.ops:
            self._commit_watermark()

    def _commit_watermark(self) -> None:
        """Checkpoint boundary: commit a store target's batch (one
        annotation batch → one generation-stamped commit / WAL record)
        *before* the progress callback, so a checkpoint the callback
        persists never points past durable data. A failed commit keeps
        its ops pending for the next watermark and raises — the
        callback never sees a checkpoint whose batch did not commit."""
        if self._batch.ops:
            _, effective = self.target.apply(self._batch.ops)
            self._batch = WriteBatch()
            self.checkpoint.stats.triples_added += effective
        if self.on_progress is not None:
            self.on_progress(self.checkpoint)

    def _run_parallel(self, pending: List[int], parent=None) -> None:
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = {
                pool.submit(self._annotate_item, pid, parent): pid
                for pid in pending
            }
            self._drain(
                pending,
                (
                    (futures[future], future.result())
                    for future in as_completed(futures)
                ),
            )

    def _record(self, pid: int, outcome: tuple) -> None:
        stats = self.checkpoint.stats
        kind, payload, result = outcome
        if kind == "error":
            stats.processed += 1
            stats.failures.append((pid, payload))
            return
        resource = payload
        for annotation in result.annotations:
            triple = (resource, DCTERMS.subject, annotation.resource)
            if isinstance(self.target, QuadStore):
                # counted when the watermark's commit reports its
                # effective ops
                self._batch.insert(triple)
            elif self.target.insert(triple):
                # insert() reports newness atomically; a len()-before/
                # len()-after comparison would miscount under a
                # concurrent writer
                stats.triples_added += 1
        stats.processed += 1
        if result.annotations:
            stats.annotated += 1
        broker_result = getattr(result, "broker_result", None)
        if broker_result is not None and broker_result.degraded:
            stats.degraded_items += 1
            stats.resolver_failures += len(broker_result.failures)

    # ------------------------------------------------------------------
    # Resolver health
    # ------------------------------------------------------------------
    def _resolver_snapshot(self) -> Dict[str, object]:
        broker = getattr(
            getattr(self.platform, "annotator", None), "broker", None
        )
        collect = getattr(broker, "resolver_stats", None)
        if callable(collect):
            return collect()
        return {}

    def _update_resolver_report(
        self, stats: BatchStats, baseline: Dict[str, object]
    ) -> None:
        """Store the per-resolver counters accumulated during this run
        (deltas against the pre-run snapshot — the resolvers are shared
        and keep counting across runs)."""
        current = self._resolver_snapshot()
        for name, snapshot in current.items():
            earlier = baseline.get(name)
            if earlier is None or not hasattr(snapshot, "delta"):
                stats.resolver_report[name] = snapshot
                continue
            fresh = snapshot.delta(earlier)
            previous = stats.resolver_report.get(name)
            if previous is not None and hasattr(previous, "delta"):
                # accumulate across resumed runs of this annotator
                for counter in (
                    "calls", "successes", "failures", "retries",
                    "timeouts", "rejected", "breaker_trips",
                    "cache_hits", "cache_misses", "latency_total",
                ):
                    setattr(fresh, counter,
                            getattr(previous, counter)
                            + getattr(fresh, counter))
                fresh.latency_max = max(
                    previous.latency_max, fresh.latency_max
                )
            stats.resolver_report[name] = fresh
