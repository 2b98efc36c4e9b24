"""Deterministic mixed-traffic load generator over the full stack.

Concurrency: thread-safe

The ROADMAP's "load-tested SLOs" harness: drive a
:class:`~repro.platform.gallery.Platform` + :class:`~repro.platform.
web.WebInterface` + :class:`~repro.store.engine.QuadStore` stack with
the paper's interactive traffic — uploads that get annotated and
flushed to the store, incremental-search suggestions (§4), the three virtual-album
SPARQL queries, the About mashup, content browsing, and raw store
writes through the group-commit path — from several worker threads at
once, and report per-operation latency distributions. Each worker keeps
its ops' elapsed times; the report's percentiles are exact nearest-rank
order statistics of those samples, and :mod:`repro.obs.slo` judges its
objectives on the same figures (:meth:`LoadReport.to_dict`).

Determinism: the *operation schedule* (which ops, their arguments,
their open-loop arrival offsets) is a pure function of
``(mix, seed, ops, rate)`` — :func:`build_schedule` uses one seeded
``random.Random`` and nothing else, so the same CLI invocation always
produces the same schedule (and the same digest). Thread interleaving
during a run is of course not deterministic; everything that *defines*
the workload is.

Locking model: the platform object is not thread-safe, so the
mutating/cached-state ops (upload, browse, store sync, search-index
rebuild) serialize on one internal lock; store-backed reads (albums,
mashup), suggestion lookups against the last published search index,
and scratch-store writes run lock-free on MVCC snapshots. Clock reads
stay outside lock scopes (CC003).

Freshness is measured end to end: an upload records its start time,
every ``sync_every``-th upload triggers ``synchronize_store`` plus a
search-index rebuild, and each drained upload is verified visible in
the store head before its upload-to-queryable staleness is kept for
the report's ``freshness`` row. ``synchronize_store`` is the
platform's flush: it annotates and locates the uploads since the last
one and commits their triples as a single delta — O(those uploads),
not O(corpus) — so the staleness measured here is dominated by how
long an upload waits for its ``sync_every`` batch to fill.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.albums import geo_album, rated_album, social_album
from ..core.mashup import run_mashup
from ..obs import get_registry
from ..platform.gallery import Platform
from ..platform.models import Capture
from ..platform.search import SearchInterface
from ..platform.web import WebInterface
from ..rdf.terms import URIRef
from ..sparql.evaluator import Evaluator
from ..store import QuadStore
from .generator import WorkloadConfig, generate_workload, populate_platform

__all__ = [
    "LoadConfig",
    "LoadGenerator",
    "LoadReport",
    "MIXES",
    "ScheduledOp",
    "build_schedule",
    "render_schedule",
    "schedule_digest",
]

#: Operation kinds and their weights per named traffic mix.
MIXES: Dict[str, Dict[str, int]] = {
    "default": {
        "upload": 10, "search": 30, "album": 15, "mashup": 10,
        "browse": 25, "store_write": 10,
    },
    "read-heavy": {
        "upload": 4, "search": 36, "album": 20, "mashup": 12,
        "browse": 24, "store_write": 4,
    },
    "write-heavy": {
        "upload": 25, "search": 10, "album": 5, "mashup": 5,
        "browse": 15, "store_write": 40,
    },
    "ingest": {
        "upload": 50, "search": 15, "album": 5, "mashup": 0,
        "browse": 20, "store_write": 10,
    },
}

#: Prefixes the search op types — chosen to hit the synthetic world's
#: LOD labels (Mole Antonelliana, Torino, Museo Egizio, ...).
_SEARCH_PREFIXES = (
    "mol", "tor", "mus", "pal", "par", "egi", "ant", "gran",
)

_ALBUM_KINDS = ("geo", "social", "rated")

#: The context the ``store_write`` op commits into.
_SCRATCH_CONTEXT = URIRef("http://repro.local/loadgen/scratch")


@dataclass(frozen=True)
class ScheduledOp:
    """One operation of the deterministic schedule."""

    index: int
    kind: str
    arg: str          # kind-specific printable argument
    arrival_s: float  # open-loop arrival offset from run start

    def render(self) -> str:
        return (
            f"{self.index:04d} {self.arrival_s:8.3f} "
            f"{self.kind} {self.arg}"
        )


@dataclass(frozen=True)
class LoadConfig:
    """Knobs of one load run."""

    mix: str = "default"
    seed: int = 42
    ops: int = 60
    workers: int = 4
    mode: str = "closed"        # "closed" | "open"
    rate: float = 20.0          # open-loop arrival rate (ops/second)
    base_users: int = 8
    base_contents: int = 25
    sync_every: int = 4         # uploads per store synchronization
    store_name: str = "loadgen"

    def __post_init__(self) -> None:
        if self.mix not in MIXES:
            raise ValueError(
                f"unknown mix {self.mix!r} "
                f"(known: {', '.join(sorted(MIXES))})"
            )
        if self.mode not in ("closed", "open"):
            raise ValueError("mode must be 'closed' or 'open'")
        if self.ops < 1 or self.workers < 1:
            raise ValueError("ops and workers must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        if self.sync_every < 1:
            raise ValueError("sync_every must be >= 1")


def build_schedule(config: LoadConfig) -> List[ScheduledOp]:
    """The deterministic operation schedule for ``config``.

    A pure function of ``(mix, seed, ops, rate)``: one seeded RNG draws
    the op kinds (weighted by the mix), the per-op arguments, and
    exponential inter-arrival gaps at ``rate`` — the same inputs always
    yield the same schedule, which is what makes load runs replayable
    and their reports comparable.
    """
    weights = MIXES[config.mix]
    kinds = [kind for kind, weight in weights.items() if weight > 0]
    kind_weights = [weights[kind] for kind in kinds]
    # string seeding hashes with sha512 — stable across processes,
    # unlike tuple seeding (a TypeError on modern Pythons anyway)
    rng = random.Random(f"{config.mix}:{config.seed}:{config.ops}")
    chosen = rng.choices(kinds, weights=kind_weights, k=config.ops)
    schedule: List[ScheduledOp] = []
    arrival = 0.0
    upload_count = 0
    write_count = 0
    for index, kind in enumerate(chosen):
        arrival += rng.expovariate(config.rate)
        if kind == "upload":
            arg = f"#{upload_count}"
            upload_count += 1
        elif kind == "search":
            arg = rng.choice(_SEARCH_PREFIXES)
        elif kind == "album":
            arg = rng.choice(_ALBUM_KINDS)
        elif kind == "mashup":
            arg = f"#{rng.randrange(1_000_000)}"
        elif kind == "browse":
            arg = f"p{rng.randint(1, 4)}"
        else:  # store_write
            arg = f"#{write_count}"
            write_count += 1
        schedule.append(ScheduledOp(index, kind, arg, arrival))
    return schedule


def render_schedule(schedule: Sequence[ScheduledOp]) -> str:
    return "\n".join(op.render() for op in schedule)


def schedule_digest(schedule: Sequence[ScheduledOp]) -> str:
    rendered = render_schedule(schedule).encode("utf-8")
    return hashlib.sha256(rendered).hexdigest()[:16]


@dataclass
class LoadReport:
    """Per-operation latency distributions + run-level accounting."""

    config: LoadConfig
    digest: str
    wall_seconds: float
    completed: int
    errors: int
    per_op: Dict[str, Dict[str, float]]
    freshness: Dict[str, float]
    error_samples: List[str] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mix": self.config.mix,
            "seed": self.config.seed,
            "mode": self.config.mode,
            "workers": self.config.workers,
            "ops": self.config.ops,
            "schedule_digest": self.digest,
            "wall_seconds": self.wall_seconds,
            "completed": self.completed,
            "errors": self.errors,
            "throughput_ops_per_s": self.throughput,
            "per_op": self.per_op,
            "freshness": self.freshness,
            "error_samples": self.error_samples,
        }

    def render(self) -> str:
        lines = [
            f"load run: mix={self.config.mix} seed={self.config.seed} "
            f"mode={self.config.mode} workers={self.config.workers} "
            f"schedule={self.digest}",
            f"  {self.completed} op(s) in {self.wall_seconds:.2f}s "
            f"({self.throughput:.1f} op/s), {self.errors} error(s)",
            f"  {'op':<12} {'n':>5} {'mean':>9} {'p50':>9} "
            f"{'p95':>9} {'p99':>9} {'max':>9}",
        ]
        for op in sorted(self.per_op):
            row = self.per_op[op]
            lines.append(
                f"  {op:<12} {int(row['count']):>5} "
                f"{row['mean_ms']:>7.1f}ms {row['p50_ms']:>7.1f}ms "
                f"{row['p95_ms']:>7.1f}ms {row['p99_ms']:>7.1f}ms "
                f"{row['max_ms']:>7.1f}ms"
            )
        if self.freshness.get("count"):
            lines.append(
                f"  freshness: {int(self.freshness['count'])} upload(s) "
                f"p95={self.freshness['p95_ms']:.0f}ms "
                f"max={self.freshness['max_ms']:.0f}ms"
            )
        probes = self._counts("repro_geo_probe_total", "path")
        plans = self._counts("repro_plan_cache_total", "outcome")
        if probes or plans:
            # where the plans came from, each outcome's share of them
            total = max(sum(plans.values()), 1)
            lines.append(
                "  read path: geo probes "
                f"grid={probes.get('grid', 0)} "
                f"join={probes.get('join', 0)} "
                f"scan={probes.get('scan', 0)}, plan cache " + " ".join(
                    f"{outcome}={plans.get(outcome, 0)} "
                    f"({plans.get(outcome, 0) / total:.0%})"
                    for outcome in ("hit", "bound", "stale", "miss")
                )
            )
        for sample in self.error_samples:
            lines.append(f"  error: {sample}")
        return "\n".join(lines)

    def _counts(self, family: str, label: str) -> Dict[str, int]:
        """A labelled counter of the run's registry snapshot."""
        series = self.metrics.get(family, {}).get("series", ())
        return {
            entry["labels"].get(label, ""): int(entry["value"])
            for entry in series
        }


class LoadGenerator:
    """Executes one :class:`LoadConfig` against a freshly built stack."""

    def __init__(self, config: LoadConfig) -> None:
        self.config = config
        self.schedule = build_schedule(config)
        self._platform: Optional[Platform] = None
        self._web: Optional[WebInterface] = None
        self._store: Optional[QuadStore] = None
        self._search: Optional[SearchInterface] = None
        self._pids: List[int] = []
        self._uploads: List[Capture] = []
        # run state: the schedule cursor and the platform's big lock
        self._cursor = 0
        self._cursor_lock = threading.Lock()
        self._platform_lock = threading.RLock()
        self._pending_uploads: List[Tuple[Any, float]] = []
        self._errors: List[str] = []
        self._errors_lock = threading.Lock()
        # upload-to-queryable staleness per synced upload, in seconds
        self._freshness: List[float] = []
        self._freshness_lock = threading.Lock()
        self._completed = 0

    # -- environment -----------------------------------------------------
    def setup(self) -> "LoadGenerator":
        """Build the platform, its store, and the base population."""
        config = self.config
        platform = Platform()
        workload = generate_workload(WorkloadConfig(
            n_users=config.base_users,
            n_contents=config.base_contents,
            seed=config.seed,
        ))
        self._pids = populate_platform(platform, workload)
        store = QuadStore(name=config.store_name, group_commit=True)
        platform.attach_store(store)  # initial synchronize
        self._platform = platform
        self._store = store
        self._web = WebInterface(platform)
        self._search = SearchInterface(  # cc: allow=CC001 (no worker yet)
            platform.union_graph(), platform.contents()
        )
        # uploads arrive from the same user population, continuing the
        # base timeline (a later seed keeps the captures distinct)
        upload_ops = sum(
            1 for op in self.schedule if op.kind == "upload"
        )
        extra = generate_workload(WorkloadConfig(
            n_users=config.base_users,
            n_contents=max(upload_ops, 1),
            seed=config.seed + 1,
        ))
        self._uploads = extra.captures
        return self

    # -- operations ------------------------------------------------------
    def _op_upload(self, arg: str) -> None:
        capture = self._uploads[int(arg[1:]) % len(self._uploads)]
        uploaded_at = time.perf_counter()
        with self._platform_lock:
            item = self._platform.upload(capture)
            self._pending_uploads.append((item, uploaded_at))
            due = len(self._pending_uploads) >= self.config.sync_every
        if due:
            self._sync_store()

    def _sync_store(self) -> None:
        with self._platform_lock:
            drained = self._pending_uploads
            if not drained:
                return
            self._pending_uploads = []
            self._platform.synchronize_store()
            # published under the lock, so a sync of an older generation
            # cannot land after a newer one; the interface takes the
            # label index the commit carried, reading nothing
            self._search = SearchInterface(
                self._platform.union_graph(),
                self._platform.contents(),
            )
        # verify + observe freshness outside the lock on a pinned head
        synced_at = time.perf_counter()
        head = self._store.head()
        staleness: List[float] = []
        for item, uploaded_at in drained:
            visible = any(
                True for _ in head.triples((item.resource, None, None))
            )
            if not visible:
                raise RuntimeError(
                    f"upload pid={item.pid} not queryable after sync "
                    f"(store generation {head.generation})"
                )
            staleness.append(synced_at - uploaded_at)
        with self._freshness_lock:
            self._freshness.extend(staleness)

    def _op_search(self, arg: str) -> None:
        search = self._search  # cc: allow=CC001 (atomic reference read)
        suggestions = search.suggest(arg, limit=10)
        # prefixes are chosen to hit the world's labels; an empty
        # result set would mean the label index went missing
        if not suggestions:
            raise RuntimeError(f"no suggestions for prefix {arg!r}")

    def _op_album(self, arg: str) -> None:
        if arg == "geo":
            album = geo_album()
        elif arg == "social":
            album = social_album()
        else:
            album = rated_album()
        album.links(Evaluator(self._store))

    def _op_mashup(self, arg: str) -> None:
        pid = self._pids[int(arg[1:]) % len(self._pids)]
        run_mashup(Evaluator(self._store), pid)

    def _op_browse(self, arg: str) -> None:
        page_size = 10
        with self._platform_lock:
            total = len(self._platform.ordered())
            pages = max(1, -(-total // page_size))
            page = min(int(arg[1:]), pages)
            self._web.browse(page=page, page_size=page_size)

    def _op_store_write(self, arg: str) -> None:
        index = int(arg[1:])
        self._store.insert(
            (
                URIRef(f"http://repro.local/loadgen/op/{index}"),
                URIRef("http://repro.local/loadgen/vocab#payload"),
                f"write-{index}",
            ),
            _SCRATCH_CONTEXT,
        )

    def _execute(self, op: ScheduledOp) -> None:
        handler = getattr(self, f"_op_{op.kind}")
        handler(op.arg)

    # -- the run ---------------------------------------------------------
    def _next_op(self) -> Optional[ScheduledOp]:
        with self._cursor_lock:
            if self._cursor >= len(self.schedule):
                return None
            op = self.schedule[self._cursor]
            self._cursor += 1
        return op

    def _worker(
        self, run_began: float, samples: Dict[str, List[float]]
    ) -> None:
        """Run ops until the schedule is drained, appending each op's
        elapsed seconds to this worker's own ``samples``."""
        config = self.config
        while True:
            op = self._next_op()
            if op is None:
                return
            if config.mode == "open":
                delay = run_began + op.arrival_s - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            began = time.perf_counter()
            try:
                self._execute(op)
            except Exception as exc:
                detail = f"{op.kind} {op.arg}: {type(exc).__name__}: {exc}"
                with self._errors_lock:
                    self._errors.append(detail)
            elapsed = time.perf_counter() - began
            samples.setdefault(op.kind, []).append(elapsed)

    def run(self) -> LoadReport:
        """Execute the schedule and report its latency samples."""
        if self._platform is None:
            self.setup()
        workers = min(self.config.workers, len(self.schedule))
        run_began = time.perf_counter()
        samples: List[Dict[str, List[float]]] = [
            {} for _ in range(workers)
        ]
        threads = [
            threading.Thread(
                target=self._worker,
                args=(run_began, samples[i]),
                name=f"loadgen-{i}",
            )
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            self._sync_store()  # drain uploads still awaiting a sync
        except Exception as exc:
            with self._errors_lock:
                self._errors.append(
                    f"final sync: {type(exc).__name__}: {exc}"
                )
        wall = time.perf_counter() - run_began
        self._completed = len(self.schedule)
        latencies: Dict[str, List[float]] = {}
        for worker_samples in samples:
            for kind, elapsed in worker_samples.items():
                latencies.setdefault(kind, []).extend(elapsed)
        return self._report(wall, latencies)

    # -- reporting -------------------------------------------------------
    def _report(
        self, wall: float, latencies: Dict[str, List[float]]
    ) -> LoadReport:
        snapshot = get_registry().snapshot()
        per_op = {
            kind: _distribution(elapsed)
            for kind, elapsed in latencies.items()
        }
        with self._freshness_lock:
            freshness = (
                _distribution(self._freshness) if self._freshness else {}
            )
        return LoadReport(
            config=self.config,
            digest=schedule_digest(self.schedule),
            wall_seconds=wall,
            completed=self._completed,
            errors=len(self._errors),  # cc: allow=CC001 (workers joined)
            per_op=per_op,
            freshness=freshness,
            error_samples=self._errors[:10],  # cc: allow=CC001 (workers joined)
            metrics=snapshot,
        )


def _distribution(seconds: Sequence[float]) -> Dict[str, float]:
    """Count, mean, max and exact nearest-rank p50/p95/p99 (in ms) of a
    non-empty sample of durations in seconds."""
    ordered = sorted(seconds)
    count = len(ordered)
    row = {
        "count": float(count),
        "mean_ms": sum(ordered) / count * 1000.0,
        "max_ms": ordered[-1] * 1000.0,
    }
    for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
        rank = max(math.ceil(q * count), 1)
        row[f"{label}_ms"] = ordered[rank - 1] * 1000.0
    return row
