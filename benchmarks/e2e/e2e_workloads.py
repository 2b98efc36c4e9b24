"""The four seeded workloads of the end-to-end benchmark.

Each workload is a pure function of ``(seed, seconds)``: its inputs
(generated captures) and its schedule (op kinds, arguments, order) are
drawn from seeded RNGs in the constructor, ``setup()`` builds the stack
the schedule replays against, ``execute`` runs one op and returns the
seconds it took (timing only the op, checking its result outside the
timed section) and ``verify()`` runs the end-of-run oracle. One client
replays the schedule in a closed loop. Only the public
API of ``repro`` is called, and never ``repro.workloads.loadgen`` — a
later rewrite of the write path or of the load generator must not be
able to move this yardstick.

Op counts scale linearly with ``--seconds``; ``OPS_PER_SECOND`` is
sized so a replay takes about ``--seconds`` on the reference sandbox
(2 cores). Counts per kind are exact proportions (not random draws), so
every seed replays the same number of each op.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.albums import geo_album, rated_album, social_album
from repro.core.mashup import run_mashup
from repro.platform import Platform, SearchInterface, WebInterface
from repro.rdf.namespace import TL_PID
from repro.rdf.terms import Literal, URIRef
from repro.sparql import Evaluator
from repro.store import CheckpointPolicy, QuadStore, WriteBatch
from repro.workloads import (
    WorkloadConfig,
    generate_workload,
    populate_platform,
)

from e2e_spans import Tracer

#: Italian labels of the synthetic world's Turin monuments (the paper's
#: queries look a monument up by ``rdfs:label "..."@it``).
MONUMENTS = (
    "Mole Antonelliana", "Palazzo Madama", "Piazza Castello",
    "Museo Egizio", "Parco del Valentino", "Gran Madre di Dio",
)
#: Prefixes typed into the search box; each hits LOD labels.
SEARCH_PREFIXES = ("mol", "tor", "mus", "pal", "par", "egi", "ant", "gran")
PAGE_SIZE = 10
SCRATCH_CONTEXT = "http://repro.local/e2e/scratch"
BENCH_NS = "http://repro.local/e2e/"

Op = Tuple[str, tuple]  # (kind, args)


class CheckFailed(Exception):
    """An op completed but its result was wrong."""


# ---------------------------------------------------------------------------
# Check queries (kept lint-clean: every prefix is declared)
# ---------------------------------------------------------------------------

_CHECK_PREFIXES = """\
PREFIX comm: <http://comm.semanticweb.org/core.owl#>
PREFIX rev: <http://purl.org/stuff/rev#>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX tlv: <http://beta.teamlife.it/vocab#>
"""


#: what each mutation must have made visible ({p}: picture IRI,
#: {n}: region note literal); after a delete nothing may remain
_CHECK_PATTERNS = {
    "upload": "<{p}> comm:image-data ?v",
    "rate": "<{p}> rev:rating ?v",
    "edit": "<{p}> dc:title ?v",
    "region": "?v tlv:on <{p}> . ?v tlv:note {n}",
    "delete": "<{p}> ?any ?v",
}


def _check_query(kind: str, picture: str, note: str = "") -> str:
    pattern = _CHECK_PATTERNS[kind].format(p=picture, n=Literal(note).n3())
    return f"{_CHECK_PREFIXES}SELECT ?v WHERE {{ {pattern} }}"


def _values(evaluator: Evaluator, query: str) -> List[str]:
    return [
        value.lexical if isinstance(value, Literal) else str(value)
        for value in (row.get("v") for row in evaluator.evaluate(query))
    ]


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def exact_counts(total: int, weights: Dict[str, float]) -> Dict[str, int]:
    """Split ``total`` ops by ``weights`` (largest remainder, >= 1 each)."""
    scale = total / sum(weights.values())
    counts = {kind: max(1, int(w * scale)) for kind, w in weights.items()}
    by_remainder = sorted(
        weights, key=lambda k: (weights[k] * scale) % 1.0, reverse=True
    )
    index = 0
    while sum(counts.values()) < total:
        counts[by_remainder[index % len(by_remainder)]] += 1
        index += 1
    return counts


def shuffled_kinds(rng: random.Random, counts: Dict[str, int]) -> List[str]:
    kinds = [kind for kind, n in counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    return kinds


def digest_of(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def _capture_lines(captures) -> List[str]:
    return [
        f"{c.username}|{c.title}|{','.join(c.tags)}|{c.timestamp}|"
        f"{c.point.longitude:.6f},{c.point.latitude:.6f}"
        for c in captures
    ]


# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------


class Workload:
    """Common plumbing: schedule and digests."""

    name = ""
    ops_per_second = 0.0
    #: the workload's primary / secondary end-to-end timing: groups of
    #: op kinds; a group's samples are pooled, and the metric is the
    #: mean of the groups' medians (kinds with different costs stay in
    #: separate groups, so the median never sits between two modes)
    primary: Tuple[Tuple[str, ...], ...] = ()
    secondary: Tuple[Tuple[str, ...], ...] = ()

    def __init__(self, seed: int, seconds: float, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.total_ops = max(1, round(self.ops_per_second * seconds))
        self.rng = random.Random(f"{self.name}:{seed}")
        self.schedule: List[Op] = []
        self.captures_digest = ""
        self.store: Optional[QuadStore] = None
        #: content pids, parallel to the base corpus (platform workloads)
        self.pids: List[int] = []
        # what only an on-disk store measures (0 elsewhere)
        self.user_bytes = 0
        self.recovery_s = 0.0
        self.recovered_ops = 0
        self.disk_bytes_per_quad = 0.0

    @property
    def schedule_digest(self) -> str:
        return digest_of([repr(op) for op in self.schedule])

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, op: Op) -> float:
        """Run one op and check it; returns the timed seconds."""
        raise NotImplementedError

    def verify(self) -> List[str]:
        """End-of-run oracle; returns one message per failed check."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` built (stores, temp directories)."""


# ---------------------------------------------------------------------------
# Platform-backed workloads share stack construction
# ---------------------------------------------------------------------------


class PlatformWorkload(Workload):
    users = 10
    contents = 100

    def __init__(self, seed: int, seconds: float, tracer: Tracer) -> None:
        super().__init__(seed, seconds, tracer)
        self.base = generate_workload(WorkloadConfig(
            n_users=self.users, n_contents=self.contents, seed=seed,
        ))
        self.platform: Optional[Platform] = None

    def _extra_captures(self, count: int):
        """Captures uploaded during the replay: same population, the
        timeline continuing where the base corpus stopped."""
        extra = generate_workload(WorkloadConfig(
            n_users=self.users, n_contents=count, seed=self.seed + 1,
            start_timestamp=self.base.captures[-1].timestamp,
        ))
        return extra.captures

    def _build_platform(self) -> Tuple[Platform, List[int]]:
        platform = Platform()
        return platform, populate_platform(platform, self.base)

    def setup(self) -> None:
        self.platform, self.pids = self._build_platform()
        self.store = QuadStore(name=self.name, group_commit=True)
        self.platform.attach_store(self.store)

    def _album(self, kind: str, monument: str, friend: str):
        if kind == "album_geo":
            return geo_album(monument)
        if kind == "album_social":
            return social_album(monument, friend_of=friend)
        return rated_album(monument, friend_of=friend)

    def _album_args(self, kind: str, serial: int) -> tuple:
        """Monuments in rotation — an album's cost depends on its
        monument, so every seed replays the same monument mix — and a
        drawn friend (the geo album has none)."""
        friend = "" if kind == "album_geo" else self.rng.choice(
            self.base.usernames
        )
        return (MONUMENTS[serial % len(MONUMENTS)], friend)


def _picture(pid: int) -> str:
    return str(TL_PID[str(pid)])


# ---------------------------------------------------------------------------
# album-read
# ---------------------------------------------------------------------------


class AlbumRead(PlatformWorkload):
    """Interactive reads only; the store generation never changes."""

    name = "album-read"
    users = 20
    contents = 600
    ops_per_second = 65.0
    primary = (("album_geo",), ("album_social",), ("album_rated",))
    secondary = (("mashup",),)
    WEIGHTS = {
        "album_geo": 35 / 3, "album_social": 35 / 3, "album_rated": 35 / 3,
        "mashup": 20, "search": 30, "browse": 15,
    }
    MASHUP_PIDS = 12
    #: distinct album queries per kind re-run unoptimized by ``verify``
    #: (each costs ~55 ms; every repeat must still agree with the first)
    ORACLE_PER_KIND = 12

    def __init__(self, seed: int, seconds: float, tracer: Tracer) -> None:
        super().__init__(seed, seconds, tracer)
        rng = self.rng
        subjects = rng.sample(range(self.contents), self.MASHUP_PIDS)
        counts = exact_counts(self.total_ops, self.WEIGHTS)
        serial = {kind: 0 for kind in counts}
        for kind in shuffled_kinds(rng, counts):
            k = serial[kind]
            serial[kind] += 1
            # arguments rotate, so the op mix is the same for every
            # seed; the seed draws the corpus, the order and the friends
            if kind.startswith("album"):
                args = self._album_args(kind, k)
            elif kind == "mashup":
                args = (subjects[k % len(subjects)],)
            elif kind == "search":
                args = (SEARCH_PREFIXES[k % len(SEARCH_PREFIXES)],)
            else:
                args = (1 + k % 4,)
            self.schedule.append((kind, args))
        self.captures_digest = digest_of(_capture_lines(self.base.captures))
        #: first result seen per distinct op — repeats must agree, and
        #: ``verify`` replays each against the unoptimized evaluator
        self.results: Dict[Op, Any] = {}

    def setup(self) -> None:
        super().setup()
        self.web = WebInterface(self.platform)
        self.search = SearchInterface(
            self.platform.union_graph(), self.platform.contents()
        )
        self.generation = self.store.generation
        # planner statistics are collected by the first query against a
        # store generation; users do not pay that on every request
        geo_album().links(Evaluator(self.store))
        run_mashup(Evaluator(self.store), self.pids[0])

    def _run(self, op: Op, optimize: bool = True):
        kind, args = op
        if kind.startswith("album"):
            album = self._album(kind, *args)
            with self.tracer.span("core." + kind):
                evaluator = Evaluator(self.store, optimize=optimize)
                return sorted(album.links(evaluator))
        if kind == "mashup":
            with self.tracer.span("core.mashup"):
                evaluator = Evaluator(self.store, optimize=optimize)
                view = run_mashup(evaluator, self.pids[args[0]])
            return {k: len(v) for k, v in sorted(view.sections.items())}
        if kind == "search":
            found = self.search.suggest(args[0], limit=10)
            return [str(s.resource) for s in found]
        page = self.web.browse(page=args[0], page_size=PAGE_SIZE)
        return (page.total, [item.pid for item in page.items])

    def execute(self, op: Op) -> float:
        began = time.perf_counter()
        result = self._run(op)
        took = time.perf_counter() - began
        first = self.results.setdefault(op, result)
        if result != first:
            raise CheckFailed(f"{op} changed its answer on a fixed store")
        if op[0] == "search" and not result:
            raise CheckFailed(f"no suggestions for prefix {op[1][0]!r}")
        if op[0] == "browse" and (
            result[0] != self.contents or len(result[1]) != PAGE_SIZE
        ):
            raise CheckFailed(f"browse page {op[1][0]} is wrong: {result}")
        return took

    def verify(self) -> List[str]:
        failures = []
        if self.store.generation != self.generation:
            failures.append("store generation moved during a read-only run")
        checked: Dict[str, int] = defaultdict(int)
        for op, result in self.results.items():  # first-seen order
            kind = op[0]
            if kind in ("search", "browse"):
                continue
            checked[kind] += 1
            if checked[kind] > self.ORACLE_PER_KIND:
                continue
            if self._run(op, optimize=False) != result:
                failures.append(f"{op}: optimized != unoptimized result")
        return failures


# ---------------------------------------------------------------------------
# upload-fresh and mixed share the mutation log + rebuild oracle
# ---------------------------------------------------------------------------


class MutatingWorkload(PlatformWorkload):
    """Workloads that change the platform record what they did, so the
    oracle can rebuild the same relational state from scratch."""

    def __init__(self, seed: int, seconds: float, tracer: Tracer) -> None:
        super().__init__(seed, seconds, tracer)
        #: platform mutations in the order they were applied
        self.log: List[Tuple[str, tuple]] = []

    def _apply(self, platform: Platform, pids: List[int],
               kind: str, args: tuple):
        """Apply one mutation; returns its check query and the values
        the query must return (``None``: exactly one row, any value)."""
        if kind == "upload":
            item = platform.upload(self.uploads[args[0]])
            pids.append(item.pid)
            return _check_query(kind, _picture(item.pid)), [item.media_url]
        pid = pids[args[0]]
        picture = _picture(pid)
        if kind == "rate":
            platform.rate(pid, args[1])
            return _check_query(kind, picture), [str(args[1])]
        if kind == "edit":
            platform.edit_content(pid, title=args[1])
            return _check_query(kind, picture), [args[1]]
        if kind == "region":
            platform.annotate_region(pid, 0.25, 0.25, 0.5, 0.5, args[1])
            return _check_query(kind, picture, args[1]), None
        platform.delete_content(pid)
        return _check_query(kind, picture), []

    def _check(self, evaluator: Evaluator, kind: str, query: str,
               expected: Optional[List[str]]) -> None:
        seen = _values(evaluator, query)
        if seen != expected and not (expected is None and len(seen) == 1):
            raise CheckFailed(
                f"{kind}: check query saw {seen}, expected {expected}"
            )

    def _rebuild_nquads(self) -> str:
        """From-scratch oracle: a new Platform replays the recorded
        mutations (no intermediate sync), one semanticize, one sync
        into a fresh store."""
        platform, pids = self._build_platform()
        for kind, args in self.log:
            self._apply(platform, pids, kind, args)
        store = QuadStore(name=self.name + "-oracle")
        platform.attach_store(store)
        return store.to_nquads()


class UploadFresh(MutatingWorkload):
    """Mutations only: every op is a write followed by a sync."""

    name = "upload-fresh"
    users = 10
    contents = 150
    ops_per_second = 4.0
    primary = (("upload",),)
    secondary = (("rate", "edit", "region", "delete"),)
    WEIGHTS = {"upload": 60, "rate": 15, "edit": 10, "region": 10,
               "delete": 5}

    def __init__(self, seed: int, seconds: float, tracer: Tracer) -> None:
        super().__init__(seed, seconds, tracer)
        rng = self.rng
        counts = exact_counts(self.total_ops, self.WEIGHTS)
        self.uploads = self._extra_captures(counts["upload"])
        # deleted items are never touched again: deletions come from
        # their own slice of the base corpus
        targets = rng.sample(range(self.contents), self.contents)
        doomed, alive = targets[:counts["delete"]], targets[counts["delete"]:]
        serial = {kind: 0 for kind in counts}
        for kind in shuffled_kinds(rng, counts):
            k = serial[kind]
            serial[kind] += 1
            if kind == "upload":
                args = (k,)
            elif kind == "rate":
                args = (rng.choice(alive), k % 5 + 0.5)
            elif kind == "edit":
                index = rng.choice(alive)
                title = f"{self.base.captures[index].title} (edit {k})"
                args = (index, title)
            elif kind == "region":
                args = (rng.choice(alive), f"region-{k}")
            else:
                args = (doomed[k],)
            self.schedule.append((kind, args))
        self.captures_digest = digest_of(
            _capture_lines(self.base.captures + self.uploads)
        )

    def execute(self, op: Op) -> float:
        kind, args = op
        began = time.perf_counter()
        query, expected = self._apply(self.platform, self.pids, kind, args)
        evaluator = self.platform.evaluator()
        took = time.perf_counter() - began
        self.log.append(op)
        self._check(evaluator, kind, query, expected)
        return took

    def verify(self) -> List[str]:
        self.platform.evaluator()
        if self.store.to_nquads() != self._rebuild_nquads():
            return ["store differs from a from-scratch rebuild"]
        return []


class Mixed(MutatingWorkload):
    """The paper-traffic mix: reads between writes, so every read runs
    against a store generation the last upload has just replaced."""

    name = "mixed"
    users = 10
    contents = 100
    ops_per_second = 42.0
    primary = (("upload",),)
    secondary = (("mashup",),)
    WEIGHTS = {
        "upload": 10, "search": 30,
        "album_geo": 5, "album_social": 5, "album_rated": 5,
        "mashup": 10, "browse": 25, "store_write": 10,
    }
    INDEX_EVERY = 4    # uploads per search-index republication
    ORACLE_EVERY = 3   # every n-th album/mashup is re-run unoptimized

    def __init__(self, seed: int, seconds: float, tracer: Tracer) -> None:
        super().__init__(seed, seconds, tracer)
        rng = self.rng
        counts = exact_counts(self.total_ops, self.WEIGHTS)
        self.uploads = self._extra_captures(counts["upload"])
        serial = {kind: 0 for kind in counts}
        for kind in shuffled_kinds(rng, counts):
            k = serial[kind]
            serial[kind] += 1
            if kind in ("upload", "store_write"):
                args = (k,)
            elif kind.startswith("album"):
                args = self._album_args(kind, k)
            elif kind == "mashup":
                args = (rng.randrange(self.contents),)
            elif kind == "search":
                args = (SEARCH_PREFIXES[k % len(SEARCH_PREFIXES)],)
            else:
                args = (1 + k % 4,)
            self.schedule.append((kind, args))
        self.captures_digest = digest_of(
            _capture_lines(self.base.captures + self.uploads)
        )
        #: (op, pinned dataset, result) of reads kept for the oracle
        self.kept: List[Tuple[Op, Any, Any]] = []
        self.reads = 0

    def setup(self) -> None:
        super().setup()
        self.web = WebInterface(self.platform)
        self.search = SearchInterface(
            self.platform.union_graph(), self.platform.contents()
        )
        geo_album().links(Evaluator(self.store))

    def _read(self, op: Op, source, optimize: bool = True):
        kind, args = op
        evaluator = Evaluator(source, optimize=optimize)
        if kind == "mashup":
            with self.tracer.span("core.mashup"):
                view = run_mashup(evaluator, self.pids[args[0]])
            return evaluator, {
                k: len(v) for k, v in sorted(view.sections.items())
            }
        with self.tracer.span("core." + kind):
            links = self._album(kind, *args).links(evaluator)
        return evaluator, sorted(links)

    def execute(self, op: Op) -> float:
        kind, args = op
        began = time.perf_counter()
        if kind == "upload":
            query, expected = self._apply(
                self.platform, self.pids, kind, args
            )
            evaluator = self.platform.evaluator()
            took = time.perf_counter() - began
            self.log.append(op)
            if len(self.log) % self.INDEX_EVERY == 0:
                self.search = SearchInterface(
                    self.platform.union_graph(), self.platform.contents()
                )
            self._check(evaluator, kind, query, expected)
        elif kind == "search":
            found = self.search.suggest(args[0], limit=10)
            took = time.perf_counter() - began
            if not found:
                raise CheckFailed(f"no suggestions for prefix {args[0]!r}")
        elif kind == "browse":
            page = self.web.browse(page=args[0], page_size=PAGE_SIZE)
            took = time.perf_counter() - began
            total = len(self.platform.contents())
            if page.total != total or len(page.items) != PAGE_SIZE:
                raise CheckFailed(f"browse page {args[0]} is wrong")
        elif kind == "store_write":
            triple = (
                URIRef(f"{BENCH_NS}op/{args[0]}"),
                URIRef(f"{BENCH_NS}vocab#payload"),
                Literal(f"write-{args[0]}"),
            )
            added = self.store.insert(triple, SCRATCH_CONTEXT)
            took = time.perf_counter() - began
            if not added:
                raise CheckFailed(f"scratch write {args[0]} had no effect")
        else:  # albums and the mashup pin the store's current snapshot
            evaluator, result = self._read(op, self.store)
            took = time.perf_counter() - began
            self.reads += 1
            if self.reads % self.ORACLE_EVERY == 0:
                self.kept.append((op, evaluator.dataset, result))
        return took

    def verify(self) -> List[str]:
        failures = []
        for op, dataset, result in self.kept:
            if self._read(op, dataset, optimize=False)[1] != result:
                failures.append(f"{op}: optimized != unoptimized result")
        self.platform.evaluator()
        # scratch writes are not platform state (today every sync even
        # wipes them): the rebuild is compared on everything else
        suffix = f"<{SCRATCH_CONTEXT}> ."
        platform_quads = "".join(
            line for line in self.store.to_nquads().splitlines(True)
            if not line.rstrip().endswith(suffix)
        )
        if platform_quads != self._rebuild_nquads():
            failures.append("store differs from a from-scratch rebuild")
        return failures


# ---------------------------------------------------------------------------
# store-durable
# ---------------------------------------------------------------------------


class StoreDurable(Workload):
    """Small durable commits and pinned reads straight at the store.

    Flush policy is fixed: ``sync=True`` through the group-commit
    queue, i.e. one fsync per commit before it is acknowledged (one
    client: every group has one member). Checkpoints run on the store's
    background thread beside the commits.
    """

    name = "store-durable"
    ops_per_second = 330.0
    primary = (("commit",),)
    secondary = (("read",),)
    WEIGHTS = {"commit": 80, "read": 20}
    PRELOAD_CONTENTS = 400
    BATCH_QUADS = 8
    REMOVE_EVERY = 10
    CHECKPOINT_OPS = 4000

    def __init__(self, seed: int, seconds: float, tracer: Tracer,
                 work_root: Optional[Path] = None) -> None:
        super().__init__(seed, seconds, tracer)
        rng = self.rng
        self.work_root = work_root or Path(__file__).parent / ".tmp"
        self.base = generate_workload(WorkloadConfig(
            n_users=10, n_contents=self.PRELOAD_CONTENTS, seed=seed,
        ))
        self.captures_digest = digest_of(_capture_lines(self.base.captures))
        commits = 0
        live: List[int] = []
        for kind in shuffled_kinds(
            rng, exact_counts(self.total_ops, self.WEIGHTS)
        ):
            if kind == "commit":
                removed = -1
                if commits % self.REMOVE_EVERY == self.REMOVE_EVERY - 1:
                    removed = live.pop(rng.randrange(len(live)))
                args = (commits, removed)
                live.append(commits)
                commits += 1
            else:  # read the batch committed last
                args = (max(commits - 1, 0),)
            self.schedule.append((kind, args))
        self.directory: Optional[Path] = None
        #: (batch index, acknowledged generation) per commit
        self.acked: List[Tuple[int, int]] = []
        self.loaded_generation = 0

    def _batch_triples(self, index: int) -> List[tuple]:
        subject = URIRef(f"{BENCH_NS}batch/{index}")
        return [
            (subject, URIRef(f"{BENCH_NS}vocab#p{j}"),
             Literal(f"payload-{self.seed}-{index}-{j}"))
            for j in range(self.BATCH_QUADS)
        ]

    def setup(self) -> None:
        platform = Platform()
        populate_platform(platform, self.base)
        self.work_root.mkdir(parents=True, exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(
            prefix="store-", dir=self.work_root
        ))
        self.store = QuadStore(
            self.directory / "live", sync=True, group_commit=True,
            checkpoint_policy=CheckpointPolicy(ops=self.CHECKPOINT_OPS),
        )
        self.store.sync_dataset(platform.triple_store())
        self.store.checkpoint()
        self.loaded_generation = self.store.generation

    def execute(self, op: Op) -> float:
        kind, args = op
        if kind == "commit":
            index, removed = args
            batch = WriteBatch()
            for triple in self._batch_triples(index):
                batch.insert(triple, SCRATCH_CONTEXT)
            if removed >= 0:
                for triple in self._batch_triples(removed):
                    batch.remove(triple, SCRATCH_CONTEXT)
            began = time.perf_counter()
            generation = self.store.commit(batch)
            took = time.perf_counter() - began
            self.acked.append((index, generation))
            return took
        subject = URIRef(f"{BENCH_NS}batch/{args[0]}")
        began = time.perf_counter()
        with self.tracer.span("store.pinned_scan"):
            snapshot = self.store.dataset_snapshot()
            seen = sum(
                1 for _ in snapshot.union_graph().triples(
                    (subject, None, None)
                )
            )
        took = time.perf_counter() - began
        if seen not in (0, self.BATCH_QUADS):
            raise CheckFailed(
                f"pinned read saw {seen}/{self.BATCH_QUADS} quads of "
                f"batch {args[0]}"
            )
        return took

    def verify(self) -> List[str]:
        """Copy the directory without ``close()`` and reopen the copy."""
        failures = []
        live = self.store
        if not live.wait_for_checkpoints(timeout=30.0):
            failures.append("background checkpoints did not settle")
        generation = live.generation
        acknowledged = max(
            [self.loaded_generation] + [g for _, g in self.acked]
        )
        if generation != acknowledged:
            failures.append(
                f"store head {generation} is not the last acknowledged "
                f"generation {acknowledged}"
            )
        copy = self.directory / "copy"
        shutil.copytree(self.directory / "live", copy)
        began = time.perf_counter()
        reopened = QuadStore(copy)
        self.recovery_s = time.perf_counter() - began
        try:
            self.recovered_ops = reopened.recovery.ops_replayed
            if reopened.generation != generation:
                failures.append(
                    f"reopened copy is at generation "
                    f"{reopened.generation}, acknowledged {generation}"
                )
            if reopened.to_nquads() != live.to_nquads():
                failures.append("reopened copy differs from the live store")
        finally:
            reopened.close()
        disk = sum(
            f.stat().st_size
            for f in (self.directory / "live").iterdir() if f.is_file()
        )
        self.disk_bytes_per_quad = disk / max(1, live.size)
        # payload of the committed batches: the terms' text only
        self.user_bytes = sum(
            len(s) + len(p) + len(o.lexical)
            for index, _ in self.acked
            for s, p, o in self._batch_triples(index)
        )
        return failures

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None
            try:
                self.work_root.rmdir()  # leave nothing behind when empty
            except OSError:
                pass  # another run is using it


WORKLOADS = {
    cls.name: cls for cls in (AlbumRead, UploadFresh, Mixed, StoreDurable)
}
