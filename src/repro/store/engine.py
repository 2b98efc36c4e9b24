"""Generation-stamped MVCC quad-store engine.

Concurrency: thread-safe

:class:`QuadStore` is the storage engine extracted out of
:class:`repro.rdf.graph.Graph`. It holds quads (triples grouped into an
optional named context) in an *immutable published state*: a generation
number plus, per context, a frozen base graph and a small frozen
add/remove overlay. Readers pin the current state with one attribute
read and keep it for as long as they like — a
:class:`SnapshotGraph`/:class:`SnapshotDataset` never changes under a
reader, so query evaluation cannot observe an in-flight write batch and
iterating a pinned view while other threads commit yields exactly the
pinned generation.

Writers serialize on one commit lock. A commit computes the *effective*
ops (no-ops are dropped), appends one WAL record
(:mod:`repro.store.wal`), derives the next state, carries every derived
view the last state holds across the delta (see *Derived views* below),
and publishes the new state with a single atomic reference swap.
Deriving a state copies no triple: the touched context's overlay is
*thawed* (:func:`repro.rdf.graph.thaw` — the new overlay shares the
published one's index containers and copies only those the commit
writes to), so a commit costs ``O(delta)`` Python-level work plus a
shallow copy of the overlay's outer index dicts, whatever the overlay
and the store hold. Once an overlay exceeds ``OVERLAY_LIMIT`` it is
folded so reads stay index-fast — the same way: the *base* is thawed
and the overlay applied to it, ``O(overlay)`` Python-level work plus a
shallow copy of the base's outer index dicts, and a context with no
base yet adopts its overlay as the base. Published graphs are frozen
and never written again, which is all the sharing needs.

Durability: WAL + periodic :meth:`QuadStore.checkpoint` snapshot files
(:mod:`repro.store.persistence`); restart replays snapshot + sealed WAL
segments + WAL tail. A checkpoint holds the commit lock only to seal
the WAL; it builds the next snapshot off the lock from the previous one
and the sealed segments, so its cost is the delta, not the store. An
in-memory store (``directory=None``) skips all file IO.

Throughput machinery around that write path:

* :class:`CheckpointPolicy` — WAL-byte / op-count watermarks evaluated
  after every commit; when one trips, a background checkpointer thread
  runs :meth:`QuadStore.checkpoint` off the commit hot path so WAL
  replay time stays bounded without anyone calling ``repro store
  compact``. The default policy is *explicit-only* (no watermarks,
  no thread) — exactly the historical behavior.
* :class:`GroupCommitQueue` (``QuadStore(group_commit=True)``) — sits
  in front of the commit lock and coalesces concurrently submitted
  batches into **one** WAL append, one fsync and one published
  generation; each submitter still gets its own effective-op count
  back, so N small autocommit writers cost ~1 disk flush per window
  instead of N.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import (
    Any,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..obs import get_registry, get_tracer
from ..rdf.graph import (
    Dataset,
    FrozenGraph,
    FrozenGraphError,
    Graph,
    Triple,
    TriplePattern,
    freeze,
    thaw,
)
from ..rdf.namespace import NamespaceManager
from ..rdf.nquads import Quad, serialize_quad
from ..rdf.terms import Term, URIRef, term_from_python
from .persistence import (
    DEFAULT_GRAPH_IRI,
    WAL_FILENAME,
    RecoveryReport,
    load_snapshot,
    merge_snapshot,
    prune_snapshots,
    sealed_segments,
    snapshot_files,
    snapshot_generation,
    write_snapshot,
)
from .wal import (
    OP_ADD,
    OP_REMOVE,
    WalScan,
    WriteAheadLog,
    scan_wal,
    segment_delta,
    truncate_wal,
)

__all__ = [
    "CheckpointPolicy",
    "GroupCommitQueue",
    "QuadStore",
    "SnapshotDataset",
    "SnapshotGraph",
    "StoreError",
    "WriteBatch",
    "cached_view",
    "current_view",
    "view_fingerprint",
]


class StoreError(ValueError):
    """A store operation that cannot be performed."""


class _Union:
    """Sentinel scope meaning "all contexts merged"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<union>"


_UNION = _Union()

#: A context's overlay is folded into its base once it holds more than
#: this many ops (in-memory compaction; no file IO).
OVERLAY_LIMIT = 1024

#: A context key: ``None`` is the default context.
ContextKey = Optional[URIRef]

#: One batch operation: ``(op, triple, context key)``.
BatchOp = Tuple[str, Triple, ContextKey]


def _as_context(value: Any) -> ContextKey:
    if value is None:
        return None
    if isinstance(value, URIRef):
        return value
    if isinstance(value, Graph):
        return URIRef(str(value.identifier))
    if isinstance(value, str):
        return URIRef(value)
    raise TypeError(f"invalid context: {value!r}")


class _ContextState:
    """Immutable per-context segment: frozen base + frozen overlay.

    Invariants: ``adds`` is disjoint from ``base``; ``removes`` is a
    subset of ``base``. A triple is visible iff it is in ``adds`` or in
    ``base`` without being in ``removes``. ``size`` is the visible
    count, maintained exactly by the engine.
    """

    __slots__ = ("base", "adds", "removes", "size", "parts")

    def __init__(
        self,
        base: Graph,
        adds: Graph,
        removes: frozenset,
        size: int,
    ) -> None:
        self.base = base
        self.adds = adds
        self.removes = removes
        self.size = size
        #: the segments a read has to visit — (graph, triples of it to
        #: hide) — with the empty ones left out: a freshly loaded
        #: context has no overlay, a small one no base yet
        self.parts: Tuple[Tuple[Graph, frozenset], ...] = tuple(
            (graph, hidden)
            for graph, hidden in ((base, removes), (adds, frozenset()))
            if len(graph)
        )

    @property
    def overlay(self) -> int:
        return len(self.adds) + len(self.removes)


class _State:
    """One published store state; everything but ``views`` is fixed.

    ``views`` maps a view kind to its view of this state's union (module
    docstring). The map is never changed in place, only replaced: by the
    commit that derives the state, before publishing it, or by
    :func:`cached_view` under ``_COLLECT_LOCK`` when a view is first
    collected here. A reader's one attribute read sees a whole map.
    """

    __slots__ = ("generation", "contexts", "union_size", "views")

    def __init__(
        self,
        generation: int,
        contexts: Dict[ContextKey, _ContextState],
        union_size: int,
        views: Optional[Dict[type, Any]] = None,
    ) -> None:
        self.generation = generation
        self.contexts = contexts
        self.union_size = union_size
        self.views: Dict[type, Any] = views if views is not None else {}


def _term_order(triple: Triple) -> Tuple[tuple, tuple, tuple]:
    """A triple's position in term order, as ``sorted`` on the triples
    themselves would place it, without a Python-level comparison per
    pair."""
    s, p, o = triple
    return s._sort_key(), p._sort_key(), o._sort_key()


def _context_visible(cs: _ContextState, triple: Triple) -> bool:
    if triple in cs.adds:
        return True
    return triple in cs.base and triple not in cs.removes


def _union_triples(
    contexts: Sequence[_ContextState], pattern: TriplePattern
) -> Iterator[Triple]:
    """Matches of ``pattern`` over several contexts, each triple once.

    The one walk over context segments (a whole-context walk passes one
    context and an open pattern). A segment whose own index holds no
    triple with the pattern's bound subject — or, the subject open, its
    bound object — or its bound predicate is not read. A triple can only
    repeat *across* contexts, and most patterns are answered by one of
    them (platform predicates live in the default context, LOD ones in
    theirs): a match is looked up in the earlier contexts that answered
    this pattern at all — usually none — which keeps the read lazy and
    builds no per-call set.
    """
    subject, predicate, obj = pattern
    answered: List[_ContextState] = []
    for cs in contexts:
        matched = False
        for graph, hidden in cs.parts:
            if subject is not None:
                if subject not in graph._spo:
                    continue
            elif obj is not None and obj not in graph._osp:
                continue
            if predicate is not None and predicate not in graph._pos:
                continue
            for triple in graph.triples(pattern):
                if hidden and triple in hidden:
                    continue
                matched = True
                if answered and any(
                    _context_visible(earlier, triple)
                    for earlier in answered
                ):
                    continue
                yield triple
        if matched:
            answered.append(cs)


class SnapshotGraph(FrozenGraph):
    """A read-only graph view pinned to one store generation.

    Shares :class:`~repro.rdf.graph.Graph`'s read API (``triples``,
    ``subjects``, ``value``, ``len`` …) but answers everything from the
    pinned :class:`_State` — concurrent commits publish *new* states and
    never touch this one. Mutation raises
    :class:`~repro.rdf.graph.FrozenGraphError` (inherited).

    Deliberately has no ``_version`` attribute and no lock: a cached
    view is keyed on :attr:`generation` (:func:`cached_view`; the union
    view shares its state's), and an immutable view needs no guard.
    """

    def __init__(
        self,
        store: "QuadStore",
        state: _State,
        scope: Union[_Union, ContextKey],
    ) -> None:
        # No Graph.__init__: a snapshot owns no indexes and must not
        # carry the mutable-graph machinery (_spo/_lock/_version).
        self._store = store
        self._state = state
        self._scope = scope
        self.namespaces = store.namespaces
        self.generation = state.generation
        #: the context states in scope, fixed with the pinned state
        self._contexts: Tuple[_ContextState, ...]
        if scope is _UNION:
            self.identifier = URIRef(
                f"urn:store:{store.name}:union:g{state.generation}"
            )
            self._size = state.union_size
            self._contexts = tuple(state.contexts.values())
        else:
            self.identifier = (
                scope if scope is not None else DEFAULT_GRAPH_IRI
            )
            cs = state.contexts.get(scope)
            self._size = cs.size if cs is not None else 0
            self._contexts = (cs,) if cs is not None else ()

    # -- pinned reads ---------------------------------------------------
    def triples(
        self, pattern: TriplePattern = (None, None, None)
    ) -> Iterator[Triple]:
        return _union_triples(self._contexts, pattern)

    def _contains(self, s: Term, p: Term, o: Term) -> bool:
        triple = (s, p, o)
        return any(
            _context_visible(cs, triple) for cs in self._contexts
        )

    def resource_exists(self, subject: Term) -> bool:
        for _ in self.triples((subject, None, None)):
            return True
        return False

    def copy(self) -> Graph:
        # a view has no indexes of its own to share: materialise it
        return Graph.copy(self)

    def predicate_statistics(self) -> Dict[Term, Tuple[int, int, int]]:
        contexts = self._contexts
        if len(contexts) == 1 and contexts[0].overlay == 0:
            # post-compaction fast path: one frozen base, index-backed
            return contexts[0].base.predicate_statistics()
        gathered: Dict[Term, Tuple[int, Set[Term], Set[Term]]] = {}
        for s, p, o in self.triples():
            entry = gathered.get(p)
            if entry is None:
                entry = (0, set(), set())
            count, subjects, objects = entry
            subjects.add(s)
            objects.add(o)
            gathered[p] = (count + 1, subjects, objects)
        return {
            p: (count, len(subjects), len(objects))
            for p, (count, subjects, objects) in gathered.items()
        }

    def __repr__(self) -> str:
        return (
            f"SnapshotGraph({str(self.identifier)!r}, "
            f"generation={self.generation}, triples={self._size})"
        )


class SnapshotDataset(Dataset):
    """A read-only :class:`~repro.rdf.graph.Dataset` view pinned to one
    store generation — the evaluator's ``GRAPH`` patterns and
    ``union_graph()`` all answer from the same state."""

    def __init__(self, store: "QuadStore", state: _State) -> None:
        # No Dataset.__init__: members are pinned snapshot views.
        self._store = store
        self._state = state
        self.generation = state.generation
        self.default = SnapshotGraph(store, state, None)
        self._named = {
            key: SnapshotGraph(store, state, key)
            for key in state.contexts
            if key is not None
        }

    def graph(self, identifier: Any) -> Graph:
        key = _as_context(identifier)
        existing = self._named.get(key)
        if existing is not None:
            return existing
        # read-only: unknown names resolve to an empty pinned view
        # instead of creating a context in the store
        return SnapshotGraph(self._store, self._state, key)

    def remove_graph(self, identifier: Any) -> bool:
        raise FrozenGraphError(
            "remove_graph() on a generation-pinned dataset view; "
            "write through the store instead"
        )

    def union_graph(self) -> Graph:
        return SnapshotGraph(self._store, self._state, _UNION)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SnapshotDataset(store={self._store.name!r}, "
            f"generation={self.generation})"
        )


class WriteBatch:
    """An ordered list of quad ops applied atomically by ``commit``.

    Terms are coerced on entry (same rules as ``Graph.add``); ops keep
    their order, so add-then-remove of the same triple nets out."""

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops: List[BatchOp] = []

    def _coerce(self, triple: Iterable[Any]) -> Triple:
        s, p, o = triple
        return (
            Graph._as_node(s),
            Graph._as_predicate(p),
            term_from_python(o),
        )

    def insert(
        self, triple: Iterable[Any], context: Any = None
    ) -> "WriteBatch":
        self.ops.append(
            (OP_ADD, self._coerce(triple), _as_context(context))
        )
        return self

    def remove(
        self, triple: Iterable[Any], context: Any = None
    ) -> "WriteBatch":
        self.ops.append(
            (OP_REMOVE, self._coerce(triple), _as_context(context))
        )
        return self

    def add_all(
        self, triples: Iterable[Iterable[Any]], context: Any = None
    ) -> "WriteBatch":
        key = _as_context(context)
        for triple in triples:
            self.ops.append((OP_ADD, self._coerce(triple), key))
        return self

    def __len__(self) -> int:
        return len(self.ops)


class _Working:
    """One context while a commit derives its next state.

    Nothing of the published state is copied up front: ``adds`` is the
    published overlay thawed (it shares that graph's index containers
    until an op writes to one), ``removes`` *is* the published frozenset
    until the commit hides or un-hides a base triple.
    """

    __slots__ = ("base", "adds", "removes", "size")

    def __init__(self, cs: Optional[_ContextState], key: ContextKey,
                 namespaces: NamespaceManager) -> None:
        self.removes: Union[frozenset, Set[Triple]]
        if cs is None:
            identifier = key if key is not None else DEFAULT_GRAPH_IRI
            self.base: Graph = freeze(Graph(identifier, namespaces))
            self.adds = Graph(identifier, namespaces)
            self.removes = frozenset()
            self.size = 0
        else:
            self.base = cs.base
            self.adds = thaw(cs.adds)
            self.removes = cs.removes
            self.size = cs.size

    def visible(self, triple: Triple) -> bool:
        if triple in self.adds:
            return True
        return triple in self.base and triple not in self.removes

    def own_removes(self) -> Set[Triple]:
        """``removes`` as a set this commit may write to."""
        if isinstance(self.removes, frozenset):
            self.removes = set(self.removes)
        return self.removes


class CheckpointPolicy:
    """When the store checkpoints on its own.

    Two independent watermarks, evaluated after every commit (both
    reads happen under the commit lock, so they are exact):

    * ``wal_bytes`` — checkpoint once the WAL tail (what a restart
      would replay) exceeds this many bytes;
    * ``ops`` — checkpoint once this many effective ops were committed
      since the last checkpoint.

    Leaving both unset (the default) is *explicit-only* mode: nothing
    checkpoints automatically and no background thread is started —
    the store behaves exactly as before this policy existed.
    """

    __slots__ = ("wal_bytes", "ops")

    def __init__(
        self,
        *,
        wal_bytes: Optional[int] = None,
        ops: Optional[int] = None,
    ) -> None:
        for name, value in (("wal_bytes", wal_bytes), ("ops", ops)):
            if value is not None and value <= 0:
                raise ValueError(
                    f"CheckpointPolicy {name} watermark must be "
                    f"positive, got {value!r}"
                )
        self.wal_bytes = wal_bytes
        self.ops = ops

    @property
    def explicit_only(self) -> bool:
        return self.wal_bytes is None and self.ops is None

    def due(self, wal_tail_bytes: int, ops_since: int) -> bool:
        """Does the current WAL tail / op backlog trip a watermark?"""
        if self.wal_bytes is not None and wal_tail_bytes >= self.wal_bytes:
            return True
        return self.ops is not None and ops_since >= self.ops

    def as_dict(self) -> dict:
        return {
            "mode": "explicit-only" if self.explicit_only else "auto",
            "wal_bytes": self.wal_bytes,
            "ops": self.ops,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.explicit_only:
            return "CheckpointPolicy(explicit-only)"
        return (
            f"CheckpointPolicy(wal_bytes={self.wal_bytes}, "
            f"ops={self.ops})"
        )


class _Checkpointer:
    """Background thread running :meth:`QuadStore.checkpoint` when a
    :class:`CheckpointPolicy` watermark trips.

    Commits only :meth:`request` a checkpoint (one condition notify —
    the snapshot IO happens on this thread, off the commit hot path).
    Requests are idempotent: a request arriving while a checkpoint is
    already due or running coalesces into the next run. ``close``
    drains a pending request (one final checkpoint) and joins the
    thread. All flags are guarded by the condition's lock; the
    checkpoint itself runs with no checkpointer lock held.
    """

    def __init__(self, store: "QuadStore") -> None:
        self._store = store
        self._cond = threading.Condition()
        self._due = False
        self._running = False
        self._closing = False
        #: completed / failed runs (guarded by the condition's lock).
        self._runs = 0
        self._failures = 0
        self._last_error: Optional[str] = None
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-store-checkpointer-{store.name}",
            daemon=True,
        )
        self._thread.start()

    def request(self) -> None:
        """Ask for a checkpoint soon; cheap and idempotent."""
        with self._cond:
            if self._closing:
                return
            self._due = True
            self._cond.notify_all()

    def wait_until_idle(self, timeout: float = 10.0) -> bool:
        """Block until no checkpoint is due or running (tests/CLI)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not (self._due or self._running), timeout
            )

    def close(self) -> None:
        """Drain any pending request, then stop and join the thread."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._thread.join()

    def stats(self) -> dict:
        with self._cond:
            return {
                "runs": self._runs,
                "failures": self._failures,
                "last_error": self._last_error,
                "pending": self._due or self._running,
            }

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._due and not self._closing:
                    self._cond.wait()
                if not self._due:  # closing with nothing left to drain
                    return
                self._due = False
                self._running = True
            error: Optional[str] = None
            run_began = time.perf_counter()
            with get_tracer().span(
                "store.auto_checkpoint", {"store": self._store.name}
            ) as span:
                try:
                    path = self._store.checkpoint()
                    # superseded snapshots would otherwise accumulate
                    # one per watermark trip; keep only the one just
                    # written
                    prune_snapshots(
                        self._store.directory, snapshot_generation(path)
                    )
                except Exception as exc:
                    # disk full / closed WAL: record, stay alive — the
                    # next commit past the watermark re-requests a
                    # checkpoint
                    error = f"{type(exc).__name__}: {exc}"
                    span.set_attribute("error", error)
                span.set_attribute(
                    "outcome", "error" if error else "ok"
                )
            seconds = time.perf_counter() - run_began
            labels = {
                "store": self._store.name,
                "outcome": "error" if error else "ok",
            }
            _emit("repro_store_auto_checkpoints_total", **labels)
            _emit("repro_store_checkpoint_seconds", seconds, **labels)
            with self._cond:
                self._running = False
                if error is None:
                    self._runs += 1
                else:
                    self._failures += 1
                    self._last_error = error
                self._cond.notify_all()


class _Submission:
    """One batch handed to the group-commit queue, and its result."""

    __slots__ = (
        "ops", "done", "generation", "effective", "error",
        "flushed", "lead",
    )

    def __init__(self, ops: List[BatchOp]) -> None:
        self.ops = ops
        self.done = False
        self.generation = 0
        self.effective = 0
        self.error: Optional[BaseException] = None
        #: signalled when the batch was flushed — or when this
        #: submission is promoted to leader of the next group.
        self.flushed = threading.Event()
        self.lead = False

    def resolve(
        self,
        generation: int,
        effective: int,
        error: Optional[BaseException],
    ) -> None:
        self.generation = generation
        self.effective = effective
        self.error = error
        self.done = True
        self.flushed.set()


class GroupCommitQueue:
    """Coalesces concurrently submitted batches into one commit.

    Leader/follower protocol: a submitter enqueues its ops and, if no
    leader is active, becomes the leader; otherwise it waits on its
    submission's event without ever touching the commit lock. The
    leader takes the store's commit lock, drains every submission
    enqueued so far and commits them as **one** WAL append, one fsync
    (``sync=True`` stores) and one published generation;
    per-submission effective-op counts come back from the engine's
    segment accounting, so each submitter observes exactly the result
    serial commits would have given it. On finishing, the leader
    promotes the head of whatever queued meanwhile to leader of the
    next group (waking it through the same event).

    Keeping followers off the commit lock is what makes the groups
    large: if followers queued on the lock instead, every flush would
    wake a convoy of already-committed waiters whose serialized
    acquire/release cycles let only a couple of fresh submissions
    accumulate per group. With event-parked followers the batching
    window is the leader's full flush, so a group grows toward *all*
    concurrent writers.

    A failed group commit (WAL append error) publishes nothing: every
    submission in the group gets the error and re-raises it in its own
    thread. Stats and the queue are guarded by the queue's own mutex,
    which is only ever taken *after* the commit lock (never the
    reverse), so the lock order stays acyclic.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._pending: List[_Submission] = []
        self._busy = False  # a leader is flushing (guarded by mutex)
        #: lifetime stats (guarded by ``_mutex``).
        self._groups = 0
        self._submissions = 0
        self._batched = 0
        self._largest_group = 0

    def submit(
        self, store: "QuadStore", ops: Sequence[BatchOp]
    ) -> Tuple[int, int]:
        """Commit ``ops`` to ``store`` through the queue; returns
        ``(generation, effective op count)`` like ``QuadStore.apply``.

        The store is passed in, not kept: a queue is the store's and
        holding it back would make the pair a reference cycle, left to
        the cycle collector when the store is dropped.
        """
        sub = _Submission(list(ops))
        began = time.perf_counter()
        with self._mutex:
            self._pending.append(sub)
            self._submissions += 1
            if not self._busy:
                self._busy = True
                sub.lead = True
        if not sub.lead:
            sub.flushed.wait()  # a leader flushes or promotes us
        # queue wait: park time for a resolved follower, promotion
        # delay for an heir, ~0 for an uncontended leader
        waited = time.perf_counter() - began
        if sub.lead:
            try:
                with store._commit_lock:
                    with self._mutex:
                        drained = self._pending
                        self._pending = []
                    self._commit_group(store, drained)
            finally:
                with self._mutex:
                    if self._pending:
                        heir = self._pending[0]
                        heir.lead = True
                        heir.flushed.set()
                    else:
                        self._busy = False
        elapsed = time.perf_counter() - began
        role = "leader" if sub.lead else "follower"
        labels = {"store": store.name, "role": role}
        _emit("repro_store_flush_seconds", elapsed, **labels)
        _emit("repro_store_group_wait_seconds", waited, **labels)
        # parents to the *submitting* thread's active span, so a
        # follower's commit shows up in its own request trace even
        # though another thread did the flush
        get_tracer().record_span(
            "store.group_commit",
            elapsed,
            attributes={
                "store": store.name,
                "role": role,
                "generation": sub.generation,
                "error": sub.error is not None,
            },
        )
        if sub.error is not None:
            raise sub.error
        return sub.generation, sub.effective

    def _commit_group(
        self, store: "QuadStore", group: List[_Submission]
    ) -> None:
        # commit lock held; ``group`` always contains the leader's own
        # submission (promotion happens before the next drain)
        try:
            generation, counts = store._apply_segments_locked(
                [sub.ops for sub in group]
            )
        except BaseException as exc:
            for sub in group:
                sub.resolve(0, 0, exc)
        else:
            for sub, effective in zip(group, counts):
                sub.resolve(generation, effective, None)
        with self._mutex:
            self._groups += 1
            self._batched += len(group) - 1
            if len(group) > self._largest_group:
                self._largest_group = len(group)
        name = store.name
        _emit("repro_store_group_commit_groups_total", store=name)
        if len(group) > 1:
            _emit(
                "repro_store_group_commit_batched_total",
                len(group) - 1, store=name,
            )
        _emit("repro_store_group_batch_size", len(group), store=name)

    def stats(self) -> dict:
        with self._mutex:
            return {
                "submissions": self._submissions,
                "groups": self._groups,
                "batched": self._batched,
                "largest_group": self._largest_group,
            }


class QuadStore:
    """The pluggable MVCC storage engine (see module docstring).

    Parameters
    ----------
    directory:
        Where the WAL and snapshot files live; ``None`` keeps the store
        purely in memory (no durability, same MVCC semantics). Opening
        a directory *is* recovery: newest readable snapshot + sealed WAL
        segments + WAL tail, with any torn tail truncated away (see
        :attr:`recovery`).
    sync:
        ``fsync`` every WAL record before acknowledging the commit.
    checkpoint_policy:
        When to checkpoint automatically (see
        :class:`CheckpointPolicy`). The default is explicit-only;
        a policy with watermarks requires a durable store and starts
        one background checkpointer thread.
    group_commit:
        Route :meth:`apply` through a :class:`GroupCommitQueue` so
        concurrent small writers share WAL appends and fsyncs.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        name: Optional[str] = None,
        sync: bool = False,
        namespaces: Optional[NamespaceManager] = None,
        checkpoint_policy: Optional[CheckpointPolicy] = None,
        group_commit: bool = False,
    ) -> None:
        self.namespaces = namespaces or NamespaceManager()
        self.directory = (
            Path(directory) if directory is not None else None
        )
        self.name = name or (
            self.directory.name if self.directory is not None
            else "ephemeral"
        )
        self.checkpoint_policy = checkpoint_policy or CheckpointPolicy()
        if (
            not self.checkpoint_policy.explicit_only
            and self.directory is None
        ):
            raise StoreError(
                "checkpoint-policy watermarks require a durable store "
                "(directory=...); an in-memory store has no WAL to bound"
            )
        #: serialises checkpoints; always taken before the commit lock
        self._checkpoint_lock = threading.Lock()
        self._commit_lock = threading.Lock()
        #: effective ops committed since the last checkpoint (guarded
        #: by the commit lock; reset by ``checkpoint``).
        self._ops_since_checkpoint = 0
        #: ``(generation, path)`` of the snapshot the next checkpoint
        #: merges into: the one this store last wrote or recovered from
        #: (``(0, None)``: the empty store). Guarded by the checkpoint
        #: lock.
        self._base: Tuple[int, Optional[Path]] = (0, None)
        #: the view kinds a reader has collected on this store: a commit
        #: from a state that lacks one collects it (``_maintain_views``).
        #: Replaced, never changed in place, under ``_COLLECT_LOCK``.
        self._view_kinds: FrozenSet[type] = frozenset()
        self._wal: Optional[WriteAheadLog] = None
        self.recovery: Optional[RecoveryReport] = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._state = self._bootstrap()
            self._wal = WriteAheadLog(
                self.directory / WAL_FILENAME, sync=sync
            )
            report = self.recovery
            _emit("repro_store_recoveries_total", store=self.name)
            if report.torn_bytes:
                _emit(
                    "repro_store_torn_bytes_total", report.torn_bytes,
                    store=self.name,
                )
            _emit(
                "repro_store_replayed_ops_total", report.ops_replayed,
                store=self.name,
            )
        else:
            self._state = _State(0, {}, 0, None)
        self._group = GroupCommitQueue() if group_commit else None
        self._checkpointer = (
            _Checkpointer(self)
            if not self.checkpoint_policy.explicit_only
            else None
        )
        _emit(
            "repro_store_generation", self.generation, store=self.name
        )

    # -- recovery -------------------------------------------------------
    def _bootstrap(self) -> _State:
        """Load the newest readable snapshot, replay the sealed WAL
        segments and then the live WAL, repair a torn tail.

        Refuses (``StoreError``) to open on a gap in the generations —
        a record that does not follow the one before it, e.g. when the
        only snapshot holding the generations in between is unreadable
        — or on a damaged sealed segment; then nothing is truncated or
        deleted."""
        report = RecoveryReport(directory=str(self.directory))
        bases: Dict[ContextKey, Graph] = {}
        for generation, path in reversed(snapshot_files(self.directory)):
            try:
                bases, count = load_snapshot(path, self.namespaces)
            except (ValueError, OSError) as exc:
                report.snapshot_errors.append(f"{path.name}: {exc}")
                continue
            report.snapshot_path = str(path)
            report.snapshot_generation = generation
            report.snapshot_quads = count
            self._base = (generation, path)
            break
        scans: List[Tuple[Path, WalScan]] = [
            (path, scan_wal(path))
            for _, path in sealed_segments(self.directory)
        ]
        for path, scan in scans:
            if scan.torn_bytes:
                raise StoreError(
                    f"store {self.directory}: sealed WAL segment "
                    f"{path.name} is damaged at byte {scan.valid_bytes} "
                    f"({scan.torn_reason}); refusing to open"
                )
        wal_path = self.directory / WAL_FILENAME
        scans.append((wal_path, scan_wal(wal_path)))
        generation = report.snapshot_generation
        for batch in (batch for _, scan in scans for batch in scan.batches):
            if batch.generation <= report.snapshot_generation:
                continue  # already folded into the snapshot
            if batch.generation != generation + 1:
                raise StoreError(
                    f"store {self.directory}: recovery reached generation "
                    f"{generation} (snapshot generation "
                    f"{report.snapshot_generation}) but the next logged "
                    f"record is generation {batch.generation}; the "
                    f"generations in between are lost, so the store "
                    f"refuses to open (nothing was truncated or deleted)"
                )
            self._replay_batch(bases, batch.ops)
            report.ops_replayed += len(batch.ops)
            report.batches_replayed += 1
            generation = batch.generation
        scan = scans[-1][1]
        if scan.torn_bytes:
            report.torn_bytes = scan.torn_bytes
            report.torn_reason = scan.torn_reason
            truncate_wal(wal_path, scan.valid_bytes)
        # a checkpoint that died before its rename: never a snapshot
        for stale in self.directory.glob("snapshot-*.nq.tmp"):
            stale.unlink()
        report.generation = generation
        self.recovery = report
        return _publish_bases(bases, generation)

    def _replay_batch(
        self, bases: Dict[ContextKey, Graph], ops: Sequence[Tuple[str, Quad]]
    ) -> None:
        for op, (s, p, o, key) in ops:
            graph = bases.get(key)
            if graph is None:
                identifier = key if key is not None else DEFAULT_GRAPH_IRI
                graph = Graph(identifier, self.namespaces)
                bases[key] = graph
            if op == OP_ADD:
                graph.insert((s, p, o))
            else:
                graph.remove((s, p, o))

    # -- pinned read views ----------------------------------------------
    @property
    def generation(self) -> int:
        # single atomic reference read — the MVCC publication point;
        # commits swap self._state, they never mutate a published state
        return self._state.generation  # cc: allow=CC001

    def head(self) -> SnapshotGraph:
        """The current union view, pinned: later commits never affect it."""
        return SnapshotGraph(self, self._state, _UNION)  # cc: allow=CC001

    def graph(self, context: Any = None) -> SnapshotGraph:
        """A pinned view of one context (``None`` = default context)."""
        state = self._state  # cc: allow=CC001 (atomic reference read)
        return SnapshotGraph(self, state, _as_context(context))

    def dataset_snapshot(self) -> SnapshotDataset:
        """A pinned Dataset view (default + named graphs + union)."""
        return SnapshotDataset(self, self._state)  # cc: allow=CC001

    def contexts(self) -> List[ContextKey]:
        return sorted(
            self._state.contexts,  # cc: allow=CC001
            key=lambda key: "" if key is None else str(key),
        )

    def quads(self) -> Iterator[Quad]:
        """Every quad of the pinned current state, context by context."""
        state = self._state  # cc: allow=CC001 (atomic reference read)
        for key in sorted(
            state.contexts, key=lambda k: "" if k is None else str(k)
        ):
            cs = state.contexts[key]
            for s, p, o in _union_triples((cs,), (None, None, None)):
                yield (s, p, o, key)

    def to_nquads(self) -> str:
        """Canonical N-Quads text of the current state (sorted lines).

        Byte-identical for equal contents — the recovery tests compare
        this against the pre-crash dump."""
        lines = sorted(serialize_quad(quad) for quad in self.quads())
        return "\n".join(lines) + ("\n" if lines else "")

    @property
    def size(self) -> int:
        """Total quads across contexts (union view may be smaller)."""
        state = self._state  # cc: allow=CC001 (atomic reference read)
        return sum(cs.size for cs in state.contexts.values())

    # -- writes ---------------------------------------------------------
    def batch(self) -> WriteBatch:
        return WriteBatch()

    def commit(self, batch: Union[WriteBatch, Iterable[BatchOp]]) -> int:
        """Apply a batch atomically; returns the resulting generation.

        A batch with no effect (all ops already satisfied) does not
        bump the generation and writes nothing to the WAL."""
        generation, _ = self.apply(
            batch.ops if isinstance(batch, WriteBatch) else list(batch)
        )
        return generation

    def apply(self, ops: Sequence[BatchOp]) -> Tuple[int, int]:
        """Like :meth:`commit` but also returns the effective op count."""
        if not ops:
            return self._state.generation, 0  # cc: allow=CC001
        if self._group is not None:
            return self._group.submit(self, ops)
        with self._commit_lock:
            return self._apply_locked(ops)

    def insert(self, triple: Iterable[Any], context: Any = None) -> bool:
        """Add one quad; True when it was not already visible there."""
        batch = WriteBatch().insert(triple, context)
        _, effective = self.apply(batch.ops)
        return effective > 0

    def remove(
        self, pattern: TriplePattern, context: Any = None
    ) -> int:
        """Remove triples matching ``pattern`` in one context."""
        key = _as_context(context)
        with self._commit_lock:
            view = SnapshotGraph(self, self._state, key)
            matches = list(view.triples(pattern))
            if not matches:
                return 0
            ops: List[BatchOp] = [
                (OP_REMOVE, triple, key) for triple in matches
            ]
            self._apply_locked(ops)
        return len(matches)

    def _apply_locked(self, ops: Sequence[BatchOp]) -> Tuple[int, int]:
        # callers hold self._commit_lock (the analyzer cannot see the
        # cross-function acquire)
        generation, counts = self._apply_segments_locked([ops])
        return generation, counts[0]

    def _apply_segments_locked(
        self, segments: Sequence[Sequence[BatchOp]]
    ) -> Tuple[int, List[int]]:
        """Commit several op lists as **one** generation (lock held).

        One WAL append, one fsync, one state publication for the whole
        group; returns the generation plus the effective op count of
        each segment — what that segment would have reported had it
        committed serially in this order."""
        if self.directory is not None and self._wal is None:
            # a closed durable store must refuse writes: they would be
            # acknowledged in memory but never reach the WAL
            raise StoreError(
                f"store {self.name!r} is closed; commit refused"
            )
        state = self._state  # cc: allow=CC001
        outcome = self._advance(state, segments, state.generation + 1)
        if outcome is None:
            return state.generation, [0] * len(segments)
        (new_state, effective, seg_counts,
         union_added, union_removed, folded) = outcome
        wal_bytes = 0
        wal_seconds = 0.0
        fsync_seconds = 0.0
        if self._wal is not None:
            wal_began = time.perf_counter()
            wal_bytes = self._wal.append(new_state.generation, effective)
            wal_seconds = time.perf_counter() - wal_began
            fsync_seconds = self._wal.last_fsync_seconds
        _maintain_views(
            self, state, new_state, union_added, union_removed
        )
        self._state = new_state  # cc: allow=CC001 (commit lock held)
        self._ops_since_checkpoint += len(effective)
        if self._checkpointer is not None and self.checkpoint_policy.due(
            self._wal.tail_bytes if self._wal is not None else 0,
            self._ops_since_checkpoint,
        ):
            # one condition notify; the snapshot IO runs on the
            # checkpointer thread after this commit releases the lock
            self._checkpointer.request()
        name = self.name
        _emit("repro_store_commits_total", store=name)
        _emit("repro_store_committed_ops_total", len(effective), store=name)
        if wal_bytes:
            _emit("repro_store_wal_records_total", store=name)
            _emit("repro_store_wal_bytes_total", wal_bytes, store=name)
            _emit("repro_store_wal_append_seconds", wal_seconds, store=name)
            if fsync_seconds:
                _emit(
                    "repro_store_wal_fsync_seconds", fsync_seconds,
                    store=name,
                )
        if folded:
            _emit("repro_store_compactions_total", folded, store=name)
        _emit("repro_store_generation", new_state.generation, store=name)
        return new_state.generation, seg_counts

    def _advance(
        self,
        state: _State,
        segments: Sequence[Sequence[BatchOp]],
        generation: int,
    ) -> Optional[
        Tuple[_State, List[Tuple[str, Quad]], List[int],
              List[Triple], List[Triple], int]
    ]:
        """Pure derivation of the next state; ``None`` when no-op."""
        touched: Dict[ContextKey, _Working] = {}
        # every context there is, listed once per commit: the published
        # ones, plus any this commit creates
        keys: List[ContextKey] = list(state.contexts)

        def working(key: ContextKey) -> _Working:
            scratch = touched.get(key)
            if scratch is None:
                cs = state.contexts.get(key)
                if cs is None:
                    keys.append(key)
                scratch = _Working(cs, key, self.namespaces)
                touched[key] = scratch
            return scratch

        def ctx_visible(key: ContextKey, triple: Triple) -> bool:
            scratch = touched.get(key)
            if scratch is not None:
                return scratch.visible(triple)
            cs = state.contexts.get(key)
            return cs is not None and _context_visible(cs, triple)

        def visible_elsewhere(key: ContextKey, triple: Triple) -> bool:
            # the union's view of a triple that ``key`` does not show
            return len(keys) > 1 and any(
                ctx_visible(other, triple)
                for other in keys if other != key
            )

        effective: List[Tuple[str, Quad]] = []
        seg_counts: List[int] = []
        union_added: List[Triple] = []
        union_removed: List[Triple] = []
        union_delta = 0
        for ops in segments:
            seg_start = len(effective)
            for op, triple, key in ops:
                if op == OP_ADD:
                    if ctx_visible(key, triple):
                        continue
                    scratch = working(key)
                    if triple in scratch.removes:
                        scratch.own_removes().discard(triple)
                    else:
                        scratch.adds.insert(triple)
                    scratch.size += 1
                    effective.append((op, triple + (key,)))
                    if not visible_elsewhere(key, triple):
                        union_added.append(triple)
                        union_delta += 1
                elif op == OP_REMOVE:
                    if not ctx_visible(key, triple):
                        continue
                    scratch = working(key)
                    if triple in scratch.adds:
                        scratch.adds.remove(triple)
                    else:
                        scratch.own_removes().add(triple)
                    scratch.size -= 1
                    effective.append((op, triple + (key,)))
                    if not visible_elsewhere(key, triple):
                        union_removed.append(triple)
                        union_delta -= 1
                else:  # pragma: no cover - WriteBatch only emits +/-
                    raise StoreError(f"unknown op {op!r}")
            seg_counts.append(len(effective) - seg_start)
        if not effective:
            return None

        contexts = dict(state.contexts)
        folded = 0
        for key, scratch in touched.items():
            if scratch.size <= 0:
                contexts.pop(key, None)
                continue
            if len(scratch.adds) + len(scratch.removes) > OVERLAY_LIMIT:
                contexts[key] = _fold_context(scratch)
                folded += 1
            else:
                contexts[key] = _ContextState(
                    scratch.base,
                    freeze(scratch.adds),
                    frozenset(scratch.removes),
                    scratch.size,
                )
        new_state = _State(
            generation, contexts, state.union_size + union_delta
        )
        return (new_state, effective, seg_counts,
                union_added, union_removed, folded)

    # -- durability operations ------------------------------------------
    def checkpoint(self) -> Path:
        """Write a snapshot of the head; returns its path.

        Holds the commit lock only to seal the WAL at the head
        generation G (:meth:`WriteAheadLog.seal`) and read G's quad
        count. The snapshot is then built off the lock — the previous
        snapshot merged with the sealed segments' delta, never a
        serialization of the store — and written atomically; the sealed
        segments are deleted only after it is in place. A line count
        that differs from G's quad count, or a missing previous
        snapshot, raises and leaves the segments for the next
        checkpoint. Checkpoints are serialised by their own lock."""
        if self.directory is None or self._wal is None:
            raise StoreError(
                "checkpoint() requires a durable store (directory=...)"
            )
        with get_tracer().span(
            "store.checkpoint", {"store": self.name}
        ):
            with self._checkpoint_lock:
                with self._commit_lock:
                    state = self._seal_locked()
                quads = sum(cs.size for cs in state.contexts.values())
                path = self._write_merged(state.generation, quads)
        _emit("repro_store_checkpoints_total", store=self.name)
        return path

    def _seal_locked(self) -> _State:
        # callers hold self._commit_lock: no commit lands between
        # pinning the head and sealing the log at its generation
        state = self._state  # cc: allow=CC001
        self._wal.seal(state.generation)
        self._ops_since_checkpoint = 0
        return state

    def _write_merged(self, generation: int, quads: int) -> Path:
        """Write snapshot ``generation`` from the base snapshot and the
        sealed segments up to it; then delete those segments (the
        checkpoint lock is held)."""
        base_generation, base = self._base
        segments = [
            path for sealed, path in sealed_segments(self.directory)
            if sealed <= generation
        ]
        began = time.perf_counter()
        added, removed = segment_delta(segments, base_generation, generation)
        path = write_snapshot(
            self.directory, generation,
            _counted(merge_snapshot(base, added, removed), quads,
                     generation),
        )
        _emit(
            "repro_store_snapshot_write_seconds",
            time.perf_counter() - began, store=self.name,
        )
        self._base = (generation, path)
        for segment in segments:
            segment.unlink()
        return path

    def compact(self) -> dict:
        """Fold all overlays, checkpoint, and prune old snapshots.

        Returns a summary dict (folded contexts, pruned files, the
        snapshot written). In-memory stores fold overlays only."""
        folded = 0
        with self._commit_lock:
            state = self._state
            contexts: Dict[ContextKey, _ContextState] = {}
            for key, cs in state.contexts.items():
                if cs.overlay == 0:
                    contexts[key] = cs
                    continue
                contexts[key] = _fold_context(cs)
                folded += 1
            # same generation, same content — readers are unaffected
            self._state = _State(
                state.generation, contexts, state.union_size, state.views
            )
        summary = {
            "store": self.name,
            "generation": self.generation,
            "folded_contexts": folded,
            "snapshot": None,
            "pruned": [],
        }
        if self.directory is not None:
            path = self.checkpoint()
            summary["snapshot"] = str(path)
            summary["pruned"] = [
                str(p) for p in prune_snapshots(
                    self.directory, snapshot_generation(path)
                )
            ]
        if folded:
            _emit(
                "repro_store_compactions_total", folded, store=self.name
            )
        return summary

    # -- statistics ------------------------------------------------------
    def statistics(self):
        """Planner statistics for the current head, generation-cached."""
        from ..analysis.stats import GraphStatistics

        return GraphStatistics.cached(self.head())

    # -- dataset interop -------------------------------------------------
    def reconcile(
        self, wanted: Mapping[ContextKey, Collection[Triple]]
    ) -> int:
        """Commit the delta that makes every context ``wanted`` names
        hold exactly its triples; contexts it does not name belong to
        other writers and are left alone.

        The bulk loader: one generation for the whole reconciliation,
        unchanged quads cost nothing, at the price of visiting both
        sides in full. Each collection (a graph, a set, a dict's keys;
        each triple once) is read in place, iterated once and asked for
        membership, never copied. The ops come context by context in
        ``wanted``'s order: a context's removals in its own order, then
        its additions in term order (:meth:`Term._sort_key`, computed
        once per added triple). Returns the resulting generation."""
        batch = WriteBatch()
        state = self._state  # cc: allow=CC001 (atomic reference read)
        for key, want in wanted.items():
            cs = state.contexts.get(key)
            if cs is not None:
                for triple in _union_triples((cs,), (None, None, None)):
                    if triple not in want:
                        batch.ops.append((OP_REMOVE, triple, key))
            added = [
                triple for triple in want
                if cs is None or not _context_visible(cs, triple)
            ]
            added.sort(key=_term_order)
            batch.ops.extend((OP_ADD, triple, key) for triple in added)
        return self.commit(batch)

    def sync_dataset(self, dataset: Dataset) -> int:
        """:meth:`reconcile` every context ``dataset`` names: its
        default graph and each named graph."""
        wanted: Dict[ContextKey, Collection[Triple]] = {
            None: dataset.default
        }
        for graph in dataset.graphs():
            wanted[_as_context(graph.identifier)] = graph
        return self.reconcile(wanted)

    # -- admin -----------------------------------------------------------
    def info(self) -> dict:
        state = self._state  # cc: allow=CC001 (atomic reference read)
        overlay = sum(cs.overlay for cs in state.contexts.values())
        data = {
            "name": self.name,
            "directory": (
                str(self.directory) if self.directory is not None else None
            ),
            "generation": state.generation,
            "quads": sum(cs.size for cs in state.contexts.values()),
            "union_triples": state.union_size,
            "contexts": {
                (str(key) if key is not None else "default"): cs.size
                for key, cs in state.contexts.items()
            },
            "overlay_ops": overlay,
            "overlay_limit": OVERLAY_LIMIT,
            "views": sorted(kind.__name__ for kind in state.views),
        }
        if self.directory is not None and self._wal is not None:
            data["wal"] = {
                "path": str(self._wal.path),
                "bytes": self._wal.size(),
                "records_this_session": self._wal.records,
                "sync": self._wal.sync,
                "sealed": _listing(sealed_segments(self.directory)),
            }
            data["snapshots"] = _listing(snapshot_files(self.directory))
        data["checkpoint_policy"] = self.checkpoint_policy.as_dict()
        if self._checkpointer is not None:
            data["auto_checkpoint"] = self._checkpointer.stats()
        data["group_commit"] = (
            self._group.stats() if self._group is not None else None
        )
        if self.recovery is not None:
            data["recovery"] = self.recovery.as_dict()
        return data

    def wait_for_checkpoints(self, timeout: float = 10.0) -> bool:
        """Block until no automatic checkpoint is due or running.

        ``True`` immediately for explicit-only stores. Tests and the
        CLI use this to observe a settled WAL; commits arriving while
        waiting can re-arm the policy and extend the wait."""
        if self._checkpointer is None:
            return True
        return self._checkpointer.wait_until_idle(timeout)

    def close(self) -> None:
        # stop the checkpointer first: it may be mid-checkpoint and
        # needs the WAL alive to seal it
        if self._checkpointer is not None:
            self._checkpointer.close()
            self._checkpointer = None
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "QuadStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QuadStore({self.name!r}, generation={self.generation}, "
            f"quads={self.size})"
        )


def _counted(
    chunks: Iterator[List[str]], quads: int, generation: int
) -> Iterator[List[str]]:
    """``chunks`` of lines, checked to hold exactly ``quads`` lines once
    exhausted — before the snapshot that consumes them is renamed into
    place."""
    written = 0
    for chunk in chunks:
        written += len(chunk)
        yield chunk
    if written != quads:
        raise StoreError(
            f"snapshot {generation} merged to {written} lines, but the "
            f"store held {quads} quads at that generation"
        )


def _listing(files: List[Tuple[int, Path]]) -> List[dict]:
    """``{generation, path, bytes}`` of each numbered store file; one
    deleted since the listing (a superseded snapshot pruned, a segment
    merged by the background checkpointer) is left out."""
    found = []
    for generation, path in files:
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            continue
        found.append({
            "generation": generation, "path": str(path), "bytes": size,
        })
    return found


# ---------------------------------------------------------------------
# state construction helpers
# ---------------------------------------------------------------------
def _fold_context(
    segment: Union[_Working, _ContextState]
) -> _ContextState:
    """Apply the overlay to the base: same triples, empty overlay.

    The base is thawed, not rebuilt — O(overlay) Python-level work plus
    a shallow copy of the base's outer index dicts — and the state that
    pinned the old base keeps reading it unchanged. With no base yet
    (the first bulk load of a context) the overlay *is* the new base.
    """
    if len(segment.base):
        merged = thaw(segment.base)
        for triple in segment.removes:
            merged.remove(triple)
        merged.add_all(segment.adds.triples())
    else:
        merged = segment.adds
    return _base_only(merged, segment.size)


def _base_only(graph: Graph, size: int) -> _ContextState:
    """A context that is all base: ``graph`` frozen, an empty overlay."""
    return _ContextState(
        freeze(graph),
        freeze(Graph(graph.identifier, graph.namespaces)),
        frozenset(),
        size,
    )


def _publish_bases(
    bases: Dict[ContextKey, Graph], generation: int
) -> _State:
    """Freeze freshly built base graphs into a published state."""
    contexts: Dict[ContextKey, _ContextState] = {}
    for key, graph in bases.items():
        size = len(graph)
        if size == 0:
            continue
        contexts[key] = _base_only(graph, size)
    if len(contexts) <= 1:
        union_size = sum(cs.size for cs in contexts.values())
    else:
        union: Set[Triple] = set()
        for cs in contexts.values():
            union.update(cs.base.triples())
        union_size = len(union)
    return _State(generation, contexts, union_size)


def _maintain_views(
    store: "QuadStore",
    old: _State,
    new: _State,
    union_added: List[Triple],
    union_removed: List[Triple],
) -> None:
    """Carry every view ``old`` holds across a commit (module docstring);
    a kind not collected yet is collected on first use. A kind a reader
    collected on a state this commit's predecessors had already left is
    collected here, once: else every later state would lack it, and
    each reader would collect it again for its own generation."""
    views = old.views
    wanted = store._view_kinds
    if not views and not wanted:
        return
    before = SnapshotGraph(store, old, _UNION)
    after = SnapshotGraph(store, new, _UNION)
    carried = {
        kind: view.apply_delta(
            union_added, union_removed, before, after,
            fingerprint=new.generation,
        )
        for kind, view in views.items()
    }
    for kind in wanted - carried.keys():
        carried[kind] = kind.collect(after)
    new.views = carried


# ---------------------------------------------------------------------
# derived views: the one cache (module docstring)
# ---------------------------------------------------------------------
#: Serializes from-scratch collections, so N readers of a graph with no
#: current view start one collection pass, not N.
_COLLECT_LOCK = threading.Lock()


def view_fingerprint(graph: Any) -> Optional[object]:
    """What a view of ``graph`` is cached against: a mutable graph's
    ``_version`` (bumped per mutation), else a pinned view's
    ``generation``. ``None``: the graph exposes no change signal, and a
    view of it is never served from a cache."""
    version = getattr(graph, "_version", None)
    if version is not None:
        return version
    return getattr(graph, "generation", None)


def current_view(graph: Any, kind: type) -> Any:
    """The ``kind`` view cached for ``graph`` while it still describes
    ``graph``, else ``None``; never collects."""
    if isinstance(graph, SnapshotGraph) and graph._scope is _UNION:
        return graph._state.views.get(kind)
    cached = getattr(graph, "_views", {}).get(kind)
    if cached is None:
        return None
    fingerprint, view = cached
    return view if fingerprint == view_fingerprint(graph) else None


def cached_view(graph: Any, kind: type) -> Any:
    """The ``kind`` view of ``graph``: the cached one while it describes
    ``graph`` (:func:`current_view`), else ``kind.collect(graph)``, kept
    for the next caller. Lock-free when cached; collections are
    serialized and checked again under the lock."""
    view = current_view(graph, kind)
    if view is not None:
        return view
    with _COLLECT_LOCK:
        view = current_view(graph, kind)
        if view is not None:
            return view
        if isinstance(graph, SnapshotGraph) and graph._scope is _UNION:
            state = graph._state
            view = kind.collect(graph)
            state.views = {**state.views, kind: view}
            store = graph._store
            store._view_kinds = store._view_kinds | {kind}
            return view
        # read before collecting: a write racing the collection leaves
        # the view marked stale, never a stale view marked current
        fingerprint = view_fingerprint(graph)
        view = kind.collect(graph)
        if fingerprint is not None:
            graph._views = {
                **getattr(graph, "_views", {}), kind: (fingerprint, view)
            }
        return view


# ---------------------------------------------------------------------
# metrics: every ``repro_store_*`` family, declared once
# ---------------------------------------------------------------------
#: family name → (kind, help[, histogram buckets]).
_METRICS: Dict[str, tuple] = {
    "repro_store_generation": (
        "gauge", "Current generation of each quad store"),
    "repro_store_commits_total": (
        "counter", "Committed write batches per store"),
    "repro_store_committed_ops_total": (
        "counter", "Effective quad ops committed per store"),
    "repro_store_wal_records_total": (
        "counter", "WAL records appended per store"),
    "repro_store_wal_bytes_total": (
        "counter", "WAL bytes appended per store"),
    "repro_store_wal_append_seconds": (
        "histogram",
        "WAL append latency per commit (serialize + write + flush)"),
    "repro_store_wal_fsync_seconds": (
        "histogram",
        "fsync share of each WAL append (sync=True stores)"),
    "repro_store_compactions_total": (
        "counter", "Context overlays folded into fresh bases per store"),
    "repro_store_checkpoints_total": (
        "counter", "Snapshot checkpoints written per store"),
    "repro_store_snapshot_write_seconds": (
        "histogram", "Snapshot file write latency per checkpoint"),
    "repro_store_auto_checkpoints_total": (
        "counter",
        "Policy-triggered background checkpoints per store and outcome"),
    "repro_store_checkpoint_seconds": (
        "histogram",
        "Background checkpointer run duration per store and outcome"),
    "repro_store_group_commit_groups_total": (
        "counter", "Group commits flushed per store"),
    "repro_store_group_commit_batched_total": (
        "counter",
        "Submissions that shared another submitter's WAL flush"),
    "repro_store_group_batch_size": (
        "histogram", "Submissions coalesced into each group commit",
        (1, 2, 4, 8, 16, 32, 64, 128)),
    "repro_store_flush_seconds": (
        "histogram",
        "Group-commit latency per submitted batch (queue wait + flush)"),
    "repro_store_group_wait_seconds": (
        "histogram",
        "Queue wait before each submission's flush began, by role"),
    "repro_store_recoveries_total": (
        "counter", "Store opens that replayed durable state"),
    "repro_store_torn_bytes_total": (
        "counter", "WAL bytes discarded as torn tails during recovery"),
    "repro_store_replayed_ops_total": (
        "counter", "WAL ops replayed during recovery"),
}


def _emit(name: str, value: float = 1, **labels: str) -> None:
    """Record ``value`` on the ``labels`` series of family ``name``.

    The family is looked up in the registry current *now* —
    ``set_registry`` swaps it, so nothing is bound at import — and only
    exists there once a sample was emitted."""
    kind, help_text, *buckets = _METRICS[name]
    registry = get_registry()
    if kind == "histogram":
        registry.histogram(name, help_text, *buckets).labels(
            **labels
        ).observe(value)
    elif kind == "gauge":
        registry.gauge(name, help_text).labels(**labels).set(value)
    else:
        registry.counter(name, help_text).labels(**labels).inc(value)

