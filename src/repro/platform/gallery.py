"""The UGC sharing platform (the paper's TeamLife).

Integration point of the substrates:

* content and users live in the Coppermine-style relational DB
  (:mod:`repro.relational`);
* uploads are contextualized by the context management platform and
  stored with their triple tags (the legacy path, §1.1);
* the LODification (§2) — D2R lifting of the relational rows, the
  automatic semantic annotation pipeline, location analysis — is
  maintained *incrementally* in an MVCC quad-store next to the LOD
  corpus: every mutation records the sources it touched, and the next
  read flushes their new triples (and the inverse removes) as one
  commit (see "Write path" in DESIGN.md);
* :meth:`Platform.semanticize` is the same LODification from scratch —
  the oracle the incremental path is tested against;
* :meth:`Platform.evaluator` exposes the SPARQL endpoint used by the
  virtual albums, the mashup and the mobile search interface.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Sequence
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..context.provider import MAX_FIX_AGE, ContextPlatform
from ..context.triple_tags import TripleTag, split_tags
from ..core.annotator import AnnotationResult, SemanticAnnotator
from ..core.location import LocationAnalyzer
from ..d2r.dump import dump_graph, dump_ntriples, lift_row
from ..lod.datasets import LodCorpus, build_lod_corpus
from ..rdf.graph import Dataset, Graph, Triple, freeze
from ..rdf.namespace import DCTERMS
from ..relational.database import Database
from ..sparql.evaluator import Evaluator
from ..store import QuadStore, WriteBatch
from .crosspost import default_crossposter
from .models import Capture, ContentItem, PlatformUser
from .vocab import TLV, platform_mapping

_SCHEMA = [
    """CREATE TABLE users (
         user_name TEXT PRIMARY KEY,
         full_name TEXT,
         email TEXT,
         openid TEXT
       )""",
    """CREATE TABLE pictures (
         pid INTEGER PRIMARY KEY AUTOINCREMENT,
         owner_name TEXT NOT NULL REFERENCES users(user_name),
         title TEXT,
         keywords TEXT,
         media_url TEXT,
         media_type TEXT,
         rating REAL,
         ctime INTEGER,
         geometry TEXT
       )""",
    """CREATE TABLE friends (
         id INTEGER PRIMARY KEY AUTOINCREMENT,
         user_a TEXT NOT NULL REFERENCES users(user_name),
         user_b TEXT NOT NULL REFERENCES users(user_name)
       )""",
    """CREATE TABLE regions (
         rid INTEGER PRIMARY KEY AUTOINCREMENT,
         pid INTEGER NOT NULL REFERENCES pictures(pid),
         x REAL NOT NULL,
         y REAL NOT NULL,
         width REAL NOT NULL,
         height REAL NOT NULL,
         note TEXT
       )""",
]


#: The browse orders, each by a key kept sorted ascending: newest first
#: is ``(timestamp, -pid, item)`` read from the end — an upload is
#: usually the newest, so it appends — and top-rated is ``(-rating, pid,
#: item)`` read from the front, where an unrated upload also appends.
ORDERS = ("newest", "top-rated")


class ContentOrder(Sequence):
    """The contents of one browse order (all, or one owner's), read
    from the platform's sorted keys, not copied: a slice reads only its
    own items."""

    __slots__ = ("_keys", "_from_end")

    def __init__(self, keys: List[tuple], from_end: bool) -> None:
        self._keys = keys
        self._from_end = from_end

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self._keys))[index]]
        return self._keys[~index if self._from_end else index][-1]


def _remove(keys: List[tuple], key: tuple) -> None:
    del keys[bisect_left(keys, key)]


#: What contributes triples to the platform graph: one relational row
#: ``(table name, primary key)``, or one item's annotation / location
#: analysis ``("annotation" | "location", pid)``.
Source = Tuple[str, Any]


class Platform:
    """The content-sharing platform."""

    def __init__(
        self,
        corpus: Optional[LodCorpus] = None,
        annotator: Optional[SemanticAnnotator] = None,
        context: Optional[ContextPlatform] = None,
        inference: bool = False,
    ) -> None:
        self.corpus = corpus or build_lod_corpus()
        # §2.3: queries may rely on inference capabilities — when on,
        # the union graph is materialized to its RDFS closure
        self.inference = inference
        self.db = Database("teamlife")
        for statement in _SCHEMA:
            self.db.execute(statement)
        self.mapping = platform_mapping()
        self.context = context or ContextPlatform()
        # a fix or friendship re-locates items whether it arrives with
        # an upload or is reported to the context platform directly
        self.context.subscribe(
            self._relocate_around_fix, self._relocate_friends
        )
        self.location_analyzer = LocationAnalyzer(
            self.corpus, self.context.gazetteer
        )
        if annotator is None:
            from ..core.annotator import build_default_annotator

            annotator = build_default_annotator(self.corpus)
        self.annotator = annotator
        self.crossposter = default_crossposter()
        #: by pid; uploads take increasing pids, so also in pid order
        self._items: Dict[int, ContentItem] = {}
        self._annotations: Dict[int, AnnotationResult] = {}
        #: the sorted keys of each browse order (:data:`ORDERS`), over
        #: every owner (``None``) and per owner; an owner's newest keys
        #: are also what a new position fix or friendship re-locates
        self._orders: Dict[str, Dict[Optional[str], List[tuple]]] = {
            order: {None: []} for order in ORDERS
        }
        # the write path (meaningful only while a store is attached):
        # each source's triples as last committed, how many sources
        # contribute each triple, and the sources touched since then
        self._store: Optional[QuadStore] = None
        self._sources: Dict[Source, Tuple[Triple, ...]] = {}
        self._refs: Dict[Triple, int] = {}
        self._pending: Dict[Source, None] = {}
        #: inference mode: (store generation, its frozen RDFS closure)
        self._closure: Optional[Tuple[int, Graph]] = None

    # ------------------------------------------------------------------
    # Users and relationships
    # ------------------------------------------------------------------
    def register_user(
        self,
        username: str,
        full_name: Optional[str] = None,
        email: Optional[str] = None,
        openid: Optional[str] = None,
        external_accounts: Tuple[str, ...] = (),
    ) -> PlatformUser:
        user = PlatformUser(
            username=username,
            full_name=full_name or username,
            email=email,
            openid=openid,
            external_accounts=external_accounts,
        )
        self.db.insert(
            "users",
            user_name=user.username,
            full_name=user.full_name,
            email=email,
            openid=openid,
        )
        self.context.register_user(
            username, user.full_name, external_accounts
        )
        self._touch(("users", username))
        return user

    def update_user(
        self,
        username: str,
        full_name: Optional[str] = None,
        email: Optional[str] = None,
    ) -> None:
        """Change a registered user's profile fields (``None`` leaves a
        field as it is)."""
        changes = {}
        if full_name is not None:
            changes["full_name"] = full_name
        if email is not None:
            changes["email"] = email
        if not changes:
            return
        if not self.db.table("users").update(username, changes):
            raise KeyError(f"unknown user: {username}")
        # the context record (hence a buddy's foaf:name) keeps the
        # registration name: only the users row changes
        self._touch(("users", username))

    def add_friendship(self, user_a: str, user_b: str) -> None:
        """Symmetric friendship, recorded in both directions (the SPARQL
        queries traverse ``foaf:knows`` directionally)."""
        rows = [
            self.db.insert("friends", user_a=user_a, user_b=user_b),
            self.db.insert("friends", user_a=user_b, user_b=user_a),
        ]
        self.context.add_friendship(user_a, user_b)
        self._touch(*(("friends", row["id"]) for row in rows))

    def users(self) -> List[str]:
        return [row["user_name"] for row in self.db.table("users").scan()]

    # ------------------------------------------------------------------
    # Upload pipeline
    # ------------------------------------------------------------------
    def upload(
        self,
        capture: Capture,
        crosspost_to: Optional[List[str]] = None,
    ) -> ContentItem:
        """Receive a capture: contextualize the sender at *capture* time,
        attach context tags, store the row (legacy path §1.1)."""
        if capture.point is not None:
            self.context.report_position(
                capture.username, capture.timestamp, capture.point
            )
        context = self.context.contextualize(
            capture.username, capture.timestamp
        )
        context_tags = [
            tag.format() for tag in self.context.context_tags(context)
        ]
        if capture.poi_recs_id is not None:
            context_tags.append(
                TripleTag("poi", "recs_id",
                          str(capture.poi_recs_id)).format()
            )

        point = capture.point
        if point is None and context.location is not None:
            point = context.location.point
        geometry = point.wkt() if point is not None else None

        keywords = " ".join(list(capture.tags) + context_tags) or None
        media_url = capture.media_url or (
            f"http://beta.teamlife.it/media/"
            f"{capture.username}_{capture.timestamp}.jpg"
        )
        row = self.db.insert(
            "pictures",
            owner_name=capture.username,
            title=capture.title or None,
            keywords=keywords,
            media_url=media_url,
            media_type=capture.media_type.value,
            rating=0.0,
            ctime=capture.timestamp,
            geometry=geometry,
        )
        item = ContentItem(
            pid=row["pid"],
            owner=capture.username,
            title=capture.title,
            plain_tags=list(capture.tags),
            context_tags=context_tags,
            timestamp=capture.timestamp,
            media_type=capture.media_type,
            media_url=media_url,
            point=point,
            rating=0.0,
        )
        self._items[item.pid] = item
        for order in ORDERS:
            self._order_keys(item, order, insort)
        self._touch(
            ("pictures", item.pid),
            ("annotation", item.pid),
            ("location", item.pid),
        )
        if crosspost_to is not None:
            self.crossposter.post(item, crosspost_to)
        return item

    def rate(self, pid: int, rating: float) -> None:
        if not 0.0 <= rating <= 5.0:
            raise ValueError("rating must be within [0, 5]")
        item = self.content(pid)  # raises for unknown pids
        self._order_keys(item, "top-rated", _remove)
        item.rating = rating
        self._order_keys(item, "top-rated", insort)
        self.db.table("pictures").update(pid, {"rating": float(rating)})
        self._touch(("pictures", pid))

    def content(self, pid: int) -> ContentItem:
        if pid not in self._items:
            raise KeyError(f"no content with pid {pid}")
        return self._items[pid]

    # ------------------------------------------------------------------
    # Content editing (the web interface's "advanced content editing")
    # ------------------------------------------------------------------
    def edit_content(
        self,
        pid: int,
        title: Optional[str] = None,
        tags: Optional[List[str]] = None,
    ) -> ContentItem:
        """Update a content's title and/or user tags; context tags are
        preserved and the item is re-annotated on the next flush (with
        neither given, nothing changes and nothing is committed)."""
        item = self.content(pid)
        changes = {}
        if title is not None:
            item.title = title
            changes["title"] = title
        if tags is not None:
            item.plain_tags = list(tags)
            # no tag left at all is NULL, as on upload — the D2R dump
            # must stop emitting the old tlv:keyword triples
            changes["keywords"] = (
                " ".join(item.plain_tags + item.context_tags) or None
            )
        if changes:
            self.db.table("pictures").update(pid, changes)
            self._touch(("pictures", pid), ("annotation", pid))
        return item

    def delete_content(self, pid: int) -> None:
        """Remove a content item (and its region annotations)."""
        item = self.content(pid)  # raises for unknown pids
        rids = [region["rid"] for region in self.regions(pid)]
        self._touch(
            ("pictures", pid), ("annotation", pid), ("location", pid),
            *(("regions", rid) for rid in rids),
        )
        regions = self.db.table("regions")
        for rid in rids:
            regions.delete(rid)
        self.db.table("pictures").delete(pid)
        del self._items[pid]
        self._annotations.pop(pid, None)
        for order in ORDERS:
            self._order_keys(item, order, _remove)

    def _order_keys(self, item: ContentItem, order: str, change) -> None:
        """``change(keys, key)`` — insert or remove — ``item``'s key of
        ``order`` in that order's keys over every owner and its owner's."""
        if order == "newest":
            key = (item.timestamp, -item.pid, item)
        else:
            key = (-item.rating, item.pid, item)
        scopes = self._orders[order]
        for scope in (None, item.owner):
            change(scopes.setdefault(scope, []), key)

    # ------------------------------------------------------------------
    # Graphical region annotations (paper §1.1: "in the case of
    # pictures, it is also possible to create a graphical annotation
    # over a particular section")
    # ------------------------------------------------------------------
    def annotate_region(
        self,
        pid: int,
        x: float,
        y: float,
        width: float,
        height: float,
        note: Optional[str] = None,
    ) -> int:
        """Attach a rectangular annotation to a picture. Coordinates are
        fractions of the image size in [0, 1]. Returns the region id."""
        self.content(pid)
        for name, value in (("x", x), ("y", y)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        for name, value in (("width", width), ("height", height)):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be within (0, 1]")
        if x + width > 1.0 + 1e-9 or y + height > 1.0 + 1e-9:
            raise ValueError("region exceeds the image bounds")
        row = self.db.insert(
            "regions", pid=pid, x=float(x), y=float(y),
            width=float(width), height=float(height), note=note,
        )
        self._touch(("regions", row["rid"]))
        return row["rid"]

    def regions(self, pid: int) -> List[dict]:
        """The region annotations of a picture, in creation order: rows
        are appended under a growing autoincrement ``rid``."""
        pid = int(pid)
        return [
            dict(row) for row in self.db.table("regions").rows
            if row["pid"] == pid
        ]

    def contents(self) -> List[ContentItem]:
        """Every content, in pid order."""
        return list(self._items.values())

    def ordered(
        self, order: str = "newest", owner: Optional[str] = None
    ) -> ContentOrder:
        """The contents (``owner``'s only, when given) newest first,
        ``(-timestamp, pid)``, or top-rated first, ``(-rating, pid)``."""
        if order not in ORDERS:
            raise ValueError(f"unknown order: {order!r}")
        keys = self._orders[order].get(owner, [])
        return ContentOrder(keys, from_end=order == "newest")

    # ------------------------------------------------------------------
    # LODification (§2)
    # ------------------------------------------------------------------
    def dump_ntriples(self) -> str:
        """The raw D2R dump of the relational data (§2.1)."""
        return dump_ntriples(self.db, self.mapping)

    def semanticize(self) -> Graph:
        """The platform graph from scratch: D2R dump + automatic
        annotations + location analysis of every item.

        Nothing on the read path calls this — the store is maintained by
        deltas (:meth:`synchronize_store`). It stays as the independent
        statement of what the platform graph *is*, which the tests hold
        the incremental path to after every flush."""
        graph = dump_graph(self.db, self.mapping)
        for item in self.contents():
            graph.add_all(self._annotation_triples(item))
            graph.add_all(self._location_triples(item))
        return graph

    def _annotation_triples(self, item: ContentItem) -> Tuple[Triple, ...]:
        """Run the annotation pipeline on an item's title and tags."""
        annotation = self.annotator.annotate(item.title, item.plain_tags)
        self._annotations[item.pid] = annotation
        return tuple(
            (item.resource, DCTERMS.subject, ann.resource)
            for ann in annotation.annotations
        )

    def _location_triples(self, item: ContentItem) -> Tuple[Triple, ...]:
        """Location analysis of an item: its owner's (and the owner's
        friends') position fixes around the capture time, plus the
        explicit POI tag."""
        context = self.context.contextualize(item.owner, item.timestamp)
        triple_tags, _ = split_tags(item.context_tags)
        analysis = self.location_analyzer.analyze(
            context, tuple(triple_tags)
        )
        triples: List[Triple] = list(analysis.triples)
        if analysis.geonames_resource is not None:
            triples.append(
                (item.resource, TLV.location, analysis.geonames_resource)
            )
        for buddy_resource in analysis.buddy_resources:
            triples.append((item.resource, TLV.nearby, buddy_resource))
        if analysis.poi_resource is not None:
            triples.append(
                (item.resource, DCTERMS.subject, analysis.poi_resource)
            )
        return tuple(triples)

    def annotation_result(self, pid: int) -> Optional[AnnotationResult]:
        """The pipeline output for a content (populated when the item's
        annotation is flushed, or by :meth:`semanticize`)."""
        return self._annotations.get(pid)

    # ------------------------------------------------------------------
    # The write path: source -> contribution -> reference count -> one
    # WriteBatch per flush (DESIGN.md, "Write path")
    # ------------------------------------------------------------------
    def _touch(self, *sources: Source) -> None:
        """Record that a mutation changed (or removed) ``sources``."""
        if self._store is not None:  # else the bootstrap covers it
            self._pending.update(dict.fromkeys(sources))

    def _relocate(self, keys) -> None:
        """Re-run location analysis (never annotation) for the items of
        some newest-order keys."""
        self._touch(*(("location", item.pid) for *_, item in keys))

    def _relocate_around_fix(self, username: str, timestamp: int) -> None:
        """A position fix of ``username`` at ``timestamp`` can change
        ``position_at`` only inside ``[timestamp, timestamp +
        MAX_FIX_AGE]``, and only for items of the user (their location)
        or of a friend (the user as a nearby buddy)."""
        for owner in (username, *self.context.friends_of(username)):
            timeline = self._orders["newest"].get(owner, ())
            self._relocate(timeline[
                bisect_left(timeline, (timestamp,)):
                bisect_left(timeline, (timestamp + MAX_FIX_AGE + 1,))
            ])

    def _relocate_friends(self, user_a: str, user_b: str) -> None:
        """Each one's items may now have the other as a nearby buddy."""
        for owner in (user_a, user_b):
            self._relocate(self._orders["newest"].get(owner, ()))

    def _all_sources(self) -> Iterator[Source]:
        for table_name in self.mapping.table_maps:
            table = self.db.table(table_name)
            key = table.primary_key.name
            for row in table.scan():
                yield (table_name, row[key])
        for pid in sorted(self._items):
            yield ("annotation", pid)
            yield ("location", pid)

    def _contribution(self, source: Source) -> Tuple[Triple, ...]:
        """The triples ``source`` contributes now (none once it is gone)."""
        kind, key = source
        if kind in ("annotation", "location"):
            item = self._items.get(key)
            if item is None:
                return ()
            if kind == "annotation":
                return self._annotation_triples(item)
            return self._location_triples(item)
        row = self.db.table(kind).get(key)
        if row is None:
            return ()
        return tuple(lift_row(self.db, self.mapping, kind, row))

    def _pending_delta(
        self,
    ) -> Tuple[Dict[Source, Tuple[Triple, ...]], Dict[Triple, int]]:
        """Recompute the touched sources; returns their contributions
        and, per triple, the change of its reference count. Changes no
        write-path state: that waits for the commit to succeed."""
        fresh = {
            source: self._contribution(source) for source in self._pending
        }
        delta: Dict[Triple, int] = {}
        for source, triples in fresh.items():
            for triple in triples:
                delta[triple] = delta.get(triple, 0) + 1
            for triple in self._sources.get(source, ()):
                delta[triple] = delta.get(triple, 0) - 1
        return fresh, delta

    def _settle(
        self,
        fresh: Dict[Source, Tuple[Triple, ...]],
        delta: Dict[Triple, int],
    ) -> None:
        """The store holds the delta: make it the recorded state."""
        for triple, change in delta.items():
            count = self._refs.get(triple, 0) + change
            if count:
                self._refs[triple] = count
            else:
                self._refs.pop(triple, None)
        for source, triples in fresh.items():
            if triples:
                self._sources[source] = triples
            else:
                self._sources.pop(source, None)
        self._pending.clear()

    # ------------------------------------------------------------------
    # The triple store
    # ------------------------------------------------------------------
    def attach_store(self, store) -> "Platform":
        """Keep the triple store in an MVCC quad-store
        (:class:`repro.store.QuadStore`; without this call the platform
        uses a private in-memory one).

        The one from-scratch pass of the write path: every source's
        contribution is computed and the store is reconciled — the
        platform graph into the default context, the LOD corpus into
        its three named contexts, other contexts left alone — as one
        generation-stamped commit. The reconcile reads the delta's
        triples and the corpus graphs where they are: nothing is copied
        into a graph on the way. From then on :meth:`evaluator`
        serves queries from pinned snapshots of it, with WAL + snapshot
        durability when the store is on disk."""
        # detached while rebuilding: a failure leaves the platform
        # without a store (the next read builds a private one), never
        # with a half-recorded one
        self._store = None
        self._closure = None
        self._sources, self._refs = {}, {}
        self._pending = dict.fromkeys(self._all_sources())
        fresh, delta = self._pending_delta()
        # the delta's keys are the wanted triples: no source had
        # contributed yet, so every count is positive
        store.reconcile({None: delta, **self.corpus.named_graphs()})
        self._store = store
        self._settle(fresh, delta)
        return self

    def synchronize_store(self) -> Optional[int]:
        """Flush: commit what the mutations since the last flush changed
        as **one** ``WriteBatch`` (a triple is added when its first
        source appears and removed when its last one goes); returns the
        store generation. With nothing pending this commits nothing and
        the generation stays."""
        if self._store is None:
            self.attach_store(QuadStore(name="platform"))
        if not self._pending:
            return self._store.generation
        fresh, delta = self._pending_delta()
        batch = WriteBatch()
        for triple, change in delta.items():
            count = self._refs.get(triple, 0)
            if count == 0 and change > 0:
                batch.insert(triple)
            elif count > 0 and count + change == 0:
                batch.remove(triple)
        generation = self._store.commit(batch)
        self._settle(fresh, delta)
        return generation

    def triple_store(self) -> Dataset:
        """Named-graph dataset: platform graph + the LOD corpus, pinned
        to the store generation the flush left."""
        self.synchronize_store()
        return self._store.dataset_snapshot()

    def union_graph(self) -> Graph:
        """The merged corpus + platform graph, as a *read-only* view
        pinned to one store generation.

        A write to it would never reach the store, so it raises
        :class:`~repro.rdf.graph.FrozenGraphError`. Consumers that need
        fresh results after an upload re-pull this method; see
        :class:`~repro.platform.sparql_push.SparqlPushService` for the
        provider-based pattern.

        With ``inference=True`` the view is the RDFS closure of that
        union, materialized once per store generation — O(corpus) after
        every commit, the price of that mode.
        """
        self.synchronize_store()
        head = self._store.head()
        if not self.inference:
            return head
        if self._closure is None or self._closure[0] != head.generation:
            from ..lod.ontology import build_ontology
            from ..rdf.inference import rdfs_closure

            merged = head.copy()
            rdfs_closure(merged, build_ontology())
            self._closure = (head.generation, freeze(merged))
        return self._closure[1]

    def evaluator(self) -> Evaluator:
        """The platform's SPARQL endpoint over everything.

        Flushes what is pending (nothing, usually: then this only pins
        the head) and pins one MVCC snapshot, so the evaluator never
        observes writes committed after this call. In inference mode it
        reads the frozen closure of :meth:`union_graph` instead."""
        if self.inference:
            return Evaluator(self.union_graph())
        self.synchronize_store()
        return Evaluator(self._store)
