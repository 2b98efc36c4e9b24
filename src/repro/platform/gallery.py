"""The UGC sharing platform (the paper's TeamLife).

Graph-writes: the platform's own semantic graph (rebuilt by
``semanticize``), the local merged union before it is frozen, and the
optionally attached quad-store via generation-stamped sync commits

Integration point of the substrates:

* content and users live in the Coppermine-style relational DB
  (:mod:`repro.relational`);
* uploads are contextualized by the context management platform and
  stored with their triple tags (the legacy path, §1.1);
* :meth:`Platform.semanticize` runs the LODification (§2): D2R-dumps the
  relational data, runs the automatic semantic annotation pipeline on
  every content, runs location analysis, and loads everything into the
  triple store next to the LOD corpus;
* :meth:`Platform.evaluator` exposes the SPARQL endpoint used by the
  virtual albums, the mashup and the mobile search interface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..context.provider import ContextPlatform
from ..context.triple_tags import TripleTag, split_tags
from ..core.annotator import AnnotationResult, SemanticAnnotator
from ..core.location import LocationAnalyzer
from ..d2r.dump import dump_graph, dump_ntriples
from ..lod.datasets import LodCorpus, build_lod_corpus
from ..rdf.graph import Dataset, Graph, freeze
from ..rdf.namespace import DCTERMS
from ..relational.database import Database
from ..sparql.evaluator import Evaluator
from .crosspost import CrossPoster, default_crossposter
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


class Platform:
    """The content-sharing platform."""

    def __init__(
        self,
        corpus: Optional[LodCorpus] = None,
        annotator: Optional[SemanticAnnotator] = None,
        context: Optional[ContextPlatform] = None,
        crossposter: Optional[CrossPoster] = None,
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
        self.location_analyzer = LocationAnalyzer(
            self.corpus, self.context.gazetteer
        )
        if annotator is None:
            from ..core.annotator import build_default_annotator

            annotator = build_default_annotator(self.corpus)
        self.annotator = annotator
        self.crossposter = crossposter or default_crossposter()
        self._items: Dict[int, ContentItem] = {}
        self._annotations: Dict[int, AnnotationResult] = {}
        self._semantic_graph: Optional[Graph] = None
        self._union: Optional[Graph] = None
        self._dirty = True
        self._store = None

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
        self._dirty = True
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
        updated = self.db.table("users").update_where(
            lambda row: row["user_name"] == username, changes
        )
        if not updated:
            raise KeyError(f"unknown user: {username}")
        self._dirty = True

    def add_friendship(self, user_a: str, user_b: str) -> None:
        """Symmetric friendship, recorded in both directions (the SPARQL
        queries traverse ``foaf:knows`` directionally)."""
        self.db.insert("friends", user_a=user_a, user_b=user_b)
        self.db.insert("friends", user_a=user_b, user_b=user_a)
        self.context.add_friendship(user_a, user_b)
        self._dirty = True

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
        self._dirty = True
        if crosspost_to is not None:
            self.crossposter.post(item, crosspost_to)
        return item

    def rate(self, pid: int, rating: float) -> None:
        if not 0.0 <= rating <= 5.0:
            raise ValueError("rating must be within [0, 5]")
        self.db.execute(f"UPDATE pictures SET rating = {float(rating)} "
                        f"WHERE pid = {int(pid)}")
        self._items[pid].rating = rating
        self._dirty = True

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
        preserved and the item is re-semanticized on the next build."""
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
            self.db.table("pictures").update_where(
                lambda row: row["pid"] == pid, changes
            )
        self._dirty = True
        return item

    def delete_content(self, pid: int) -> None:
        """Remove a content item (and its region annotations)."""
        self.content(pid)  # raises for unknown pids
        self.db.execute(f"DELETE FROM regions WHERE pid = {int(pid)}")
        self.db.execute(f"DELETE FROM pictures WHERE pid = {int(pid)}")
        del self._items[pid]
        self._annotations.pop(pid, None)
        self._dirty = True

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
        self._dirty = True
        return row["rid"]

    def regions(self, pid: int) -> List[dict]:
        """The region annotations of a picture, in creation order."""
        result = self.db.execute(
            f"SELECT * FROM regions WHERE pid = {int(pid)} ORDER BY rid"
        )
        return result.dicts()

    def contents(self) -> List[ContentItem]:
        return [self._items[pid] for pid in sorted(self._items)]

    # ------------------------------------------------------------------
    # LODification (§2)
    # ------------------------------------------------------------------
    def dump_ntriples(self) -> str:
        """The raw D2R dump of the relational data (§2.1)."""
        return dump_ntriples(self.db, self.mapping)

    def semanticize(self) -> Graph:
        """Run the full semantic enhancement and return the platform
        graph: D2R dump + automatic annotations + location analysis."""
        graph = dump_graph(self.db, self.mapping)
        for item in self.contents():
            annotation = self.annotator.annotate(
                item.title, item.plain_tags
            )
            self._annotations[item.pid] = annotation
            for ann in annotation.annotations:
                graph.add((item.resource, DCTERMS.subject, ann.resource))

            context = self.context.contextualize(
                item.owner, item.timestamp
            )
            triple_tags, _ = split_tags(item.context_tags)
            analysis = self.location_analyzer.analyze(
                context, tuple(triple_tags)
            )
            if analysis.geonames_resource is not None:
                graph.add(
                    (item.resource, TLV.location,
                     analysis.geonames_resource)
                )
            for buddy_resource in analysis.buddy_resources:
                graph.add((item.resource, TLV.nearby, buddy_resource))
            graph.add_all(analysis.triples)
            if analysis.poi_resource is not None:
                graph.add(
                    (item.resource, DCTERMS.subject,
                     analysis.poi_resource)
                )
        self._semantic_graph = graph
        self._union = None
        self._dirty = False
        return graph

    def annotation_result(self, pid: int) -> Optional[AnnotationResult]:
        """The pipeline output for a content (populated by semanticize)."""
        return self._annotations.get(pid)

    # ------------------------------------------------------------------
    # The triple store
    # ------------------------------------------------------------------
    def triple_store(self) -> Dataset:
        """Named-graph dataset: platform graph + the LOD corpus."""
        if self._semantic_graph is None or self._dirty:
            self.semanticize()
        return self.corpus.as_dataset(self._semantic_graph)

    def union_graph(self) -> Graph:
        """The merged corpus + platform graph, as a *read-only* view.

        The union is a derived copy: a write to it would never reach
        the corpus or the platform graph, so the cache is frozen before
        it is handed out (build-then-publish — mutation happens on the
        local merged graph, then ``freeze()`` shares its indexes
        zero-copy). Consumers that need fresh results after an upload
        re-pull this method; see :class:`~repro.platform.sparql_push.
        SparqlPushService` for the provider-based pattern.
        """
        if self._semantic_graph is None or self._dirty:
            self.semanticize()
        if self._union is None:
            merged = self.corpus.union(self._semantic_graph)
            if self.inference:
                from ..lod.ontology import build_ontology
                from ..rdf.inference import rdfs_closure

                rdfs_closure(merged, build_ontology())
            self._union = freeze(merged)
        return self._union

    # ------------------------------------------------------------------
    # MVCC quad-store persistence
    # ------------------------------------------------------------------
    def attach_store(self, store) -> "Platform":
        """Back the triple store with an MVCC quad-store
        (:class:`repro.store.QuadStore`): every
        :meth:`synchronize_store` reconciles the store with the current
        corpus + platform graph as one generation-stamped commit, and
        :meth:`evaluator` serves queries from pinned snapshots of it —
        with WAL + snapshot durability when the store is on disk."""
        self._store = store
        self.synchronize_store()
        return self

    def synchronize_store(self) -> Optional[int]:
        """Bring the attached store up to date with the platform's
        triple store; returns the store generation (None when no store
        is attached). Unchanged data commits nothing — the generation
        only advances when the dataset actually differs."""
        if self._store is None:
            return None
        return self._store.sync_dataset(self.triple_store())

    def evaluator(self) -> Evaluator:
        """The platform's SPARQL endpoint over everything.

        With an attached store (and inference off) the evaluator pins
        one MVCC snapshot, so it never observes writes committed after
        this call; otherwise it reads the frozen in-memory union."""
        if self._store is not None and not self.inference:
            self.synchronize_store()
            return Evaluator(self._store)
        return Evaluator(self.union_graph())
