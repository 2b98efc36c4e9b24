"""Indexed in-memory triple store.

Concurrency: single-writer

:class:`Graph` keeps three hash indexes (SPO, POS, OSP) so that every
triple-pattern shape is answered from the most selective index, which is
what makes BGP matching in :mod:`repro.sparql` fast enough for the
benchmark workloads.

A :class:`Graph` is the mutable, single-writer *builder* value: dump
targets, annotation results, LOD fixtures and the quad-store's private
base graphs are built as one. The concurrency contract (checked by
``repro lint --concurrency``): all **mutation** goes through
``Graph._lock`` — concurrent writers are safe — but read paths
(:meth:`Graph.triples` and the accessors built on it) are deliberately
lock-free generators and must not run concurrently with a writer;
:meth:`repro.analysis.stats.GraphStatistics.cached` takes the same lock
for a consistent statistics snapshot. Reads that are shared — across
threads, or with code that must not write — go through
:class:`FrozenGraph` (:func:`freeze`) or the store's pinned
:class:`~repro.store.engine.SnapshotGraph`, which stand in for the
paper's OpenLink Virtuoso endpoint: they refuse every mutation and never
change under a reader.

Freeze / thaw ownership rule. :func:`freeze` publishes a builder as a
:class:`FrozenGraph` at no cost; :func:`thaw` (``FrozenGraph.copy()``)
goes the other way without re-inserting anything: the child gets
shallow copies of the three outer index dicts and *shares* every inner
dict and set with its frozen parent. The child records which inner
containers it owns (``_owned``, the ``id`` of each one it created or
copied) and copies a shared one — that one container, on that one path
— the first time it writes to it. The parent never writes, so nothing
the child does can reach a reader of the parent, and only the child
carries bookkeeping; freezing the child drops it, so the next thaw
shares everything again. A thaw therefore costs O(distinct outer keys)
at C speed and a write O(size of the containers on its path), which is
what lets :mod:`repro.store.engine` derive a generation from the last
one in time proportional to the delta.
"""

from __future__ import annotations

import threading

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from .namespace import NamespaceManager, RDF
from .terms import Literal, Term, URIRef, term_from_python

#: A triple of concrete terms.
Triple = Tuple[Term, Term, Term]
#: A triple pattern; ``None`` is a wildcard.
TriplePattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]

_Index = Dict[Term, Dict[Term, Set[Term]]]


def _index_add(index: _Index, a: Term, b: Term, c: Term) -> None:
    index.setdefault(a, {}).setdefault(b, set()).add(c)


def _index_remove(index: _Index, a: Term, b: Term, c: Term) -> None:
    level1 = index.get(a)
    if level1 is None:
        return
    level2 = level1.get(b)
    if level2 is None:
        return
    level2.discard(c)
    if not level2:
        del level1[b]
        if not level1:
            del index[a]


def _shared_add(
    index: _Index, owned: Set[int], a: Term, b: Term, c: Term
) -> None:
    """:func:`_index_add` on an index whose inner containers may belong
    to a frozen parent: copy what is not in ``owned`` before writing."""
    level1 = index.get(a)
    if level1 is None:
        level2 = {c}
        index[a] = level1 = {b: level2}
        owned.add(id(level1))
        owned.add(id(level2))
        return
    if id(level1) not in owned:
        index[a] = level1 = level1.copy()
        owned.add(id(level1))
    level2 = level1.get(b)
    if level2 is None:
        level1[b] = level2 = {c}
        owned.add(id(level2))
    elif id(level2) in owned:
        level2.add(c)
    else:
        level1[b] = level2 = level2 | {c}
        owned.add(id(level2))


def _shared_remove(
    index: _Index, owned: Set[int], a: Term, b: Term, c: Term
) -> None:
    """:func:`_index_remove` under the same ownership rule; a container
    that would end up empty is unlinked, never copied."""
    level1 = index.get(a)
    if level1 is None:
        return
    level2 = level1.get(b)
    if level2 is None or c not in level2:
        return
    if len(level2) == 1 and len(level1) == 1:
        owned.discard(id(level2))
        owned.discard(id(level1))
        del index[a]
        return
    if id(level1) not in owned:
        index[a] = level1 = level1.copy()
        owned.add(id(level1))
    if len(level2) == 1:
        owned.discard(id(level2))
        del level1[b]
    elif id(level2) in owned:
        level2.discard(c)
    else:
        level1[b] = level2 = level2 - {c}
        owned.add(id(level2))


class Graph:
    """A set of RDF triples with pattern-match access.

    Supports the container protocol (``len``, ``in``, iteration), set-style
    bulk operations and convenience accessors (:meth:`value`,
    :meth:`objects`, :meth:`subjects`). Mutation keeps all three indexes
    consistent.
    """

    def __init__(
        self,
        identifier: Optional[URIRef] = None,
        namespaces: Optional[NamespaceManager] = None,
    ) -> None:
        self.identifier = identifier or URIRef(f"urn:graph:{id(self):x}")
        self.namespaces = namespaces or NamespaceManager()
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0
        #: ``id`` of every inner index container this graph may write in
        #: place; ``None`` = all of them (only a thawed graph shares any)
        self._owned: Optional[Set[int]] = None
        #: bumped on every mutation; lets cached statistics (the query
        #: planner's cardinality model) detect staleness cheaply.
        self._version = 0
        #: serializes mutation (see the module docstring's contract);
        #: reentrant so add_all/remove can call helpers that lock.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, triple: Iterable[Any]) -> "Graph":
        """Add one triple; values are coerced with ``term_from_python``."""
        self.insert(triple)
        return self

    def insert(self, triple: Iterable[Any]) -> bool:
        """Add one triple; return True when it was not already present.

        The atomic alternative to the ``len()``-before/``len()``-after
        straddle around :meth:`add` — membership and mutation happen
        under one lock acquisition, so the newness answer is exact even
        with concurrent writers.
        """
        s, p, o = triple
        s = self._as_node(s)
        p = self._as_predicate(p)
        o = term_from_python(o)
        with self._lock:
            if self._contains(s, p, o):
                return False
            owned = self._owned
            if owned is None:
                _index_add(self._spo, s, p, o)
                _index_add(self._pos, p, o, s)
                _index_add(self._osp, o, s, p)
            else:
                _shared_add(self._spo, owned, s, p, o)
                _shared_add(self._pos, owned, p, o, s)
                _shared_add(self._osp, owned, o, s, p)
            self._size += 1
            self._version += 1
        return True

    def add_all(self, triples: Iterable[Iterable[Any]]) -> "Graph":
        with self._lock:  # one acquisition for the whole batch
            for triple in triples:
                self.add(triple)
        return self

    def remove(self, pattern: TriplePattern) -> int:
        """Remove all triples matching ``pattern``; returns count removed."""
        with self._lock:
            matches = list(self.triples(pattern))
            owned = self._owned
            for s, p, o in matches:
                if owned is None:
                    _index_remove(self._spo, s, p, o)
                    _index_remove(self._pos, p, o, s)
                    _index_remove(self._osp, o, s, p)
                else:
                    _shared_remove(self._spo, owned, s, p, o)
                    _shared_remove(self._pos, owned, p, o, s)
                    _shared_remove(self._osp, owned, o, s, p)
            self._size -= len(matches)
            if matches:
                self._version += 1
        return len(matches)

    def clear(self) -> None:
        with self._lock:
            self._spo.clear()
            self._pos.clear()
            self._osp.clear()
            self._owned = None  # nothing left that could be shared
            self._size = 0
            self._version += 1

    @staticmethod
    def _as_node(value: Any) -> Term:
        if isinstance(value, Term):
            return value
        if isinstance(value, str):
            return URIRef(value)
        raise TypeError(f"invalid subject: {value!r}")

    @staticmethod
    def _as_predicate(value: Any) -> Term:
        if isinstance(value, URIRef):
            return value
        if isinstance(value, Term):
            raise TypeError(f"predicate must be a URIRef, got {value!r}")
        if isinstance(value, str):
            return URIRef(value)
        raise TypeError(f"invalid predicate: {value!r}")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _contains(self, s: Term, p: Term, o: Term) -> bool:
        return o in self._spo.get(s, {}).get(p, ())

    def __contains__(self, triple: Iterable[Any]) -> bool:
        s, p, o = triple
        if s is None or p is None or o is None:
            return any(True for _ in self.triples((s, p, o)))
        return self._contains(s, p, term_from_python(o))

    def triples(
        self, pattern: TriplePattern = (None, None, None)
    ) -> Iterator[Triple]:
        """Yield all triples matching ``pattern`` (``None`` = wildcard).

        Dispatches on the bound/unbound shape to the most selective index.
        """
        s, p, o = pattern
        if s is not None:
            by_p = self._spo.get(s)
            if by_p is None:
                return
            if p is not None:
                objs = by_p.get(p)
                if objs is None:
                    return
                if o is not None:
                    if o in objs:
                        yield (s, p, o)
                else:
                    for obj in objs:
                        yield (s, p, obj)
            else:
                for pred, objs in by_p.items():
                    if o is not None:
                        if o in objs:
                            yield (s, pred, o)
                    else:
                        for obj in objs:
                            yield (s, pred, obj)
        elif p is not None:
            by_o = self._pos.get(p)
            if by_o is None:
                return
            if o is not None:
                for subj in by_o.get(o, ()):
                    yield (subj, p, o)
            else:
                for obj, subjs in by_o.items():
                    for subj in subjs:
                        yield (subj, p, obj)
        elif o is not None:
            by_s = self._osp.get(o)
            if by_s is None:
                return
            for subj, preds in by_s.items():
                for pred in preds:
                    yield (subj, pred, o)
        else:
            for subj, by_p in self._spo.items():
                for pred, objs in by_p.items():
                    for obj in objs:
                        yield (subj, pred, obj)

    def count(self, pattern: TriplePattern = (None, None, None)) -> int:
        """Number of triples matching ``pattern`` (O(1) for full wildcard)."""
        if pattern == (None, None, None):
            return self._size
        return sum(1 for _ in self.triples(pattern))

    def subjects(
        self, predicate: Optional[Term] = None, obj: Optional[Term] = None
    ) -> Iterator[Term]:
        seen: Set[Term] = set()
        for s, _, _ in self.triples((None, predicate, obj)):
            if s not in seen:
                seen.add(s)
                yield s

    def predicates(
        self, subject: Optional[Term] = None, obj: Optional[Term] = None
    ) -> Iterator[Term]:
        seen: Set[Term] = set()
        for _, p, _ in self.triples((subject, None, obj)):
            if p not in seen:
                seen.add(p)
                yield p

    def objects(
        self, subject: Optional[Term] = None, predicate: Optional[Term] = None
    ) -> Iterator[Term]:
        seen: Set[Term] = set()
        for _, _, o in self.triples((subject, predicate, None)):
            if o not in seen:
                seen.add(o)
                yield o

    def value(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
        default: Any = None,
    ) -> Any:
        """Return one term completing the two given positions, or default."""
        given = sum(x is not None for x in (subject, predicate, obj))
        if given != 2:
            raise ValueError("value() requires exactly two bound positions")
        for s, p, o in self.triples((subject, predicate, obj)):
            if subject is None:
                return s
            if predicate is None:
                return p
            return o
        return default

    def label(
        self, subject: Term, lang: Optional[str] = None
    ) -> Optional[Literal]:
        """Return an ``rdfs:label`` of ``subject``, preferring ``lang``."""
        from .namespace import RDFS

        fallback: Optional[Literal] = None
        for obj in self.objects(subject, RDFS.label):
            if not isinstance(obj, Literal):
                continue
            if lang is not None and obj.lang == lang.lower():
                return obj
            if fallback is None or obj.lang is None:
                fallback = obj
        return fallback

    def types(self, subject: Term) -> Set[Term]:
        """All ``rdf:type`` values of ``subject``."""
        return set(self.objects(subject, RDF.type))

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __bool__(self) -> bool:
        return self._size > 0

    def __iadd__(self, other: Iterable[Triple]) -> "Graph":
        self.add_all(other)
        return self

    def copy(self) -> "Graph":
        g = Graph(self.identifier, self.namespaces)
        g.add_all(self.triples())
        return g

    def __repr__(self) -> str:
        return f"Graph({str(self.identifier)!r}, triples={self._size})"

    def predicate_statistics(
        self,
    ) -> Dict[Term, Tuple[int, int, int]]:
        """Per-predicate ``(triples, distinct_subjects, distinct_objects)``.

        One pass over the POS index — this is the raw input for the query
        planner's cardinality model (:class:`repro.analysis.stats`).
        """
        stats: Dict[Term, Tuple[int, int, int]] = {}
        with self._lock:  # a consistent snapshot even mid-batch
            for predicate, by_object in self._pos.items():
                triples = sum(
                    len(subjects) for subjects in by_object.values()
                )
                subjects_seen: Set[Term] = set()
                for subjects in by_object.values():
                    subjects_seen |= subjects
                stats[predicate] = (
                    triples, len(subjects_seen), len(by_object)
                )
        return stats

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def resource_exists(self, subject: Term) -> bool:
        """True if ``subject`` occurs as the subject of any triple.

        This is the "actual binding" validation check the paper performs
        against the DBpedia SPARQL endpoint (§2.2.2).
        """
        return subject in self._spo

    def serialize(self, fmt: str = "ntriples") -> str:
        """Serialize to ``ntriples`` or ``turtle``."""
        if fmt in ("ntriples", "nt"):
            from .ntriples import serialize_ntriples

            return serialize_ntriples(self)
        if fmt in ("turtle", "ttl"):
            from .turtle import serialize_turtle

            return serialize_turtle(self)
        raise ValueError(f"unknown format: {fmt!r}")


class FrozenGraphError(TypeError):
    """A mutation was attempted on a read-only graph view."""


class FrozenGraph(Graph):
    """A read-only view of a graph: every mutation entry point raises.

    Derived copies (:meth:`Dataset.union_graph`,
    ``Platform.union_graph``) hand these out so a caller cannot write
    into a merged snapshot expecting the change to reach the underlying
    stores: the write raises instead of being silently lost. Use
    :meth:`copy` (:func:`thaw`) to get a private mutable graph.
    """

    def _refuse(self, op: str) -> None:
        raise FrozenGraphError(
            f"{op}() on a read-only graph view ({self.identifier}); "
            f"write to the source graphs, or copy() to thaw"
        )

    def add(self, triple: Iterable[Any]) -> "Graph":
        self._refuse("add")

    def insert(self, triple: Iterable[Any]) -> bool:
        self._refuse("insert")

    def add_all(self, triples: Iterable[Iterable[Any]]) -> "Graph":
        self._refuse("add_all")

    def remove(self, pattern: TriplePattern) -> int:
        self._refuse("remove")

    def clear(self) -> None:
        self._refuse("clear")

    def copy(self) -> "Graph":
        return thaw(self)

    def __repr__(self) -> str:
        return (
            f"FrozenGraph({str(self.identifier)!r}, "
            f"triples={self._size})"
        )


def freeze(graph: Graph) -> FrozenGraph:
    """A zero-copy read-only view sharing ``graph``'s indexes.

    The builder graph must be discarded after freezing (the sanctioned
    build-then-publish idiom: populate a fresh graph, freeze it, hand
    out only the frozen view) — further writes through the builder
    would be visible in the view. The view never writes, so it does not
    keep a thawed builder's ownership record (module docstring).
    """
    if isinstance(graph, FrozenGraph):
        return graph
    frozen = FrozenGraph.__new__(FrozenGraph)
    frozen.__dict__.update(graph.__dict__)
    frozen._owned = None
    return frozen


def thaw(frozen: FrozenGraph) -> Graph:
    """A mutable graph equal to ``frozen`` that shares its inner index
    containers until it writes to them (module docstring): O(distinct
    subjects + predicates + objects) at C speed, no triple re-inserted.
    """
    graph = Graph(frozen.identifier, frozen.namespaces)
    graph._spo = frozen._spo.copy()
    graph._pos = frozen._pos.copy()
    graph._osp = frozen._osp.copy()
    graph._size = frozen._size
    graph._owned = set()
    return graph


class Dataset:
    """A collection of named graphs plus a default graph.

    Mirrors the paper's Virtuoso deployment where platform triples and the
    imported LOD datasets (DBpedia, Geonames, LinkedGeoData) live in
    separate graphs but are queried together. :meth:`union_graph` produces
    a merged read-only view used as the default query target.
    """

    def __init__(self) -> None:
        self.default = Graph(URIRef("urn:graph:default"))
        self._named: Dict[URIRef, Graph] = {}

    def graph(self, identifier: Any) -> Graph:
        """Get or create the named graph ``identifier``."""
        identifier = (
            identifier
            if isinstance(identifier, URIRef)
            else URIRef(str(identifier))
        )
        if identifier not in self._named:
            self._named[identifier] = Graph(
                identifier, self.default.namespaces
            )
        return self._named[identifier]

    def remove_graph(self, identifier: Any) -> bool:
        identifier = (
            identifier
            if isinstance(identifier, URIRef)
            else URIRef(str(identifier))
        )
        return self._named.pop(identifier, None) is not None

    def graphs(self) -> List[Graph]:
        return list(self._named.values())

    def __contains__(self, identifier: Any) -> bool:
        return URIRef(str(identifier)) in self._named

    def union_graph(self) -> Graph:
        """A merged *read-only* view of the default graph and every
        named graph. Writes must go to the member graphs — mutating the
        union would be silently lost, so it raises
        :class:`FrozenGraphError` instead (use ``copy()`` to thaw)."""
        merged = Graph(URIRef("urn:graph:union"), self.default.namespaces)
        merged.add_all(self.default)
        for graph in self._named.values():
            merged.add_all(graph)
        return freeze(merged)

    def __len__(self) -> int:
        return len(self.default) + sum(len(g) for g in self._named.values())
