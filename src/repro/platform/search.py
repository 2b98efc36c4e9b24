"""The mobile search interface (paper §4, Figures 2–3) and the keyword
baseline it replaced.

The AJAX search box fires "2 seconds after the last keystroke is
pressed" (modeled by :class:`Debouncer`), suggests matching LOD
resources for the typed prefix, and — once the user picks one — lists
the content associated with that resource: items annotated with it, or
geo-located near it. Results can be filtered by the user's own position
("the possibility of filtering geographically the results").
"""

from __future__ import annotations

import bisect
import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..rdf.namespace import DCTERMS, GEO, GN, RDFS
from ..rdf.terms import Literal, Term, URIRef
from ..sparql.fulltext import FullTextIndex, literal_triples, tokenize_text
from ..sparql.geo import Point, haversine_km, try_parse_point
from ..store.engine import cached_view
from .models import ContentItem

#: The paper's debounce interval.
DEBOUNCE_SECONDS = 2.0

#: Content counts as "associated" to a place within this radius (km).
DEFAULT_CONTENT_RADIUS_KM = 0.3


class Debouncer:
    """The 2-second AJAX debounce of the search box."""

    def __init__(self) -> None:
        self._last_keystroke: Optional[float] = None
        self._pending: str = ""
        self.fired: List[str] = []

    def keystroke(self, text: str, at_time: float) -> Optional[str]:
        """Record the search box content after a keystroke. Returns the
        query to fire if the *previous* input sat idle long enough."""
        fired = self.poll(at_time)
        self._pending = text
        self._last_keystroke = at_time
        return fired

    def poll(self, at_time: float) -> Optional[str]:
        """Check whether the pending input is old enough to fire."""
        if (
            self._pending
            and self._last_keystroke is not None
            and at_time - self._last_keystroke >= DEBOUNCE_SECONDS
        ):
            query = self._pending
            self._pending = ""
            self._last_keystroke = None
            self.fired.append(query)
            return query
        return None


@dataclass(frozen=True)
class Suggestion:
    """One row of the candidate-results list (Figure 3)."""

    resource: URIRef
    label: str
    score: float


#: The predicates whose literals the label index holds, and the two of
#: them a suggestion displays, by preference (lower first).
LABEL_PREDICATES = (RDFS.label, GN.name, GN.alternateName)
_LABELLED = frozenset(LABEL_PREDICATES)
_DISPLAY_RANK = {RDFS.label: 0, GN.name: 1}
#: A keystroke's candidates: the subjects of the label tokens the prefix
#: starts, up to the first token that brings them to this many.
CANDIDATES = 200


#: A label triple of a subject: (predicate, literal).
_Label = Tuple[Term, Literal]


class _Entry(NamedTuple):
    """What a suggestion shows and scores for one labelled subject.

    Entries order as the display rule does: the subject's entry is the
    smallest of its display labels' — by predicate rank, then language
    tag or "", then lexical form (the tokens follow from that)."""

    rank: int
    lang: str
    label: str
    tokens: Tuple[str, ...]


class LabelIndex:
    """The search box's label index over one graph: a token index of the
    literals of :data:`LABEL_PREDICATES` (:attr:`index`, one posting per
    token: its subjects in ``str`` order), one :class:`_Entry` per
    subject with a displayed label (:attr:`entries`) and, per token, the
    subjects whose displayed label it starts (:attr:`first`).

    The display label is a literal ``rdfs:label``, else a literal
    ``gn:name``; among several of the preferred predicate, the smallest
    by ``(language tag or "", lexical form)`` — the same label in every
    process. ``gn:alternateName`` is searched, never shown.

    A derived view (:mod:`repro.store.engine`): :meth:`collect` reads the
    label triples of a graph, :meth:`apply_delta` carries an index across
    one store commit, per touched subject. Never written once built, so
    threads share one without a lock.
    """

    __slots__ = ("index", "entries", "first")

    def __init__(
        self,
        index: FullTextIndex,
        entries: Dict[Term, _Entry],
        first: Dict[str, Tuple[Term, ...]],
    ) -> None:
        self.index = index
        self.entries = entries
        self.first = first

    @classmethod
    def collect(cls, graph) -> "LabelIndex":
        """The index of ``graph``: one ``triples((None, p, None))`` walk
        per label predicate, nothing else read."""
        index = FullTextIndex()
        entries: Dict[Term, _Entry] = {}
        for subject, predicate, label in literal_triples(
            graph, LABEL_PREDICATES
        ):
            tokens = index.add(subject, label.lexical)
            entry = _entry(predicate, label, tokens)
            if entry is not None and (
                subject not in entries or entry < entries[subject]
            ):
                entries[subject] = entry
        index.tokens()  # built now: a keystroke only reads
        first: Dict[str, List[Term]] = defaultdict(list)
        for subject, entry in entries.items():
            if entry.tokens:
                first[entry.tokens[0]].append(subject)
        return cls(index, entries, {
            token: tuple(sorted(subjects, key=str))
            for token, subjects in first.items()
        })

    def apply_delta(self, added, removed, before, after) -> "LabelIndex":
        """The index of ``after`` = ``before`` + one commit's
        union-effective ``added``/``removed`` triples; ``self`` when the
        delta holds no literal label triple.

        Carried per touched subject, and ``before`` is never read: what
        it held that ``after`` lacks is in ``removed``. A subject that
        only gained labels joins their tokens' postings and keeps the
        smaller of its entry and the new display labels' — no graph
        read, the case of an upload. A subject that lost a label is read
        once in ``after`` (its three label predicates): it leaves each
        token of its lost labels that none of the labels read carries,
        and its entry is the smallest of theirs. Postings, sorted
        tokens, entries and first-token groups the commit does not
        touch are shared with this index."""
        # per touched subject: (labels gained, labels lost)
        delta: Dict[Term, Tuple[List[_Label], List[_Label]]] = {}
        for side, triples in enumerate((added, removed)):
            for s, p, o in triples:
                if p in _LABELLED and isinstance(o, Literal):
                    delta.setdefault(s, ([], []))[side].append((p, o))
        if not delta:
            return self
        joined: Dict[str, Set[Term]] = defaultdict(set)
        left: Dict[str, Set[Term]] = defaultdict(set)
        shown: Dict[Term, Optional[_Entry]] = {}  # subject -> new entry
        for subject, (gained, lost) in delta.items():
            entry = self.entries.get(subject)
            if lost:
                held = list(_labels(after, subject))
                kept = _tokens(held)
                # a label both gained and lost nets out: only ``after``
                # tells which side it ended on
                joins = _tokens(gained) & kept
                for token in _tokens(lost) - kept:
                    left[token].add(subject)
                best = _best(held)
            else:
                joins = _tokens(gained)
                best = _best(gained, entry)
            for token in joins:
                joined[token].add(subject)
            if best != entry:
                shown[subject] = best
        entries, first = self.entries, self.first
        if shown:
            entries, first = dict(entries), dict(first)
            for subject, best in shown.items():
                _regroup(first, subject, self.entries.get(subject), best)
                if best is None:
                    del entries[subject]
                else:
                    entries[subject] = best
        return LabelIndex(self.index.revised(joined, left), entries, first)

    def leading(self, prefix: str, walked: List[str]) -> Iterator[Term]:
        """The candidates of the ``walked`` tokens
        (:meth:`FullTextIndex.prefix_walk`) whose displayed label's first
        token starts with ``prefix``."""
        last = walked[-1]
        for token in self.index.prefixed(prefix):
            for subject in self.first.get(token, ()):
                # past the last walked token, only another token of the
                # subject's labels can have made it a candidate
                if token <= last or any(
                    self.index.holds(other, subject) for other in walked
                ):
                    yield subject

    def ordered(self, walked: List[str]) -> Iterator[Term]:
        """The candidates of the ``walked`` tokens that have an entry,
        once each, in ``str`` order, read only as far as the caller
        asks."""
        seen: Set[Term] = set()
        for subject in heapq.merge(
            *(self.index.subjects(token) for token in walked), key=str
        ):
            if subject not in seen and subject in self.entries:
                seen.add(subject)
                yield subject


def _regroup(
    first: Dict[str, Tuple[Term, ...]],
    subject: Term,
    old: Optional[_Entry],
    new: Optional[_Entry],
) -> None:
    """Move ``subject`` between the groups of :attr:`LabelIndex.first`
    when its entry's first token changes from ``old``'s to ``new``'s."""
    was = old.tokens[0] if old is not None and old.tokens else None
    now = new.tokens[0] if new is not None and new.tokens else None
    if was == now:
        return
    if was is not None:
        rest = tuple(other for other in first[was] if other != subject)
        if rest:
            first[was] = rest
        else:
            del first[was]
    if now is not None:
        group = list(first.get(now, ()))
        bisect.insort(group, subject, key=str)
        first[now] = tuple(group)


def _entry(
    predicate: Term, label: Literal, tokens: List[str]
) -> Optional[_Entry]:
    """How ``label`` competes for display; ``None`` for a predicate
    that is never shown."""
    rank = _DISPLAY_RANK.get(predicate)
    if rank is None:
        return None
    return _Entry(rank, label.lang or "", label.lexical, tuple(tokens))


def _labels(graph, subject: Term) -> Iterator[_Label]:
    """The literal labels of ``subject`` in ``graph``, with their
    predicates."""
    for predicate in LABEL_PREDICATES:
        for _, _, label in graph.triples((subject, predicate, None)):
            if isinstance(label, Literal):
                yield predicate, label


def _tokens(labels: Iterable[_Label]) -> Set[str]:
    """Every token of ``labels``."""
    return {
        token for _, label in labels for token in tokenize_text(label.lexical)
    }


def _best(
    labels: Iterable[_Label], best: Optional[_Entry] = None
) -> Optional[_Entry]:
    """The smallest of ``best`` and the entries of ``labels``' display
    labels."""
    for predicate, label in labels:
        entry = _entry(predicate, label, tokenize_text(label.lexical))
        if entry is not None and (best is None or entry < best):
            best = entry
    return best


class SearchInterface:
    """Semantic search over the platform's union graph.

    Construction takes the :class:`LabelIndex` of ``union_graph`` from
    the derived-view cache (:func:`repro.store.engine.cached_view`): on
    a store's union view it was collected once and carried by every
    commit since, so building an interface on a new head reads nothing
    from the graph; any other graph is indexed again once it changed.

    :meth:`suggest` answers from that index alone, so it answers for the
    graph as it was at construction even when ``union_graph`` is a
    mutable graph changed since; only the geo-ranking by
    ``user_point`` and :meth:`content_for_resource` read the graph.
    Nothing is written after ``__init__``: threads share an interface
    without a lock, and a new one is published by reference.
    """

    def __init__(self, union_graph, contents: Sequence[ContentItem]) -> None:
        self.graph = union_graph
        self.contents = list(contents)
        self.labels: LabelIndex = cached_view(union_graph, LabelIndex)

    # ------------------------------------------------------------------
    # Incremental suggestion (the AJAX candidates list)
    # ------------------------------------------------------------------
    def suggest(
        self,
        prefix: str,
        user_point: Optional[Point] = None,
        limit: int = 10,
    ) -> List[Suggestion]:
        """LOD resources whose label starts matching the typed prefix,
        optionally ranked by distance to the user.

        A top-k over the candidates of :meth:`FullTextIndex.prefix_walk`
        (DESIGN.md, "Suggest is a top-k"): a score falls in a class by
        the displayed label's tokens (:meth:`_prefix_score`: above 2,
        1.0, 0.5, 0.0) and ``user_point`` adds at most 1. The first
        class is scored in full; the others are read in ``str`` order,
        a class only while fewer than ``limit`` rows score above its
        highest possible score, and without ``user_point`` only as many
        of its rows as the top ``limit`` still lacks.
        """
        lowered = prefix.lower()
        if not lowered:
            return []
        labels = self.labels
        walked = labels.index.prefix_walk(lowered, CANDIDATES)
        if not walked:
            return []
        entries = labels.entries
        rows = []
        for subject in labels.leading(lowered, walked):
            entry = entries[subject]
            score = self._prefix_score(lowered, entry.tokens)
            rows.append(self._row(subject, entry, score, user_point))
        rest = labels.ordered(walked)
        bonus = 0.0 if user_point is None else 1.0
        met: Dict[float, List[Tuple[Term, _Entry]]] = {
            1.0: [], 0.5: [], 0.0: []
        }
        for fixed, found in met.items():
            above = sum(1 for row in rows if -row[0] > fixed + bonus)
            if above >= limit:
                break
            while user_point is not None or len(found) < limit - above:
                subject = next(rest, None)
                if subject is None:
                    break
                entry = entries[subject]
                score = self._prefix_score(lowered, entry.tokens)
                if score in met:  # the first class is scored above
                    met[score].append((subject, entry))
            if user_point is None:
                found = found[:limit - above]
            rows.extend(
                self._row(subject, entry, fixed, user_point)
                for subject, entry in found
            )
        rows.sort()
        return [
            Suggestion(subject, entry.label, -negated)
            for negated, _, subject, entry in rows[:limit]
        ]

    def _row(
        self,
        subject: Term,
        entry: _Entry,
        score: float,
        user_point: Optional[Point],
    ) -> Tuple[float, str, Term, _Entry]:
        """A candidate's sort key: ``score``, plus its nearness to
        ``user_point`` when given, rounded and negated, then
        ``str(subject)``."""
        if user_point is not None:
            distance = self._distance_to(subject, user_point)
            if distance is not None:
                score += max(0.0, 1.0 - min(distance, 1000.0) / 1000.0)
        return (-round(score, 4), str(subject), subject, entry)

    @staticmethod
    def _prefix_score(lowered: str, tokens: Sequence[str]) -> float:
        """How well a label (its ``tokens``) matches the lower-cased
        prefix: its first word, another word, or only a search hit."""
        if not tokens:
            return 0.0
        if tokens[0].startswith(lowered):
            return 2.0 + len(lowered) / max(1, len(tokens[0]))
        for token in tokens:
            if token.startswith(lowered):
                return 1.0
        return 0.5

    def _distance_to(
        self, subject: Term, point: Point
    ) -> Optional[float]:
        geometry = self.graph.value(subject, GEO.geometry)
        if geometry is None:
            return None
        target = try_parse_point(geometry)
        if target is None:
            return None
        return haversine_km(point, target)

    # ------------------------------------------------------------------
    # Content retrieval for a selected resource (Figure 4, list view)
    # ------------------------------------------------------------------
    def content_for_resource(
        self,
        resource: URIRef,
        radius_km: float = DEFAULT_CONTENT_RADIUS_KM,
    ) -> List[ContentItem]:
        """Contents annotated with ``resource`` or located near it."""
        annotated: Set[int] = set()
        for subject in self.graph.subjects(DCTERMS.subject, resource):
            pid = _pid_from_resource(subject)
            if pid is not None:
                annotated.add(pid)
        target = None
        geometry = self.graph.value(resource, GEO.geometry)
        if geometry is not None:
            target = try_parse_point(geometry)
        hits: List[ContentItem] = []
        for item in self.contents:
            near = (
                target is not None
                and item.point is not None
                and haversine_km(item.point, target) <= radius_km
            )
            if item.pid in annotated or near:
                hits.append(item)
        return hits

    # ------------------------------------------------------------------
    # The keyword baseline (§1.2 — what semantics replaced)
    # ------------------------------------------------------------------
    def keyword_search(self, query: str) -> List[ContentItem]:
        """Match content whose title or user tags contain every query
        token — wild-free vocabulary, no synonyms, no disambiguation."""
        tokens = tokenize_text(query)
        if not tokens:
            return []
        hits = []
        for item in self.contents:
            haystack = set(tokenize_text(item.title))
            for tag in item.plain_tags:
                haystack.update(tokenize_text(tag))
            if all(token in haystack for token in tokens):
                hits.append(item)
        return hits


def _pid_from_resource(subject: Term) -> Optional[int]:
    from ..rdf.namespace import TL_PID

    text = str(subject)
    if not text.startswith(str(TL_PID)):
        return None
    tail = text[len(str(TL_PID)):]
    return int(tail) if tail.isdigit() else None
