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

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..rdf.namespace import DCTERMS, GEO, GN, RDFS
from ..rdf.terms import Term, URIRef
from ..sparql.fulltext import FullTextIndex, literal_triples, tokenize_text
from ..sparql.geo import Point, haversine_km, try_parse_point
from .models import ContentItem

#: The paper's debounce interval.
DEBOUNCE_SECONDS = 2.0

#: Content counts as "associated" to a place within this radius (km).
DEFAULT_CONTENT_RADIUS_KM = 0.3


class Debouncer:
    """The 2-second AJAX debounce of the search box."""

    def __init__(self, interval: float = DEBOUNCE_SECONDS) -> None:
        self.interval = interval
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
            and at_time - self._last_keystroke >= self.interval
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
_DISPLAY_RANK = {RDFS.label: 0, GN.name: 1}


class _Entry(NamedTuple):
    """What a suggestion shows and scores for one labelled subject."""

    label: str
    tokens: Tuple[str, ...]


class SearchInterface:
    """Semantic search over the platform's union graph.

    Construction reads the literals of :data:`LABEL_PREDICATES` (one
    ``triples((None, p, None))`` walk each) into a token index and one
    :class:`_Entry` per subject with a displayed label: that label and
    its tokens. The display label is a literal ``rdfs:label``, else a
    literal ``gn:name``; among several of the preferred predicate, the
    smallest by ``(language tag or "", lexical form)`` — the same label
    in every process. ``gn:alternateName`` is searched, never shown.

    :meth:`suggest` answers from that index and those entries alone, so
    it answers for the graph as it was at construction even when
    ``union_graph`` is a mutable graph changed since; only the
    geo-ranking by ``user_point`` and :meth:`content_for_resource` read
    the graph. Nothing is written after ``__init__``: threads share an
    interface without a lock, and a rebuilt one is published by
    reference.
    """

    def __init__(self, union_graph, contents: Sequence[ContentItem]) -> None:
        self.graph = union_graph
        self.contents = list(contents)
        self._label_index = FullTextIndex()
        # per subject, its best (rank, language, lexical form, tokens)
        best: Dict[Term, Tuple[int, str, str, List[str]]] = {}
        for subject, predicate, label in literal_triples(
            union_graph, LABEL_PREDICATES
        ):
            tokens = self._label_index.add(subject, predicate, label.lexical)
            rank = _DISPLAY_RANK.get(predicate)
            if rank is None:
                continue
            candidate = (rank, label.lang or "", label.lexical, tokens)
            if subject not in best or candidate < best[subject]:
                best[subject] = candidate
        self._entries: Dict[Term, _Entry] = {
            subject: _Entry(lexical, tuple(tokens))
            for subject, (_, _, lexical, tokens) in best.items()
        }
        self._label_index.tokens()  # sorted now: a keystroke only reads

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
        optionally ranked by distance to the user."""
        lowered = prefix.lower()
        ranked = []
        for subject in self._label_index.search_prefix(prefix, limit=200):
            entry = self._entries.get(subject)
            if entry is None:
                continue
            score = self._prefix_score(lowered, entry.tokens)
            if user_point is not None:
                distance = self._distance_to(subject, user_point)
                if distance is not None:
                    score += max(0.0, 1.0 - min(distance, 1000.0) / 1000.0)
            ranked.append((-round(score, 4), str(subject), subject, entry))
        ranked.sort()
        return [
            Suggestion(subject, entry.label, -negated)
            for negated, _, subject, entry in ranked[:limit]
        ]

    @staticmethod
    def _prefix_score(lowered: str, tokens: Sequence[str]) -> float:
        """How well a label (its ``tokens``) matches the lower-cased
        prefix: its first word, another word, or only a search hit."""
        if not tokens:
            return 0.0
        if tokens[0].startswith(lowered):
            return 2.0 + len(lowered) / max(1, len(tokens[0]))
        if any(t.startswith(lowered) for t in tokens):
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
