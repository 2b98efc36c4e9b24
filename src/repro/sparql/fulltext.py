"""Full-text support: tokenization, matching and an inverted index.

Two consumers:

* the SPARQL evaluator's ``bif:contains(?text, 'pattern')`` filter
  function — per-solution matching with Virtuoso's AND/OR/quoted-phrase
  mini-language;
* :class:`FullTextIndex` — an inverted index over literal objects in a
  graph, used by the resolvers and the incremental search interface where
  scanning every literal per keystroke would be too slow.
"""

from __future__ import annotations

import bisect
import itertools
import re
from collections import defaultdict
from collections.abc import Sequence
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..rdf.graph import Graph, Triple
from ..rdf.terms import Literal, Term

_WORD_RE = re.compile(r"[\w']+", re.UNICODE)


def tokenize_text(text: str) -> List[str]:
    """Lower-cased word tokens of ``text``."""
    return [w.lower() for w in _WORD_RE.findall(text)]


def _parse_pattern(pattern: str) -> List[List[str]]:
    """Parse a ``bif:contains`` pattern into OR-of-AND token groups.

    Supports the subset of Virtuoso's text-search syntax used here:
    bare words (implicit AND), ``AND``, ``OR`` and double-quoted phrases
    (matched as consecutive tokens). Returns a disjunction of
    conjunctions, each conjunct being a phrase (list of tokens treated as
    one unit when longer than one).
    """
    parts = re.findall(r'"[^"]*"|\S+', pattern)
    groups: List[List[str]] = [[]]
    expect_term = True
    for part in parts:
        upper = part.upper()
        if upper == "OR" and not expect_term:
            groups.append([])
            expect_term = True
            continue
        if upper == "AND" and not expect_term:
            expect_term = True
            continue
        if part.startswith('"') and part.endswith('"'):
            phrase = " ".join(tokenize_text(part[1:-1]))
            if phrase:
                groups[-1].append(phrase)
        else:
            for token in tokenize_text(part):
                groups[-1].append(token)
        expect_term = False
    return [g for g in groups if g]


def contains(text: str, pattern: str) -> bool:
    """Virtuoso-style ``bif:contains`` evaluation against ``text``."""
    tokens = tokenize_text(text)
    token_set = set(tokens)
    joined = " ".join(tokens)
    groups = _parse_pattern(pattern)
    if not groups:
        return False
    for group in groups:
        if all(
            (term in token_set)
            if " " not in term
            else (term in joined)
            for term in group
        ):
            return True
    return False


class FullTextIndex:
    """Inverted index mapping each word token to its posting: the
    subjects whose indexed literals hold it, once each, in ``str``
    order.

    Indexes the literal objects of a graph (all of them, or those of
    some predicates). :meth:`add` collects subjects into a set per
    token; :meth:`tokens` sorts the tokens and turns each set into its
    posting, once after the last :meth:`add`, so a built index holds
    one tuple per token and nothing else. Lookups return the subjects
    whose literals contain the query tokens; :meth:`search_prefix`
    supports the mobile interface's search-as-you-type behaviour.
    Once built, searching writes nothing, so any number of threads may
    search it without a lock.
    """

    def __init__(self) -> None:
        #: per token, its subjects added since :meth:`tokens` last ran
        self._added: Dict[str, Set[Term]] = defaultdict(set)
        self._sorted_tokens: Optional[List[str]] = None
        #: per token, its posting; complete once :meth:`tokens` ran
        self._subjects: Dict[str, Tuple[Term, ...]] = {}

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        predicates: Optional[Iterable[Term]] = None,
    ) -> "FullTextIndex":
        """Build an index over ``graph`` literals.

        ``predicates`` restricts indexing to the given predicates (e.g.
        only ``rdfs:label``) and reads only their triples, one
        ``graph.triples((None, p, None))`` walk per predicate; by default
        every triple is read and every literal indexed. The index is a
        copy: later changes to ``graph`` do not reach it.
        """
        index = cls()
        for s, _, o in literal_triples(graph, predicates):
            index.add(s, o.lexical)
        index.tokens()  # built now: a search only reads
        return index

    def add(self, subject: Term, text: str) -> List[str]:
        """Index ``text`` under ``subject``; returns its tokens."""
        tokens = tokenize_text(text)
        for token in tokens:
            self._added[token].add(subject)
        if tokens:
            self._sorted_tokens = None
        return tokens

    def __len__(self) -> int:
        return len(self.tokens())

    def search(self, query: str) -> Set[Term]:
        """Subjects whose indexed text contains *all* query tokens."""
        tokens = tokenize_text(query)
        if not tokens:
            return set()
        self.tokens()
        result = set(self._subjects.get(tokens[0], ()))
        for token in tokens[1:]:
            if not result:
                break
            result.intersection_update(self._subjects.get(token, ()))
        return result

    def search_prefix(self, prefix: str, limit: int = 50) -> Set[Term]:
        """Subjects with any indexed token starting with ``prefix``.

        This is the AJAX search-box primitive (Figure 2/3 of the paper):
        the last keystroke's partial word matches by prefix. The tokens
        are walked in sorted order and the walk ends with the first one
        that brings the subjects to ``limit`` (:meth:`prefix_walk`).
        """
        prefix = prefix.lower()
        if not prefix:
            return set()
        return set(itertools.chain.from_iterable(
            self._subjects[token]
            for token in self.prefix_walk(prefix, limit)
        ))

    def prefixed(self, prefix: str) -> Iterator[str]:
        """The indexed tokens starting with the lower-case ``prefix``,
        in sorted order."""
        tokens = self.tokens()
        for idx in range(bisect.bisect_left(tokens, prefix), len(tokens)):
            if not tokens[idx].startswith(prefix):
                return
            yield tokens[idx]

    def prefix_walk(self, prefix: str, limit: int) -> List[str]:
        """The tokens :meth:`search_prefix` takes the subjects of: those
        starting with the lower-case ``prefix``, in sorted order, up to
        and including the first that brings their subjects to ``limit``.

        The union is not built while the walked tokens' subject counts
        sum to less than ``limit`` (it cannot have reached it), and a
        token with ``limit`` subjects of its own ends the walk without
        being added to it, so no subject of a token that large is
        copied however large its posting is."""
        walked: List[str] = []
        union: Optional[Set[Term]] = None
        total = 0
        for token in self.prefixed(prefix):
            walked.append(token)
            subjects = self._subjects[token]
            if union is None:
                total += len(subjects)
                if total < limit:
                    continue
                union = set(itertools.chain.from_iterable(
                    self._subjects[t] for t in walked[:-1]
                ))
            if len(subjects) >= limit:
                break
            union.update(subjects)
            if len(union) >= limit:
                break
        return walked

    def subjects(self, token: str) -> Tuple[Term, ...]:
        """The posting of ``token``: its subjects, once each, in ``str``
        order."""
        self.tokens()
        return self._subjects.get(token, ())

    def holds(self, token: str, subject: Term) -> bool:
        """Whether ``token`` is one of ``subject``'s indexed tokens."""
        return _place(self.subjects(token), subject)[1]

    def revised(
        self,
        joined: Dict[str, Set[Term]],
        left: Dict[str, Set[Term]],
    ) -> "FullTextIndex":
        """This index with the subjects of ``joined`` added to their
        tokens' postings and those of ``left`` taken out of theirs
        (``{token: subjects}``), as a new index; this one is left as it
        was. A subject goes in or out of a posting by bisection and one
        slice, so the new index shares every posting no subject moves
        in, and the sorted tokens when no token comes or goes; ``self``
        when nothing moves."""
        tokens = self.tokens()
        subjects = self._subjects
        for token in joined.keys() | left.keys():
            old = posting = subjects.get(token, ())
            for subject in left.get(token, ()):
                at, there = _place(posting, subject)
                if there:
                    posting = posting[:at] + posting[at + 1:]
            for subject in joined.get(token, ()):
                at, there = _place(posting, subject)
                if not there:
                    posting = posting[:at] + (subject,) + posting[at:]
            if posting is old:
                continue
            if subjects is self._subjects:
                subjects = dict(subjects)
            if posting:
                subjects[token] = posting
            else:
                del subjects[token]
            if old and posting:
                continue
            # the token comes or goes
            if tokens is self._sorted_tokens:
                tokens = list(tokens)
            if posting:
                bisect.insort(tokens, token)
            else:
                del tokens[bisect.bisect_left(tokens, token)]
        if subjects is self._subjects:
            return self
        index = FullTextIndex()
        index._sorted_tokens = tokens
        index._subjects = subjects
        return index

    def tokens(self) -> List[str]:
        """All indexed tokens, sorted once after the last :meth:`add`
        (with each token's posting, :meth:`subjects`) and shared with
        :meth:`search_prefix` (do not modify the list)."""
        if self._sorted_tokens is None:
            for token, added in self._added.items():
                added.update(self._subjects.get(token, ()))
                self._subjects[token] = tuple(sorted(added, key=str))
            self._added.clear()
            self._sorted_tokens = sorted(self._subjects)
        return self._sorted_tokens


def _place(order: Sequence[Term], subject: Term) -> Tuple[int, bool]:
    """Where ``subject`` is in ``order`` (subjects in ``str`` order), or
    where it belongs, and whether it is there."""
    key = str(subject)
    low = bisect.bisect_left(order, key, key=str)
    high = bisect.bisect_right(order, key, low, key=str)
    for at in range(low, high):
        if order[at] == subject:
            return at, True
    return high, False


def literal_triples(
    graph: Graph, predicates: Optional[Iterable[Term]] = None
) -> Iterator[Tuple[Term, Term, Literal]]:
    """The triples of ``graph`` with a literal object: those of each of
    ``predicates`` in turn (each read once however often it is named),
    or of the whole graph when ``predicates`` is ``None``."""
    if predicates is None:
        triples: Iterable[Triple] = graph
    else:
        triples = itertools.chain.from_iterable(
            graph.triples((None, p, None)) for p in dict.fromkeys(predicates)
        )
    for s, p, o in triples:
        if isinstance(o, Literal):
            yield s, p, o
