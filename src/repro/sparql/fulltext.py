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
    """Inverted index mapping word tokens to (subject, predicate) pairs.

    Indexes the literal objects of a graph (all of them, or those of
    some predicates). Lookups return the subjects whose literals contain
    the query tokens; :meth:`search_prefix` supports the mobile
    interface's search-as-you-type behaviour. Once nothing is added any
    more and :meth:`tokens` has sorted the tokens, searching writes
    nothing, so any number of threads may search it without a lock.
    """

    def __init__(self) -> None:
        self._postings: Dict[str, Set[Tuple[Term, Term]]] = defaultdict(set)
        self._sorted_tokens: Optional[List[str]] = None

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
        for s, p, o in literal_triples(graph, predicates):
            index.add(s, p, o.lexical)
        return index

    def add(self, subject: Term, predicate: Term, text: str) -> List[str]:
        """Index ``text`` under ``(subject, predicate)``; returns its
        tokens."""
        tokens = tokenize_text(text)
        for token in tokens:
            self._postings[token].add((subject, predicate))
        self._sorted_tokens = None
        return tokens

    def __len__(self) -> int:
        return len(self._postings)

    def search(self, query: str) -> Set[Term]:
        """Subjects whose indexed text contains *all* query tokens."""
        tokens = tokenize_text(query)
        if not tokens:
            return set()
        result: Optional[Set[Term]] = None
        for token in tokens:
            subjects = {s for s, _ in self._postings.get(token, ())}
            result = subjects if result is None else result & subjects
            if not result:
                return set()
        return result or set()

    def search_prefix(self, prefix: str, limit: int = 50) -> Set[Term]:
        """Subjects with any indexed token starting with ``prefix``.

        This is the AJAX search-box primitive (Figure 2/3 of the paper):
        the last keystroke's partial word matches by prefix.
        """
        prefix = prefix.lower()
        if not prefix:
            return set()
        tokens = self.tokens()
        start = bisect.bisect_left(tokens, prefix)
        result: Set[Term] = set()
        for idx in range(start, len(tokens)):
            token = tokens[idx]
            if not token.startswith(prefix):
                break
            result.update(s for s, _ in self._postings[token])
            if len(result) >= limit:
                break
        return result

    def revised(
        self,
        retokenized: Dict[Tuple[Term, Term], Tuple[Set[str], Set[str]]],
    ) -> "FullTextIndex":
        """This index with each ``(subject, predicate)`` of
        ``retokenized`` moved from its old tokens to its new ones
        (``{pair: (old, new)}``), as a new index; this one is left as it
        was. The new index shares every posting set no pair touches, and
        the sorted tokens when no token comes or goes; ``self`` when
        nothing moves."""
        touched: Dict[str, Set[Tuple[Term, Term]]] = {}

        def members(token: str) -> Set[Tuple[Term, Term]]:
            found = touched.get(token)
            if found is None:
                found = touched[token] = set(self._postings.get(token, ()))
            return found

        for pair, (old, new) in retokenized.items():
            for token in old - new:
                members(token).discard(pair)
            for token in new - old:
                members(token).add(pair)
        if not touched:
            return self
        postings = defaultdict(set, self._postings)
        tokens = self.tokens()
        for token, found in touched.items():
            if found:
                if token not in postings:
                    if tokens is self._sorted_tokens:
                        tokens = list(tokens)
                    bisect.insort(tokens, token)
                postings[token] = found
            elif token in postings:
                if tokens is self._sorted_tokens:
                    tokens = list(tokens)
                del postings[token]
                del tokens[bisect.bisect_left(tokens, token)]
        index = FullTextIndex()
        index._postings = postings
        index._sorted_tokens = tokens
        return index

    def tokens(self) -> List[str]:
        """All indexed tokens, sorted once after the last :meth:`add`
        and shared with :meth:`search_prefix` (do not modify the list)."""
        if self._sorted_tokens is None:
            self._sorted_tokens = sorted(self._postings)
        return self._sorted_tokens


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
