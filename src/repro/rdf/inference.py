"""RDFS inference (paper §2.3: virtual-album queries can be "richer,
more elaborated and accurate [...] also relying on inference
capabilities").

Implements the core RDFS entailment rules by forward-chaining to a fixed
point:

* ``rdfs5``  — subPropertyOf transitivity
* ``rdfs7``  — property inheritance: ``p subPropertyOf q`` + ``s p o``
  ⇒ ``s q o``
* ``rdfs11`` — subClassOf transitivity
* ``rdfs9``  — type inheritance: ``C subClassOf D`` + ``x a C`` ⇒
  ``x a D``
* ``rdfs2``  — domain: ``p domain C`` + ``s p o`` ⇒ ``s a C``
* ``rdfs3``  — range: ``p range C`` + ``s p o`` ⇒ ``o a C`` (IRI/bnode
  objects only)

The closure materializes entailed triples into the graph (the strategy
Virtuoso deployments of the era commonly used for query-time speed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .graph import Graph, Triple
from .namespace import RDF, RDFS
from .terms import Literal, Term, URIRef


def _transitive_closure(
    pairs: Set[Tuple[Term, Term]]
) -> Set[Tuple[Term, Term]]:
    """All (a, c) reachable through the pair relation (a < c)."""
    adjacency: Dict[Term, Set[Term]] = {}
    for a, b in pairs:
        adjacency.setdefault(a, set()).add(b)
    closure: Set[Tuple[Term, Term]] = set()
    for start in adjacency:
        stack = list(adjacency[start])
        seen: Set[Term] = set()
        while stack:
            node = stack.pop()
            if node in seen or node == start:
                continue
            seen.add(node)
            closure.add((start, node))
            stack.extend(adjacency.get(node, ()))
    return closure


def rdfs_closure(
    graph: Graph, schema: Optional[Graph] = None
) -> int:
    """Materialize the RDFS closure of ``graph`` in place.

    ``schema`` optionally supplies the ontology triples (subClassOf,
    subPropertyOf, domain, range) separately from the data; when omitted
    the schema is read from ``graph`` itself. Returns the number of
    triples added.
    """
    source = schema if schema is not None else graph

    sub_class = {
        (s, o)
        for s, _, o in source.triples((None, RDFS.subClassOf, None))
        if isinstance(o, (URIRef,))
    }
    sub_class |= _transitive_closure(sub_class)  # rdfs11
    sub_property = {
        (s, o)
        for s, _, o in source.triples((None, RDFS.subPropertyOf, None))
        if isinstance(o, URIRef)
    }
    sub_property |= _transitive_closure(sub_property)  # rdfs5
    domains = [
        (s, o)
        for s, _, o in source.triples((None, RDFS.domain, None))
        if isinstance(o, URIRef)
    ]
    ranges = [
        (s, o)
        for s, _, o in source.triples((None, RDFS.range, None))
        if isinstance(o, URIRef)
    ]

    added = 0
    super_props: Dict[Term, List[Term]] = {}
    for p, q in sub_property:
        super_props.setdefault(p, []).append(q)
    super_classes: Dict[Term, List[Term]] = {}
    for c, d in sub_class:
        super_classes.setdefault(c, []).append(d)
    domain_of: Dict[Term, List[Term]] = {}
    for p, c in domains:
        domain_of.setdefault(p, []).append(c)
    range_of: Dict[Term, List[Term]] = {}
    for p, c in ranges:
        range_of.setdefault(p, []).append(c)

    changed = True
    while changed:
        changed = False
        pending: List[Triple] = []
        for s, p, o in graph.triples():
            # rdfs7: property inheritance
            for q in super_props.get(p, ()):
                if (s, q, o) not in graph:
                    pending.append((s, q, o))
            # rdfs2 / rdfs3: domain and range typing
            for c in domain_of.get(p, ()):
                if (s, RDF.type, c) not in graph:
                    pending.append((s, RDF.type, c))
            if not isinstance(o, Literal):
                for c in range_of.get(p, ()):
                    if (o, RDF.type, c) not in graph:
                        pending.append((o, RDF.type, c))
            # rdfs9: type inheritance
            if p == RDF.type:
                for d in super_classes.get(o, ()):
                    if (s, RDF.type, d) not in graph:
                        pending.append((s, RDF.type, d))
        for triple in pending:
            if triple not in graph:
                graph.add(triple)
                added += 1
                changed = True
    return added


def entails(
    graph: Graph,
    triple: Triple,
    schema: Optional[Graph] = None,
) -> bool:
    """Non-destructive entailment check: would the closure contain
    ``triple``? (Works on a copy; the input graph is untouched.)"""
    if triple in graph:
        return True
    working = graph.copy()
    rdfs_closure(working, schema)
    return triple in working
