"""One dataset, one table of queries with their literal answers.

Every plan the one executor can be handed — rewritten by any pass
pipeline, or not rewritten at all — must produce exactly these rows.
``tests/sparql/test_evaluator.py`` runs the table under both
``optimize=`` values and the empty pass list;
``tests/analysis/test_plan_property.py`` runs it under hypothesis-drawn
pass subsets and orders.
"""

from repro.rdf import Dataset, FOAF, Literal, RDFS, REV, URIRef

EX = "http://example.org/"
PEOPLE = "http://graphs/people"
PICTURES = "http://graphs/pictures"


def ex(name):
    return URIRef(EX + name)


def build_dataset():
    """Two named graphs: who knows whom, and who made which picture."""
    ds = Dataset()
    people = ds.graph(PEOPLE)
    for name in ("oscar", "walter", "carmen"):
        people.add((ex(name), FOAF.name, Literal(name)))
    people.add((ex("walter"), FOAF.knows, ex("oscar")))
    pictures = ds.graph(PICTURES)
    for pic, maker, label, rating in (
        ("pic1", "walter", "Tramonto sulla Mole", 5),
        ("pic2", "carmen", "Mole by night", 3),
        ("pic3", "walter", "Periferia", 4),
    ):
        pictures.add((ex(pic), FOAF.maker, ex(maker)))
        pictures.add((ex(pic), RDFS.label, Literal(label)))
        pictures.add((ex(pic), REV.rating, Literal(rating)))
    return ds


def normalize(result):
    """Order-free, comparable form of any query form's result."""
    if isinstance(result, bool):
        return result
    if hasattr(result, "variables"):  # SELECT
        return sorted(
            tuple(sorted((str(k), v.n3()) for k, v in row.items()))
            for row in result
        )
    return sorted(  # CONSTRUCT / DESCRIBE graph
        tuple(term.n3() for term in triple)
        for triple in result.triples((None, None, None))
    )


def _rows(*rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


_OSCAR, _WALTER, _CARMEN = (
    ex(n).n3() for n in ("oscar", "walter", "carmen")
)

#: (id, query text, expected ``normalize(result)``)
CASES = [
    (
        "contains-first",
        # the constraint is written before the pattern binding ?label:
        # run in source order it would raise
        """SELECT ?pic WHERE {
             ?label bif:contains "mole" .
             ?pic rdfs:label ?label .
             ?pic foaf:maker ?who
           }""",
        _rows({"pic": ex("pic1").n3()}, {"pic": ex("pic2").n3()}),
    ),
    (
        "filter-exists",
        """SELECT ?who WHERE {
             ?who foaf:name ?name
             FILTER EXISTS { ?pic foaf:maker ?who . ?pic rev:rating ?r
                             FILTER(?r >= 4) }
           }""",
        _rows({"who": _WALTER}),
    ),
    (
        "filter-not-exists",
        """SELECT ?who WHERE {
             ?who foaf:name ?name
             FILTER NOT EXISTS { ?pic foaf:maker ?who }
           }""",
        _rows({"who": _OSCAR}),
    ),
    (
        "graph-variable",
        """SELECT ?g ?who WHERE {
             GRAPH ?g { ?x foaf:maker ?who . ?x rev:rating 3 }
           }""",
        _rows({"g": URIRef(PICTURES).n3(), "who": _CARMEN}),
    ),
    (
        "graph-variable-join",
        """SELECT ?g ?h WHERE {
             GRAPH ?g { ?who foaf:knows ?friend }
             GRAPH ?h { ?pic foaf:maker ?who }
           }""",
        _rows(
            {"g": URIRef(PEOPLE).n3(), "h": URIRef(PICTURES).n3()},
            {"g": URIRef(PEOPLE).n3(), "h": URIRef(PICTURES).n3()},
        ),
    ),
    (
        "subselect-values",
        """SELECT ?name ?n WHERE {
             VALUES ?name { "walter" "carmen" "nobody" }
             ?who foaf:name ?name .
             { SELECT ?who (COUNT(?pic) AS ?n)
               WHERE { ?pic foaf:maker ?who } GROUP BY ?who }
           }""",
        _rows(
            {"name": Literal("walter").n3(), "n": Literal(2).n3()},
            {"name": Literal("carmen").n3(), "n": Literal(1).n3()},
        ),
    ),
    (
        "ask-true",
        "ASK { ?pic foaf:maker ?who . ?who foaf:knows ?friend }",
        True,
    ),
    (
        "ask-false",
        "ASK { ?pic foaf:maker ?who . ?friend foaf:knows ?who }",
        False,
    ),
    (
        "construct",
        """CONSTRUCT { ?who foaf:made ?pic } WHERE {
             ?pic foaf:maker ?who . ?pic rev:rating ?r FILTER(?r > 3)
           }""",
        sorted([
            (_WALTER, FOAF.made.n3(), ex("pic1").n3()),
            (_WALTER, FOAF.made.n3(), ex("pic3").n3()),
        ]),
    ),
    (
        "describe",
        """DESCRIBE ?who WHERE { ?who foaf:knows ?friend }""",
        sorted([
            (_WALTER, FOAF.name.n3(), Literal("walter").n3()),
            (_WALTER, FOAF.knows.n3(), _OSCAR),
        ]),
    ),
]
