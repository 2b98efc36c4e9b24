"""One dataset, one table of queries with their literal answers.

Every plan the one executor can be handed — rewritten by the planner,
with or without statistics, or not rewritten at all — must produce
exactly these rows. ``tests/sparql/test_evaluator.py`` runs the table
under both ``optimize=`` values and a planner without statistics;
``tests/analysis/test_plan_property.py`` runs it under freshly
collected and cached statistics.
"""

from repro.rdf import (
    BNode, Dataset, FOAF, GEO, Literal, RDF, RDFS, REV, URIRef,
)

EX = "http://example.org/"
PEOPLE = "http://graphs/people"
PICTURES = "http://graphs/pictures"
PLACES = "http://graphs/places"

#: the monument, and where the three pictures were taken: two within
#: 0.3 km of it, one ~5 km away
MOLE = "POINT(7.6934 45.0692)"
_TAKEN_AT = {
    "pic1": "POINT(7.693 45.069)",
    "pic2": "POINT(7.6936 45.0693)",
    "pic3": "POINT(7.65 45.03)",
}


def ex(name):
    return URIRef(EX + name)


def build_dataset():
    """Three named graphs: who knows whom, who made which picture
    (and where, and of which type), and two places — one with a
    geometry no geo function can parse. ``ex:kind`` holds ``ex:Photo``
    as an IRI, as a literal spelling it and as a blank node labelled
    with it."""
    ds = Dataset()
    people = ds.graph(PEOPLE)
    for name in ("oscar", "walter", "carmen"):
        people.add((ex(name), FOAF.name, Literal(name)))
    people.add((ex("walter"), FOAF.knows, ex("oscar")))
    pictures = ds.graph(PICTURES)
    for pic, maker, label, rating, kind in (
        ("pic1", "walter", "Tramonto sulla Mole", 5, "Photo"),
        ("pic2", "carmen", "Mole by night", 3, "Photo"),
        ("pic3", "walter", "Periferia", 4, "Sketch"),
    ):
        pictures.add((ex(pic), FOAF.maker, ex(maker)))
        pictures.add((ex(pic), RDFS.label, Literal(label)))
        pictures.add((ex(pic), REV.rating, Literal(rating)))
        pictures.add((ex(pic), GEO.geometry, Literal(_TAKEN_AT[pic])))
        pictures.add((ex(pic), RDF.type, ex(kind)))
    pictures.add((ex("pic1"), ex("kind"), ex("Photo")))
    places = ds.graph(PLACES)
    places.add((ex("mole"), RDFS.comment, Literal("landmark")))
    places.add((ex("mole"), GEO.geometry, Literal(MOLE)))
    places.add((ex("mole"), RDF.type, ex("Monument")))
    places.add((ex("mole"), ex("alias"), ex("mole")))
    places.add((ex("mole"), ex("kind"), Literal(EX + "Photo")))
    places.add((ex("nowhere"), RDFS.comment, Literal("landmark")))
    places.add((ex("nowhere"), GEO.geometry, Literal("somewhere")))
    places.add((ex("nowhere"), ex("kind"), BNode(EX + "Photo")))
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
_PIC1, _PIC2, _PIC3, _MOLE, _NOWHERE = (
    ex(n).n3() for n in ("pic1", "pic2", "pic3", "mole", "nowhere")
)
_PHOTO, _MONUMENT = ex("Photo").n3(), ex("Monument").n3()

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
        "graph-select-star",
        # SELECT * projects the GRAPH variable and what the group binds
        """SELECT * WHERE { GRAPH ?g { ?x rev:rating 3 } }""",
        _rows({"g": URIRef(PICTURES).n3(), "x": _PIC2}),
    ),
    (
        "graph-filter-reads-a-later-variable",
        # ?a is unbound inside the group, where its FILTER runs: the
        # filter errors for every solution, whatever the neighbour binds
        """SELECT * WHERE {
             GRAPH ?g { ?b geo:geometry ?c FILTER(?a = ?a) }
             ?a foaf:knows ?f
           }""",
        [],
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
    # -- the read path: grid probes and disconnected tails -------------
    (
        "geo-constant-centre",
        f"""SELECT ?x WHERE {{
             ?x geo:geometry ?loc
             FILTER(bif:st_intersects(?loc, "{MOLE}", 0.3))
           }}""",
        _rows({"x": _PIC1}, {"x": _PIC2}, {"x": _MOLE}),
    ),
    (
        "geo-variable-centre",
        # the unparseable geometry of ex:nowhere is a centre too: its
        # filter errors and rejects, probe or no probe
        """SELECT ?pic ?place WHERE {
             ?place rdfs:comment "landmark" .
             ?place geo:geometry ?src .
             ?pic geo:geometry ?loc .
             ?pic foaf:maker ?who
             FILTER(bif:st_intersects(?loc, ?src, 0.3))
           }""",
        _rows(
            {"pic": _PIC1, "place": _MOLE}, {"pic": _PIC2, "place": _MOLE}
        ),
    ),
    (
        "geo-variable-radius",
        f"""SELECT ?pic ?r WHERE {{
             VALUES ?r {{ 0.01 10 }}
             ?pic geo:geometry ?loc .
             ?pic foaf:maker ?who
             FILTER(bif:st_intersects(?loc, "{MOLE}", ?r))
           }}""",
        _rows(
            {"pic": _PIC1, "r": Literal(10).n3()},
            {"pic": _PIC2, "r": Literal(10).n3()},
            {"pic": _PIC3, "r": Literal(10).n3()},
        ),
    ),
    (
        "geo-arguments-swapped",
        f"""SELECT ?pic WHERE {{
             ?pic geo:geometry ?loc .
             ?pic rev:rating ?r
             FILTER(bif:st_intersects("{MOLE}", ?loc, 0.3))
           }}""",
        _rows({"pic": _PIC1}, {"pic": _PIC2}),
    ),
    (
        "geo-inside-graph",
        # the grid indexes the union; a named graph must not see the
        # monument that lives in another one
        f"""SELECT ?x WHERE {{
             GRAPH <{PICTURES}> {{
               ?x geo:geometry ?loc
               FILTER(bif:st_intersects(?loc, "{MOLE}", 0.3))
             }}
           }}""",
        _rows({"x": _PIC1}, {"x": _PIC2}),
    ),
    (
        "geo-inside-optional",
        f"""SELECT ?name ?x WHERE {{
             ?who foaf:knows ?friend .
             ?who foaf:name ?name
             OPTIONAL {{
               ?x geo:geometry ?loc .
               ?x foaf:maker ?who
               FILTER(bif:st_intersects(?loc, "{MOLE}", 0.3))
             }}
           }}""",
        _rows({"name": Literal("walter").n3(), "x": _PIC1}),
    ),
    (
        "geo-negative-radius",
        f"""SELECT ?x WHERE {{
             ?x geo:geometry ?loc
             FILTER(bif:st_intersects(?loc, "{MOLE}", -1))
           }}""",
        [],
    ),
    (
        "tail-spanning-filter-errors",
        # people share no variable with pictures; the filter relating
        # them divides by zero for "oscar" and rejects those pairings
        """SELECT ?pic ?name WHERE {
             ?pic rev:rating ?r .
             ?pic foaf:maker ?who .
             ?p foaf:name ?name
             FILTER(?r / (strlen(?name) - 5) >= 4)
           }""",
        _rows(*(
            {"pic": pic, "name": Literal(name).n3()}
            for pic in (_PIC1, _PIC3) for name in ("walter", "carmen")
        )),
    ),
    (
        "tail-variable-prebound",
        # ?name arrives bound in one incoming solution and unbound in
        # the other: only the second may evaluate the tail on its own
        """SELECT ?pic ?name WHERE {
             VALUES ?name { "carmen" UNDEF }
             ?pic rev:rating 5 .
             ?pic foaf:maker ?who .
             ?p foaf:name ?name
           }""",
        _rows(
            {"pic": _PIC1, "name": Literal("carmen").n3()},
            *(
                {"pic": _PIC1, "name": Literal(name).n3()}
                for name in ("oscar", "walter", "carmen")
            ),
        ),
    ),
    # -- ORDER BY: an unbound key sorts lowest -------------------------
    (
        "order-by-unbound-first",
        # the places have no rating: they come before every value
        """SELECT ?x ?r WHERE {
             ?x geo:geometry ?loc OPTIONAL { ?x rev:rating ?r }
           } ORDER BY ?r LIMIT 3""",
        _rows(
            {"x": _MOLE}, {"x": _NOWHERE},
            {"x": _PIC2, "r": Literal(3).n3()},
        ),
    ),
    (
        "order-by-desc-unbound-last",
        """SELECT ?x ?r WHERE {
             ?x geo:geometry ?loc OPTIONAL { ?x rev:rating ?r }
           } ORDER BY DESC(?r) LIMIT 3""",
        _rows(
            {"x": _PIC1, "r": Literal(5).n3()},
            {"x": _PIC3, "r": Literal(4).n3()},
            {"x": _PIC2, "r": Literal(3).n3()},
        ),
    ),
    # -- solution modifiers: DISTINCT keys on terms, slices count ------
    (
        "distinct-keys-on-terms",
        # an IRI, a literal and a blank node spelled alike: three rows
        f"""SELECT DISTINCT ?k WHERE {{ ?x <{EX}kind> ?k }}""",
        _rows(
            {"k": _PHOTO}, {"k": Literal(EX + "Photo").n3()},
            {"k": BNode(EX + "Photo").n3()},
        ),
    ),
    (
        "distinct-over-unbound",
        # both places leave ?r unbound: one empty row for the two
        """SELECT DISTINCT ?r WHERE {
             ?x geo:geometry ?loc OPTIONAL { ?x rev:rating ?r }
           }""",
        _rows(
            {}, *({"r": Literal(r).n3()} for r in (5, 3, 4)),
        ),
    ),
    (
        "order-desc-offset-limit",
        """SELECT ?x ?r WHERE { ?x rev:rating ?r }
           ORDER BY DESC(?r) OFFSET 1 LIMIT 1""",
        _rows({"x": _PIC3, "r": Literal(4).n3()}),
    ),
    (
        "limit-zero",
        """SELECT ?x WHERE { ?x rev:rating ?r } LIMIT 0""",
        [],
    ),
    (
        "offset-past-the-end",
        """SELECT ?x WHERE { ?x rev:rating ?r } OFFSET 3""",
        [],
    ),
    (
        "union-of-distinct-limited-sub-selects",
        # M1's shape: each branch keeps its first distinct row — walter
        # made both pictures rated 4 or more, both near ones are photos
        f"""SELECT ?who ?t WHERE {{
             {{ SELECT DISTINCT ?who WHERE {{
                  ?pic foaf:maker ?who . ?pic rev:rating ?r
                  FILTER(?r >= 4) }} LIMIT 1 }}
             UNION
             {{ SELECT DISTINCT ?t WHERE {{
                  ?pic a ?t . ?pic foaf:maker ?who .
                  ?pic geo:geometry ?loc
                  FILTER(bif:st_intersects(?loc, "{MOLE}", 0.3)) }}
                LIMIT 1 }}
           }}""",
        _rows({"who": _WALTER}, {"t": _PHOTO}),
    ),
    (
        "construct-offset-limit",
        # VALUES fixes the order the solutions come in
        f"""CONSTRUCT {{ ?x rev:rating ?r }} WHERE {{
             VALUES ?x {{ <{EX}pic1> <{EX}pic2> <{EX}pic3> }}
             ?x rev:rating ?r
           }} OFFSET 1 LIMIT 1""",
        [(_PIC2, REV.rating.n3(), Literal(3).n3())],
    ),
    # -- the IN-list access path: a scan keyed by the listed IRIs ------
    (
        "in-two-iris-on-type",
        # listed twice, ex:Photo is still one IRI: its pictures once
        f"""SELECT ?x ?t WHERE {{
             ?x a ?t
             FILTER(?t IN (<{EX}Photo>, <{EX}Monument>, <{EX}Photo>))
           }}""",
        _rows(
            {"x": _PIC1, "t": _PHOTO}, {"x": _PIC2, "t": _PHOTO},
            {"x": _MOLE, "t": _MONUMENT},
        ),
    ),
    (
        "in-predicate-position",
        f"""SELECT ?x ?r WHERE {{
             ?x ?p ?r . ?x foaf:maker <{EX}walter>
             FILTER(?p IN (rev:rating))
           }}""",
        _rows(
            {"x": _PIC1, "r": Literal(5).n3()},
            {"x": _PIC3, "r": Literal(4).n3()},
        ),
    ),
    (
        "in-absent-iri",
        f"""SELECT ?x WHERE {{
             ?x a ?t FILTER(?t IN (<{EX}Nothing>, <{EX}Sketch>))
           }}""",
        _rows({"x": _PIC3}),
    ),
    (
        "in-iri-is-not-its-literal-or-blank-node",
        f"""SELECT ?x WHERE {{
             ?x <{EX}kind> ?k FILTER(?k IN (<{EX}Photo>))
           }}""",
        _rows({"x": _PIC1}),
    ),
    (
        "not-in-is-not-pinned",
        f"""SELECT ?x WHERE {{
             ?x a ?t FILTER(?t NOT IN (<{EX}Photo>))
           }}""",
        _rows({"x": _PIC3}, {"x": _MOLE}),
    ),
    (
        "in-literal-choice-is-not-pinned",
        # "=" on literals is value equality: 5.0 is pic1's rating 5,
        # which a lookup of the decimal term would not find
        f"""SELECT ?x WHERE {{
             ?x rev:rating ?r FILTER(?r IN (5.0, <{EX}Photo>))
           }}""",
        _rows({"x": _PIC1}),
    ),
    (
        "in-repeated-variable-is-not-pinned",
        f"""SELECT ?x WHERE {{
             ?x ?p ?x FILTER(?x IN (<{EX}mole>, <{EX}pic1>))
           }}""",
        _rows({"x": _MOLE}),
    ),
    (
        "in-variable-prebound-by-values",
        # one incoming solution binds ?t, the other leaves it open
        f"""SELECT ?x ?t WHERE {{
             VALUES ?t {{ <{EX}Photo> UNDEF }}
             ?x a ?t FILTER(?t IN (<{EX}Photo>, <{EX}Monument>))
           }}""",
        _rows(
            {"x": _PIC1, "t": _PHOTO}, {"x": _PIC2, "t": _PHOTO},
            {"x": _PIC1, "t": _PHOTO}, {"x": _PIC2, "t": _PHOTO},
            {"x": _MOLE, "t": _MONUMENT},
        ),
    ),
    (
        "in-variable-prebound-by-optional",
        # the OPTIONAL types ex:mole and leaves ex:nowhere untyped
        f"""SELECT ?x ?t ?y WHERE {{
             ?x rdfs:comment "landmark"
             OPTIONAL {{ ?x a ?t }}
             ?y a ?t FILTER(?t IN (<{EX}Photo>, <{EX}Monument>))
           }}""",
        _rows(
            {"x": _MOLE, "t": _MONUMENT, "y": _MOLE},
            {"x": _NOWHERE, "t": _PHOTO, "y": _PIC1},
            {"x": _NOWHERE, "t": _PHOTO, "y": _PIC2},
            {"x": _NOWHERE, "t": _MONUMENT, "y": _MOLE},
        ),
    ),
    (
        "contains-on-an-iri",
        # only a literal's text is searched: ex:walter's IRI spells
        # "walter", and still matches nothing
        """SELECT ?pic WHERE {
             ?pic foaf:maker ?who .
             ?who bif:contains "walter"
           }""",
        _rows(),
    ),
    (
        "contains-unbound-subject",
        # the constraint is a FILTER: on a variable nothing binds it
        # rejects every solution
        """SELECT ?pic WHERE {
             ?pic rdfs:label ?label .
             ?text bif:contains "mole"
           }""",
        _rows(),
    ),
]

#: the cases above whose optimized plan looks the listed IRIs up, and
#: the ones it must not
PINNED = (
    "in-two-iris-on-type", "in-predicate-position", "in-absent-iri",
    "in-iri-is-not-its-literal-or-blank-node",
    "in-variable-prebound-by-values", "in-variable-prebound-by-optional",
)
NOT_PINNED = (
    "not-in-is-not-pinned", "in-literal-choice-is-not-pinned",
    "in-repeated-variable-is-not-pinned",
)
