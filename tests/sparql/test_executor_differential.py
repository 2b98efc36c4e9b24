"""Random graphs x random queries: every plan gives the same multiset.

``executor_cases.py`` pins hand-written queries to literal rows; this
file draws the queries. Hypothesis builds a small dataset (two named
graphs, a handful of subjects / predicates / objects, some
``geo:geometry`` points — a few of them unparseable) and a query over
it (a BGP with repeated variables and constants, OPTIONAL, UNION,
FILTERs including erroring ones, ``[NOT] EXISTS``, GRAPH, a sub-SELECT
with LIMIT under a total ORDER BY, ``bif:st_intersects``, ``IN`` lists
of IRIs), and compares
as multisets:

* the planned query (statistics collected: the spatial grid is there),
* the plan of a planner without statistics (no grid),
* the unrewritten lowering (``optimize=False``),
* the lowering of the query with ``SELECT *`` spelled out,
* for a pure BGP, :func:`brute_force` — every triple tried against
  every pattern, so the executor's one step function is checked against
  something that does not go through it.

A second test draws ``BGP OPTIONAL { BGP }`` and holds both plans to
:func:`left_join` of the two brute-force solution sets.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis import QueryPlanner  # noqa: E402
from repro.rdf import Dataset, GEO, Literal, URIRef, Variable  # noqa: E402
from repro.sparql import Evaluator  # noqa: E402

EX = "http://example.org/"
GRAPHS = (URIRef("http://graphs/one"), URIRef("http://graphs/two"))
SUBJECTS = [URIRef(f"{EX}s{i}") for i in range(6)]
PREDICATES = [URIRef(f"{EX}p{i}") for i in range(3)]
#: objects: half of them subjects (so patterns chain), half numbers
OBJECTS = SUBJECTS[:3] + [Literal(n) for n in (1, 2, 3)]
#: within ~0.15 km of each other, ~1.5 km away, ~40 km away, and two
#: geometries no geo function can parse
GEOMETRIES = [Literal(text) for text in (
    "POINT(7.6934 45.0692)", "POINT(7.6940 45.0700)",
    "POINT(7.6950 45.0690)", "POINT(7.7100 45.0750)",
    "POINT(8.2000 45.1000)", "somewhere", "POINT(200 45)",
)]
VARIABLES = [Variable(name) for name in "abcd"]
#: every variable a drawn query can bind (``?g`` only through GRAPH)
ALL_NAMES = "?a ?b ?c ?d ?g"


def n3(term):
    return f"?{term}" if isinstance(term, Variable) else term.n3()


# ---------------------------------------------------------------------------
# the oracle that does not go through the executor
# ---------------------------------------------------------------------------


def brute_force(triples, patterns):
    """Solutions of a BGP: all triples x all patterns, dict merge."""
    rows = [{}]
    for pattern in patterns:
        extended = []
        for row in rows:
            for triple in triples:
                merged = dict(row)
                for position, value in zip(pattern, triple):
                    if not isinstance(position, Variable):
                        if position != value:
                            break
                    elif merged.setdefault(position, value) != value:
                        break
                else:
                    extended.append(merged)
        rows = extended
    return rows


def left_join(outer, inner):
    """``outer OPTIONAL { inner }`` with no filter: each outer row merged
    with every compatible inner row, or kept alone when none is."""
    rows = []
    for row in outer:
        merged = [
            {**row, **other} for other in inner
            if all(row.get(name, value) == value
                   for name, value in other.items())
        ]
        rows.extend(merged or [row])
    return rows


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

plain_triples = st.tuples(
    st.sampled_from(SUBJECTS),
    st.sampled_from(PREDICATES),
    st.sampled_from(OBJECTS),
)
geo_triples = st.tuples(
    st.sampled_from(SUBJECTS),
    st.just(GEO.geometry),
    st.sampled_from(GEOMETRIES),
)
quads = st.lists(
    st.tuples(
        st.sampled_from(GRAPHS),
        st.one_of(plain_triples, plain_triples, geo_triples),
    ),
    min_size=12, max_size=40,
)

patterns = st.one_of(
    st.tuples(
        st.sampled_from(VARIABLES * 3 + SUBJECTS[:2]),
        st.sampled_from(PREDICATES * 2 + VARIABLES[3:]),
        st.sampled_from(VARIABLES * 3 + OBJECTS[::2]),
    ),
    st.tuples(
        st.sampled_from(VARIABLES * 3 + SUBJECTS[:1]),
        st.just(GEO.geometry),
        st.sampled_from(VARIABLES),
    ),
)


def bgp_text(triples):
    return " ".join(
        " ".join(n3(term) for term in triple) + " ." for triple in triples
    )


def filters_over(names):
    """FILTERs mentioning only the variables in ``names``."""
    variables = st.sampled_from(names)
    geometry_or_variable = st.one_of(
        variables,
        st.sampled_from(GEOMETRIES[:2] + GEOMETRIES[5:6]).map(n3),
    )
    return st.one_of(
        st.builds("FILTER({} = {})".format, variables, variables),
        st.builds("FILTER({} != {})".format, variables,
                  st.sampled_from(OBJECTS).map(n3)),
        # errors on IRIs and on unbound variables: rejects the solution
        st.builds("FILTER({} + 1 > {})".format, variables,
                  st.integers(0, 3)),
        st.builds("FILTER(!bound({}))".format, variables),
        st.builds("FILTER(isIRI({}) || {} < 3)".format,
                  variables, variables),
        # IRIs only — subjects, a predicate, often one listed twice —
        # key the scan that binds the variable
        st.builds(
            "FILTER({} IN ({}))".format, variables,
            st.lists(
                st.sampled_from(SUBJECTS[:2] + PREDICATES[:1]),
                min_size=1, max_size=3,
            ).map(lambda iris: ", ".join(map(n3, iris))),
        ),
        st.builds(
            "FILTER(bif:st_intersects({}, {}, {}))".format,
            variables, geometry_or_variable,
            st.sampled_from(["0.2", "2", "100", "20000"] + names[:1]),
        ),
    )


def names_of(triples):
    return sorted({
        n3(term) for triple in triples for term in triple
        if isinstance(term, Variable)
    })


filters = filters_over([n3(v) for v in VARIABLES])
small_bgps = st.lists(patterns, min_size=1, max_size=2).map(bgp_text)


@st.composite
def closed_groups(draw):
    """A small BGP, sometimes with a FILTER: what goes inside UNION
    branches and GRAPH."""
    text = bgp_text(draw(st.lists(patterns, min_size=1, max_size=2)))
    if draw(st.booleans()):
        text += " " + draw(filters)
    return text


def sub_select(triples, limit):
    keys = " ".join(names_of(triples) or ["?a"])
    return (
        f"{{ SELECT {keys} WHERE {{ {bgp_text(triples)} }} "
        f"ORDER BY {keys} LIMIT {limit} }}"
    )


elements = st.one_of(
    filters,
    small_bgps.map("OPTIONAL {{ {} }}".format),
    st.builds("OPTIONAL {{ {} {} }}".format, small_bgps, filters),
    st.builds("{{ {} }} UNION {{ {} }}".format,
              closed_groups(), closed_groups()),
    small_bgps.map("FILTER EXISTS {{ {} }}".format),
    small_bgps.map("FILTER NOT EXISTS {{ {} }}".format),
    st.builds("GRAPH {} {{ {} }}".format,
              st.sampled_from(["?g", GRAPHS[0].n3()]), closed_groups()),
    st.builds(sub_select, st.lists(patterns, min_size=1, max_size=2),
              st.integers(1, 4)),
)


#: the albums' shape: two geometries related by the geo filter
GEO_JOIN = (
    "?a geo:geometry ?b . ?d geo:geometry ?c . "
    "FILTER(bif:st_intersects(?b, ?c, {}))"
)


@st.composite
def queries(draw):
    """(query text, the BGP's patterns when the query is nothing else)."""
    triples = draw(st.lists(patterns, min_size=1, max_size=5))
    extras = draw(st.lists(elements, max_size=3))
    radius = draw(st.sampled_from([None, None, None, "0.2", "2", "100"]))
    if radius is not None:
        extras.insert(draw(st.integers(0, 2)), GEO_JOIN.format(radius))
    # elements go before, between and after the triples
    cut = draw(st.integers(0, len(triples)))
    body = " ".join(
        extras[:1] + [bgp_text(triples[:cut])] + extras[1:2]
        + [bgp_text(triples[cut:])] + extras[2:]
    )
    prefix = f"PREFIX geo: <{GEO}>\n"
    return (
        f"{prefix}SELECT * WHERE {{ {body} }}",
        None if extras else triples,
    )


@st.composite
def optional_queries(draw):
    """(query text, outer patterns, inner patterns) of ``BGP OPTIONAL
    { BGP }``: up to three outer patterns, so the OPTIONAL sees several
    solutions sharing a join key."""
    outer = draw(st.lists(patterns, min_size=1, max_size=3))
    inner = draw(st.lists(patterns, min_size=1, max_size=2))
    text = (
        f"PREFIX geo: <{GEO}>\nSELECT * WHERE {{ {bgp_text(outer)} "
        f"OPTIONAL {{ {bgp_text(inner)} }} }}"
    )
    return text, outer, inner


def build(quad_list):
    dataset = Dataset()
    for name in GRAPHS:
        dataset.graph(name)
    for name, triple in quad_list:
        dataset.graph(name).add(triple)
    return dataset


def multiset(rows):
    return sorted(
        tuple(sorted((str(k), v.n3()) for k, v in row.items()))
        for row in rows
    )


@settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(quad_list=quads, query=queries())
def test_every_plan_yields_the_same_multiset(quad_list, query):
    text, pure_bgp = query
    dataset = build(quad_list)
    reference = multiset(Evaluator(dataset, optimize=False).evaluate(text))
    assert multiset(Evaluator(dataset).evaluate(text)) == reference
    no_statistics = Evaluator(dataset, planner=QueryPlanner(stats=None))
    assert multiset(no_statistics.evaluate(text)) == reference
    # SELECT * projects every variable in scope: the same rows as
    # naming every variable the query can bind
    explicit = text.replace("SELECT *", f"SELECT {ALL_NAMES}", 1)
    explicit_rows = Evaluator(dataset, optimize=False).evaluate(explicit)
    assert multiset(explicit_rows) == reference
    if pure_bgp is not None:
        union = set(dataset.union_graph().triples())
        assert multiset(brute_force(union, pure_bgp)) == reference


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(quad_list=quads, query=optional_queries())
def test_optional_is_a_left_join(quad_list, query):
    text, outer, inner = query
    dataset = build(quad_list)
    union = set(dataset.union_graph().triples())
    expected = multiset(left_join(
        brute_force(union, outer), brute_force(union, inner)
    ))
    for evaluator in (Evaluator(dataset), Evaluator(dataset, optimize=False)):
        assert multiset(evaluator.evaluate(text)) == expected


def test_the_oracle_itself():
    s0, s1 = SUBJECTS[:2]
    p0 = PREDICATES[0]
    a, b = VARIABLES[:2]
    triples = {(s0, p0, s1), (s1, p0, s1), (s0, p0, Literal(1))}
    # a repeated variable, a constant, a two-pattern chain
    assert brute_force(triples, [(a, p0, a)]) == [{a: s1}]
    assert multiset(brute_force(triples, [(s0, p0, b)])) == multiset(
        [{b: s1}, {b: Literal(1)}]
    )
    assert multiset(
        brute_force(triples, [(a, p0, b), (b, p0, b)])
    ) == multiset([{a: s0, b: s1}, {a: s1, b: s1}])
    assert brute_force(triples, [(a, PREDICATES[1], b)]) == []
    # two outer rows share ?b = s1 and each merges with the inner row
    # that agrees on it; the row with ?b = 1 has no partner: kept alone
    c = VARIABLES[2]
    outer = brute_force(triples, [(a, p0, b)])
    inner = brute_force(triples, [(b, p0, c)])
    assert multiset(left_join(outer, inner)) == multiset([
        {a: s0, b: s1, c: s1}, {a: s1, b: s1, c: s1},
        {a: s0, b: Literal(1)},
    ])
    assert left_join([{a: s0}], []) == [{a: s0}]
