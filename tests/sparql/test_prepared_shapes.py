"""Prepared query shapes: a text's IRI and string constants are lifted
into numbered slots, the *shape* is parsed and planned once, and a new
text of it has its constants bound into that plan. The plan outlives a
commit that leaves the counts it was ordered on within the drift factor.

Each path must return the rows the unrewritten plan (``optimize=False``)
returns. A plan kept across commits must return the rows of one made on
the new generation. A text the lifting cannot handle falls back to being
its own shape, with the same rows.
"""

import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import QueryPlanner
from repro.analysis.stats import PLAN_DRIFT
from repro.core import geo_album, rated_album, social_album
from repro.core.mashup import mashup_query, run_mashup
from repro.obs import MetricsRegistry, set_registry
from repro.platform import Platform
from repro.rdf import FOAF, GEO, RDF, RDFS, Literal, URIRef
from repro.sparql import Evaluator
from repro.sparql import evaluator as evaluator_module
from repro.sparql.errors import SparqlSyntaxError
from repro.sparql.parser import parse_query
from repro.store import QuadStore
from repro.workloads import (
    WorkloadConfig,
    generate_workload,
    populate_platform,
)

from .executor_cases import CASES, build_dataset, ex, normalize
from .test_executor_differential import queries as differential_queries

MONUMENTS = (
    "Mole Antonelliana", "Palazzo Madama", "Piazza Castello",
    "Museo Egizio", "Parco del Valentino", "Gran Madre di Dio",
)


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch):
    monkeypatch.setattr(evaluator_module, "_TEXTS", {})
    monkeypatch.setattr(evaluator_module, "_SHAPES", {})


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def outcomes(registry):
    found = registry.get("repro_plan_cache_total")
    if found is None:
        return {}
    return {
        labels["outcome"]: int(child.value)
        for labels, child in found.children()
    }


def store_of(dataset):
    store = QuadStore()
    store.sync_dataset(dataset)
    return store


def fresh_plan(store):
    """An evaluator that plans the literal text on the store's current
    generation, sharing nothing."""
    return Evaluator(store, planner=QueryPlanner(stats=store.statistics()))


def decoy(text):
    """``text`` with another IRI or string in each slot the plan leaves
    for binding (the slots the planner reads keep their values), or
    ``None`` when it has no such slot."""
    shape_text, constants = evaluator_module._lift(text)
    shape, _ = evaluator_module._shape_of(text)
    if not shape.free:
        return None
    for slot, constant in reversed(list(enumerate(constants))):
        if slot in shape.keyed:
            value = constant.n3()
        elif isinstance(constant, URIRef):
            value = f"<http://decoy.example/{slot}>"
        else:
            value = f'"decoy {slot}"'
        for placeholder in (f"<{evaluator_module._SLOT}{slot}>",
                            f'"{evaluator_module._SLOT}{slot}"'):
            shape_text = shape_text.replace(placeholder, value)
    return shape_text


# ---------------------------------------------------------------------------
# (a) rows of the shape path = rows of the reference plan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [pytest.param(text, expected, id=name) for name, text, expected in CASES],
)
def test_every_case_bound_into_a_plan_made_for_other_constants(
    text, expected, registry
):
    store = store_of(build_dataset())
    other = decoy(text)
    if other is not None:
        Evaluator(store).evaluate(other)
    got = normalize(Evaluator(store).evaluate(text))
    assert got == expected
    assert got == normalize(Evaluator(store, optimize=False).evaluate(text))
    assert outcomes(registry)["bound" if other else "miss"] == 1


@pytest.fixture(scope="module")
def corpus_store():
    workload = generate_workload(
        WorkloadConfig(n_users=10, n_contents=120, seed=7)
    )
    platform = Platform()
    populate_platform(platform, workload)
    store = QuadStore()
    platform.attach_store(store)
    platform.evaluator()
    friends = list(workload.usernames) + [
        f"nobody{index}" for index in range(20 - len(workload.usernames))
    ]
    return platform, store, friends


def test_albums_over_six_monuments_and_twenty_friends(
    corpus_store, registry
):
    _, store, friends = corpus_store
    texts = [geo_album(monument).query for monument in MONUMENTS] + [
        build(monument, friend_of=friend).query
        for build in (social_album, rated_album)
        for monument in MONUMENTS
        for friend in friends
    ]
    found = 0
    for text in texts:
        got = Evaluator(store).evaluate(text)
        assert normalize(got) == normalize(
            Evaluator(store, optimize=False).evaluate(text)
        ), text
        found += len(got)
    assert found
    # three shapes, each planned once: the rest is bound
    assert outcomes(registry) == {"miss": 3, "bound": len(texts) - 3}


def test_mashup_over_twelve_pictures(corpus_store, registry):
    platform, store, _ = corpus_store
    pids = [item.pid for item in platform.contents()][::10][:12]
    assert len(pids) == 12
    for pid in pids:
        text = mashup_query(pid)
        got = Evaluator(store).evaluate(text)
        # the literal text planned on its own: same plan, same rows in
        # the same order
        assert list(got) == list(fresh_plan(store).evaluate(text))
        # the reference plan's LIMIT 5 may keep other rows of a branch
        # (it meets them in another order), never another number
        shape_view = run_mashup(Evaluator(store), pid)
        reference = run_mashup(Evaluator(store, optimize=False), pid)
        assert {k: len(v) for k, v in shape_view.sections.items()} == {
            k: len(v) for k, v in reference.sections.items()
        }
    assert outcomes(registry)["miss"] == 1


# ---------------------------------------------------------------------------
# (b) what the lifting meets: bound, or the text is its own shape
# ---------------------------------------------------------------------------

_P = "PREFIX ex: <http://example.org/> "

#: (id, text, a text of the same shape with other constants, whether
#: the second is bound into the first's plan)
LIFTING = [
    ("iri-also-a-prefixed-name",
     _P + "SELECT ?l WHERE { <http://example.org/pic1> rdfs:label ?l . "
     "ex:pic1 foaf:maker ?who }",
     _P + "SELECT ?l WHERE { <http://example.org/pic2> rdfs:label ?l . "
     "ex:pic1 foaf:maker ?who }",
     True),
    ("escaped-quotes",
     'SELECT ?s WHERE { ?s rdfs:label ?l FILTER(?l != "say \\"hi\\"") }',
     'SELECT ?s WHERE { ?s rdfs:label ?l FILTER(?l != "Mole by night") }',
     True),
    ("long-strings",
     'SELECT ?s WHERE { ?s rdfs:label ?l '
     'FILTER(?l != """Tramonto\n"sulla" Mole""") }',
     "SELECT ?s WHERE { ?s rdfs:label ?l "
     "FILTER(?l != '''Tramonto sulla Mole''') }",
     True),
    ("typed-literal",
     'SELECT ?p WHERE { ?p rev:rating "5"^^xsd:integer }',
     'SELECT ?p WHERE { ?p rev:rating "3"^^xsd:integer }',
     False),
    ("language-tag",
     'SELECT ?s WHERE { ?s rdfs:label ?l FILTER(?l != "Mole"@it) }',
     'SELECT ?s WHERE { ?s rdfs:label ?l FILTER(?l != "Mole" @en) }',
     True),
    ("base-relative-iris",
     "BASE <http://example.org/> SELECT ?l WHERE { <pic1> rdfs:label ?l }",
     "BASE <http://example.org/> SELECT ?l WHERE { <pic2> rdfs:label ?l }",
     None),
    ("from",
     "SELECT ?l FROM <http://graphs/pictures> WHERE { ?s rdfs:label ?l }",
     "SELECT ?l FROM <http://graphs/people> WHERE { ?s rdfs:label ?l }",
     None),
    ("function-iri",
     "SELECT ?p WHERE { ?p rev:rating ?r "
     "FILTER(<http://www.w3.org/2001/XMLSchema#integer>(?r) > 3) }",
     "SELECT ?p WHERE { ?p rev:rating ?r "
     "FILTER(<http://www.w3.org/2001/XMLSchema#double>(?r) > 3) }",
     False),
    ("less-than-without-spaces",
     "SELECT ?a ?b WHERE { ?a rev:rating ?x . ?b rev:rating ?y "
     "FILTER(?x<?y) FILTER(?a != <http://example.org/pic3>) }",
     "SELECT ?a ?b WHERE { ?a rev:rating ?x . ?b rev:rating ?y "
     "FILTER(?x<?y) FILTER(?a != <http://example.org/pic1>) }",
     True),
    ("class-object",
     "SELECT ?p WHERE { ?p a <http://example.org/Photo> }",
     "SELECT ?p WHERE { ?p a <http://example.org/Sketch> }",
     False),
    ("in-list",
     "SELECT ?p WHERE { ?p foaf:maker ?who "
     "FILTER(?who IN (<http://example.org/walter>)) }",
     "SELECT ?p WHERE { ?p foaf:maker ?who "
     "FILTER(?who IN (<http://example.org/carmen>)) }",
     False),
    ("same-constant-in-two-slots",
     "SELECT ?l ?who WHERE { <http://example.org/pic1> rdfs:label ?l . "
     "<http://example.org/pic1> foaf:maker ?who }",
     "SELECT ?l ?who WHERE { <http://example.org/pic1> rdfs:label ?l . "
     "<http://example.org/pic3> foaf:maker ?who }",
     True),
    ("predicate",
     "SELECT ?s ?o WHERE { ?s <http://xmlns.com/foaf/0.1/maker> ?o }",
     "SELECT ?s ?o WHERE { ?s <http://xmlns.com/foaf/0.1/knows> ?o }",
     False),
    ("graph-and-values",
     "SELECT ?x WHERE { VALUES ?r { 3 } "
     "GRAPH <http://graphs/pictures> { ?x rev:rating ?r } }",
     "SELECT ?x WHERE { VALUES ?r { 3 } "
     "GRAPH <http://graphs/people> { ?x rev:rating ?r } }",
     True),
    ("construct-template",
     "CONSTRUCT { ?who <http://example.org/made> <http://example.org/x> } "
     "WHERE { ?p foaf:maker ?who }",
     "CONSTRUCT { ?who <http://example.org/made> <http://example.org/y> } "
     "WHERE { ?p foaf:maker ?who }",
     True),
    ("describe-constant",
     "DESCRIBE <http://example.org/pic1>",
     "DESCRIBE <http://example.org/pic2>",
     True),
    ("exists-group",
     "SELECT ?who WHERE { ?who foaf:name ?n FILTER EXISTS { "
     "?p foaf:maker ?who FILTER(?p != <http://example.org/pic3>) } }",
     "SELECT ?who WHERE { ?who foaf:name ?n FILTER EXISTS { "
     "?p foaf:maker ?who FILTER(?p != <http://example.org/pic1>) } }",
     True),
    ("comment-of-hashes",
     "SELECT ?l WHERE { <http://example.org/pic1> rdfs:label ?l "
     "FILTER(?l != \"x\" " + "#" * 64 + "\n) }",
     "SELECT ?l WHERE { <http://example.org/pic2> rdfs:label ?l "
     "FILTER(?l != \"y\" " + "#" * 64 + "\n) }",
     True),
    ("comment-with-quotes",
     "SELECT ?l WHERE { # it's <not> \"a constant\"\n"
     "<http://example.org/pic1> rdfs:label ?l }",
     "SELECT ?l WHERE { # it's <not> \"a constant\"\n"
     "<http://example.org/pic2> rdfs:label ?l }",
     True),
]


def result_of(evaluator, text):
    try:
        return normalize(evaluator.evaluate(text))
    except SparqlSyntaxError as error:
        return ("error", str(error))


@pytest.mark.parametrize(
    "text, other, bound",
    [pytest.param(*case[1:], id=case[0]) for case in LIFTING],
)
def test_lifting_binds_or_falls_back(text, other, bound, registry):
    store = store_of(build_dataset())
    for each in (text, other):
        assert result_of(Evaluator(store), each) == result_of(
            Evaluator(store, optimize=False), each
        ), each
    counted = outcomes(registry)
    if bound is None:  # the parser refuses both
        assert isinstance(result_of(Evaluator(store), other), tuple)
    elif bound:
        assert counted == {"miss": 1, "bound": 1}
    else:
        assert counted == {"miss": 2}


def restored(text):
    """``text``'s shape with every slot put back to its constant, or
    ``None`` when ``text`` is its own shape."""
    lifted = evaluator_module._lift(text)
    if lifted is None:
        return None
    shape, constants = evaluator_module._shape_of(text)
    if not constants:
        return None
    return evaluator_module._substituted(
        shape.query, dict(zip(shape.sentinels, constants))
    )


def same_query(got, expected):
    """``got == expected`` but for where in the text a fallback prefix
    was first used (the linter's business: it parses the text itself)."""
    return replace(got, fallback_prefixes=set(got.fallback_prefixes)) \
        == replace(expected, fallback_prefixes=set(
            expected.fallback_prefixes))


@pytest.mark.parametrize(
    "text",
    [pytest.param(case[1], id=case[0]) for case in LIFTING]
    + [pytest.param(case[1], id=case[0]) for case in CASES],
)
def test_a_shape_with_its_constants_back_parses_as_the_text(text):
    try:
        expected = parse_query(text)
    except SparqlSyntaxError:
        return  # (the literal text reports its own error)
    got = restored(text)
    assert got is None or same_query(got, expected)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=differential_queries())
def test_a_drawn_query_shape_parses_as_the_text(drawn):
    text, _ = drawn
    got = restored(text)
    assert got is None or same_query(got, parse_query(text))


def test_a_text_holding_the_sentinel_is_its_own_shape(registry):
    store = store_of(build_dataset())
    text = (
        "SELECT ?s WHERE { ?s rdfs:label ?l "
        f"FILTER(?l != \"{evaluator_module._SLOT}0\") }}"
    )
    assert evaluator_module._lift(text) is None
    assert normalize(Evaluator(store).evaluate(text)) == normalize(
        Evaluator(store, optimize=False).evaluate(text)
    )
    assert list(evaluator_module._SHAPES) == [text]


def test_two_texts_of_one_shape_run_the_same_plan(monkeypatch, registry):
    store = store_of(build_dataset())
    ran = []
    original = Evaluator._solutions

    def recording(self, plan):
        ran.append(plan)
        return original(self, plan)

    monkeypatch.setattr(Evaluator, "_solutions", recording)
    texts = [
        f"SELECT ?l WHERE {{ <http://example.org/{pic}> rdfs:label ?l }}"
        for pic in ("pic1", "pic2")
    ]
    got = [normalize(Evaluator(store).evaluate(text)) for text in texts]
    assert outcomes(registry) == {"miss": 1, "bound": 1}
    # one plan object, not a copy per text
    assert len(ran) == 2 and ran[0] is ran[1]
    # each text read its own constant
    assert got == [
        [(("l", '"Tramonto sulla Mole"'),)], [(("l", '"Mole by night"'),)],
    ]


def test_an_ast_after_a_text_runs_without_the_texts_constants():
    store = store_of(build_dataset())
    evaluator = Evaluator(store)
    text = 'SELECT ?x WHERE { BIND("from the text" AS ?x) }'
    assert normalize(evaluator.evaluate(text)) == [
        (("x", '"from the text"'),),
    ]
    # the AST holds the very sentinel the text's constant sat behind
    sentinel = f"{evaluator_module._SLOT}0"
    ast = parse_query(f'SELECT ?x WHERE {{ BIND("{sentinel}" AS ?x) }}')
    assert normalize(evaluator.evaluate(ast)) == [
        (("x", f'"{sentinel}"'),),
    ]


# ---------------------------------------------------------------------------
# (c) plans across commits
# ---------------------------------------------------------------------------


def test_a_plan_survives_a_commit_that_moves_no_count_it_read(
    registry,
):
    store = store_of(build_dataset())
    text = "SELECT ?p ?who WHERE { ?p foaf:maker ?who . ?p a ?kind }"
    Evaluator(store).evaluate(text)
    store.insert((ex("mole"), RDFS.comment, Literal("again")))
    Evaluator(store).evaluate(text)
    assert outcomes(registry) == {"miss": 1, "hit": 1}


def test_a_plan_is_made_again_when_a_count_drifts(registry):
    store = store_of(build_dataset())
    text = "SELECT ?p ?who WHERE { ?p foaf:maker ?who . ?p a ?kind }"
    Evaluator(store).evaluate(text)
    makers = 3  # foaf:maker triples of the case dataset
    for index in range(int(makers * PLAN_DRIFT)):
        store.insert((ex(f"new{index}"), FOAF.maker, ex("oscar")))
    got = Evaluator(store).evaluate(text)
    assert outcomes(registry) == {"miss": 1, "stale": 1}
    assert normalize(got) == normalize(fresh_plan(store).evaluate(text))


#: What the commits of the property below add or take away: makers,
#: types and geometries of the case dataset's pictures and of new ones.
_SUBJECTS = [ex(f"pic{n}") for n in range(1, 6)]
_TRIPLES = st.one_of(
    st.tuples(st.sampled_from(_SUBJECTS), st.just(FOAF.maker),
              st.sampled_from([ex("walter"), ex("carmen"), ex("oscar")])),
    st.tuples(st.sampled_from(_SUBJECTS), st.just(RDF.type),
              st.sampled_from([ex("Photo"), ex("Sketch"), ex("Video")])),
    st.tuples(st.sampled_from(_SUBJECTS), st.just(GEO.geometry),
              st.sampled_from([Literal("POINT(7.6935 45.0691)"),
                               Literal("POINT(7.65 45.03)")])),
    st.tuples(st.sampled_from(_SUBJECTS), st.just(RDFS.seeAlso),
              st.sampled_from([ex("mole"), ex("pic1")])),
)
_COMMITS = st.lists(
    st.lists(st.tuples(st.booleans(), _TRIPLES), min_size=1, max_size=6),
    min_size=1, max_size=8,
)

_TEXTS = [
    "SELECT ?p ?who WHERE { ?p foaf:maker ?who . ?p a <http://example.org/"
    "Photo> }",
    "SELECT ?p ?who WHERE { ?p foaf:maker ?who . ?p a <http://example.org/"
    "Sketch> }",
    "SELECT ?p WHERE { ?p rdfs:seeAlso ?o . ?p foaf:maker "
    "<http://example.org/walter> }",
    'SELECT ?p WHERE { ?p geo:geometry ?g . ?p foaf:maker ?who '
    'FILTER(bif:st_intersects(?g, "POINT(7.6934 45.0692)", 0.3)) }',
    "SELECT ?p ?k WHERE { ?p a ?k FILTER(?k IN (<http://example.org/Photo>,"
    " <http://example.org/Video>)) }",
]


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
@given(commits=_COMMITS)
def test_a_kept_plan_returns_the_rows_of_a_new_one(commits):
    evaluator_module._TEXTS.clear()
    evaluator_module._SHAPES.clear()
    store = store_of(build_dataset())
    for text in _TEXTS:
        Evaluator(store).evaluate(text)
    for batch in commits:
        for add, triple in batch:
            if add:
                store.insert(triple, ex("ctx"))
            else:
                store.remove(triple, ex("ctx"))
        for text in _TEXTS:
            kept = Evaluator(store).evaluate(text)
            assert normalize(kept) == normalize(
                fresh_plan(store).evaluate(text)
            ), text


def test_threads_binding_shapes_while_a_writer_commits():
    """Eight readers bind texts of three shapes into shared plans while
    a writer commits (each commit may keep or replace those plans):
    every read returns the rows its own text has on its generation."""
    store = store_of(build_dataset())
    texts = [
        f"SELECT ?l WHERE {{ <http://example.org/pic{n}> rdfs:label ?l }}"
        for n in (1, 2, 3)
    ] + [
        'SELECT ?who WHERE { ?who foaf:name "%s" }' % name
        for name in ("oscar", "walter", "carmen")
    ] + [
        "SELECT ?p WHERE { ?p foaf:maker <http://example.org/%s> }" % name
        for name in ("oscar", "walter", "carmen")
    ]
    errors, done = [], threading.Event()

    def read(offset):
        try:
            for round_ in range(30):
                text = texts[(offset + round_) % len(texts)]
                evaluator = Evaluator(store)
                got = normalize(evaluator.evaluate(text))
                reference = Evaluator(
                    evaluator.dataset, optimize=False
                ).evaluate(text)
                assert got == normalize(reference), text
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def write():
        index = 0
        while not done.is_set():
            store.insert((ex(f"new{index}"), FOAF.maker, ex("oscar")))
            index += 1

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writer = threading.Thread(target=write)
        readers = [
            threading.Thread(target=read, args=(n,)) for n in range(8)
        ]
        writer.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=120)
        done.set()
        writer.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in readers + [writer])
    assert not errors, errors
