"""The Figure 1 pipeline's memos are exact.

An annotator computes stage 1 (language, NP lemmas, term-frequency
words) once per ``(title, language argument)``, and its filter computes
a verdict once per ``(word, candidates)``. Every test here holds a
memoised annotator to one that computes everything on every call (the
memo limit set to 0 while it runs): the same fields, whatever came
before, and fresh objects each call.
"""

import sys
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BatchAnnotator, build_default_annotator
from repro.core.annotator import STAGE_HISTOGRAM, SemanticAnnotator
from repro.core.filtering import SemanticFilter
from repro.lod import build_lod_corpus
from repro.obs import (
    InMemorySpanExporter,
    MetricsRegistry,
    Tracer,
    set_registry,
    set_tracer,
)
from repro.platform import Platform
from repro.resolvers import base
from repro.store import QuadStore
from repro.workloads import (
    GOLD_CORPUS,
    WorkloadConfig,
    generate_workload,
    populate_platform,
)

#: The (users, contents) of the four end-to-end workloads' base corpora
#: (album-read, upload-fresh, mixed, store-durable), all at seed 7.
E2E_CORPORA = ((20, 600), (10, 150), (10, 100), (10, 400))

FIELDS = (
    "language", "np_lemmas", "frequency_words", "words", "outcomes",
    "annotations",
)


@pytest.fixture(scope="module")
def corpus():
    return build_lod_corpus()


@pytest.fixture(scope="module")
def broker(corpus):
    return build_default_annotator(corpus).broker


@contextmanager
def uncached():
    """Every memo computes on every call while this is open."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(base, "TERM_MEMO_LIMIT", 0)
        yield


def fields(result):
    return {name: getattr(result, name) for name in FIELDS}


def e2e_inputs():
    inputs = []
    for users, contents in E2E_CORPORA:
        workload = generate_workload(WorkloadConfig(
            n_users=users, n_contents=contents, seed=7,
        ))
        inputs.extend(
            (capture.title, tuple(capture.tags), None)
            for capture in workload.captures
        )
    inputs.extend(
        (example.title, tuple(example.tags), language)
        for example in GOLD_CORPUS
        for language in (None, example.language)
    )
    return inputs


def test_every_corpus_title_twice_equals_an_uncached_annotator(corpus):
    inputs = e2e_inputs()
    reference = build_default_annotator(corpus)
    with uncached():
        expected = {
            args: fields(reference.annotate(*args))
            for args in dict.fromkeys(inputs)
        }
    assert len(reference._texts) == 0
    memoised = build_default_annotator(corpus)
    for _ in range(2):
        for args in inputs:
            assert fields(memoised.annotate(*args)) == expected[args], args
    # inputs repeat a lot: the memo holds each distinct one once
    assert len(memoised._texts) == len(
        {(title, language) for title, _, language in inputs}
    ) < len(inputs)


WORDS = sorted({
    word
    for example in GOLD_CORPUS
    for word in example.title.split() + list(example.tags)
})


@settings(max_examples=60, deadline=None)
@given(
    inputs=st.lists(
        st.tuples(
            st.lists(st.sampled_from(WORDS), min_size=0, max_size=6)
            .map(" ".join),
            st.lists(st.sampled_from(WORDS), max_size=3).map(tuple),
            st.sampled_from([None, "it", "en", "fr", "de", "es"]),
        ),
        min_size=1, max_size=8,
    ),
)
def test_drawn_titles_tags_and_languages(corpus, broker, inputs):
    # fresh annotators over shared resolvers: the resolvers' own memos
    # are held exact in tests/resolvers, and building them per drawn
    # example would cost the whole test budget
    memoised = SemanticAnnotator(broker, SemanticFilter(corpus))
    reference = SemanticAnnotator(broker, SemanticFilter(corpus))
    for args in inputs + inputs:
        got = fields(memoised.annotate(*args))
        with uncached():
            assert got == fields(reference.annotate(*args)), args


def test_a_callers_edits_do_not_reach_the_next_call(corpus):
    annotator = build_default_annotator(corpus)
    title, tags = "Tramonto sulla Mole Antonelliana a Torino", ["tramonto"]
    with uncached():
        expected = fields(build_default_annotator(corpus).annotate(
            title, tags))
    first = annotator.annotate(title, tags)
    first.np_lemmas.append("spoiled")
    first.frequency_words.clear()
    first.words.reverse()
    for outcome in first.outcomes.values():
        outcome.survivors.clear()
        outcome.discarded.append(("spoiled", "spoiled"))
    first.annotations.clear()
    second = annotator.annotate(title, tags)
    assert fields(second) == expected
    assert all(
        second.outcomes[word] is not outcome
        and second.outcomes[word].survivors is not outcome.survivors
        and second.outcomes[word].discarded is not outcome.discarded
        for word, outcome in first.outcomes.items()
    )


class TestLimit:
    TITLES = (
        "Tramonto sulla Mole Antonelliana",
        "a sunny afternoon in Turin",
        "Il Colosseo di notte",
    )

    @staticmethod
    def _counting(monkeypatch):
        counts = {"text": 0, "filter": 0}
        text_stage = SemanticAnnotator._text_stage
        apply_rules = SemanticFilter._apply_rules

        def counting_text(self, *args):
            counts["text"] += 1
            return text_stage(self, *args)

        def counting_rules(self, *args):
            counts["filter"] += 1
            return apply_rules(self, *args)

        monkeypatch.setattr(SemanticAnnotator, "_text_stage", counting_text)
        monkeypatch.setattr(SemanticFilter, "_apply_rules", counting_rules)
        return counts

    def test_within_the_limit_each_input_is_computed_once(
        self, corpus, monkeypatch
    ):
        counts = self._counting(monkeypatch)
        annotator = build_default_annotator(corpus)
        for title in self.TITLES:
            annotator.annotate(title)
        once = dict(counts)
        for _ in range(2):
            for title in self.TITLES:
                annotator.annotate(title)
        assert counts == once
        assert once["text"] == len(self.TITLES)
        assert once["filter"] == len(annotator.filter._outcomes) > 0

    def test_past_the_limit_the_stage_is_computed_every_call(
        self, corpus, monkeypatch
    ):
        counts = self._counting(monkeypatch)
        monkeypatch.setattr(base, "TERM_MEMO_LIMIT", 0)
        annotator = build_default_annotator(corpus)
        words = 0
        for _ in range(3):
            for title in self.TITLES:
                words += len(annotator.annotate(title).outcomes)
        assert counts["text"] == 3 * len(self.TITLES)
        assert counts["filter"] == words
        assert len(annotator._texts) == len(annotator.filter._outcomes) == 0

    def test_a_full_memo_keeps_answering(self, corpus, monkeypatch):
        counts = self._counting(monkeypatch)
        monkeypatch.setattr(base, "TERM_MEMO_LIMIT", 1)
        annotator = build_default_annotator(corpus)
        first = [fields(annotator.annotate(t)) for t in self.TITLES]
        again = [fields(annotator.annotate(t)) for t in self.TITLES]
        assert first == again
        assert len(annotator._texts) == 1
        # the first title is kept, the others computed on both passes
        assert counts["text"] == 2 * len(self.TITLES) - 1


def test_parallel_batch_under_the_sanitizer_equals_serial(lock_sanitizer):
    workload = generate_workload(WorkloadConfig(
        n_users=5, n_contents=60, cities=("Turin",), seed=11,
    ))
    titles = [capture.title for capture in workload.captures]
    assert len(set(titles)) < len(titles)  # workers meet on one title

    def run(workers):
        platform = Platform()
        populate_platform(platform, workload)
        annotate = platform.annotator.annotate
        results = {}

        def recording(title, tags=(), language=None):
            result = annotate(title, tags, language)
            results.setdefault((title, tuple(tags)), []).append(
                fields(result))
            return result

        platform.annotator.annotate = recording
        store = QuadStore()
        stats = BatchAnnotator(
            platform, store, batch_size=10, workers=workers
        ).run()
        return stats.summary(), store.to_nquads(), results

    serial, parallel = run(1), run(4)
    assert serial[0] == parallel[0]
    assert serial[1] == parallel[1]
    assert serial[2] == parallel[2]


class TestMemoUnderThreads:
    """Workers that miss on one key at once compute it once; a raising
    computation leaves the key to the next caller."""

    @staticmethod
    def _run(workers, work):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(n,))
                for n in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    def test_overlapping_misses_compute_once(self):
        memo, computed, answers = base.Memo(), [], []
        started = threading.Event()

        def compute(key):
            computed.append(key)
            started.set()
            time.sleep(0.05)  # every other worker arrives meanwhile
            return (key, len(computed))

        def work(n):
            if n:
                started.wait(timeout=30)
            answers.append(memo.get(compute, "title"))

        self._run(8, work)
        assert computed == ["title"]
        assert answers == [("title", 1)] * 8

    def test_a_raising_computation_is_retried_by_a_waiter(self):
        memo, calls, outcomes = base.Memo(), [], []
        started = threading.Event()

        def compute(key):
            calls.append(key)
            if len(calls) == 1:
                started.set()
                time.sleep(0.05)
                raise RuntimeError("first caller fails")
            return key.upper()

        def work(n):
            if n:
                started.wait(timeout=30)
            try:
                outcomes.append(memo.get(compute, "word"))
            except RuntimeError as exc:
                outcomes.append(str(exc))

        self._run(6, work)
        assert sorted(outcomes) == ["WORD"] * 5 + ["first caller fails"]
        assert calls == ["word", "word"]
        assert len(memo) == 1


def test_a_memo_hit_opens_no_stage_span_and_every_call_is_counted(corpus):
    buffer = InMemorySpanExporter(capacity=4096)
    registry = MetricsRegistry()
    previous = set_tracer(Tracer(enabled=True, exporters=[buffer]))
    previous_registry = set_registry(registry)
    try:
        annotator = build_default_annotator(corpus)
        title = "Tramonto sulla Mole Antonelliana"
        words = [len(annotator.annotate(title).outcomes) for _ in range(2)]
    finally:
        set_tracer(previous)
        set_registry(previous_registry)
    names = [span.name for span in buffer.spans()]
    for stage in ("langdetect", "morpho", "termfreq"):
        assert names.count(f"annotate.{stage}") == 1
    for name in ("annotate", "annotate.broker", "annotate.filter"):
        assert names.count(name) == 2
    assert "broker.resolve" not in names
    samples = {
        labels["stage"]: child.count
        for labels, child in registry.get(STAGE_HISTOGRAM).children()
    }
    assert samples == {
        "langdetect": 1, "morpho": 1, "termfreq": 1, "broker": 2,
        "filter": 2,
    }
    verdicts = registry.get("repro_filter_outcomes_total").children()
    assert sum(child.value for _, child in verdicts) == sum(words)
