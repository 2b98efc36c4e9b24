"""The automatic semantic annotation pipeline — Figure 1 of the paper.

Stages, in order:

1. **Text processing** — identify the title language (Cavnar–Trenkle
   n-grams), run morphological analysis configured with that language,
   keep non-numeric NP lemmas with score ≥ 0.2, add term-frequency
   relevant words, merge with the user's plain tags into "a well-defined
   list of unique (multi)words".
2. **Semantic brokering** — fan the word list out to the term resolvers
   and the whole title to the full-text resolvers.
3. **Semantic filtering** — graph priority, validation, Jaro-Winkler
   cutoff, single-candidate rule (:mod:`repro.core.filtering`).
4. **Annotation** — one LOD resource per word that survived
   unambiguously.

Every stage's intermediate output is kept on the result object so the
examples and the FIG1 benchmark can display the pipeline exactly as the
paper's figure does.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..nlp.langdetect import LanguageDetector, default_detector
from ..nlp.morpho import MorphologicalAnalyzer
from ..nlp.termfreq import relevant_words
from ..obs import get_registry, get_tracer
from ..resolvers.base import Candidate, Memo
from ..resolvers.broker import BrokerResult, SemanticBroker
from .filtering import FilterOutcome, SemanticFilter

#: One histogram family shared by every annotator instance; the
#: ``stage`` label carries the Figure 1 stage name.
STAGE_HISTOGRAM = "repro_annotation_stage_seconds"
STAGE_HISTOGRAM_HELP = (
    "Latency of each Figure 1 annotation pipeline stage."
)


@contextmanager
def _stage(tracer, histogram, stage: str):
    """Bracket one pipeline stage: span + stage-latency observation."""
    begin = time.perf_counter()
    with tracer.span(f"annotate.{stage}") as span:
        yield span
    histogram.labels(stage=stage).observe(time.perf_counter() - begin)


class _TextStage(NamedTuple):
    """Stage 1's output for one title, shared through the memo."""

    language: str
    np_lemmas: Tuple[str, ...]
    frequency_words: Tuple[str, ...]


@dataclass(frozen=True)
class Annotation:
    """A produced annotation: the word and its unique LOD resource."""

    word: str
    resource: object  # URIRef
    label: str
    graph: str
    score: float


@dataclass
class AnnotationResult:
    """Everything the pipeline computed for one (title, tags) input."""

    title: str
    plain_tags: List[str]
    language: str
    np_lemmas: List[str] = field(default_factory=list)
    frequency_words: List[str] = field(default_factory=list)
    words: List[str] = field(default_factory=list)
    broker_result: Optional[BrokerResult] = None
    outcomes: Dict[str, FilterOutcome] = field(default_factory=dict)
    annotations: List[Annotation] = field(default_factory=list)

    @property
    def annotated_words(self) -> List[str]:
        return [a.word for a in self.annotations]

    def outcome_for(self, word: str) -> Optional[FilterOutcome]:
        return self.outcomes.get(word)


class SemanticAnnotator:
    """The paper's annotation pipeline, fully configurable.

    ``np_min_score`` is the 0.2 NP-score threshold, ``term_freq_top_k``
    the number of extra frequency-based words (0 disables the fallback),
    ``use_full_text`` toggles the Evri/Zemanta whole-title pass.
    """

    def __init__(
        self,
        broker: SemanticBroker,
        semantic_filter: SemanticFilter,
        detector: Optional[LanguageDetector] = None,
        np_min_score: float = 0.2,
        term_freq_top_k: int = 2,
        use_full_text: bool = True,
        prune_abstract_nouns: bool = False,
    ) -> None:
        self.broker = broker
        self.filter = semantic_filter
        self.detector = detector or default_detector()
        self.np_min_score = np_min_score
        self.term_freq_top_k = term_freq_top_k
        self.use_full_text = use_full_text
        # the paper's §2.2.2 future work: restrict the tf fallback to
        # concrete concepts via WordNet-style senses
        self.prune_abstract_nouns = prune_abstract_nouns
        self._analyzers: Dict[str, MorphologicalAnalyzer] = {}
        # annotate() is called concurrently by BatchAnnotator workers;
        # the per-language analyzer cache is the only state it shares.
        self._analyzers_lock = threading.Lock()
        # stage 1 by (title, language argument); the annotator's
        # configuration is fixed from here on
        self._texts = Memo()

    def _text_stage(
        self, title: str, language: Optional[str]
    ) -> _TextStage:
        """Stage 1 for one title: language, NP lemmas and term-frequency
        words, each stage bracketed by its span and histogram sample.
        A pure function of its arguments, so :meth:`annotate` asks it
        through the annotator's memo, once per distinct input."""
        tracer = get_tracer()
        histogram = get_registry().histogram(
            STAGE_HISTOGRAM, STAGE_HISTOGRAM_HELP
        )
        with _stage(tracer, histogram, "langdetect"):
            detected = language or self.detector.detect(title)
        with _stage(tracer, histogram, "morpho"):
            analyzer = self._analyzer(detected)
            np_tokens = analyzer.proper_nouns(title, self.np_min_score)
        np_lemmas = tuple(t.lemma for t in np_tokens)
        covered = {lemma.lower() for lemma in np_lemmas}
        for lemma in np_lemmas:
            covered.update(part.lower() for part in lemma.split())
        frequency_words: Sequence[str] = ()
        if self.term_freq_top_k > 0:
            with _stage(tracer, histogram, "termfreq"):
                frequency_words = relevant_words(
                    title,
                    detected,
                    top_k=self.term_freq_top_k,
                    exclude=covered,
                )
                if self.prune_abstract_nouns:
                    from ..nlp.senses import prune_abstract

                    frequency_words = prune_abstract(
                        frequency_words, detected
                    )
        return _TextStage(detected, np_lemmas, tuple(frequency_words))

    def _analyzer(self, language: str) -> MorphologicalAnalyzer:
        with self._analyzers_lock:
            if language not in self._analyzers:
                self._analyzers[language] = MorphologicalAnalyzer(
                    language
                )
            return self._analyzers[language]

    # ------------------------------------------------------------------
    def annotate(
        self,
        title: str,
        tags: Sequence[str] = (),
        language: Optional[str] = None,
    ) -> AnnotationResult:
        """Run the full pipeline for a content's title and plain tags."""
        tracer = get_tracer()
        histogram = get_registry().histogram(
            STAGE_HISTOGRAM, STAGE_HISTOGRAM_HELP
        )
        with tracer.span("annotate") as pipeline_span:
            pipeline_span.set_attribute("title", title)

            # --- stage 1: text processing -----------------------------
            text = self._texts.get(self._text_stage, title, language)
            detected = text.language
            result = AnnotationResult(
                title=title,
                plain_tags=list(tags),
                language=detected,
                np_lemmas=list(text.np_lemmas),
                frequency_words=list(text.frequency_words),
            )

            words: List[str] = []
            seen = set()
            for word in (
                result.np_lemmas + list(tags) + result.frequency_words
            ):
                word = word.strip()
                if word and word.lower() not in seen:
                    seen.add(word.lower())
                    words.append(word)
            result.words = words

            # --- stage 2: semantic brokering ---------------------------
            with _stage(tracer, histogram, "broker") as span:
                broker_result = self.broker.resolve(
                    words,
                    text=title if self.use_full_text else None,
                    language=detected,
                )
                span.set_attribute("failures", len(broker_result.failures))
            result.broker_result = broker_result

            # full-text candidates corroborate existing words or add
            # new ones
            per_word: Dict[str, List[Candidate]] = {
                word: list(candidates)
                for word, candidates in broker_result.per_word.items()
            }
            for candidate in broker_result.full_text:
                target = self._matching_word(candidate, words)
                if target is None:
                    target = candidate.word
                    if target.lower() in {w.lower() for w in per_word}:
                        target = next(
                            w for w in per_word
                            if w.lower() == target.lower()
                        )
                    else:
                        per_word.setdefault(target, [])
                        result.words.append(target)
                bucket = per_word.setdefault(target, [])
                if all(
                    c.resource != candidate.resource for c in bucket
                ):
                    bucket.append(candidate)

            # --- stages 3+4: filtering and annotation ------------------
            with _stage(tracer, histogram, "filter"):
                for word, candidates in per_word.items():
                    outcome = self.filter.filter_word(word, candidates)
                    result.outcomes[word] = outcome
                    if (
                        outcome.annotated
                        and outcome.chosen is not None
                    ):
                        chosen = outcome.chosen
                        result.annotations.append(
                            Annotation(
                                word=word,
                                resource=chosen.resource,
                                label=chosen.label,
                                graph=chosen.graph,
                                score=chosen.score,
                            )
                        )
            pipeline_span.set_attribute("words", len(result.words))
            pipeline_span.set_attribute(
                "annotations", len(result.annotations)
            )
        return result

    @staticmethod
    def _matching_word(
        candidate: Candidate, words: Sequence[str]
    ) -> Optional[str]:
        surface = candidate.word.lower()
        for word in words:
            if word.lower() == surface:
                return word
        return None


def build_default_annotator(
    corpus=None,
    resilient: bool = False,
    resilience: Optional[dict] = None,
    **kwargs,
) -> SemanticAnnotator:
    """The annotator over the synthetic LOD corpus with the paper's
    resolver set and filter defaults.

    With ``resilient=True`` every resolver is wrapped in the
    retry/breaker/cache layer (:mod:`repro.resolvers.resilience`);
    ``resilience`` passes keyword arguments through to
    :func:`~repro.resolvers.resilience.wrap_resilient`.
    """
    from ..lod import build_lod_corpus
    from ..resolvers import default_resolvers

    corpus = corpus or build_lod_corpus()
    resolvers = default_resolvers(corpus)
    if resilient or resilience:
        from ..resolvers.resilience import wrap_resilient

        resolvers = wrap_resilient(resolvers, **(resilience or {}))
    broker = SemanticBroker(resolvers)
    semantic_filter = SemanticFilter(corpus)
    return SemanticAnnotator(broker, semantic_filter, **kwargs)
