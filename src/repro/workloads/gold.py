"""Gold-standard annotation corpus.

Hand-labeled (title, tags) pairs with the LOD resource each noteworthy
word *should* resolve to (or ``None`` when auto-annotation should
abstain). Used by the FIG1 pipeline benchmark, the RET retrieval
effectiveness experiment and the ABL-* ablations.

The corpus deliberately includes the failure modes §2.2.2 worries about:
redirects ("Coliseum"), ambiguity ("Paris" the city vs. the myth),
sentence-initial common words ("Sunset ..."), multiwords split across
tokens, and plain noise words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..rdf.namespace import DBPR
from ..rdf.terms import URIRef
from ..lod.geonames import geonames_uri

GN_TURIN = geonames_uri(3165524)
GN_ROME = geonames_uri(3169070)
GN_PARIS = geonames_uri(2988507)
GN_MILAN = geonames_uri(3173435)
GN_BARCELONA = geonames_uri(3128760)
GN_BERLIN = geonames_uri(2950159)
GN_FLORENCE = geonames_uri(3176959)


@dataclass(frozen=True)
class GoldExample:
    """One labeled example.

    ``expected`` maps a word (as the pipeline will produce it) to the
    resource it should be annotated with; map to ``None`` for words the
    pipeline is expected to consider and *abstain* on. Words absent from
    ``expected`` are unconstrained.
    """

    title: str
    tags: Tuple[str, ...] = ()
    language: Optional[str] = None  # expected detection, None = don't care
    expected: Dict[str, Optional[URIRef]] = field(default_factory=dict)


GOLD_CORPUS: List[GoldExample] = [
    # --- straightforward city/monument hits (5 languages) --------------
    GoldExample(
        "a sunny afternoon in Turin", language="en",
        expected={"Turin": GN_TURIN},
    ),
    GoldExample(
        "Tramonto sulla Mole Antonelliana", language="it",
        expected={"Mole Antonelliana": DBPR.Mole_Antonelliana},
    ),
    GoldExample(
        "passeggiata per Torino con gli amici", language="it",
        expected={"Torino": GN_TURIN},
    ),
    GoldExample(
        "une belle vue de la Tour Eiffel aujourd'hui", language="fr",
        expected={"Tour Eiffel": DBPR.Eiffel_Tower},
    ),
    GoldExample(
        "mi viaje a Barcelona, visita a la Sagrada Familia",
        language="es",
        expected={
            "Barcelona": GN_BARCELONA,
            "Sagrada Familia": DBPR.Sagrada_Familia,
        },
    ),
    GoldExample(
        "Spaziergang durch Berlin mit Freunden", language="de",
        expected={"Berlin": GN_BERLIN},
    ),
    GoldExample(
        "visiting the Brandenburg Gate in Berlin", language="en",
        expected={
            "Brandenburg Gate": DBPR.Brandenburg_Gate,
            "Berlin": GN_BERLIN,
        },
    ),
    GoldExample(
        "il mio viaggio a Milano", language="it",
        expected={"Milano": GN_MILAN},
    ),
    GoldExample(
        "lunch near the Pantheon in Rome", language="en",
        expected={"Rome": GN_ROME},
    ),
    GoldExample(
        "gli Uffizi e il Ponte Vecchio a Firenze", language="it",
        expected={
            "Firenze": GN_FLORENCE,
            "Ponte Vecchio": DBPR.Ponte_Vecchio,
        },
    ),
    # --- redirects ------------------------------------------------------
    GoldExample(
        "a view from inside", tags=("Coliseum",), language="en",
        expected={"Coliseum": DBPR.Colosseum},
    ),
    GoldExample(
        "amazing day at the Roman Colosseum", language="en",
        expected={"Roman Colosseum": DBPR.Colosseum},
    ),
    # --- multiwords split by lowercase titles (full-text rescue) --------
    GoldExample(
        "by the eiffel tower at dusk", language="en",
        expected={"Eiffel Tower": DBPR.Eiffel_Tower},
    ),
    GoldExample(
        "una foto della mole antonelliana stasera", language="it",
        expected={"Mole Antonelliana": DBPR.Mole_Antonelliana},
    ),
    # --- places where Geonames must win the priority ---------------------
    GoldExample(
        "Paris in the spring", language="en",
        expected={"Paris": GN_PARIS},
    ),
    GoldExample(
        # language=None: "weekend" is an English loanword and the title
        # has 3 tokens — detection is legitimately ambiguous here
        "weekend a Parigi", language=None,
        expected={"Parigi": GN_PARIS},
    ),
    # --- abstention cases -------------------------------------------------
    GoldExample(
        # "Sunset" is a capitalized sentence-initial common word: the NP
        # score (0.15) falls below the 0.2 threshold, and the frequency
        # fallback word has no LOD match — no annotation.
        "Sunset over the river", language="en",
        expected={"Sunset": None},
    ),
    GoldExample(
        "random zz jibberishword here", language="en",
        expected={"jibberishword": None},
    ),
    GoldExample(
        # "Leonardo" alone is a person in DBpedia but the pipeline should
        # still annotate only when a single candidate survives
        "thinking about the difference", language="en",
        expected={"difference": None},
    ),
    # --- people -----------------------------------------------------------
    GoldExample(
        "reading about Giuseppe Verdi tonight", language="en",
        expected={"Giuseppe Verdi": DBPR.Giuseppe_Verdi},
    ),
    GoldExample(
        "la Mole di Alessandro Antonelli", language="it",
        expected={"Alessandro Antonelli": DBPR.Alessandro_Antonelli},
    ),
    # --- mixed -----------------------------------------------------------
    GoldExample(
        "Turin and Rome in one day", language="en",
        expected={"Turin": GN_TURIN, "Rome": GN_ROME},
    ),
    GoldExample(
        "una luce stupenda su Palazzo Madama stasera", language="it",
        expected={"Palazzo Madama": DBPR.Palazzo_Madama},
    ),
    GoldExample(
        "Museo Egizio con la famiglia", language="it",
        expected={"Museo Egizio": DBPR.Museo_Egizio},
    ),
    GoldExample(
        "Juventus Stadium before the match", language="en",
        expected={"Juventus Stadium": DBPR.Juventus_Stadium},
    ),
    GoldExample(
        "Park Güell in the morning", language="en",
        expected={"Park Güell": DBPR.Park_Guell},
    ),
    GoldExample(
        "coucher de soleil sur Notre-Dame de Paris", language="fr",
        expected={},
    ),
    GoldExample(
        "Trevi Fountain with friends", language="en",
        expected={"Trevi Fountain": DBPR.Trevi_Fountain},
    ),
    GoldExample(
        "la Fontana di Trevi di notte", language="it",
        expected={"Fontana di Trevi": DBPR.Trevi_Fountain},
    ),
    GoldExample(
        # "Piazza San Carlo" is absent from the synthetic DBpedia, so the
        # correct behaviour is to abstain. The pipeline actually produces
        # a false positive here (Evri proposes the similarly-named Piazza
        # Castello and it survives the 0.8 Jaro-Winkler cut) — kept in
        # the corpus deliberately: the paper itself admits "empirical
        # tests proof that such technique must be further improved as it
        # still provides false positives" (§2.2.2).
        "Piazza San Carlo sotto la neve", language="it",
        expected={"Piazza San Carlo": None},
    ),
]


@dataclass
class ScoredCorpus:
    """Precision/recall of a pipeline run against the gold corpus."""

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    abstain_correct: int = 0
    abstain_expected: int = 0
    language_correct: int = 0
    language_total: int = 0

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def language_accuracy(self) -> float:
        if not self.language_total:
            return 1.0
        return self.language_correct / self.language_total


def score_pipeline(annotator, corpus=None) -> ScoredCorpus:
    """Run ``annotator`` over the gold corpus and score it.

    A gold word scores a true positive when the pipeline annotated it
    (or an equivalent full-text surface form) with the expected resource;
    a false positive when it annotated it with something else; a false
    negative when it abstained despite an expected resource. ``None``
    expectations score ``abstain_correct`` when the pipeline indeed did
    not annotate the word.
    """
    examples = corpus if corpus is not None else GOLD_CORPUS
    score = ScoredCorpus()
    for example in examples:
        result = annotator.annotate(example.title, example.tags)
        if example.language is not None:
            score.language_total += 1
            if result.language == example.language:
                score.language_correct += 1
        produced = {
            a.word.lower(): a.resource for a in result.annotations
        }
        for word, expected in example.expected.items():
            actual = produced.get(word.lower())
            if expected is None:
                score.abstain_expected += 1
                if actual is None:
                    score.abstain_correct += 1
                else:
                    score.false_positives += 1
            elif actual is None:
                score.false_negatives += 1
            elif actual == expected:
                score.true_positives += 1
            else:
                score.false_positives += 1
    return score
