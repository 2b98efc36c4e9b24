"""WordNet-style sense inventory with concreteness (paper future work).

§2.2.2: "nouns or verbs can be useful to describe a peculiar
characteristic of the content [...] although a further pruning would be
required to restrict to concrete concepts only, further discarding
abstract statements (e.g. 'difference', 'joyness', etc). [...] we intend
to use the WordNet sense annotation capability of FreeLing for this
purpose in the future."

This module implements that future work: a compact noun sense inventory
per language, each lemma mapped to a primary sense with a lexicographer
file (``noun.artifact``, ``noun.location``, ``noun.cognition``...) and a
concreteness flag derived from it. The annotator can then prune abstract
nouns from the term-frequency fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: WordNet lexicographer files that denote concrete senses.
CONCRETE_LEXFILES = frozenset(
    {
        "noun.artifact", "noun.location", "noun.object", "noun.animal",
        "noun.body", "noun.food", "noun.person", "noun.plant",
        "noun.substance",
    }
)

ABSTRACT_LEXFILES = frozenset(
    {
        "noun.cognition", "noun.feeling", "noun.attribute", "noun.state",
        "noun.time", "noun.communication", "noun.act", "noun.event",
        "noun.relation", "noun.quantity",
    }
)


@dataclass(frozen=True)
class Sense:
    """A lemma's primary sense."""

    lemma: str
    lexfile: str

    @property
    def is_concrete(self) -> bool:
        return self.lexfile in CONCRETE_LEXFILES


#: lemma → lexicographer file, per language. The inventory covers the
#: eTourism register the workloads use plus the paper's own abstract
#: examples.
_SENSES: Dict[str, Dict[str, str]] = {
    "en": {
        # concrete
        "tower": "noun.artifact", "bridge": "noun.artifact",
        "church": "noun.artifact", "castle": "noun.artifact",
        "palace": "noun.artifact", "museum": "noun.artifact",
        "monument": "noun.artifact", "fountain": "noun.artifact",
        "square": "noun.location", "street": "noun.location",
        "city": "noun.location", "town": "noun.location",
        "park": "noun.location", "mountain": "noun.object",
        "lake": "noun.object", "river": "noun.object",
        "beach": "noun.object", "sea": "noun.object",
        "food": "noun.food", "wine": "noun.food", "coffee": "noun.food",
        "dinner": "noun.food", "lunch": "noun.food",
        "friend": "noun.person", "family": "noun.person",
        "tourist": "noun.person", "picture": "noun.artifact",
        "photo": "noun.artifact", "train": "noun.artifact",
        "station": "noun.artifact", "market": "noun.location",
        "garden": "noun.location", "stadium": "noun.artifact",
        # abstract — including the paper's own examples
        "difference": "noun.attribute", "joyness": "noun.feeling",
        "joy": "noun.feeling", "happiness": "noun.feeling",
        "love": "noun.feeling", "time": "noun.time",
        "night": "noun.time", "day": "noun.time",
        "morning": "noun.time", "evening": "noun.time",
        "sunset": "noun.event", "sunrise": "noun.event",
        "trip": "noun.act", "walk": "noun.act", "visit": "noun.act",
        "holiday": "noun.time", "weekend": "noun.time",
        "view": "noun.cognition", "idea": "noun.cognition",
        "memory": "noun.cognition", "freedom": "noun.state",
        "silence": "noun.state", "beauty": "noun.attribute",
    },
    "it": {
        "torre": "noun.artifact", "ponte": "noun.artifact",
        "chiesa": "noun.artifact", "castello": "noun.artifact",
        "palazzo": "noun.artifact", "museo": "noun.artifact",
        "monumento": "noun.artifact", "fontana": "noun.artifact",
        "piazza": "noun.location", "via": "noun.location",
        "città": "noun.location", "parco": "noun.location",
        "montagna": "noun.object", "lago": "noun.object",
        "fiume": "noun.object", "mare": "noun.object",
        "cibo": "noun.food", "vino": "noun.food", "caffè": "noun.food",
        "cena": "noun.food", "pranzo": "noun.food",
        "amico": "noun.person", "famiglia": "noun.person",
        "foto": "noun.artifact", "fotografia": "noun.artifact",
        "treno": "noun.artifact", "stazione": "noun.artifact",
        "mercato": "noun.location", "giardino": "noun.location",
        # abstract
        "differenza": "noun.attribute", "gioia": "noun.feeling",
        "felicità": "noun.feeling", "amore": "noun.feeling",
        "tempo": "noun.time", "notte": "noun.time",
        "giorno": "noun.time", "mattina": "noun.time",
        "sera": "noun.time", "tramonto": "noun.event",
        "alba": "noun.event", "viaggio": "noun.act",
        "passeggiata": "noun.act", "visita": "noun.act",
        "vacanza": "noun.time", "vista": "noun.cognition",
        "ricordo": "noun.cognition", "libertà": "noun.state",
        "silenzio": "noun.state", "bellezza": "noun.attribute",
    },
    "fr": {
        "tour": "noun.artifact", "pont": "noun.artifact",
        "église": "noun.artifact", "château": "noun.artifact",
        "palais": "noun.artifact", "musée": "noun.artifact",
        "place": "noun.location", "rue": "noun.location",
        "ville": "noun.location", "parc": "noun.location",
        "montagne": "noun.object", "lac": "noun.object",
        "photo": "noun.artifact",
        "différence": "noun.attribute", "joie": "noun.feeling",
        "amour": "noun.feeling", "nuit": "noun.time",
        "voyage": "noun.act", "promenade": "noun.act",
        "vue": "noun.cognition",
    },
    "es": {
        "torre": "noun.artifact", "puente": "noun.artifact",
        "iglesia": "noun.artifact", "castillo": "noun.artifact",
        "palacio": "noun.artifact", "museo": "noun.artifact",
        "plaza": "noun.location", "calle": "noun.location",
        "ciudad": "noun.location", "parque": "noun.location",
        "montaña": "noun.object", "lago": "noun.object",
        "foto": "noun.artifact",
        "diferencia": "noun.attribute", "alegría": "noun.feeling",
        "amor": "noun.feeling", "noche": "noun.time",
        "viaje": "noun.act", "paseo": "noun.act",
        "vista": "noun.cognition", "atardecer": "noun.event",
    },
    "de": {
        "turm": "noun.artifact", "brücke": "noun.artifact",
        "kirche": "noun.artifact", "schloss": "noun.artifact",
        "palast": "noun.artifact", "museum": "noun.artifact",
        "platz": "noun.location", "straße": "noun.location",
        "stadt": "noun.location", "park": "noun.location",
        "berg": "noun.object", "see": "noun.object",
        "foto": "noun.artifact", "bild": "noun.artifact",
        "unterschied": "noun.attribute", "freude": "noun.feeling",
        "liebe": "noun.feeling", "nacht": "noun.time",
        "reise": "noun.act", "spaziergang": "noun.act",
        "aussicht": "noun.cognition",
    },
}


def sense_of(lemma: str, language: str = "en") -> Optional[Sense]:
    """The primary sense of ``lemma`` in ``language`` (None = unknown)."""
    lexfile = _SENSES.get(language, {}).get(lemma.lower())
    if lexfile is None:
        return None
    return Sense(lemma.lower(), lexfile)


def is_concrete_noun(lemma: str, language: str = "en") -> Optional[bool]:
    """True/False for known nouns, None when the lemma is not in the
    inventory (callers decide how to treat unknowns)."""
    sense = sense_of(lemma, language)
    if sense is None:
        return None
    return sense.is_concrete


def prune_abstract(words, language: str = "en"):
    """Filter a word list down to concrete (or unknown) nouns — the
    pruning step the paper sketches for the tf fallback."""
    return [
        word for word in words
        if is_concrete_noun(word, language) is not False
    ]
