"""The paper's primary contribution: automatic semantic annotation,
location analysis, semantic virtual albums and the LOD mashup."""

from .batch import BatchAnnotator, BatchStats, Checkpoint
from .disambiguation import (
    Choice,
    DisambiguationPrompt,
    UserAssistedDisambiguator,
)
from .annotator import (
    Annotation,
    AnnotationResult,
    SemanticAnnotator,
    build_default_annotator,
)
from .albums import VirtualAlbum, geo_album, rated_album, social_album
from .filtering import (
    DEFAULT_JW_THRESHOLD,
    DEFAULT_PRIORITY,
    FilterOutcome,
    Reason,
    SemanticFilter,
)
from .location import (
    COMMERCIAL_CATEGORIES,
    LocationAnalysis,
    LocationAnalyzer,
)
from .mashup import (
    MashupSection,
    MashupView,
    mashup_query,
    run_mashup,
)

__all__ = [
    "Annotation",
    "BatchAnnotator",
    "BatchStats",
    "Checkpoint",
    "Choice",
    "DisambiguationPrompt",
    "UserAssistedDisambiguator",
    "AnnotationResult",
    "COMMERCIAL_CATEGORIES",
    "DEFAULT_JW_THRESHOLD",
    "DEFAULT_PRIORITY",
    "FilterOutcome",
    "LocationAnalysis",
    "LocationAnalyzer",
    "MashupSection",
    "MashupView",
    "Reason",
    "SemanticAnnotator",
    "SemanticFilter",
    "VirtualAlbum",
    "build_default_annotator",
    "geo_album",
    "mashup_query",
    "rated_album",
    "run_mashup",
    "social_album",
]
