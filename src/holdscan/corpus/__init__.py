"""Transcript data model, ingestion, synthetic generation and fold splitting."""

from .model import (
    CHANNELS,
    CLOSING,
    IRRELEVANT,
    LABELS,
    OPENING,
    Call,
    Corpus,
    FoldPlan,
    HoldInterval,
    PhraseTurn,
    TurnKey,
    TurnTable,
)
from .io import (
    attach_holds,
    check_transcripts,
    fold_plan_payload,
    ingest_holds,
    ingest_transcripts,
    load_fold_plan,
    validate_transcripts,
    write_holds,
    write_transcripts,
)
from .split import stratified_split
from .stats import CorpusStats, corpus_stats
from .synthetic import (
    DEFAULT_PROFILE,
    GeneratorProfile,
    generate_synthetic,
    load_profile,
)

__all__ = [
    "CHANNELS",
    "CLOSING",
    "IRRELEVANT",
    "LABELS",
    "OPENING",
    "Call",
    "Corpus",
    "CorpusStats",
    "DEFAULT_PROFILE",
    "FoldPlan",
    "GeneratorProfile",
    "HoldInterval",
    "PhraseTurn",
    "TurnKey",
    "TurnTable",
    "attach_holds",
    "check_transcripts",
    "corpus_stats",
    "fold_plan_payload",
    "generate_synthetic",
    "ingest_holds",
    "ingest_transcripts",
    "load_fold_plan",
    "load_profile",
    "stratified_split",
    "validate_transcripts",
    "write_holds",
    "write_transcripts",
]
