"""Core transcript data model: turns, calls, hold intervals, fold plans.

Timestamps are integer milliseconds throughout; labels are the ints
0 (irrelevant), 1 (opening script), 2 (closing script).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from ..errors import ClassTooSmall, DuplicateTurnIndex, NonMonotonicTimestamps

IRRELEVANT = 0
OPENING = 1
CLOSING = 2
LABELS = (IRRELEVANT, OPENING, CLOSING)

CHANNELS = ("agent", "client", "unknown")

TurnKey = tuple[str, int]  # (call_id, turn_index)


@dataclass(frozen=True)
class PhraseTurn:
    """One ASR row: a continuous-speech interval inside a call."""

    call_id: str
    turn_index: int
    channel: str
    start_ms: int
    end_ms: int
    text: str
    label: Optional[int] = None

    def __post_init__(self):
        if self.turn_index < 0:
            raise ValueError(f"turn_index must be >= 0, got {self.turn_index}")
        if self.start_ms < 0:
            raise ValueError(f"start_ms must be >= 0, got {self.start_ms}")
        if self.end_ms < self.start_ms:
            raise ValueError(f"end_ms {self.end_ms} < start_ms {self.start_ms}")
        if self.channel not in CHANNELS:
            raise ValueError(f"channel must be one of {CHANNELS}, got {self.channel!r}")
        if self.label is not None and self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS} or None, got {self.label!r}")

    @property
    def key(self) -> TurnKey:
        return (self.call_id, self.turn_index)


def turn_order_error(
    prev: PhraseTurn, turn: PhraseTurn
) -> DuplicateTurnIndex | NonMonotonicTimestamps | None:
    """The error of turn following prev in turn_index order, or None when the pair is in order."""
    if turn.turn_index == prev.turn_index:
        return DuplicateTurnIndex(turn.call_id, turn.turn_index)
    if turn.start_ms < prev.start_ms:
        return NonMonotonicTimestamps(turn.call_id)
    return None


@dataclass(frozen=True)
class HoldInterval:
    """A hold registered in the telephony system, [hold_start_ms, hold_end_ms)."""

    hold_start_ms: int
    hold_end_ms: int

    def __post_init__(self):
        if self.hold_end_ms <= self.hold_start_ms:
            raise ValueError(
                f"hold_end_ms {self.hold_end_ms} must exceed hold_start_ms {self.hold_start_ms}"
            )


@dataclass
class Call:
    """All turns of one call, ordered by turn_index, plus registered holds.

    Invariants checked at construction: every turn carries this call_id,
    turn_index values are unique (else DuplicateTurnIndex) and sorted,
    start_ms never decreases along the turn order (else
    NonMonotonicTimestamps), and holds are sorted and pairwise
    non-overlapping. The other violations raise ValueError.
    """

    call_id: str
    turns: tuple[PhraseTurn, ...]
    holds: tuple[HoldInterval, ...] = ()
    _turn_by_index: dict[int, PhraseTurn] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        self.turns = tuple(self.turns)
        self.holds = tuple(self.holds)
        prev = None
        for turn in self.turns:
            if turn.call_id != self.call_id:
                raise ValueError(
                    f"turn {turn.turn_index} has call_id {turn.call_id!r}, expected {self.call_id!r}"
                )
            if prev is not None:
                if turn.turn_index < prev.turn_index:
                    raise ValueError(
                        f"call {self.call_id!r}: turn_index {turn.turn_index} out of order"
                    )
                error = turn_order_error(prev, turn)
                if error is not None:
                    raise error
            prev = turn
            self._turn_by_index[turn.turn_index] = turn
        prev_end = None
        for hold in self.holds:
            if prev_end is not None and hold.hold_start_ms < prev_end:
                raise ValueError(f"call {self.call_id!r}: holds overlap or are unsorted")
            prev_end = hold.hold_end_ms

    def turn(self, turn_index: int) -> PhraseTurn:
        return self._turn_by_index[turn_index]


@dataclass
class Corpus:
    """An immutable collection of calls, either ingested from files or synthesized."""

    calls: tuple[Call, ...]
    provenance: str = "ingested"  # "ingested" | "synthetic"
    seed: Optional[int] = None
    _call_by_id: dict[str, Call] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        self.calls = tuple(self.calls)
        if self.provenance not in ("ingested", "synthetic"):
            raise ValueError(f"provenance must be 'ingested' or 'synthetic', got {self.provenance!r}")
        for call in self.calls:
            if call.call_id in self._call_by_id:
                raise ValueError(f"duplicate call_id {call.call_id!r}")
            self._call_by_id[call.call_id] = call

    def call(self, call_id: str) -> Call:
        return self._call_by_id[call_id]

    def has_call(self, call_id: str) -> bool:
        return call_id in self._call_by_id

    def iter_turns(self) -> Iterator[PhraseTurn]:
        for call in self.calls:
            yield from call.turns

    def turn(self, key: TurnKey) -> PhraseTurn:
        return self._call_by_id[key[0]].turn(key[1])

    def n_turns(self) -> int:
        return sum(len(c.turns) for c in self.calls)

    def label_counts(self) -> dict[int, int]:
        counts = {label: 0 for label in LABELS}
        for turn in self.iter_turns():
            if turn.label is not None:
                counts[turn.label] += 1
        return counts

    def labeled_keys(self) -> list[TurnKey]:
        """Keys of all labeled turns, sorted by (call_id, turn_index)."""
        return sorted(t.key for t in self.iter_turns() if t.label is not None)


@dataclass
class FoldPlan:
    """Assignment of labeled turns to k folds, with one fold reserved for testing."""

    k: int
    assignment: Mapping[TurnKey, int]
    test_fold: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 <= self.test_fold < self.k:
            raise ValueError(f"test_fold {self.test_fold} outside [0, {self.k})")
        bad = [f for f in self.assignment.values() if not 0 <= f < self.k]
        if bad:
            raise ValueError(f"fold index {bad[0]} outside [0, {self.k})")
        # Checked before anything allocates per fold, so a huge k fails fast.
        if len(self.assignment) < self.k:
            raise ValueError(
                f"{len(self.assignment)} assigned turns leave one of {self.k} folds empty"
            )

    def keys_by_fold(self) -> list[list[TurnKey]]:
        folds: list[list[TurnKey]] = [[] for _ in range(self.k)]
        for key in sorted(self.assignment):
            folds[self.assignment[key]].append(key)
        return folds

    def validate_against(self, corpus: Corpus) -> None:
        """Check the fold-plan invariants for the given corpus.

        Every labeled turn must be assigned exactly once, every fold must be
        non-empty, and every class present in the corpus must appear in every
        fold. Raises ValueError or ClassTooSmall on violation.
        """
        labeled = set(corpus.labeled_keys())
        assigned = set(self.assignment)
        if labeled != assigned:
            missing = labeled - assigned
            extra = assigned - labeled
            raise ValueError(
                f"assignment mismatch: {len(missing)} labeled turns unassigned, "
                f"{len(extra)} assignments without a labeled turn"
            )
        present = {label for label, n in corpus.label_counts().items() if n > 0}
        per_fold: list[dict[int, int]] = [dict() for _ in range(self.k)]
        for key, fold in self.assignment.items():
            label = corpus.turn(key).label
            per_fold[fold][label] = per_fold[fold].get(label, 0) + 1
        for fold, counts in enumerate(per_fold):
            if not counts:
                raise ValueError(f"fold {fold} is empty")
            for label in present:
                if counts.get(label, 0) == 0:
                    total = corpus.label_counts()[label]
                    raise ClassTooSmall(label, total, self.k)
