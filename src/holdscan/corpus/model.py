"""Core transcript data model: turns, calls, hold intervals, the turn table, fold plans.

Timestamps are integer milliseconds throughout; labels are the ints
0 (irrelevant), 1 (opening script), 2 (closing script).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from ..errors import ClassTooSmall, DuplicateTurnIndex, NonMonotonicTimestamps, Unlabeled, UnknownCall

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
        check_turn(self.turn_index, self.channel, self.start_ms, self.end_ms, self.label)

    @property
    def key(self) -> TurnKey:
        return (self.call_id, self.turn_index)


def check_turn(turn_index: int, channel: str, start_ms: int, end_ms: int,
               label: Optional[int]) -> None:
    """Raise ValueError unless the fields make a valid turn."""
    if turn_index < 0:
        raise ValueError(f"turn_index must be >= 0, got {turn_index}")
    if start_ms < 0:
        raise ValueError(f"start_ms must be >= 0, got {start_ms}")
    if end_ms < start_ms:
        raise ValueError(f"end_ms {end_ms} < start_ms {start_ms}")
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}, got {channel!r}")
    if label is not None and label not in LABELS:
        raise ValueError(f"label must be one of {LABELS} or None, got {label!r}")


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


def check_holds(call_id: str, holds: Sequence[HoldInterval]) -> None:
    """Raise ValueError unless holds are sorted and pairwise non-overlapping."""
    prev_end = None
    for hold in holds:
        if prev_end is not None and hold.hold_start_ms < prev_end:
            raise ValueError(f"call {call_id!r}: holds overlap or are unsorted")
        prev_end = hold.hold_end_ms


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
                if turn.turn_index == prev.turn_index:
                    raise DuplicateTurnIndex(turn.call_id, turn.turn_index)
                if turn.start_ms < prev.start_ms:
                    raise NonMonotonicTimestamps(turn.call_id)
            prev = turn
        check_holds(self.call_id, self.holds)


@dataclass(frozen=True, eq=False)
class TurnTable:
    """Every turn of a corpus as columns, one row per turn.

    Rows are grouped by call, in the corpus's call order, and sorted by
    turn_index within a call: call c owns rows offsets[c]:offsets[c + 1].
    turn_index, start_ms and end_ms are int64, channel holds int8 codes
    into CHANNELS, and label is int64 with -1 for an unlabeled turn. The
    arrays are read-only. A table checks nothing; ingest, Call and the
    synthetic generator have checked the turns it is built from.
    """

    call_ids: tuple[str, ...]
    offsets: np.ndarray
    turn_index: np.ndarray
    start_ms: np.ndarray
    end_ms: np.ndarray
    channel: np.ndarray
    label: np.ndarray
    text: list[str]

    def __post_init__(self):
        for name in ("offsets", "turn_index", "start_ms", "end_ms", "channel", "label"):
            getattr(self, name).flags.writeable = False

    @classmethod
    def of_columns(cls, call_ids: Sequence[str], lengths: Sequence[int],
                   turn_index: Sequence[int], start_ms: Sequence[int], end_ms: Sequence[int],
                   channel: Sequence[str], label: Sequence[Optional[int]],
                   text: Sequence[str]) -> "TurnTable":
        """The table of turns given as a Python list per field, call c's
        lengths[c] rows after those of the calls before it; channel holds names
        from CHANNELS, label None when unlabeled. The generator and of_calls use it."""
        code = {name: i for i, name in enumerate(CHANNELS)}
        return cls(
            call_ids=tuple(call_ids),
            offsets=np.cumsum([0, *lengths], dtype=np.int64),
            turn_index=np.array(turn_index, dtype=np.int64),
            start_ms=np.array(start_ms, dtype=np.int64),
            end_ms=np.array(end_ms, dtype=np.int64),
            channel=np.fromiter(map(code.__getitem__, channel), np.int8, len(channel)),
            label=np.array([-1 if x is None else x for x in label], dtype=np.int64),
            text=list(text),
        )

    @classmethod
    def of_calls(cls, calls: Sequence[Call]) -> "TurnTable":
        turns = [turn for call in calls for turn in call.turns]
        return cls.of_columns(
            [call.call_id for call in calls], [len(call.turns) for call in calls],
            *([getattr(turn, name) for turn in turns]
              for name in ("turn_index", "start_ms", "end_ms", "channel", "label", "text")),
        )

    def __len__(self) -> int:
        return len(self.text)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TurnTable):
            return NotImplemented
        return (self.call_ids == other.call_ids and self.text == other.text
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("offsets", "turn_index", "start_ms", "end_ms", "channel",
                                     "label")))

    @cached_property
    def call_of_row(self) -> np.ndarray:
        """Each row's call position."""
        return np.repeat(np.arange(len(self.call_ids)), np.diff(self.offsets))

    @cached_property
    def keys(self) -> list[TurnKey]:
        """Each row's (call_id, turn_index), with Python ints."""
        call_ids = [self.call_ids[c] for c in self.call_of_row.tolist()]
        return list(zip(call_ids, self.turn_index.tolist()))

    @cached_property
    def row_of(self) -> dict[TurnKey, int]:
        return dict(zip(self.keys, range(len(self))))

    @cached_property
    def key_order(self) -> np.ndarray:
        """The rows sorted by (call_id, turn_index): whole calls, in call_id order."""
        by_id = np.array(sorted(range(len(self.call_ids)), key=self.call_ids.__getitem__),
                         dtype=np.int64)
        lengths = np.diff(self.offsets)[by_id]
        shift = self.offsets[by_id] - (np.cumsum(lengths) - lengths)
        return np.arange(len(self)) + np.repeat(shift, lengths)

    def turn(self, row: int) -> PhraseTurn:
        label = int(self.label[row])
        return PhraseTurn(
            call_id=self.call_ids[self.call_of_row[row]],
            turn_index=int(self.turn_index[row]),
            channel=CHANNELS[self.channel[row]],
            start_ms=int(self.start_ms[row]),
            end_ms=int(self.end_ms[row]),
            text=self.text[row],
            label=None if label < 0 else label,
        )

    def require_labels(self, purpose: str) -> None:
        """Raise Unlabeled naming the first unlabeled turn; purpose says why labels are needed."""
        unlabeled = np.flatnonzero(self.label < 0)
        if unlabeled.size:
            row = unlabeled[0]
            key = (self.call_ids[self.call_of_row[row]], int(self.turn_index[row]))
            raise Unlabeled(f"turn {key} has no label; {purpose}")


class Corpus:
    """An immutable collection of calls, either ingested from files or synthesized.

    Its one store is a TurnTable plus each call's holds (holds, by
    call_id; a call without holds has no entry), and the library reads
    only the table. Call and PhraseTurn are views and inputs for outside
    callers: Corpus(calls=...) copies Call objects into a table; calls,
    call and iter_turns build them on first use, and turn builds one.
    Two corpora are equal when their tables, holds, provenance and seed are.
    """

    def __init__(
        self,
        calls: Iterable[Call] = (),
        provenance: str = "ingested",  # "ingested" | "synthetic"
        seed: Optional[int] = None,
    ):
        calls = tuple(calls)
        self._setup(TurnTable.of_calls(calls), {c.call_id: c.holds for c in calls},
                    provenance, seed)
        self._calls: Optional[tuple[Call, ...]] = calls

    @classmethod
    def of_table(
        cls,
        table: TurnTable,
        holds: Mapping[str, Sequence[HoldInterval]] | None = None,
        provenance: str = "ingested",
        seed: Optional[int] = None,
    ) -> "Corpus":
        """A corpus over table; holds must name calls of the table (else UnknownCall)."""
        corpus = cls.__new__(cls)
        corpus._setup(table, holds or {}, provenance, seed)
        corpus._calls = None
        return corpus

    def _setup(self, table: TurnTable, holds: Mapping[str, Sequence[HoldInterval]],
               provenance: str, seed: Optional[int]) -> None:
        if provenance not in ("ingested", "synthetic"):
            raise ValueError(f"provenance must be 'ingested' or 'synthetic', got {provenance!r}")
        self.table, self.provenance, self.seed = table, provenance, seed
        self._position: dict[str, int] = {}
        for call_id in table.call_ids:
            if call_id in self._position:
                raise ValueError(f"duplicate call_id {call_id!r}")
            self._position[call_id] = len(self._position)
        for call_id in holds:
            if call_id not in self._position:
                raise UnknownCall(call_id)
        self.holds = {call_id: tuple(h) for call_id, h in holds.items() if h}
        for call_id, call_holds in self.holds.items():
            check_holds(call_id, call_holds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.provenance, self.seed, self.holds, self.table) == (
            other.provenance, other.seed, other.holds, other.table)

    def __repr__(self) -> str:
        return (f"Corpus({len(self.table.call_ids)} calls, {len(self.table)} turns, "
                f"provenance={self.provenance!r}, seed={self.seed!r})")

    @property
    def calls(self) -> tuple[Call, ...]:
        if self._calls is None:
            t = self.table
            bounds = zip(t.call_ids, t.offsets[:-1].tolist(), t.offsets[1:].tolist())
            self._calls = tuple(
                Call(call_id=call_id, turns=tuple(map(t.turn, range(lo, hi))),
                     holds=self.holds.get(call_id, ()))
                for call_id, lo, hi in bounds
            )
        return self._calls

    def call(self, call_id: str) -> Call:
        return self.calls[self._position[call_id]]

    def iter_turns(self) -> Iterator[PhraseTurn]:
        for call in self.calls:
            yield from call.turns

    def turn(self, key: TurnKey) -> PhraseTurn:
        """The turn of a (call_id, turn_index) key; KeyError when it is no turn."""
        return self.table.turn(self.table.row_of[key])

    def n_turns(self) -> int:
        return len(self.table)

    def label_counts(self) -> dict[int, int]:
        label = self.table.label
        counts = np.bincount(label[label >= 0], minlength=len(LABELS))
        return dict(zip(LABELS, counts.tolist()))


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

    def fold_rows(self, corpus: Corpus) -> list[np.ndarray]:
        """Each fold's corpus rows, in key order: sorted by (call_id, turn_index).

        Raises KeyError when an assigned key is no turn of the corpus.
        """
        table = corpus.table
        fold_of = np.full(len(table), -1)
        n = len(self.assignment)
        fold_of[np.fromiter(map(table.row_of.__getitem__, self.assignment), np.int64, n)] = (
            np.fromiter(self.assignment.values(), np.int64, n))
        order = table.key_order[fold_of[table.key_order] >= 0]
        folds = fold_of[order]
        by_fold = order[np.argsort(folds, kind="stable")]
        return np.split(by_fold, np.cumsum(np.bincount(folds, minlength=self.k))[:-1])

    def validate_against(self, corpus: Corpus) -> None:
        """Check the fold-plan invariants for the given corpus.

        Every labeled turn must be assigned exactly once, every fold must be
        non-empty, and every class present in the corpus must appear in every
        fold. Raises ValueError or ClassTooSmall on violation.
        """
        table = corpus.table
        row_of = table.row_of
        rows = np.fromiter((row_of.get(key, -1) for key in self.assignment), np.int64,
                           len(self.assignment))
        labeled = table.label >= 0
        hit = rows >= 0
        hit[hit] = labeled[rows[hit]]
        n_hit = int(hit.sum())
        if n_hit != len(rows) or n_hit != labeled.sum():
            raise ValueError(
                f"assignment mismatch: {int(labeled.sum()) - n_hit} labeled turns unassigned, "
                f"{len(rows) - n_hit} assignments without a labeled turn"
            )
        folds = np.fromiter(self.assignment.values(), np.int64, len(rows))
        per_fold = np.bincount(folds * len(LABELS) + table.label[rows],
                               minlength=self.k * len(LABELS)).reshape(self.k, len(LABELS))
        totals = corpus.label_counts()
        for fold, counts in enumerate(per_fold.tolist()):
            if not any(counts):
                raise ValueError(f"fold {fold} is empty")
            for label in LABELS:
                if totals[label] and not counts[label]:
                    raise ClassTooSmall(label, totals[label], self.k)
