"""Deterministic synthetic corpus generator with a ground-truth violation ledger.

Each call draws its number of opening and closing script rows from a joint
count table calibrated to production data, fills the rest with irrelevant
phrases, and lays script/hold "events" on a millisecond timeline. Events
come in four shapes:

    pair        opening script, a hold, closing script
    open_only   opening script and a hold that never gets closed properly
    close_only  a hold with only the returning script
    bare        a hold with no scripts at all

Any event except "bare" may additionally be unregistered: the scripts are
spoken but no hold interval is logged. The generator records exactly the
violations an auditor will find, provided the audit windows stay below the
profile's quarantine gap (event blocks are separated by at least that gap,
so no script can stray into a neighboring hold's window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from ..errors import EmptyTemplatePool, NonMonotonicTimestamps
from ..violations import (
    MISSING_CLOSING,
    MISSING_OPENING,
    UNREGISTERED_HOLD,
    Violation,
    ViolationLedger,
)
from .model import (
    CLOSING,
    IRRELEVANT,
    OPENING,
    Corpus,
    HoldInterval,
    TurnTable,
    check_holds,
    check_turn,
)

# Joint weights for (opening rows, closing rows) per call; rows index the
# opening count 0..6, columns the closing count 0..6. Calibrated against
# observed contact-center traffic: most calls contain no scripts at all.
DEFAULT_SCRIPT_COUNT_WEIGHTS = (
    (891, 25, 3, 1, 0, 0, 0),
    (129, 118, 11, 2, 0, 0, 0),
    (13, 5, 5, 1, 0, 0, 0),
    (1, 4, 1, 1, 2, 0, 0),
    (5, 1, 7, 1, 1, 0, 0),
    (1, 1, 3, 1, 0, 0, 0),
    (0, 1, 2, 0, 1, 0, 0),
)

DEFAULT_OPENING_TEMPLATES = (
    "please hold for a moment while I check that for you",
    "may I place you on a brief hold while I look into this",
    "let me put you on hold while I pull up your account",
    "I need to place you on hold for a minute or two",
    "would you mind holding while I verify those details",
    "please stay on the line while I check with my supervisor",
    "allow me a short hold while I review the records",
    "I am going to put you on a quick hold to confirm that",
)

DEFAULT_CLOSING_TEMPLATES = (
    "thank you for holding I have the information now",
    "thanks for waiting I am back with the details",
    "I appreciate your patience thank you for staying on the line",
    "thank you so much for your patience I found what we need",
    "thanks for holding on the answer is ready",
    "sorry to keep you waiting thank you for your patience",
)

DEFAULT_IRRELEVANT_TEMPLATES = (
    "good afternoon how can I help you today",
    "my internet connection keeps dropping every evening",
    "could you confirm the last four digits of your account",
    "the invoice amount looks higher than last month",
    "I would like to change my tariff plan",
    "is there an outage in my area right now",
    "the router lights are blinking red",
    "can you send a technician tomorrow morning",
    "what time does your office close",
    "I already restarted the modem twice",
    "let me read the serial number from the box",
    "the payment went through yesterday afternoon",
    "you can also manage this in the mobile app",
    "I will note that on your account right away",
    "the contract renews at the end of the month",
    "we can offer you a discount for the first three months",
    "please make sure the cable is plugged in firmly",
    "my neighbor has the same problem with the signal",
    "the television package is missing two channels",
    "I moved to a new apartment last week",
    "no problem take your time",
    "yes that is the correct address",
)


@dataclass(frozen=True)
class GeneratorProfile:
    """Knobs for the synthetic generator.

    quarantine_ms must exceed the widest audit window plus grace for the
    ledger to match an audit exactly; the default (20 s) covers the default
    audit configuration (15 s windows, 2 s grace).
    """

    joint_counts: tuple[tuple[int, ...], ...] = DEFAULT_SCRIPT_COUNT_WEIGHTS
    rows_per_call_median: float = 25.0
    rows_per_call_sigma: float = 0.6
    unregistered_rate: float = 0.15
    bare_hold_rate: float = 0.08
    turn_dur_min_ms: int = 800
    turn_dur_max_ms: int = 8000
    turn_gap_min_ms: int = 200
    turn_gap_max_ms: int = 3000
    script_gap_min_ms: int = 500
    script_gap_max_ms: int = 10000
    hold_dur_min_ms: int = 10000
    hold_dur_max_ms: int = 120000
    quarantine_ms: int = 20000
    opening_templates: tuple[str, ...] = DEFAULT_OPENING_TEMPLATES
    closing_templates: tuple[str, ...] = DEFAULT_CLOSING_TEMPLATES
    irrelevant_templates: tuple[str, ...] = DEFAULT_IRRELEVANT_TEMPLATES

    def __post_init__(self):
        if not (0.0 <= self.unregistered_rate <= 1.0):
            raise ValueError("unregistered_rate must lie in [0, 1]")
        if not (0.0 <= self.bare_hold_rate <= 1.0):
            raise ValueError("bare_hold_rate must lie in [0, 1]")
        rows = [len(r) for r in self.joint_counts]
        if len(set(rows)) != 1:
            raise ValueError("joint_counts rows must all have the same length")
        if any(w < 0 for row in self.joint_counts for w in row):
            raise ValueError("joint_counts weights must be non-negative")
        if sum(w for row in self.joint_counts for w in row) <= 0:
            raise ValueError("joint_counts must have positive total weight")


DEFAULT_PROFILE = GeneratorProfile()
_FIELD_TYPES = get_type_hints(GeneratorProfile)


def load_profile(path: str | Path) -> GeneratorProfile:
    """Read a profile from a key=value file; unknown keys are rejected.

    An int or float field takes the type GeneratorProfile declares for it.
    joint_counts uses ';' between rows and whitespace or ',' within a row.
    *_templates_file keys point at plain-text files, one phrase per line.
    """
    from ..config import parse_kv_file  # local import, config has no corpus deps

    raw = parse_kv_file(path)
    base = Path(path).parent
    kwargs: dict = {}
    for key, value in raw.items():
        if key == "joint_counts":
            rows = []
            for chunk in value.split(";"):
                cells = chunk.replace(",", " ").split()
                if cells:
                    rows.append(tuple(int(c) for c in cells))
            kwargs["joint_counts"] = tuple(rows)
        elif key in ("opening_templates_file", "closing_templates_file", "irrelevant_templates_file"):
            pool_path = Path(value)
            if not pool_path.is_absolute():
                pool_path = base / pool_path
            lines = [ln.strip() for ln in pool_path.read_text(encoding="utf-8").splitlines()]
            kwargs[key.replace("_file", "")] = tuple(ln for ln in lines if ln)
        elif _FIELD_TYPES.get(key) in (int, float):
            kwargs[key] = _FIELD_TYPES[key](value)
        else:
            raise ValueError(f"unknown generator profile key {key!r}")
    return replace(DEFAULT_PROFILE, **kwargs)


@dataclass
class _CallBuilder:
    call_id: str
    rng: np.random.Generator
    profile: GeneratorProfile
    cursor: int = 0
    # The call's turns, one list per field, in turn_index order.
    start_ms: list[int] = field(default_factory=list)
    end_ms: list[int] = field(default_factory=list)
    channel: list[str] = field(default_factory=list)
    label: list[int] = field(default_factory=list)
    text: list[str] = field(default_factory=list)
    holds: list[HoldInterval] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    def _pick(self, pool: tuple[str, ...], name: str) -> str:
        if not pool:
            raise EmptyTemplatePool(name)
        return pool[int(self.rng.integers(0, len(pool)))]

    def _span(self, lo: int, hi: int) -> int:
        return int(self.rng.integers(lo, hi + 1))

    def add_turn(self, text: str, label: int, channel: str) -> int:
        dur = self._span(self.profile.turn_dur_min_ms, self.profile.turn_dur_max_ms)
        index = len(self.text)
        # A profile with negative times can break a turn; fail as a PhraseTurn would.
        check_turn(index, channel, self.cursor, self.cursor + dur, label)
        self.start_ms.append(self.cursor)
        self.end_ms.append(self.cursor + dur)
        self.channel.append(channel)
        self.label.append(label)
        self.text.append(text)
        self.cursor += dur
        return index

    def add_irrelevant(self) -> None:
        channel = "agent" if self.rng.random() < 0.5 else "client"
        self.add_turn(self._pick(self.profile.irrelevant_templates, "irrelevant"), IRRELEVANT, channel)
        self.cursor += self._span(self.profile.turn_gap_min_ms, self.profile.turn_gap_max_ms)

    def _script_gap(self) -> int:
        return self._span(self.profile.script_gap_min_ms, self.profile.script_gap_max_ms)

    def _hold_dur(self) -> int:
        return self._span(self.profile.hold_dur_min_ms, self.profile.hold_dur_max_ms)

    def add_event(self, kind: str, registered: bool) -> None:
        p = self.profile
        self.cursor += p.quarantine_ms
        opening_idx = closing_idx = None
        hold = None

        if kind in ("pair", "open_only"):
            opening_idx = self.add_turn(self._pick(p.opening_templates, "opening"), OPENING, "agent")
            self.cursor += self._script_gap()
        hold_start = self.cursor
        hold_end = hold_start + self._hold_dur()
        self.cursor = hold_end
        if registered:
            hold = HoldInterval(hold_start, hold_end)
            self.holds.append(hold)
        if kind in ("pair", "close_only"):
            self.cursor += self._script_gap()
            closing_idx = self.add_turn(self._pick(p.closing_templates, "closing"), CLOSING, "agent")

        if registered:
            if kind in ("close_only", "bare"):
                self.violations.append(
                    Violation(self.call_id, MISSING_OPENING, hold.hold_start_ms, hold.hold_end_ms)
                )
            if kind in ("open_only", "bare"):
                self.violations.append(
                    Violation(self.call_id, MISSING_CLOSING, hold.hold_start_ms, hold.hold_end_ms)
                )
        else:
            if opening_idx is not None:
                self.violations.append(
                    Violation(self.call_id, UNREGISTERED_HOLD, turn_index=opening_idx)
                )
            if closing_idx is not None:
                self.violations.append(
                    Violation(self.call_id, UNREGISTERED_HOLD, turn_index=closing_idx)
                )

        self.cursor += p.quarantine_ms

    def check(self) -> None:
        """Raise what Call raises for these turns and holds."""
        if any(b < a for a, b in zip(self.start_ms, self.start_ms[1:])):
            raise NonMonotonicTimestamps(self.call_id)
        check_holds(self.call_id, self.holds)


def generate_synthetic(
    n_calls: int,
    seed: int,
    profile: GeneratorProfile = DEFAULT_PROFILE,
) -> tuple[Corpus, ViolationLedger]:
    """Generate a labeled corpus plus the ground-truth violation ledger.

    Pure function of (n_calls, seed, profile): repeated runs yield equal
    corpora and ledgers.
    """
    if n_calls < 1:
        raise ValueError(f"n_calls must be >= 1, got {n_calls}")
    rng = np.random.default_rng(seed)

    weights = np.asarray(profile.joint_counts, dtype=float)
    probs = (weights / weights.sum()).ravel()
    n_cols = weights.shape[1]

    builders: list[_CallBuilder] = []
    ledger: ViolationLedger = []
    for i in range(n_calls):
        builder = _CallBuilder(
            call_id=f"c{i:05d}",
            rng=rng,
            profile=profile,
            cursor=int(rng.integers(1000, 8001)),
        )

        cell = int(rng.choice(probs.size, p=probs))
        n_open, n_close = cell // n_cols, cell % n_cols

        n_pair = min(n_open, n_close)
        events: list[tuple[str, bool]] = []
        for _ in range(n_pair):
            events.append(("pair", rng.random() >= profile.unregistered_rate))
        for _ in range(n_open - n_pair):
            events.append(("open_only", rng.random() >= profile.unregistered_rate))
        for _ in range(n_close - n_pair):
            events.append(("close_only", rng.random() >= profile.unregistered_rate))
        if rng.random() < profile.bare_hold_rate:
            events.append(("bare", True))
        if len(events) > 1:
            order = rng.permutation(len(events))
            events = [events[int(j)] for j in order]

        n_scripts = n_open + n_close
        target_rows = int(round(rng.lognormal(math.log(profile.rows_per_call_median),
                                              profile.rows_per_call_sigma)))
        n_irr = max(1, target_rows - n_scripts)

        slots: list[tuple[str, bool] | None] = [None] * n_irr  # None marks an irrelevant row
        for event in events:
            at = int(rng.integers(0, len(slots) + 1))
            slots.insert(at, event)

        for slot in slots:
            if slot is None:
                builder.add_irrelevant()
            else:
                builder.add_event(*slot)

        builder.check()
        builders.append(builder)
        ledger.extend(builder.violations)

    table = TurnTable.of_columns(
        [b.call_id for b in builders], [len(b.text) for b in builders],
        [index for b in builders for index in range(len(b.text))],
        *([value for b in builders for value in getattr(b, name)]
          for name in ("start_ms", "end_ms", "channel", "label", "text")),
    )
    holds = {b.call_id: b.holds for b in builders}
    return Corpus.of_table(table, holds, provenance="synthetic", seed=seed), ledger
