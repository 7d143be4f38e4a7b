"""Hold-compliance audit: match detected script phrases to registered holds.

For every registered hold we look for an opening phrase ending shortly
before the hold starts and a closing phrase starting shortly after it
ends. Matching is one-to-one and greedy in time order, which for the
uniform windows used here yields a maximum matching, so widening the
windows can only reduce the violation count. Script phrases that match no
hold are flagged: the agent asked the client to wait without logging a
hold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .corpus.model import Corpus, HoldInterval, TurnKey
from .errors import MissingPredictions
from .violations import (
    MISSING_CLOSING,
    MISSING_OPENING,
    UNREGISTERED_HOLD,
    VIOLATION_KINDS,
    Violation,
)


@dataclass(frozen=True)
class AuditConfig:
    """Matching windows, all in milliseconds.

    An opening phrase matches a hold when its end falls within
    [start - pre_window_ms, start + grace_ms]; a closing phrase matches
    when its start falls within [end - grace_ms, end + post_window_ms].
    """

    pre_window_ms: int = 15000
    post_window_ms: int = 15000
    grace_ms: int = 2000

    def __post_init__(self):
        if self.pre_window_ms < 0 or self.post_window_ms < 0 or self.grace_ms < 0:
            raise ValueError("audit windows must be non-negative")


@dataclass(frozen=True)
class HoldVerdict:
    hold: HoldInterval
    opening_ok: bool
    opening_turn_index: Optional[int]
    closing_ok: bool
    closing_turn_index: Optional[int]


@dataclass
class ComplianceReport:
    call_id: str
    verdicts: list[HoldVerdict]
    unregistered: list[tuple[int, int]]  # (turn_index, predicted class)

    def violations(self) -> list[Violation]:
        out: list[Violation] = []
        for v in self.verdicts:
            if not v.opening_ok:
                out.append(
                    Violation(self.call_id, MISSING_OPENING, v.hold.hold_start_ms, v.hold.hold_end_ms)
                )
            if not v.closing_ok:
                out.append(
                    Violation(self.call_id, MISSING_CLOSING, v.hold.hold_start_ms, v.hold.hold_end_ms)
                )
        for turn_index, _ in self.unregistered:
            out.append(Violation(self.call_id, UNREGISTERED_HOLD, turn_index=turn_index))
        return out


def _greedy_match(
    holds: Sequence[HoldInterval],
    candidates: list[tuple[int, int]],  # (anchor time, turn_index), time-sorted
    window_of: Callable[[HoldInterval], tuple[int, int]],
) -> dict[int, int]:
    """Assign each hold the earliest unmatched candidate inside its window.

    Holds arrive sorted by start and all windows share one width, so this
    greedy pass is a maximum matching. Returns {hold position: turn_index}.
    """
    matched: dict[int, int] = {}
    used: set[int] = set()
    for pos, hold in enumerate(holds):
        lo, hi = window_of(hold)
        for anchor, turn_index in candidates:
            if turn_index in used:
                continue
            if anchor > hi:
                break
            if anchor >= lo:
                matched[pos] = turn_index
                used.add(turn_index)
                break
    return matched


def _audit(
    call_id: str,
    holds: Sequence[HoldInterval],
    openings: list[tuple[int, int]],  # (end_ms, turn_index) of each predicted opening
    closings: list[tuple[int, int]],  # (start_ms, turn_index) of each predicted closing
    config: AuditConfig,
) -> ComplianceReport:
    openings.sort()
    closings.sort()

    open_match = _greedy_match(
        holds,
        openings,
        lambda h: (h.hold_start_ms - config.pre_window_ms, h.hold_start_ms + config.grace_ms),
    )
    close_match = _greedy_match(
        holds,
        closings,
        lambda h: (h.hold_end_ms - config.grace_ms, h.hold_end_ms + config.post_window_ms),
    )

    verdicts = [
        HoldVerdict(
            hold=hold,
            opening_ok=pos in open_match,
            opening_turn_index=open_match.get(pos),
            closing_ok=pos in close_match,
            closing_turn_index=close_match.get(pos),
        )
        for pos, hold in enumerate(holds)
    ]
    matched_turns = set(open_match.values()) | set(close_match.values())
    unregistered = sorted(
        [(idx, 1) for _, idx in openings if idx not in matched_turns]
        + [(idx, 2) for _, idx in closings if idx not in matched_turns]
    )
    return ComplianceReport(call_id=call_id, verdicts=verdicts, unregistered=unregistered)


def gold_predictions(corpus: Corpus) -> dict[TurnKey, int]:
    """Use gold labels as predictions (oracle mode for audits); Unlabeled
    names the first turn without a label."""
    table = corpus.table
    table.require_labels("--gold needs a labeled transcript")
    return dict(zip(table.keys, table.label.tolist()))


def audit_corpus(
    corpus: Corpus,
    predictions: Mapping[TurnKey, int],
    config: AuditConfig = AuditConfig(),
) -> tuple[list[ComplianceReport], dict[str, int]]:
    """Audit every call; returns per-call reports plus violation-kind counts.

    Reports come back in call_id order regardless of corpus order. A turn
    without a prediction is a MissingPredictions naming the first such
    call in call_id order.
    """
    t = corpus.table
    labels = list(map(predictions.get, t.keys))
    if None in labels:
        missing = {t.call_ids[c] for c in t.call_of_row[[p is None for p in labels]].tolist()}
        raise MissingPredictions(min(missing))
    labels = np.array(labels)
    # Per call, the (anchor, turn_index) pairs of its predicted scripts:
    # rows are grouped by call, so a call's pairs are one slice.
    scripts = []
    for cls, anchor in ((1, t.end_ms), (2, t.start_ms)):
        rows = np.flatnonzero(labels == cls)
        pairs = list(zip(anchor[rows].tolist(), t.turn_index[rows].tolist()))
        scripts.append((pairs, np.searchsorted(rows, t.offsets).tolist()))
    (open_pairs, open_cut), (close_pairs, close_cut) = scripts
    reports = [
        _audit(t.call_ids[c], corpus.holds.get(t.call_ids[c], ()),
               open_pairs[open_cut[c]:open_cut[c + 1]], close_pairs[close_cut[c]:close_cut[c + 1]],
               config)
        for c in sorted(range(len(t.call_ids)), key=t.call_ids.__getitem__)
    ]

    summary = Counter({kind: 0 for kind in VIOLATION_KINDS})
    for report in reports:
        for violation in report.violations():
            summary[violation.kind] += 1
    return reports, dict(summary)


def collect_violations(reports: Sequence[ComplianceReport]) -> list[Violation]:
    out: list[Violation] = []
    for report in reports:
        out.extend(report.violations())
    return out
