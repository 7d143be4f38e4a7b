import numpy as np
import pytest

from holdscan.compliance import (
    AuditConfig,
    audit_corpus,
    collect_violations,
    gold_predictions,
)
from holdscan.corpus import Call, Corpus, HoldInterval
from holdscan.errors import MissingPredictions
from holdscan.violations import MISSING_CLOSING, MISSING_OPENING, UNREGISTERED_HOLD

from conftest import make_turn

DEFAULT = AuditConfig()


def call_with(turns_spec, holds, call_id="c1"):
    """turns_spec: list of (start_ms, end_ms, label)."""
    turns = tuple(
        make_turn(call_id, i, label=label, start_ms=start, end_ms=end)
        for i, (start, end, label) in enumerate(turns_spec)
    )
    return Call(call_id=call_id, turns=turns, holds=tuple(HoldInterval(*h) for h in holds))


def audit_one(turns_spec, holds):
    """The report of a one-call corpus, audited on its gold labels."""
    corpus = Corpus(calls=(call_with(turns_spec, holds),))
    (report,), _ = audit_corpus(corpus, gold_predictions(corpus), DEFAULT)
    return report


def test_opening_inside_pre_window_matches():
    report = audit_one([(92_000, 97_000, 1)], [(100_000, 160_000)])
    verdict = report.verdicts[0]
    assert verdict.opening_ok
    assert verdict.opening_turn_index == 0
    assert not verdict.closing_ok
    assert report.unregistered == []


def test_stray_opening_is_flagged():
    report = audit_one([(300_000, 304_000, 1)], [])
    assert report.verdicts == []
    assert report.unregistered == [(0, 1)]


def test_hold_without_opening_fails():
    report = audit_one([(10_000, 12_000, 0)], [(100_000, 160_000)])
    assert not report.verdicts[0].opening_ok
    kinds = {v.kind for v in report.violations()}
    assert MISSING_OPENING in kinds and MISSING_CLOSING in kinds


def test_closing_window_is_after_hold_end():
    report = audit_one([(161_000, 165_000, 2)], [(100_000, 160_000)])
    assert report.verdicts[0].closing_ok
    assert report.verdicts[0].closing_turn_index == 0


# Hold [100s, 160s]: an opening must end in [85s, 102s], a closing start in [158s, 175s].
@pytest.mark.parametrize("label, start, end, ok", [
    (1, 84_000, 85_000, True), (1, 83_000, 84_999, False),
    (1, 100_000, 102_000, True), (1, 100_000, 102_001, False),
    (2, 158_000, 159_000, True), (2, 157_999, 159_000, False),
    (2, 175_000, 176_000, True), (2, 175_001, 176_000, False),
], ids=["pre_window", "before_pre_window", "grace", "after_grace",
        "closing_grace", "before_closing_grace", "post_window", "after_post_window"])
def test_window_edges_are_inclusive(label, start, end, ok):
    verdict = audit_one([(start, end, label)], [(100_000, 160_000)]).verdicts[0]
    assert (verdict.opening_ok, verdict.closing_ok) == (ok and label == 1, ok and label == 2)


def test_greedy_matches_interleaved_holds_in_time_order():
    # hold A [100s, 103s] pre-window [85s, 102s]; hold B [110s, 140s]
    # pre-window [95s, 112s]. Turn 0 (ends 90s) fits only A; turn 1
    # (ends 98s) fits both. The unique complete assignment is greedy's.
    report = audit_one(
        [(88_000, 90_000, 1), (96_000, 98_000, 1)],
        [(100_000, 103_000), (110_000, 140_000)],
    )
    assert report.verdicts[0].opening_turn_index == 0
    assert report.verdicts[1].opening_turn_index == 1
    assert report.unregistered == []


def test_one_turn_never_covers_two_holds():
    report = audit_one(
        [(96_000, 98_000, 1)],
        [(100_000, 103_000), (110_000, 140_000)],  # turn fits both pre-windows
    )
    assert report.verdicts[0].opening_ok
    assert not report.verdicts[1].opening_ok


def test_matched_or_flagged_never_both(small_synthetic):
    corpus, _ = small_synthetic
    reports, _ = audit_corpus(corpus, gold_predictions(corpus), DEFAULT)
    for report in reports:
        call = corpus.call(report.call_id)
        script_turns = {t.turn_index for t in call.turns if t.label in (1, 2)}
        matched = {
            v.opening_turn_index for v in report.verdicts if v.opening_turn_index is not None
        } | {v.closing_turn_index for v in report.verdicts if v.closing_turn_index is not None}
        flagged = {idx for idx, _ in report.unregistered}
        assert matched & flagged == set()
        assert matched | flagged == script_turns


def test_gold_audit_reproduces_ledger(small_synthetic):
    corpus, ledger = small_synthetic
    reports, summary = audit_corpus(corpus, gold_predictions(corpus), DEFAULT)
    assert set(collect_violations(reports)) == set(ledger)
    assert sum(summary.values()) == len(ledger)


def test_summary_counts_match_reports(small_synthetic):
    corpus, _ = small_synthetic
    reports, summary = audit_corpus(corpus, gold_predictions(corpus), DEFAULT)
    by_kind = {MISSING_OPENING: 0, MISSING_CLOSING: 0, UNREGISTERED_HOLD: 0}
    for violation in collect_violations(reports):
        by_kind[violation.kind] += 1
    assert summary == by_kind


def test_zero_predictions_zero_holds_zero_violations():
    corpus = Corpus(calls=(call_with([(0, 1_000, 0), (2_000, 3_000, 0)], []),))
    reports, summary = audit_corpus(corpus, gold_predictions(corpus), DEFAULT)
    assert collect_violations(reports) == []
    assert summary == {MISSING_OPENING: 0, MISSING_CLOSING: 0, UNREGISTERED_HOLD: 0}


def test_missing_predictions_detected(small_synthetic):
    corpus, _ = small_synthetic
    preds = gold_predictions(corpus)
    some_key = corpus.table.keys[0]
    del preds[some_key]
    with pytest.raises(MissingPredictions):
        audit_corpus(corpus, preds, DEFAULT)


def test_widening_windows_never_adds_violations(small_synthetic):
    corpus, _ = small_synthetic
    preds = gold_predictions(corpus)
    rng = np.random.default_rng(13)
    for _ in range(25):
        pre = int(rng.integers(0, 20_000))
        post = int(rng.integers(0, 20_000))
        grace = int(rng.integers(0, 4_000))
        narrow = AuditConfig(pre_window_ms=pre, post_window_ms=post, grace_ms=grace)
        wide = AuditConfig(
            pre_window_ms=pre + int(rng.integers(0, 15_000)),
            post_window_ms=post + int(rng.integers(0, 15_000)),
            grace_ms=grace + int(rng.integers(0, 3_000)),
        )
        _, narrow_summary = audit_corpus(corpus, preds, narrow)
        _, wide_summary = audit_corpus(corpus, preds, wide)
        assert sum(wide_summary.values()) <= sum(narrow_summary.values())


def test_audit_order_invariance(small_synthetic):
    corpus, _ = small_synthetic
    preds = gold_predictions(corpus)
    reversed_corpus = Corpus(calls=tuple(reversed(corpus.calls)), provenance=corpus.provenance,
                             seed=corpus.seed)
    a, _ = audit_corpus(corpus, preds, DEFAULT)
    b, _ = audit_corpus(reversed_corpus, preds, DEFAULT)
    assert [r.call_id for r in a] == [r.call_id for r in b]
    assert [r.verdicts for r in a] == [r.verdicts for r in b]


def test_audit_config_validation():
    with pytest.raises(ValueError):
        AuditConfig(pre_window_ms=-1)
