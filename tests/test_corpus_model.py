import pytest

from holdscan.corpus import Call, Corpus, FoldPlan, HoldInterval
from holdscan.errors import ClassTooSmall, DuplicateTurnIndex, NonMonotonicTimestamps

from conftest import corpus_from_labels, make_turn


class TestPhraseTurn:
    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="end_ms"):
            make_turn("c1", 0, start_ms=5000, end_ms=4000)

    def test_equal_start_end_allowed(self):
        turn = make_turn("c1", 0, start_ms=5000, end_ms=5000)
        assert turn.end_ms == turn.start_ms

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            make_turn("c1", 0, label=3)

    def test_none_label_allowed(self):
        assert make_turn("c1", 0, label=None).label is None

    def test_bad_channel_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            make_turn("c1", 0, channel="robot")

    def test_negative_turn_index_rejected(self):
        with pytest.raises(ValueError, match="turn_index"):
            make_turn("c1", -1)


class TestHoldInterval:
    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            HoldInterval(1000, 1000)

    def test_valid(self):
        hold = HoldInterval(1000, 2000)
        assert hold.hold_end_ms - hold.hold_start_ms == 1000


class TestCall:
    def test_foreign_call_id_rejected(self):
        with pytest.raises(ValueError, match="call_id"):
            Call(call_id="a", turns=(make_turn("b", 0),))

    def test_unsorted_turn_index_rejected(self):
        turns = (make_turn("a", 1), make_turn("a", 0))
        with pytest.raises(ValueError, match="out of order"):
            Call(call_id="a", turns=turns)

    def test_decreasing_start_rejected(self):
        turns = (
            make_turn("a", 0, start_ms=5000, end_ms=6000),
            make_turn("a", 1, start_ms=4000, end_ms=7000),
        )
        with pytest.raises(NonMonotonicTimestamps, match="start_ms decreases"):
            Call(call_id="a", turns=turns)

    def test_repeated_turn_index_rejected(self):
        turns = (make_turn("a", 0), make_turn("a", 1), make_turn("a", 1))
        with pytest.raises(DuplicateTurnIndex, match="duplicate turn_index 1"):
            Call(call_id="a", turns=turns)

    def test_overlapping_holds_rejected(self):
        with pytest.raises(ValueError, match="holds"):
            Call(
                call_id="a",
                turns=(make_turn("a", 0),),
                holds=(HoldInterval(0, 5000), HoldInterval(4000, 9000)),
            )


class TestCorpus:
    def test_duplicate_call_ids_rejected(self):
        calls = (
            Call(call_id="a", turns=(make_turn("a", 0),)),
            Call(call_id="a", turns=(make_turn("a", 0),)),
        )
        with pytest.raises(ValueError, match="duplicate call_id"):
            Corpus(calls=calls)

    def test_label_counts(self):
        corpus = corpus_from_labels({"a": [0, 1, 2, 0], "b": [0, 0]})
        assert corpus.label_counts() == {0: 4, 1: 1, 2: 1}

    def test_turn_lookup(self):
        call = Call(call_id="a", turns=(make_turn("a", 0), make_turn("a", 3, label=None)))
        corpus = Corpus(calls=(call,))
        assert corpus.turn(("a", 3)) == call.turns[1]
        with pytest.raises(KeyError):
            corpus.turn(("a", 1))
        with pytest.raises(KeyError):
            corpus.turn(("b", 0))

    def test_key_order_sorts_by_call_id(self):
        table = corpus_from_labels({"b": [0], "a": [0, 1]}).table
        assert [table.keys[row] for row in table.key_order] == [("a", 0), ("a", 1), ("b", 0)]


class TestFoldPlan:
    def test_test_fold_range(self):
        with pytest.raises(ValueError, match="test_fold"):
            FoldPlan(k=3, assignment={}, test_fold=3)

    def test_assignment_range(self):
        with pytest.raises(ValueError, match="fold index"):
            FoldPlan(k=2, assignment={("a", 0): 2}, test_fold=0)

    def test_more_folds_than_assigned_turns_rejected(self):
        with pytest.raises(ValueError, match="folds empty"):
            FoldPlan(k=10**12, assignment={("a", 0): 0, ("a", 1): 1}, test_fold=0)

    def test_validate_against_detects_missing_class(self):
        corpus = corpus_from_labels({"a": [0, 1, 2, 0, 1, 2]})
        assignment = {("a", i): i % 2 for i in range(6)}
        # fold 0 gets labels 0,2,1 / fold 1 gets 1,0,2: both complete
        FoldPlan(k=2, assignment=assignment, test_fold=0).validate_against(corpus)
        lopsided = {("a", i): 0 if i < 5 else 1 for i in range(6)}
        with pytest.raises(ClassTooSmall):
            FoldPlan(k=2, assignment=lopsided, test_fold=0).validate_against(corpus)

    def test_fold_rows_list_each_folds_keys_sorted(self):
        corpus = corpus_from_labels({"b": [0, 1, 2, 0], "a": [2, 1, 0], "c": [0, 0]})
        keys = corpus.table.keys
        assignment = {key: (3 * i) % 4 % 3 for i, key in enumerate(reversed(keys))}
        plan = FoldPlan(k=3, assignment=assignment, test_fold=0)
        want = [sorted(key for key, f in assignment.items() if f == fold) for fold in range(3)]
        assert [[keys[row] for row in rows] for rows in plan.fold_rows(corpus)] == want

    def test_validate_against_detects_unassigned_turn(self):
        corpus = corpus_from_labels({"a": [0, 1, 2]})
        with pytest.raises(ValueError, match="assignment mismatch"):
            FoldPlan(k=1, assignment={("a", 0): 0}, test_fold=0).validate_against(corpus)
