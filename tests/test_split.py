import json
from collections import Counter

import numpy as np
import pytest

from holdscan.corpus import fold_plan_payload, load_fold_plan, stratified_split
from holdscan.errors import ClassTooSmall, MalformedRow, Unlabeled

from conftest import corpus_from_labels, flat_corpus


def fold_class_counts(corpus, plan):
    counts = [Counter() for _ in range(plan.k)]
    for key, fold in plan.assignment.items():
        counts[fold][corpus.turn(key).label] += 1
    return counts


def test_463_openings_split_into_46_or_47():
    corpus = flat_corpus({0: 400, 1: 463, 2: 40})
    plan = stratified_split(corpus, 10, seed=0)
    per_fold = sorted(c[1] for c in fold_class_counts(corpus, plan))
    assert per_fold == [46] * 7 + [47] * 3


def test_k_equal_one_is_single_fold():
    corpus = flat_corpus({0: 5, 1: 2, 2: 1})
    plan = stratified_split(corpus, 1, seed=3)
    assert plan.test_fold == 0
    assert set(plan.assignment.values()) == {0}
    assert len(plan.assignment) == 8


def test_balanced_thirty_rows_one_of_each_per_fold():
    corpus = flat_corpus({0: 10, 1: 10, 2: 10})
    plan = stratified_split(corpus, 10, seed=1)
    for counts in fold_class_counts(corpus, plan):
        assert counts == Counter({0: 1, 1: 1, 2: 1})


def test_per_fold_counts_within_one_of_average():
    rng = np.random.default_rng(99)
    for trial in range(20):
        totals = {
            0: int(rng.integers(30, 300)),
            1: int(rng.integers(8, 60)),
            2: int(rng.integers(8, 60)),
        }
        k = int(rng.integers(2, 9))
        if min(totals.values()) < k:
            continue
        corpus = flat_corpus(totals)
        plan = stratified_split(corpus, k, seed=trial)
        for counts in fold_class_counts(corpus, plan):
            for label, total in totals.items():
                assert abs(counts[label] - total / k) < 1.0


def test_class_too_small():
    corpus = flat_corpus({0: 50, 1: 4, 2: 50})
    with pytest.raises(ClassTooSmall) as err:
        stratified_split(corpus, 10, seed=0)
    assert err.value.label == 1
    assert err.value.count == 4


def test_unlabeled_corpus_rejected():
    corpus = corpus_from_labels({"a": [0, 1]})
    bad = corpus_from_labels({"a": [0, None, 1]})
    stratified_split(corpus, 1, seed=0)
    with pytest.raises(Unlabeled):
        stratified_split(bad, 1, seed=0)


def test_determinism_and_seed_sensitivity():
    corpus = flat_corpus({0: 100, 1: 20, 2: 20})
    a = stratified_split(corpus, 5, seed=8)
    b = stratified_split(corpus, 5, seed=8)
    c = stratified_split(corpus, 5, seed=9)
    assert a.assignment == b.assignment
    assert a.assignment != c.assignment


def test_test_fold_recorded():
    corpus = flat_corpus({0: 30, 1: 10, 2: 10})
    plan = stratified_split(corpus, 5, seed=0, test_fold=3)
    assert plan.test_fold == 3


class TestCallGrouped:
    def test_calls_never_split(self, small_synthetic):
        corpus, _ = small_synthetic
        plan = stratified_split(corpus, 4, seed=2, mode="call_grouped")
        for call in corpus.calls:
            folds = {plan.assignment[t.key] for t in call.turns}
            assert len(folds) == 1

    def test_proportions_within_20_percent(self, small_synthetic):
        corpus, _ = small_synthetic
        plan = stratified_split(corpus, 4, seed=2, mode="call_grouped")
        totals = corpus.label_counts()
        grand = sum(totals.values())
        counts = fold_class_counts(corpus, plan)
        for fold_counts in counts:
            fold_total = sum(fold_counts.values())
            for label in (0, 1, 2):
                global_prop = totals[label] / grand
                prop = fold_counts[label] / fold_total
                assert abs(prop - global_prop) / global_prop <= 0.20

    def test_deterministic(self, small_synthetic):
        corpus, _ = small_synthetic
        a = stratified_split(corpus, 4, seed=5, mode="call_grouped")
        b = stratified_split(corpus, 4, seed=5, mode="call_grouped")
        assert a.assignment == b.assignment


def test_bad_mode_rejected():
    corpus = flat_corpus({0: 10, 1: 10, 2: 10})
    with pytest.raises(ValueError, match="mode"):
        stratified_split(corpus, 2, seed=0, mode="diagonal")


def test_fold_plan_json_round_trip(tmp_path):
    corpus = flat_corpus({0: 40, 1: 8, 2: 8})
    plan = stratified_split(corpus, 4, seed=5, test_fold=2)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(fold_plan_payload(plan)))
    again = load_fold_plan(path)
    assert (again.k, again.test_fold, dict(again.assignment)) == (4, 2, dict(plan.assignment))


def test_plan_with_more_folds_than_turns_is_malformed(tmp_path):
    """A huge k fails at load, before anything is built per fold."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"k": 10**12, "test_fold": 0, "assignment": [["a", 0, 0]]}))
    with pytest.raises(MalformedRow, match="folds empty"):
        load_fold_plan(path)
