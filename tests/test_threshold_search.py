import json
import math

import numpy as np
import pytest

from holdscan.classifier import ProbTriple, load_external_proba
from holdscan.decision import REJECT_ALL_THRESHOLD
from holdscan.errors import EmptyFold, LengthMismatch
from holdscan.tuning import shared_threshold_search

from oracles import exhaustive_threshold_search, random_prob_triple

WORKED_TRIPLES = [
    ProbTriple(0.8, 0.15, 0.05),
    ProbTriple(0.4, 0.5, 0.1),
    ProbTriple(0.7, 0.2, 0.1),
    ProbTriple(0.1, 0.2, 0.7),
]
WORKED_LABELS = [0, 1, 0, 2]


def test_worked_single_fold_example():
    threshold, mean_f1 = shared_threshold_search([(WORKED_TRIPLES, WORKED_LABELS)])
    assert threshold == pytest.approx(0.6, abs=1e-12)
    assert mean_f1 == 1.0


def test_candidates_are_observed_sums_plus_sentinel():
    sums = {p.p1 + p.p2 for p in WORKED_TRIPLES}
    assert sorted(sums) == pytest.approx([0.2, 0.3, 0.6, 0.9])
    threshold, _ = shared_threshold_search([(WORKED_TRIPLES, WORKED_LABELS)])
    assert threshold in sums or threshold == REJECT_ALL_THRESHOLD


def test_all_correct_everywhere_returns_smallest_candidate():
    triples = [ProbTriple(0.9, 0.1, 0.0), ProbTriple(0.8, 0.15, 0.05)]
    labels = [0, 0]
    # any threshold above 0.2 is perfect, including both candidates 0.1+0.0
    # and 0.15+0.05; ties resolve to the smallest threshold
    threshold, mean_f1 = shared_threshold_search([(triples, labels)])
    oracle_t, oracle_f1 = exhaustive_threshold_search(
        [([tuple(p) for p in triples], labels)]
    )
    assert mean_f1 == pytest.approx(oracle_f1, abs=1e-12)
    assert threshold == pytest.approx(oracle_t, abs=1e-12)


def test_single_certain_irrelevant_prediction():
    triples = [ProbTriple(1.0, 0.0, 0.0)]
    labels = [0]
    threshold, mean_f1 = shared_threshold_search([(triples, labels)])
    oracle_t, oracle_f1 = exhaustive_threshold_search([([(1.0, 0.0, 0.0)], labels)])
    assert mean_f1 == pytest.approx(oracle_f1, abs=1e-12)
    assert threshold == pytest.approx(oracle_t, abs=1e-12)


def test_empty_input_rejected():
    with pytest.raises(EmptyFold):
        shared_threshold_search([])
    with pytest.raises(EmptyFold):
        shared_threshold_search([([], [])])


def test_multi_fold_averaging():
    fold_a = ([ProbTriple(0.1, 0.8, 0.1), ProbTriple(0.9, 0.05, 0.05)], [1, 0])
    fold_b = ([ProbTriple(0.2, 0.1, 0.7), ProbTriple(0.85, 0.1, 0.05)], [2, 0])
    threshold, mean_f1 = shared_threshold_search([fold_a, fold_b])
    oracle = exhaustive_threshold_search(
        [([tuple(p) for p in probs], labels) for probs, labels in (fold_a, fold_b)]
    )
    assert mean_f1 == pytest.approx(oracle[1], abs=1e-12)
    assert threshold == pytest.approx(oracle[0], abs=1e-12)


def test_matches_exhaustive_oracle_on_random_instances():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        n_folds = int(rng.integers(1, 6))
        folds = []
        for _ in range(n_folds):
            n = int(rng.integers(1, 40))
            triples = [random_prob_triple(rng) for _ in range(n)]
            labels = rng.integers(0, 3, size=n).tolist()
            folds.append((triples, labels))
        got = shared_threshold_search(
            [([ProbTriple(*p) for p in probs], labels) for probs, labels in folds]
        )
        assert got == exhaustive_threshold_search(folds)


def test_returned_threshold_never_beaten_by_any_candidate():
    rng = np.random.default_rng(77)
    probs = [random_prob_triple(rng) for _ in range(30)]
    labels = rng.integers(0, 3, size=30).tolist()
    triples = [ProbTriple(*p) for p in probs]
    _, best_f1 = shared_threshold_search([(triples, labels)])
    _, oracle_best = exhaustive_threshold_search([(probs, labels)])
    assert best_f1 >= oracle_best - 1e-12


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatch):
        shared_threshold_search([(WORKED_TRIPLES, WORKED_LABELS[:3])])


def test_out_of_range_labels_rejected_like_confusion():
    for bad in (3, -1):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            shared_threshold_search([(WORKED_TRIPLES, WORKED_LABELS[:3] + [bad])])


def test_array_and_triple_inputs_agree():
    array = np.array([tuple(p) for p in WORKED_TRIPLES])
    assert shared_threshold_search([(array, WORKED_LABELS)]) == shared_threshold_search(
        [(WORKED_TRIPLES, WORKED_LABELS)]
    )


# --- shared_threshold_search's incremental sweep, bit-equal to the exhaustive
# search on ties and degenerate folds --------------------------------------------


def _eighths(rng, n):
    """Triples on the 1/8 grid: sums repeat within and across folds, p1 == p2 often."""
    out = []
    for _ in range(n):
        a = int(rng.integers(0, 9))
        b = int(rng.integers(0, 9 - a))
        out.append(ProbTriple(a / 8, b / 8, (8 - a - b) / 8))
    return out


def _equal_winner_rows(rng, n):
    out = []
    for _ in range(n):
        half = float(rng.random()) / 2
        out.append(ProbTriple(1.0 - 2 * half, half, half))
    return out


def _assert_bit_equal(folds):
    got = shared_threshold_search(folds)
    want = exhaustive_threshold_search(folds)
    assert got == want, (got, want)


def test_bit_equal_to_incremental_sweep_on_eighths():
    rng = np.random.default_rng(808)
    for _ in range(150):
        folds = []
        for _ in range(int(rng.integers(1, 7))):
            n = int(rng.integers(1, 40))
            folds.append((_eighths(rng, n), rng.integers(0, 3, size=n).tolist()))
        _assert_bit_equal(folds)


def test_bit_equal_to_incremental_sweep_on_equal_winners():
    rng = np.random.default_rng(909)
    for _ in range(60):
        folds = []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 30))
            probs = _equal_winner_rows(rng, n) + _eighths(rng, n)
            folds.append((probs, rng.integers(0, 3, size=2 * n).tolist()))
        _assert_bit_equal(folds)


def test_bit_equal_to_incremental_sweep_on_tiny_and_single_class_folds():
    rng = np.random.default_rng(1010)
    for _ in range(100):
        folds = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.choice([1, 1, 2, 5]))
            label = int(rng.integers(0, 3))
            probs = [ProbTriple(*random_prob_triple(rng)) for _ in range(n)]
            if rng.random() < 0.5:
                probs = _eighths(rng, n)
            folds.append((probs, [label] * n))
        _assert_bit_equal(folds)


def test_bit_equal_to_incremental_sweep_on_nine_large_folds():
    rng = np.random.default_rng(1200)
    folds = []
    for _ in range(9):
        probs = [ProbTriple(*random_prob_triple(rng)) for _ in range(150)]
        folds.append((probs, rng.integers(0, 3, size=150).tolist()))
    _assert_bit_equal(folds)


def _fold_file(tmp_path, name, rows):
    """(probabilities, labels) of rows read back from a predictions file."""
    path = tmp_path / name
    path.write_text("call_id,turn_index,p0,p1,p2\n"
                    + "".join(f"c,{i},{p0},{p1},{p2}\n" for i, (p0, p1, p2, _) in enumerate(rows)))
    proba = load_external_proba(path)
    return [proba[("c", i)] for i in range(len(rows))], [label for *_, label in rows]


def test_negative_zero_sum_is_kept_as_np_unique_keeps_it(tmp_path):
    """A p1 + p2 of -0.0 comes only from a file with p1 = p2 = -0.0. Its
    candidate stays -0.0 when it is the only zero sum, and where +0.0 sums
    occur too the zero candidate is whichever comes first, as np.unique's
    sort keeps it."""
    neg = _fold_file(tmp_path, "neg.csv", [(1.0, -0.0, -0.0, 1), (0.0, 1.0, 0.0, 1),
                                           (0.0, 0.0, 1.0, 2)])
    pos = _fold_file(tmp_path, "pos.csv", [(1.0, 0.0, 0.0, 1), (0.0, 1.0, 0.0, 1),
                                           (0.0, 0.0, 1.0, 2)])
    assert neg[0][0].p1 + neg[0][0].p2 == 0.0 and math.copysign(1.0, neg[0][0].p1 + neg[0][0].p2) < 0
    for folds, sign in (([neg], -1.0), ([neg, pos], -1.0), ([pos, neg], 1.0)):
        threshold, f1 = shared_threshold_search(folds)
        assert (threshold, math.copysign(1.0, threshold)) == (0.0, sign)
        want = exhaustive_threshold_search(folds)
        assert (threshold, f1) == want and math.copysign(1.0, want[0]) == sign
    assert json.dumps(shared_threshold_search([neg])[0]) == "-0.0"
