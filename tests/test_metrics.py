import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holdscan.classifier import ProbTriple
from holdscan.metrics import (
    PROB_SUM_TOL,
    MetricBundle,
    as_prob_array,
    binary_auc,
    confusion,
    macro_prf,
    mean_bundle,
    metric_bundle,
    roc_auc_ovr_macro,
)
from holdscan.errors import (
    EmptyInput,
    LengthMismatch,
    ProbabilityInvariantViolation,
    SingleClassOnly,
)

from oracles import brute_pair_auc, naive_macro_prf, trapezoid_auc


class TestConfusion:
    def test_identity(self):
        cm = confusion([0, 1, 2], [0, 1, 2])
        assert np.array_equal(np.diag(cm), [1, 1, 1])
        assert cm.sum() == 3

    def test_off_diagonal(self):
        cm = confusion([0, 0], [1, 2])
        assert list(cm[0]) == [0, 1, 1]

    def test_total_conserved(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 3, size=57)
        y_pred = rng.integers(0, 3, size=57)
        assert confusion(y_true, y_pred).sum() == 57

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([0, 1], [0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            confusion([], [])


class TestMacroPrf:
    def test_hand_computed_case(self):
        cm = confusion([0, 0, 1, 2], [0, 1, 1, 2])
        precision, recall, f1, balanced = macro_prf(cm)
        assert precision == pytest.approx((1.0 + 0.5 + 1.0) / 3, abs=1e-9)
        assert recall == pytest.approx((0.5 + 1.0 + 1.0) / 3, abs=1e-9)
        assert f1 == pytest.approx((2 / 3 + 2 / 3 + 1.0) / 3, abs=1e-9)
        assert balanced == recall

    def test_perfect_predictions(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1])
        assert macro_prf(cm) == (1.0, 1.0, 1.0, 1.0)

    def test_zero_denominator_convention(self):
        # class 2 never predicted and never true: P2 = R2 = F2 = 0
        cm = confusion([0, 1], [0, 1])
        precision, recall, f1, _ = macro_prf(cm)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_empty_matrix(self):
        with pytest.raises(EmptyInput):
            macro_prf(np.zeros((3, 3), dtype=int))

    def test_matches_naive_oracle_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            y_true = rng.integers(0, 3, size=n).tolist()
            y_pred = rng.integers(0, 3, size=n).tolist()
            got = macro_prf(confusion(y_true, y_pred))[:3]
            want = naive_macro_prf(y_true, y_pred)
            assert got == pytest.approx(want, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        y_true = rng.integers(0, 3, size=40)
        y_pred = rng.integers(0, 3, size=40)
        base = macro_prf(confusion(y_true, y_pred))
        perm = rng.permutation(40)
        assert macro_prf(confusion(y_true[perm], y_pred[perm])) == base


class TestBinaryAuc:
    def test_half_correct_pairs(self):
        # positives {0.9, 0.35}, negative {0.4}: one pair right, one wrong
        assert binary_auc([0.9, 0.35, 0.4], [True, True, False]) == 0.5

    def test_perfect_separation(self):
        assert binary_auc([0.9, 0.8, 0.1, 0.2], [True, True, False, False]) == 1.0

    def test_all_ties(self):
        assert binary_auc([0.5, 0.5, 0.5], [True, False, False]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassOnly):
            binary_auc([0.5, 0.6], [True, True])

    def test_matches_brute_force_and_trapezoid(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            scores = np.round(rng.random(n), 2).tolist()  # coarse grid forces ties
            flags = rng.integers(0, 2, size=n).astype(bool)
            if flags.all() or not flags.any():
                continue
            flags = flags.tolist()
            got = binary_auc(scores, flags)
            assert got == pytest.approx(brute_pair_auc(scores, flags), abs=1e-12)
            assert got == pytest.approx(trapezoid_auc(scores, flags), abs=1e-9)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(9)
        scores = np.round(rng.random(30), 2)
        flags = (rng.random(30) < 0.3).tolist()
        if not any(flags) or all(flags):
            flags[0] = True
            flags[1] = False
        base = binary_auc(scores.tolist(), flags)
        transformed = (0.5 * scores + 2.0).tolist()  # affine, strictly increasing
        assert binary_auc(transformed, flags) == base


class TestOvrMacro:
    def test_macro_over_present_classes_only(self):
        y = [0, 0, 1, 1]  # class 2 absent
        probs = [(0.9, 0.1, 0.0), (0.8, 0.2, 0.0), (0.2, 0.8, 0.0), (0.3, 0.7, 0.0)]
        assert roc_auc_ovr_macro(y, probs) == 1.0

    def test_single_class_only(self):
        with pytest.raises(SingleClassOnly):
            roc_auc_ovr_macro([1, 1, 1], [(0.1, 0.8, 0.1)] * 3)

    def test_uniform_scores_give_half(self):
        y = [0, 1, 2, 0]
        probs = [(1 / 3, 1 / 3, 1 / 3)] * 4
        assert roc_auc_ovr_macro(y, probs) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            roc_auc_ovr_macro([0, 1, 2], [(1 / 3, 1 / 3, 1 / 3)] * 2)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_label(self, bad):
        # -1 used to score column 2 as a class of its own, and 3 to raise IndexError.
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            roc_auc_ovr_macro([0, 1, bad], [(0.8, 0.1, 0.1), (0.1, 0.8, 0.1), (0.1, 0.1, 0.8)])


class TestAsProbArray:
    @pytest.mark.parametrize("arr", [np.full((2, 2), 0.5), np.array([0.2, 0.3, 0.5])],
                             ids=["n_by_2", "one_dim"])
    def test_wrong_shape(self, arr):
        with pytest.raises(ValueError):
            as_prob_array(arr)

    @pytest.mark.parametrize("bad", [-0.1, np.nan], ids=["negative", "nan"])
    def test_negative_or_nan_entry(self, bad):
        with pytest.raises(ProbabilityInvariantViolation):
            as_prob_array(np.array([[0.5, 0.5, 0.0], [1.0 - bad, bad, 0.0]]))

    def test_row_sum_tolerance(self):
        with pytest.raises(ProbabilityInvariantViolation):
            as_prob_array(np.array([[0.5, 0.5, 2e-9]]))
        within = np.array([[0.5, 0.5, PROB_SUM_TOL / 2]])
        assert np.array_equal(as_prob_array(within), within)

    def test_plain_tuples_match_prob_triples(self):
        rows = [(0.8, 0.15, 0.05), (0.0, 1.0, 0.0), (1 / 3, 1 / 3, 1 / 3)]
        from_tuples = as_prob_array(rows)
        assert from_tuples.dtype == np.float64 and from_tuples.shape == (3, 3)
        assert np.array_equal(from_tuples, as_prob_array([ProbTriple(*r) for r in rows]))
        assert np.array_equal(from_tuples, as_prob_array(np.array(rows)))

    def test_empty_sequence(self):
        arr = as_prob_array([])
        assert arr.dtype == np.float64 and arr.shape == (0, 3)

    @pytest.mark.parametrize("bad", [[0.2, 0.3, 0.5],
                                     [(0.2, 0.3, 0.5), (0.5, 0.5)],
                                     [(0.2, 0.3, 0.5, 0.0), (0.5, 0.5, 0.0, 0.0)]],
                             ids=["flat", "ragged", "four_tuples"])
    def test_sequences_of_the_wrong_shape(self, bad):
        with pytest.raises(ValueError):
            as_prob_array(bad)


class TestBundles:
    def test_balanced_accuracy_equals_macro_recall(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(3, 50))
            y_true = rng.integers(0, 3, size=n)
            if len(np.unique(y_true)) < 2:
                continue
            probs = rng.dirichlet([1, 1, 1], size=n)
            y_pred = rng.integers(0, 3, size=n)
            bundle = metric_bundle(y_true, probs, y_pred, threshold_used=0.5)
            assert bundle.balanced_accuracy == bundle.recall_macro

    def test_all_fields_within_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(3, 50))
            y_true = rng.integers(0, 3, size=n)
            if len(np.unique(y_true)) < 2:
                continue
            probs = rng.dirichlet([1, 1, 1], size=n)
            y_pred = rng.integers(0, 3, size=n)
            bundle = metric_bundle(y_true, probs, y_pred, threshold_used=0.5)
            for name, value in bundle.as_dict().items():
                if name != "threshold_used":
                    assert 0.0 <= value <= 1.0, name

    def test_mean_bundle_is_fieldwise_mean(self):
        a = MetricBundle(0.9, 0.8, 0.7, 0.8, 0.75, 0.95, 0.5)
        b = MetricBundle(0.7, 0.6, 0.5, 0.6, 0.55, 0.85, 0.5)
        mean = mean_bundle([a, b])
        assert mean.roc_auc_macro_ovr == pytest.approx(0.8)
        assert mean.f1_macro == pytest.approx(0.65)
        assert mean.threshold_used == pytest.approx(0.5)

    def test_mean_bundle_empty(self):
        with pytest.raises(EmptyInput):
            mean_bundle([])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_auc_bounds_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    scores = rng.random(n).tolist()
    flags = rng.integers(0, 2, size=n).astype(bool)
    if flags.all() or not flags.any():
        return
    value = binary_auc(scores, flags.tolist())
    assert 0.0 <= value <= 1.0


def _separates(scores, positives):
    """Whether every positive scores strictly above every negative."""
    pos = [s for s, p in zip(scores, positives) if p]
    neg = [s for s, p in zip(scores, positives) if not p]
    return min(pos) > max(neg)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=2, max_size=60))
def test_binary_auc_reaches_one_only_under_separation(rows):
    """A coarse score grid forces ties; the AUC never exceeds 1.0 and is
    exactly 1.0 when, and only when, the positives separate."""
    scores = [score / 4 for score, _ in rows]
    positives = [flag for _, flag in rows]
    if all(positives) or not any(positives):
        return
    value = binary_auc(scores, positives)
    assert value <= 1.0
    assert (value == 1.0) == _separates(scores, positives)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(0, 1), (0, 2), (1, 2), (0, 1, 2)]).flatmap(lambda classes: st.lists(
    st.tuples(st.sampled_from(classes), st.tuples(*[st.integers(0, 3)] * 3)),
    min_size=2, max_size=60)))
def test_ovr_macro_auc_reaches_one_only_when_every_class_separates(rows):
    """2- and 3-class label sets over rows of tied probabilities: the macro
    AUC never exceeds 1.0 and is exactly 1.0 when, and only when, every
    present class separates from the rest."""
    y = [label for label, _ in rows]
    weights = np.array([w for _, w in rows], dtype=float) + np.eye(3)[y]  # no all-zero row
    probs = weights / weights.sum(axis=1, keepdims=True)
    present = sorted(set(y))
    if len(present) < 2:
        return
    value = roc_auc_ovr_macro(y, probs)
    assert value <= 1.0
    every_class_separates = all(
        _separates(probs[:, c].tolist(), [label == c for label in y]) for c in present
    )
    assert (value == 1.0) == every_class_separates
