"""Cross-validation protocol, shared threshold selection and sweep harness.

One fold is reserved for testing. Each remaining fold serves once as the
validation fold for a model trained on all the others; the best epoch
checkpoint per fold is picked by validation ROC AUC. A single threshold is
then chosen for every checkpoint at once: candidates are all unique
p1 + p2 sums observed across the concatenated validation predictions
(plus a reject-all sentinel), scored by the mean validation F1-macro over
folds. Finally every per-fold checkpoint predicts the test fold at that
shared threshold and the reported test metrics are the per-fold mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .classifier import (
    Checkpoint,
    FeatureSpec,
    ProbTriple,
    TrainConfig,
    predict_proba,
    select_best_checkpoint,
    train,
)
from .corpus.model import Corpus, FoldPlan, TurnKey
from .decision import REJECT_ALL_THRESHOLD, DecisionRule, decide_batch
from .errors import EmptyFold, FoldTooSmall, LengthMismatch, UnknownAxis
from .metrics import (
    N_CLASSES,
    MetricBundle,
    ProbsLike,
    as_prob_array,
    check_labels,
    macro_prf,
    mean_bundle,
    metric_bundle,
)

FoldPredictions = tuple[ProbsLike, Sequence[int]]

# Default hyperparameter grids for the two supported sweep axes.
DEFAULT_CLASS_WEIGHT_GRID: tuple[tuple[float, float, float], ...] = (
    (0.005, 1.0, 1.0),
    (0.01, 1.0, 1.0),
    (0.02, 1.0, 1.0),
    (0.05, 1.0, 1.0),
    (0.075, 1.0, 1.0),
    (0.1, 1.0, 1.0),
    (1.0, 1.0, 1.0),
)
DEFAULT_LEARNING_RATE_GRID: tuple[float, ...] = (5e-7, 1e-6, 3e-6, 5e-6)

SWEEP_AXES = ("class_weights", "learning_rate")


def shared_threshold_search(
    per_fold_predictions: Sequence[FoldPredictions],
) -> tuple[float, float]:
    """Pick one threshold maximizing mean per-fold F1-macro.

    Each fold is a (probabilities, labels) pair; probabilities are an
    (n, 3) array or a sequence of ProbTriple. Candidates are the unique
    p1 + p2 values over all folds plus the reject-all sentinel. At
    threshold t a row is predicted as its winner (1 if p1 >= p2, else 2)
    when p1 + p2 >= t, and as 0 otherwise. Ties in mean F1 (exact float
    equality) resolve to the smallest threshold. Returns (threshold, mean
    F1-macro at that threshold).

    Each fold is sorted once by p1 + p2, descending. Cumulative
    (true class, winner) counts give the confusion matrix of every prefix
    of that order, one macro_prf call scores them all, and a binary search
    of each candidate into the sorted sums picks its prefix. With n rows,
    F folds and C candidates this is O(n log n + F * C) time and
    O(n + C) memory per fold, and the result equals scoring every
    candidate's confusion matrix one by one, bit for bit.
    """
    if not per_fold_predictions:
        raise EmptyFold("need at least one fold of predictions")
    folds = []
    for probs, labels in per_fold_predictions:
        if len(probs) == 0:
            raise EmptyFold("a fold with zero predictions cannot be scored")
        if len(probs) != len(labels):
            raise LengthMismatch(f"{len(probs)} predictions but {len(labels)} labels in a fold")
        arr = as_prob_array(probs)
        y = np.asarray(labels, dtype=np.int64)
        check_labels(y)
        winner = np.where(arr[:, 1] >= arr[:, 2], 1, 2)
        folds.append((arr[:, 1] + arr[:, 2], winner, y))

    candidates_desc = np.unique(np.concatenate([s for s, _, _ in folds]))[::-1]
    f1_sum = np.zeros(candidates_desc.size + 1)  # sentinel first
    for s, winner, y in folds:
        order = np.argsort(-s, kind="stable")
        n = s.size
        # cm[:, :, k]: confusion matrix when the k largest sums go to their
        # winner and every other row to class 0 (float64 counts, exact).
        flips = np.zeros((N_CLASSES, N_CLASSES, n + 1))
        flips[y[order], winner[order], np.arange(1, n + 1)] = 1.0
        cm = np.cumsum(flips, axis=2)
        cm[:, 0] = np.bincount(y, minlength=N_CLASSES)[:, None] - cm[:, 1] - cm[:, 2]
        f1_by_prefix = macro_prf(cm)[2]
        # Each candidate selects the rows with sum >= candidate; the
        # sentinel selects none.
        k = np.r_[0, np.searchsorted(-s[order], -candidates_desc, side="right")]
        f1_sum += f1_by_prefix[k]

    mean_f1 = f1_sum / len(folds)
    thresholds = np.r_[REJECT_ALL_THRESHOLD, candidates_desc]
    best_f1 = mean_f1.max()
    winners = thresholds[mean_f1 == best_f1]
    return float(winners.min()), float(best_f1)


def score_at(probs: ProbsLike, labels: Sequence[int], threshold: float) -> MetricBundle:
    """Decide every row at the threshold and score the decisions."""
    y_pred = decide_batch(probs, DecisionRule(threshold))
    return metric_bundle(labels, probs, y_pred, threshold)


@dataclass
class FoldResult:
    """Outcome of one validation fold inside a cross-validation run."""

    fold_index: int
    checkpoint: Checkpoint
    val_probs: list[ProbTriple]
    val_labels: list[int]


@dataclass
class CvRun:
    """Shared threshold and test metrics; folds is empty for external probabilities."""

    shared_threshold: float
    shared_threshold_mean_f1: float
    test_bundles: list[MetricBundle]
    mean_test_bundle: MetricBundle
    folds: list[FoldResult] = field(default_factory=list)


def tune_and_test(
    val_folds: Sequence[FoldPredictions],
    test_prob_sets: Sequence[ProbsLike],
    test_labels: Sequence[int],
) -> CvRun:
    """The protocol's tail, the same for trained and external probabilities.

    Picks the shared threshold on the validation folds, scores each test
    probability set against the test labels at it, and averages the rows.
    """
    threshold, mean_f1 = shared_threshold_search(val_folds)
    test_bundles = [score_at(probs, test_labels, threshold) for probs in test_prob_sets]
    return CvRun(
        shared_threshold=threshold,
        shared_threshold_mean_f1=mean_f1,
        test_bundles=test_bundles,
        mean_test_bundle=mean_bundle(test_bundles),
    )


def _examples(corpus: Corpus, keys: Sequence[TurnKey]) -> list[tuple[str, int]]:
    return [(t.text, t.label) for t in map(corpus.turn, keys)]


def train_fold(
    corpus: Corpus,
    fold_plan: FoldPlan,
    v: int,
    config: TrainConfig,
    feature_spec: FeatureSpec,
) -> list[Checkpoint]:
    """Train on every fold but v and the test fold; validate each epoch on v.

    The seed is config.seed + v, so a fold's model does not depend on which
    other folds are trained or in what order.
    """
    keys_by_fold = fold_plan.keys_by_fold()
    train_keys = [
        key
        for f in range(fold_plan.k)
        if f not in (v, fold_plan.test_fold)
        for key in keys_by_fold[f]
    ]
    return train(
        _examples(corpus, train_keys),
        replace(config, seed=config.seed + v),
        feature_spec,
        _examples(corpus, keys_by_fold[v]),
    )


def run_cross_validation(
    corpus: Corpus,
    fold_plan: FoldPlan,
    train_config: TrainConfig,
    feature_spec: FeatureSpec,
) -> CvRun:
    """Execute the full train / select / shared-threshold / test protocol.

    The test fold influences nothing upstream: models see only the other
    folds and the threshold is chosen on validation predictions alone.
    """
    if fold_plan.k < 3:
        raise FoldTooSmall(f"k={fold_plan.k}: need separate train, validation and test folds")
    fold_plan.validate_against(corpus)

    keys_by_fold = fold_plan.keys_by_fold()
    results: list[FoldResult] = []
    for v in range(fold_plan.k):
        if v == fold_plan.test_fold:
            continue
        # Kept until the next fold's list replaces it: freed sooner, the unselected
        # weights are trimmed by malloc and the next fold page-faults them back in.
        checkpoints = train_fold(corpus, fold_plan, v, train_config, feature_spec)
        best = select_best_checkpoint(checkpoints)
        val_examples = _examples(corpus, keys_by_fold[v])
        results.append(
            FoldResult(
                fold_index=v,
                checkpoint=best,
                val_probs=predict_proba(best, [t for t, _ in val_examples], feature_spec),
                val_labels=[label for _, label in val_examples],
            )
        )

    test_examples = _examples(corpus, keys_by_fold[fold_plan.test_fold])
    test_texts = [t for t, _ in test_examples]
    run = tune_and_test(
        [(r.val_probs, r.val_labels) for r in results],
        [predict_proba(r.checkpoint, test_texts, feature_spec) for r in results],
        [label for _, label in test_examples],
    )
    run.folds = results
    return run


@dataclass
class SweepResult:
    axis: str
    values: list
    bundles: list[MetricBundle]
    best_index: int

    def rows(self) -> list[tuple[object, MetricBundle]]:
        return list(zip(self.values, self.bundles))


def sweep(
    corpus: Corpus,
    fold_plan: FoldPlan,
    base_config: TrainConfig,
    axis: str,
    values: Sequence,
    feature_spec: FeatureSpec,
) -> SweepResult:
    """One cross-validation run per grid value along a single axis.

    The best row is the one with the highest mean test F1-macro (first on
    ties).
    """
    if axis not in SWEEP_AXES:
        raise UnknownAxis(axis)
    if not values:
        raise ValueError("sweep needs at least one grid value")

    bundles: list[MetricBundle] = []
    for value in values:
        value = tuple(value) if axis == "class_weights" else float(value)
        config = replace(base_config, **{axis: value})
        bundles.append(run_cross_validation(corpus, fold_plan, config, feature_spec).mean_test_bundle)

    best_index = max(range(len(bundles)), key=lambda i: (bundles[i].f1_macro, -i))
    return SweepResult(axis=axis, values=list(values), bundles=bundles, best_index=best_index)
