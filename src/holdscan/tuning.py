"""Cross-validation protocol, shared threshold selection and sweep harness.

A run featurizes the fold plan's labeled turns once, into one feature
matrix whose rows run fold after fold; every fold is a range of its rows.
One fold is reserved for testing. Each remaining fold serves once as the
validation fold for a model trained on the rows of all the others; the
best epoch checkpoint per fold is picked by validation ROC AUC. A fold
trains no epoch after its first AUC of 1.0: no AUC exceeds 1.0, so no
later checkpoint could be picked. The fold models are independent, so
they train in parallel worker processes, one per usable CPU, with the
same bits as one after another; a caller's save function writes each
fold model in the process that trained it. A single threshold is then
chosen for every checkpoint at once: candidates are all unique p1 + p2
sums observed across the concatenated validation predictions (plus a
reject-all sentinel), scored by the mean validation F1-macro over folds.
Finally every per-fold checkpoint scores the test fold's rows at that
shared threshold and the reported test metrics are the per-fold mean. A
sweep runs this once per grid value on one shared matrix and picks its
best value by that validation mean F1-macro, so the test fold plays no
part in the pick either.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .classifier import (
    Checkpoint,
    FeatureSpec,
    TrainConfig,
    _Csr,
    _featurize_many,
    _gather,
    _softmax_rows,
    fit,
    select_best_checkpoint,
)
from .corpus.model import Corpus, FoldPlan
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
SaveFold = Callable[[int, Checkpoint], object]  # see run_cross_validation

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
DEFAULT_LEARNING_RATE_GRID: tuple[float, ...] = (0.025, 0.05, 0.1, 0.2, 0.4)

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
    """The epoch and validation AUC of one validation fold's best checkpoint."""

    fold_index: int
    epoch: int
    validation_auc: float


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


@dataclass(frozen=True)
class FoldMatrix:
    """A fold plan's labeled turns as one feature matrix, fold after fold.

    Row i holds the features and label of a turn of fold fold_of[i]; within
    a fold the turns are in key order, as FoldPlan.keys_by_fold lists them.
    feature_spec is the spec the rows were featurized with, and so the one
    every model trained on them uses.
    """

    feats: _Csr
    labels: np.ndarray
    fold_of: np.ndarray
    k: int
    test_fold: int
    feature_spec: FeatureSpec

    def rows(self, *folds: int) -> np.ndarray:
        """The rows of the given folds, in ascending order."""
        return np.flatnonzero(np.isin(self.fold_of, folds))


def fold_matrix(corpus: Corpus, fold_plan: FoldPlan, feature_spec: FeatureSpec) -> FoldMatrix:
    """Featurize the plan's labeled turns, all in one call."""
    keys_by_fold = fold_plan.keys_by_fold()
    turns = [corpus.turn(key) for keys in keys_by_fold for key in keys]
    return FoldMatrix(
        feats=_featurize_many((t.text for t in turns), feature_spec),
        labels=np.array([t.label for t in turns]),
        fold_of=np.repeat(np.arange(fold_plan.k), [len(keys) for keys in keys_by_fold]),
        k=fold_plan.k,
        test_fold=fold_plan.test_fold,
        feature_spec=feature_spec,
    )


def train_fold(matrix: FoldMatrix, v: int, config: TrainConfig) -> Iterator[Checkpoint]:
    """Train on every fold but v and the test fold; yield each epoch's
    Checkpoint, validated on v.

    The seed is config.seed + v, so a fold's model does not depend on which
    other folds are trained or in what order.
    """
    train_folds = [f for f in range(matrix.k) if f not in (v, matrix.test_fold)]
    return fit(
        matrix.feats,
        matrix.labels,
        matrix.rows(*train_folds),
        matrix.rows(v),
        replace(config, seed=config.seed + v),
        matrix.feature_spec,
    )


def _checked_matrix(corpus: Corpus, fold_plan: FoldPlan, feature_spec: FeatureSpec) -> FoldMatrix:
    if fold_plan.k < 3:
        raise FoldTooSmall(f"k={fold_plan.k}: need separate train, validation and test folds")
    fold_plan.validate_against(corpus)
    return fold_matrix(corpus, fold_plan, feature_spec)


def _fold_model(matrix: FoldMatrix, v: int, config: TrainConfig,
                save: SaveFold | None = None) -> tuple[FoldResult, np.ndarray, np.ndarray]:
    """Fold v's best checkpoint, passed to save, as its FoldResult and the
    probabilities of v's rows and of the test fold's rows, scored in one pass."""
    best = select_best_checkpoint(train_fold(matrix, v, config))
    if save is not None:
        save(v, best)
    val_rows = matrix.rows(v)
    scored = matrix.feats.take(np.r_[val_rows, matrix.rows(matrix.test_fold)])
    probs = _softmax_rows(_gather(scored, best.weights) + best.bias)
    return (FoldResult(v, best.epoch, best.validation_auc), *np.split(probs, [len(val_rows)]))


# A pool worker's (FoldMatrix, save), set by _init_worker; fork passes both unpickled.
_worker_state: tuple[FoldMatrix, SaveFold | None] | None = None


def _init_worker(matrix: FoldMatrix, save: SaveFold | None) -> None:
    global _worker_state
    _worker_state = (matrix, save)


def _fold_task(config: TrainConfig, v: int) -> tuple[FoldResult, np.ndarray, np.ndarray]:
    """One pool task: _fold_model on the worker's matrix and save function."""
    matrix, save = _worker_state
    return _fold_model(matrix, v, config, save)


def _worker_count(n_tasks: int) -> int:
    """Worker processes for n_tasks fold tasks: one per usable CPU, at most
    one per task. 1 means in-process, as on platforms without CPU affinity
    (macOS, where fork is unsafe) or without fork (Windows)."""
    import multiprocessing

    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(len(affinity(0)), n_tasks)


@contextmanager
def _fold_models(
    matrix: FoldMatrix, tasks: Sequence[tuple[TrainConfig, int]], save: SaveFold | None = None
) -> Iterator[Iterator[tuple[FoldResult, np.ndarray, np.ndarray]]]:
    """An iterator of _fold_model results for the (config, v) tasks, in task order.

    Tasks are independent, so they run on a pool of forked worker
    processes when more than one CPU is usable, and the results are the
    same bits as in-process. Fork hands each worker the matrix and save
    without pickling them, and the pool forks every worker before it
    starts any thread. The pool lives inside this context, so its workers
    are joined on success and on error. A worker's exception reaches the
    caller (ChildProcessError if it died), and unstarted tasks are dropped.
    """
    workers = _worker_count(len(tasks))
    if workers == 1:
        yield (_fold_model(matrix, v, config, save) for config, v in tasks)
        return
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker,
                             initargs=(matrix, save)) as pool:
        try:
            yield pool.map(_fold_task, *zip(*tasks))
        except BrokenProcessPool as exc:
            raise ChildProcessError(f"a fold worker process died: {exc}") from None


def _cross_validate(matrix: FoldMatrix, configs: Sequence[TrainConfig],
                    save: SaveFold | None = None) -> Iterator[CvRun]:
    """One CvRun per config, in config order.

    Every (config, validation fold) pair is one task of one map, so a
    sweep keeps every worker busy across its grid. A run is yielded as
    soon as its fold results arrive.
    """
    test_labels = matrix.labels[matrix.rows(matrix.test_fold)]
    val_folds = [v for v in range(matrix.k) if v != matrix.test_fold]
    val_labels = [matrix.labels[matrix.rows(v)] for v in val_folds]
    tasks = [(config, v) for config in configs for v in val_folds]
    with _fold_models(matrix, tasks, save) as fold_models:
        for _ in configs:
            results, val_probs, test_probs = zip(*islice(fold_models, len(val_folds)))
            run = tune_and_test(list(zip(val_probs, val_labels)), test_probs, test_labels)
            run.folds = list(results)
            yield run


def run_cross_validation(
    corpus: Corpus,
    fold_plan: FoldPlan,
    train_config: TrainConfig,
    feature_spec: FeatureSpec,
    save: SaveFold | None = None,
) -> CvRun:
    """Execute the full train / select / shared-threshold / test protocol.

    The test fold influences nothing upstream: models see only the other
    folds and the threshold is chosen on validation predictions alone.
    save(v, checkpoint), if given, runs on each validation fold's best
    checkpoint in the process that trained it, a pool worker or this one,
    so no weights cross processes; it returns nothing that is kept.
    """
    (run,) = _cross_validate(_checked_matrix(corpus, fold_plan, feature_spec), [train_config], save)
    return run


@dataclass
class SweepResult:
    """Per grid value: the mean test metrics and the validation mean F1-macro
    at the shared threshold, which alone picks best_index."""

    axis: str
    values: list
    bundles: list[MetricBundle]
    validation_mean_f1: list[float]
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

    Every run shares one feature matrix. The best row is the one with the
    highest validation mean F1-macro (first on ties); test metrics are
    reported only.
    """
    if axis not in SWEEP_AXES:
        raise UnknownAxis(axis)
    if not values:
        raise ValueError("sweep needs at least one grid value")

    matrix = _checked_matrix(corpus, fold_plan, feature_spec)
    configs = [replace(base_config, **{axis: tuple(v) if axis == "class_weights" else float(v)})
               for v in values]
    bundles: list[MetricBundle] = []
    val_f1: list[float] = []
    for run in _cross_validate(matrix, configs):
        bundles.append(run.mean_test_bundle)
        val_f1.append(run.shared_threshold_mean_f1)

    return SweepResult(axis=axis, values=list(values), bundles=bundles,
                       validation_mean_f1=val_f1, best_index=val_f1.index(max(val_f1)))
