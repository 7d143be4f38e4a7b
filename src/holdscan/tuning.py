"""Cross-validation protocol, shared threshold selection and sweep harness.

A run featurizes the distinct texts of the fold plan's labeled turns
once, into one feature matrix with a row per distinct text; the turns run
fold after fold, each mapped to its text's row, so every fold is a range
of turns.
One fold is reserved for testing. Each remaining fold serves once as the
validation fold for a model trained on the rows of all the others; the
best epoch checkpoint per fold is picked by validation ROC AUC. A fold
trains no epoch after its first AUC of 1.0: no AUC exceeds 1.0, so no
later checkpoint could be picked. The fold models are independent, so
they train in parallel worker processes, one per usable CPU, with the
same bits as one after another, and each best checkpoint comes back to
the caller. A single threshold is then chosen for every checkpoint at
once: candidates are all unique p1 + p2 sums observed across the
concatenated validation predictions (plus a reject-all sentinel), scored
by the mean validation F1-macro over folds.
Finally every per-fold checkpoint scores the test fold's rows at that
shared threshold and the reported test metrics are the per-fold mean. A
sweep runs this once per grid value on one shared matrix and picks its
best value by that validation mean F1-macro, so the test fold plays no
part in the pick either.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .classifier import (
    Checkpoint,
    FeatureSpec,
    TrainConfig,
    _compact,
    _Csr,
    _featurize_many,
    _gather,
    _softmax_rows,
    _usable_cpus,
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

    sums = np.sort(np.concatenate([s for s, _, _ in folds]))
    # np.unique's values, without the numpy.ma import np.unique makes on numpy 2.x.
    candidates_desc = sums[np.r_[True, sums[1:] != sums[:-1]]][::-1]
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
class CvRun:
    """Shared threshold and test metrics, and each validation fold's best
    Checkpoint by fold; models is empty for external probabilities."""

    shared_threshold: float
    shared_threshold_mean_f1: float
    test_bundles: list[MetricBundle]
    mean_test_bundle: MetricBundle
    models: dict[int, Checkpoint] = field(default_factory=dict)


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
    """A fold plan's labeled turns, fold after fold, and one feature matrix
    of their distinct texts.

    Turn i has label labels[i], lies in fold fold_of[i] and has its text's
    features in row text_of[i] of feats, which holds one row per distinct
    text, in first-seen order; within a fold the turns are in key order, as
    FoldPlan.fold_rows lists them. Training and scoring copy the rows of
    the turns they read (fit). The features' indices are ranks into
    columns, the buckets any row uses, so every fold model's weights have
    one row per column. feature_spec is the spec the rows were featurized
    with, and so the one every model trained on them uses.
    """

    feats: _Csr
    text_of: np.ndarray
    columns: np.ndarray
    labels: np.ndarray
    fold_of: np.ndarray
    k: int
    test_fold: int
    feature_spec: FeatureSpec

    def rows(self, *folds: int) -> np.ndarray:
        """The turns of the given folds, in ascending order."""
        return np.flatnonzero(np.isin(self.fold_of, folds))


def fold_matrix(corpus: Corpus, fold_plan: FoldPlan, feature_spec: FeatureSpec) -> FoldMatrix:
    """Featurize the distinct texts of the plan's labeled turns, all in one
    call, and keep the buckets they use."""
    rows_by_fold = fold_plan.fold_rows(corpus)
    rows = np.concatenate(rows_by_fold)
    table = corpus.table
    feats, text_of = _featurize_many(map(table.text.__getitem__, rows.tolist()), feature_spec)
    columns, feats = _compact(feats, feature_spec.hash_dim)
    return FoldMatrix(
        feats=feats,
        text_of=text_of,
        columns=columns,
        labels=table.label[rows],
        fold_of=np.repeat(np.arange(fold_plan.k), [len(r) for r in rows_by_fold]),
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
        matrix.text_of,
        matrix.columns,
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


def _fold_model(matrix: FoldMatrix, v: int,
                config: TrainConfig) -> tuple[Checkpoint, np.ndarray, np.ndarray]:
    """Fold v's best checkpoint and the probabilities of v's turns and of the
    test fold's turns, scored in one pass."""
    best = select_best_checkpoint(train_fold(matrix, v, config))
    val_rows = matrix.rows(v)
    scored = matrix.feats.take(matrix.text_of[np.r_[val_rows, matrix.rows(matrix.test_fold)]])
    probs = _softmax_rows(_gather(scored, best.weights.T) + best.bias)
    return (best, *np.split(probs, [len(val_rows)]))


# A pool worker's FoldMatrix, set by _init_worker; fork passes it unpickled.
_worker_matrix: FoldMatrix | None = None


def _init_worker(matrix: FoldMatrix) -> None:
    global _worker_matrix
    _worker_matrix = matrix


def _fold_task(config: TrainConfig, v: int) -> tuple[Checkpoint, np.ndarray, np.ndarray]:
    """One pool task: _fold_model on the worker's matrix."""
    return _fold_model(_worker_matrix, v, config)


def _worker_count(n_tasks: int) -> int:
    """Worker processes for n_tasks fold tasks: one per usable CPU, at most
    one per task. 1 means in-process, as on every platform without
    os.sched_getaffinity (macOS, where fork is unsafe, and Windows, which
    has no fork); every platform that has it ("Unix, not Emscripten, not
    WASI") can fork."""
    return min(_usable_cpus(), n_tasks)


@contextmanager
def _fold_models(
    matrix: FoldMatrix, tasks: Sequence[tuple[TrainConfig, int]]
) -> Iterator[Iterator[tuple[Checkpoint, np.ndarray, np.ndarray]]]:
    """An iterator of _fold_model results for the (config, v) tasks, in task order.

    Tasks are independent, so they run on a pool of forked worker
    processes when more than one CPU is usable, and the results are the
    same bits as in-process. Fork hands each worker the matrix without
    pickling it, and the pool forks every worker before it starts any
    thread. The pool lives inside this context, so its workers are joined
    on success and on error. A worker's exception reaches the caller
    (ChildProcessError if it died), and unstarted tasks are dropped.
    """
    workers = _worker_count(len(tasks))
    if workers == 1:
        yield (_fold_model(matrix, v, config) for config, v in tasks)
        return
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_init_worker,
                             initargs=(matrix,)) as pool:
        try:
            yield pool.map(_fold_task, *zip(*tasks))
        except BrokenProcessPool as exc:
            raise ChildProcessError(f"a fold worker process died: {exc}") from None


def _cross_validate(matrix: FoldMatrix, configs: Sequence[TrainConfig]) -> Iterator[CvRun]:
    """One CvRun per config, in config order.

    Every (config, validation fold) pair is one task of one map, so a
    sweep keeps every worker busy across its grid. A run is yielded as
    soon as its fold models arrive.
    """
    test_labels = matrix.labels[matrix.rows(matrix.test_fold)]
    val_folds = [v for v in range(matrix.k) if v != matrix.test_fold]
    val_labels = [matrix.labels[matrix.rows(v)] for v in val_folds]
    tasks = [(config, v) for config in configs for v in val_folds]
    with _fold_models(matrix, tasks) as fold_models:
        for _ in configs:
            models, val_probs, test_probs = zip(*islice(fold_models, len(val_folds)))
            run = tune_and_test(list(zip(val_probs, val_labels)), test_probs, test_labels)
            run.models = dict(zip(val_folds, models))
            yield run


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
    (run,) = _cross_validate(_checked_matrix(corpus, fold_plan, feature_spec), [train_config])
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
