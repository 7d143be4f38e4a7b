"""Macro-averaged multiclass metrics over the 3-label scheme.

Conventions: precision and recall with a zero denominator are defined as
0; balanced accuracy is the macro recall; ROC AUC is one-vs-rest, computed
per class as the fraction of (positive, negative) pairs ranked correctly
with ties credited 0.5, then macro-averaged over the classes present.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

from .errors import EmptyInput, LengthMismatch, ProbabilityInvariantViolation, SingleClassOnly

N_CLASSES = 3

# A probability row must sum to 1 within this tolerance.
PROB_SUM_TOL = 1e-9

ProbsLike = Union[np.ndarray, Sequence]  # (n, 3) array, or a sequence of 3-sequences


def as_prob_array(probs: ProbsLike) -> np.ndarray:
    """Validated (n, 3) float64 array from an array or a sequence of triples.

    Sequence items are ProbTriple tuples or any other 3-sequences of
    numbers; an empty sequence gives a (0, 3) array. Every entry must be a
    non-negative number and every row must sum to 1 within PROB_SUM_TOL.
    """
    arr = np.asarray(probs, dtype=np.float64)
    if arr.shape == (0,):
        arr = arr.reshape(0, N_CLASSES)
    if arr.ndim != 2 or arr.shape[1] != N_CLASSES:
        raise ValueError(f"expected an (n, {N_CLASSES}) probability array, got shape {arr.shape}")
    if not (arr >= 0.0).all():
        raise ProbabilityInvariantViolation("negative or NaN probability")
    if (np.abs(arr.sum(axis=1) - 1.0) > PROB_SUM_TOL).any():
        raise ProbabilityInvariantViolation("a probability row does not sum to 1")
    return arr


def check_labels(*label_arrays: np.ndarray) -> None:
    """Raise ValueError unless every label lies in [0, N_CLASSES)."""
    for y in label_arrays:
        if y.size and (y.min() < 0 or y.max() >= N_CLASSES):
            raise ValueError(f"labels must lie in [0, {N_CLASSES})")


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> np.ndarray:
    """3x3 count matrix; rows are true classes, columns predicted classes."""
    yt = np.asarray(y_true, dtype=np.int64)
    yp = np.asarray(y_pred, dtype=np.int64)
    if yt.shape != yp.shape:
        raise LengthMismatch(f"y_true has {yt.size} labels, y_pred has {yp.size}")
    if yt.size == 0:
        raise EmptyInput("cannot build a confusion matrix from zero examples")
    check_labels(yt, yp)
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (yt, yp), 1)
    return cm


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def macro_prf(cm: np.ndarray):
    """(precision_macro, recall_macro, f1_macro, balanced_accuracy) from counts.

    cm has shape (3, 3, *batch): axis 0 is the true class, axis 1 the
    predicted class, and any trailing axes index a batch of matrices (one
    per candidate threshold, say). Each result then has the batch shape;
    a single 3x3 matrix gives four floats. Per class, precision is
    tp/(tp+fp), recall tp/(tp+fn) and F1 2*p*r/(p+r), each 0 where its
    denominator is 0; the macro values are (c0+c1+c2)/3.
    """
    counts = np.asarray(cm, dtype=np.float64)  # exact for counts below 2**53
    if counts.shape[:2] != (N_CLASSES, N_CLASSES):
        raise ValueError(
            f"expected a ({N_CLASSES}, {N_CLASSES}, ...) count array, got {counts.shape}"
        )
    diag = np.arange(N_CLASSES)
    tp = counts[diag, diag]
    # Integer-valued, so these equal tp + fp and tp + fn bit for bit.
    predicted = counts[0] + counts[1] + counts[2]
    actual = counts[:, 0] + counts[:, 1] + counts[:, 2]
    if not np.all(actual[0] + actual[1] + actual[2]):
        raise EmptyInput("confusion matrix is empty")
    p = _ratio(tp, predicted)
    r = _ratio(tp, actual)
    f = _ratio(2.0 * p * r, p + r)
    precision_macro, recall_macro, f1_macro = (
        (x[0] + x[1] + x[2]) / N_CLASSES for x in (p, r, f)
    )
    if counts.ndim == 2:
        return float(precision_macro), float(recall_macro), float(f1_macro), float(recall_macro)
    return precision_macro, recall_macro, f1_macro, recall_macro


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the mean rank of their group."""
    n = scores.size
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    boundaries = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    group_sizes = np.diff(np.r_[boundaries, n])
    group_mean_rank = boundaries + 1 + (group_sizes - 1) / 2.0
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.repeat(group_mean_rank, group_sizes)
    return ranks


def binary_auc(scores: Sequence[float], positives: Sequence[bool]) -> float:
    """Probability a random positive outranks a random negative (ties 0.5).

    Computed through average ranks, which is exactly the pairwise count
    with half credit for ties.
    """
    s = np.asarray(scores, dtype=float)
    pos = np.asarray(positives, dtype=bool)
    n_pos = int(pos.sum())
    n_neg = int(s.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise SingleClassOnly("AUC needs at least one positive and one negative")
    ranks = _average_ranks(s)
    pos_rank_sum = float(ranks[pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_auc_ovr_macro(y_true: Sequence[int], probs: ProbsLike) -> float:
    """Macro mean of per-class one-vs-rest AUC over the classes present.

    Raises ValueError for a label outside [0, N_CLASSES).
    """
    yt = np.asarray(y_true, dtype=np.int64)
    arr = as_prob_array(probs)
    if yt.size != arr.shape[0]:
        raise LengthMismatch(f"{yt.size} labels but {arr.shape[0]} probability rows")
    check_labels(yt)
    present = np.flatnonzero(np.bincount(yt, minlength=N_CLASSES))
    if present.size < 2:
        raise SingleClassOnly("need at least two distinct labels for ROC AUC")
    aucs = [binary_auc(arr[:, c], yt == c) for c in present]
    return float(sum(aucs) / len(aucs))


@dataclass(frozen=True)
class MetricBundle:
    """The metric row reported for one evaluation at one threshold."""

    roc_auc_macro_ovr: float
    recall_macro: float
    precision_macro: float
    balanced_accuracy: float
    f1_macro: float
    accuracy: float
    threshold_used: float

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def metric_bundle(
    y_true: Sequence[int],
    probs: ProbsLike,
    y_pred: Sequence[int],
    threshold_used: float,
) -> MetricBundle:
    """Assemble the full metric row from labels, scores and decided classes."""
    cm = confusion(y_true, y_pred)
    precision, recall, f1, balanced = macro_prf(cm)
    accuracy = float(np.trace(cm) / cm.sum())
    return MetricBundle(
        roc_auc_macro_ovr=roc_auc_ovr_macro(y_true, probs),
        recall_macro=recall,
        precision_macro=precision,
        balanced_accuracy=balanced,
        f1_macro=f1,
        accuracy=accuracy,
        threshold_used=threshold_used,
    )


def mean_bundle(bundles: Sequence[MetricBundle]) -> MetricBundle:
    """Field-wise arithmetic mean of metric rows."""
    if not bundles:
        raise EmptyInput("no metric bundles to average")
    values = {
        f.name: sum(getattr(b, f.name) for b in bundles) / len(bundles)
        for f in fields(MetricBundle)
    }
    return MetricBundle(**values)
