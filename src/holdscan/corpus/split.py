"""Stratified assignment of labeled turns to cross-validation folds.

Row mode shuffles each class independently and deals near-equal chunks to
the folds, so per-fold class counts are always floor(total/k) or
ceil(total/k). Call-grouped mode keeps every turn of a call in one fold
and balances class proportions greedily.
"""

from __future__ import annotations

import numpy as np

from ..errors import ClassTooSmall, SplitInfeasible
from .model import LABELS, Corpus, FoldPlan, TurnTable

# Relative deviation of per-fold class proportions tolerated in
# call_grouped mode before the split is declared infeasible.
CALL_GROUPED_TOLERANCE = 0.20


def stratified_split(
    corpus: Corpus,
    k: int,
    seed: int,
    mode: str = "row",
    test_fold: int = 0,
) -> FoldPlan:
    """Split all labeled turns of the corpus into k stratified folds.

    mode "row" spreads every class evenly across folds (counts differ by at
    most one); mode "call_grouped" never splits a call across folds and
    keeps per-fold class proportions within a relative tolerance of the
    global proportions. Raises ClassTooSmall when a class cannot reach
    every fold, Unlabeled when a turn has no label.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if mode not in ("row", "call_grouped"):
        raise ValueError(f"mode must be 'row' or 'call_grouped', got {mode!r}")
    table = corpus.table
    table.require_labels("splitting requires a labeled corpus")

    if mode == "row":
        fold_of = _split_rows(table, k, seed)
    else:
        fold_of = _split_calls(table, k, seed)

    assignment = dict(zip(table.keys, fold_of.tolist()))
    plan = FoldPlan(k=k, assignment=assignment, test_fold=test_fold)
    plan.validate_against(corpus)
    return plan


def _split_rows(table: TurnTable, k: int, seed: int) -> np.ndarray:
    """Each row's fold: every class, in label order, is shuffled from key
    order and dealt to the folds in near-equal chunks."""
    rng = np.random.default_rng(seed)
    order = table.key_order
    labels = table.label[order]
    present = [label for label in LABELS if (labels == label).any()]
    for label in present:
        if (labels == label).sum() < k:
            raise ClassTooSmall(label, int((labels == label).sum()), k)

    fold_of = np.empty(len(table), dtype=np.int64)
    for label in present:
        rows = order[labels == label]
        shuffled = rows[rng.permutation(len(rows))]
        # Deal chunk sizes floor or floor+1; which folds get the extra row
        # is itself randomized so fold 0 carries no systematic surplus.
        base, extra = divmod(len(rows), k)
        sizes = np.full(k, base)
        sizes[rng.permutation(k)[:extra]] += 1
        fold_of[shuffled] = np.repeat(np.arange(k), sizes)
    return fold_of


def _split_calls(table: TurnTable, k: int, seed: int) -> np.ndarray:
    """Each row's fold: whole calls, placed greedily, rare-class-heavy calls first."""
    rng = np.random.default_rng(seed)
    n_calls = len(table.call_ids)
    if n_calls < k:
        raise SplitInfeasible(f"cannot spread {n_calls} calls over {k} folds")

    vectors = np.zeros((n_calls, 3))
    np.add.at(vectors, (table.call_of_row, table.label), 1)
    totals = vectors.sum(axis=0)
    # Absent classes are fine; avoid dividing by zero in the target.
    safe_totals = np.where(totals == 0, 1.0, totals)

    # Seeded shuffle breaks ties between equal-profile calls, then calls
    # heavy in rare classes are placed first while folds are still empty.
    shuffled = rng.permutation(n_calls)
    lengths = np.diff(table.offsets)
    order = shuffled[np.lexsort((-lengths[shuffled], -vectors[shuffled, 1],
                                 -vectors[shuffled, 2]))]

    fold_counts = np.zeros((k, 3))
    target = safe_totals / k
    call_fold = np.empty(n_calls, dtype=np.int64)
    for call in order.tolist():
        v = vectors[call]
        # Squared relative overshoot against the per-fold target; the fold
        # that stays closest to proportional wins.
        costs = (((fold_counts + v) / target) ** 2).sum(axis=1)
        fold = int(np.argmin(costs))
        fold_counts[fold] += v
        call_fold[call] = fold

    _check_call_grouped_balance(fold_counts, totals)
    return call_fold[table.call_of_row]


def _check_call_grouped_balance(fold_counts: np.ndarray, totals: np.ndarray) -> None:
    grand = fold_counts.sum()
    global_prop = totals / grand
    for fold, counts in enumerate(fold_counts):
        fold_total = counts.sum()
        if fold_total == 0:
            raise SplitInfeasible(f"fold {fold} received no turns")
        for label in range(3):
            if totals[label] <= 0 or global_prop[label] == 0:
                continue
            prop = counts[label] / fold_total
            rel = abs(prop - global_prop[label]) / global_prop[label]
            if rel > CALL_GROUPED_TOLERANCE:
                raise SplitInfeasible(
                    f"fold {fold} class {label} proportion {prop:.4f} deviates "
                    f"{rel:.0%} from global {global_prop[label]:.4f}"
                )
