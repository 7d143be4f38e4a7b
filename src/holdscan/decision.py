"""Threshold-moving decision rule.

A plain argmax under-fires on the rare script classes, so the positive
classes compete only with each other: when p1 + p2 clears the threshold,
the winner is the larger of the two (ties go to the opening class),
otherwise the turn is irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import ProbTriple
from .metrics import ProbsLike, as_prob_array

# Threshold value unreachable by any probability sum; decides 0 everywhere.
REJECT_ALL_THRESHOLD = 1.0 + 1e-9


@dataclass(frozen=True)
class DecisionRule:
    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.threshold <= REJECT_ALL_THRESHOLD:
            raise ValueError(
                f"threshold must lie in [0, {REJECT_ALL_THRESHOLD}], got {self.threshold}"
            )


def decide(p: ProbTriple, rule: DecisionRule) -> int:
    if p.p1 + p.p2 >= rule.threshold:
        return 1 if p.p1 >= p.p2 else 2
    return 0


def decide_batch(probs: ProbsLike, rule: DecisionRule) -> list[int]:
    """decide() over every row of as_prob_array(probs), as one array expression."""
    arr = as_prob_array(probs)
    gate = arr[:, 1] + arr[:, 2] >= rule.threshold
    return np.where(gate, np.where(arr[:, 1] >= arr[:, 2], 1, 2), 0).tolist()
