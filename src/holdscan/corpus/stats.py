"""Descriptive statistics over a labeled corpus, used for plot-data export."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model import CLOSING, LABELS, OPENING, Corpus


@dataclass
class CorpusStats:
    n_calls: int
    n_turns: int
    label_counts: dict[int, int]
    rows_per_call: Counter          # rows-in-call -> number of calls
    words_per_row: dict[int, Counter]  # label -> (word count -> number of rows)
    script_matrix: dict[tuple[int, int], int]  # (openings, closings) -> calls


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Histogram the corpus's turn table; every turn must carry a gold label.

    Every key and count is a Python int, in first-seen row or call order.
    """
    t = corpus.table
    t.require_labels("stats need a labeled corpus")
    words_per_row: dict[int, Counter] = {label: Counter() for label in LABELS}
    for (label, words), rows in Counter(zip(t.label.tolist(),
                                            map(len, map(str.split, t.text)))).items():
        words_per_row[label][words] = rows
    n_calls = len(t.call_ids)
    per_call = np.bincount(t.call_of_row * len(LABELS) + t.label,
                           minlength=n_calls * len(LABELS)).reshape(n_calls, len(LABELS))
    return CorpusStats(
        n_calls=n_calls,
        n_turns=len(t),
        label_counts=corpus.label_counts(),
        rows_per_call=Counter(np.diff(t.offsets).tolist()),
        words_per_row=words_per_row,
        script_matrix=dict(Counter(zip(per_call[:, OPENING].tolist(),
                                       per_call[:, CLOSING].tolist()))),
    )
