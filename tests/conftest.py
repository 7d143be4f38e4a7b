"""Shared fixtures and corpus-building helpers."""

from __future__ import annotations

import multiprocessing
import pickle
from pathlib import Path

import pytest

from holdscan.corpus import Call, Corpus, PhraseTurn, generate_synthetic


def make_turn(call_id, turn_index, label=0, text="hello there", start_ms=None, end_ms=None,
              channel="agent"):
    if start_ms is None:
        start_ms = 10_000 * turn_index
    if end_ms is None:
        end_ms = start_ms + 3_000
    return PhraseTurn(
        call_id=call_id,
        turn_index=turn_index,
        channel=channel,
        start_ms=start_ms,
        end_ms=end_ms,
        text=text,
        label=label,
    )


def corpus_from_labels(labels_per_call: dict[str, list[int]],
                       texts_per_call: dict[str, list[str]] | None = None) -> Corpus:
    """Corpus with the given per-call label sequences and optional texts."""
    calls = []
    for call_id, labels in labels_per_call.items():
        turns = []
        for i, label in enumerate(labels):
            text = texts_per_call[call_id][i] if texts_per_call else f"text {label} {i}"
            turns.append(make_turn(call_id, i, label=label, text=text))
        calls.append(Call(call_id=call_id, turns=tuple(turns)))
    return Corpus(calls=tuple(calls))


def flat_corpus(label_counts: dict[int, int], per_call: int = 50) -> Corpus:
    """Corpus with the requested number of rows per class, split into calls."""
    labels = [label for label, n in sorted(label_counts.items()) for _ in range(n)]
    per_call_labels: dict[str, list[int]] = {}
    for i in range(0, len(labels), per_call):
        per_call_labels[f"call{i // per_call:04d}"] = labels[i : i + per_call]
    return corpus_from_labels(per_call_labels)


class SavedFoldModels:
    """A save function for run_cross_validation that pickles each fold's best
    Checkpoint into a directory, from whichever process trained it, so a
    test can read the fold models of a pooled run too."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def __call__(self, v, checkpoint) -> None:
        (self.directory / f"fold_{v}.pkl").write_bytes(pickle.dumps(checkpoint))

    def load(self) -> dict:
        """{validation fold: Checkpoint} for every fold saved so far."""
        return {int(path.stem.removeprefix("fold_")): pickle.loads(path.read_bytes())
                for path in self.directory.glob("fold_*.pkl")}


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root, keyed by its relative POSIX path."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="session")
def default_synthetic():
    """The default desk-scale corpus: 1000 calls, seed 42."""
    return generate_synthetic(1000, 42)


@pytest.fixture(scope="session")
def small_synthetic():
    """A quick corpus for protocol tests."""
    return generate_synthetic(120, 7)


@pytest.fixture(autouse=True)
def no_leftover_processes():
    """Fail a test that leaves a live child process, such as a pool worker."""
    yield
    leftover = multiprocessing.active_children()
    assert not leftover, f"child processes still alive after the test: {leftover}"
