"""Featurizing and scoring blocks of distinct texts on threads.

Every case runs at one and two threads (the CPU count patched) and at the
real CPU count, and must equal the per-text oracles bit for bit; a
barrier shows that two blocks are in flight at once. Batch sizes
straddle one and two blocks of 1024 texts; hash_dim runs from 2**10 to
2**24: up to 2**22 a full block's keys are uint32, above it int64.
"""

import sys
import threading
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from holdscan import classifier
from holdscan.classifier import Checkpoint, FeatureSpec, _featurize_many, predict_proba

from conftest import featurize_rows
from oracles import per_text_featurize, per_text_featurize_many, per_text_proba

CPUS = [1, 2, None]  # None: the real count, as under taskset -c 0 in CI
HASH_DIMS = [2 ** 10, 2 ** 18, 2 ** 22, 2 ** 24]


def cpus(n):
    """The CPU count patched to n, or left as it is for None."""
    if n is None:
        return nullcontext()
    return mock.patch.object(classifier, "_usable_cpus", return_value=n)


def texts_with_repeats(n_distinct):
    """n_distinct distinct texts (one empty), each third one repeated at once and
    each odd one followed by a repeat of an earlier, possibly other-block, text."""
    distinct = [f"hold {i} line {i % 13} пожалуйста" for i in range(n_distinct - 1)]
    distinct = distinct + [""] if n_distinct else []
    texts = []
    for i, text in enumerate(distinct):
        texts.append(text)
        if i % 3 == 0:
            texts.append(text)
        if i % 2:
            texts.append(distinct[i // 2])
    assert len(set(texts)) == n_distinct
    return texts


def compact_model(texts, spec):
    """Random weights on the buckets of every fourth text's features (by the
    oracle), so scored texts hit seen and unseen buckets alike."""
    columns = sorted({b for text in texts[:400:4] for b in per_text_featurize(text, spec)})
    rng = np.random.default_rng(spec.hash_dim % 97)
    return Checkpoint(epoch=1, columns=np.array(columns, dtype=np.int64),
                      weights=rng.normal(size=(len(columns), 3)), bias=rng.normal(size=3),
                      validation_auc=0.5, feature_spec=spec)


@pytest.mark.parametrize("hash_dim", HASH_DIMS)
@pytest.mark.parametrize("n_distinct", [0, 1, 1023, 1024, 1025, 2049])
def test_threads_match_the_per_text_oracles(n_distinct, hash_dim):
    spec = FeatureSpec(hash_dim=hash_dim)
    texts = texts_with_repeats(n_distinct)
    want_feats = per_text_featurize_many(texts, spec)
    model = compact_model(texts, spec)
    want_probs = per_text_proba(model, texts)
    for n in CPUS:
        with cpus(n):
            feats = featurize_rows(texts, spec)
            probs = np.array(predict_proba(model, texts, spec)).reshape(-1, 3)
        for got, want in zip(feats, want_feats):
            assert got.dtype == want.dtype and np.array_equal(got, want), n
        assert probs.tobytes() == want_probs.tobytes(), n


def test_more_threads_than_cpus_with_short_switch_interval():
    """Eight threads on small blocks, switching every microsecond: the
    executor's map returns each block's output in block order, and the
    probabilities equal the per-text scorer's."""
    spec = FeatureSpec(hash_dim=2 ** 12)
    texts = texts_with_repeats(700)
    model = compact_model(texts, spec)
    want = per_text_proba(model, texts)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with cpus(8), mock.patch.object(classifier, "_BLOCK", 37):
            got = np.array(predict_proba(model, texts, spec))
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == want.tobytes()


def test_two_blocks_are_in_flight_at_once():
    """Each block waits at a barrier for two parties, so one thread running
    the blocks in turn breaks it after the timeout."""
    barrier = threading.Barrier(2, timeout=10)

    def work(block):
        barrier.wait()
        return "".join(block)

    with cpus(2), mock.patch.object(classifier, "_BLOCK", 2):
        assert classifier._map_blocks(work, list("abcd")) == ["ab", "cd"]


def with_surrogates(at):
    """1500 distinct texts, with a lone surrogate of its own inside a gram of each text in at."""
    texts = [f"turn {i} please hold" for i in range(1500)]
    for i in at:
        texts[i] = f"turn {i} ab{chr(0xd800 + i)} cd"
    return texts


def error_message(fn):
    with pytest.raises(UnicodeEncodeError) as info:
        fn()
    return str(info.value)


@pytest.mark.parametrize("at", [[1300], [1, 1300], [1030, 1300]])
def test_a_failing_block_raises_the_one_thread_error(at):
    """A surrogate in a later block, or in two blocks: two threads raise what one
    thread raises, the error of the earliest failing block."""
    spec = FeatureSpec(hash_dim=2 ** 10)
    texts = with_surrogates(at)
    model = compact_model(texts[:100], spec)
    for fn in (lambda: _featurize_many(texts, spec), lambda: predict_proba(model, texts, spec)):
        with cpus(1):
            serial = error_message(fn)
        with cpus(2):
            assert error_message(fn) == serial
        assert serial == error_message(lambda: _featurize_many([texts[at[0]]], spec))


def test_no_thread_outlives_the_call():
    """fold_matrix forks right after featurizing, so every thread is joined on
    success and on failure."""
    spec = FeatureSpec(hash_dim=2 ** 10)
    good = texts_with_repeats(2049)
    bad = with_surrogates([10, 1100])
    model = compact_model(good, spec)
    before = threading.active_count()
    with cpus(2):
        _featurize_many(good, spec)
        assert threading.active_count() == before
        predict_proba(model, good, spec)
        assert threading.active_count() == before
        for fn in (lambda: _featurize_many(bad, spec), lambda: predict_proba(model, bad, spec)):
            with pytest.raises(UnicodeEncodeError):
                fn()
            assert threading.active_count() == before
