"""The pools of holdscan: threads over text blocks and fork workers over folds.

tests/test_threads.py pins what the block pool must not change (the bits,
the error, no thread left running); this pins that it runs in parallel at
all, and that every worker of either pool starts on a CPU of its own and
then gets its affinity mask back.
"""

import ast
import errno
import os
import threading
from contextlib import contextmanager
from itertools import cycle, islice
from unittest import mock

import numpy as np
import pytest

from holdscan import classifier, tuning
from holdscan.classifier import FeatureSpec, TrainConfig, _featurize_many, predict_proba
from holdscan.corpus import generate_synthetic, stratified_split

from test_threads import compact_model, cpus, texts_with_repeats

SPEC = FeatureSpec(hash_dim=2 ** 10)

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                reason="the platform has no CPU affinity")


def test_two_blocks_are_in_flight_at_once():
    """Each block waits at a barrier for two parties, so one thread running
    the blocks in turn breaks it after the timeout."""
    barrier = threading.Barrier(2, timeout=10)

    def work(block):
        barrier.wait()
        return "".join(block)

    with cpus(2), mock.patch.object(classifier, "_BLOCK", 2):
        assert classifier._map_blocks(work, list("abcd")) == ["ab", "cd"]


@contextmanager
def affinity_calls(path, act=None):
    """os.sched_setaffinity recorded, in this process and in any it forks,
    as one line per call in path: (pid, thread id, sorted mask); act(pid,
    mask), by default the real call, then runs in its place. The calls are
    listed when the context exits."""
    act = act or os.sched_setaffinity

    def record(pid, mask):
        with open(path, "a", encoding="utf-8") as log:
            log.write(repr((os.getpid(), threading.get_native_id(), sorted(mask))) + "\n")
        act(pid, mask)

    calls = []
    with mock.patch.object(os, "sched_setaffinity", record):
        yield calls
    if path.exists():
        calls += map(ast.literal_eval, path.read_text(encoding="utf-8").splitlines())


def refuse(pid, mask):
    raise OSError(errno.EINVAL, "refused")


def assert_spread(calls, n_workers, start_mask):
    """n_workers each set one CPU, then start_mask again; the CPUs are
    start_mask's, in turn, cycled up to n_workers."""
    masks = {}
    for pid, tid, mask in calls:
        masks.setdefault((pid, tid), []).append(set(mask))
    assert len(masks) == n_workers
    assert all(len(m) == 2 and len(m[0]) == 1 and m[1] == start_mask for m in masks.values())
    taken = sorted(min(m[0]) for m in masks.values())
    assert taken == sorted(islice(cycle(sorted(start_mask)), n_workers))


def small_matrix(k):
    corpus, _ = generate_synthetic(20, 4)
    return tuning.fold_matrix(corpus, stratified_split(corpus, k, seed=1, test_fold=0), SPEC)


def test_block_threads_take_the_cpus_in_turn_and_restore_their_mask(tmp_path):
    """Five threads on two CPUs: the CPUs are cycled, so no thread waits for
    an id, and each thread gets back the mask it started with."""
    barrier = threading.Barrier(5, timeout=10)  # five blocks in flight at once: five threads

    def work(block):
        barrier.wait()
        return "".join(block)

    with cpus(5), mock.patch.object(classifier, "_BLOCK", 1), \
            mock.patch.object(os, "sched_getaffinity", return_value={3, 7}), \
            affinity_calls(tmp_path / "calls", act=lambda pid, mask: None) as calls:
        assert classifier._map_blocks(work, list("abcde")) == list("abcde")
    assert_spread(calls, 5, {3, 7})


def test_block_threads_restore_the_real_mask(tmp_path):
    """With the real calls, each of two threads moves to a CPU this process
    may use and then restores this process's mask, which under taskset is
    smaller than the machine's."""
    with cpus(2), affinity_calls(tmp_path / "calls") as calls:
        _featurize_many(texts_with_repeats(2049), SPEC)
    assert_spread(calls, 2, os.sched_getaffinity(0))


def test_fold_workers_take_the_cpus_in_turn_and_restore_their_mask(tmp_path):
    """Three forked fold workers each move to the next usable CPU, cycled,
    and restore the mask they were forked with."""
    tasks = [(TrainConfig(epochs=1, seed=2), v) for v in (1, 2, 3)]
    with mock.patch.object(tuning, "_worker_count", return_value=3), \
            affinity_calls(tmp_path / "calls") as calls, \
            tuning._fold_models(small_matrix(4), tasks) as fold_models:
        list(fold_models)
    assert os.getpid() not in {pid for pid, _, _ in calls}
    assert_spread(calls, 3, os.sched_getaffinity(0))


def test_no_affinity_call_without_a_pool(tmp_path):
    """One CPU, one block or one fold worker: nothing is moved."""
    with affinity_calls(tmp_path / "calls") as calls:
        with cpus(1):
            _featurize_many(texts_with_repeats(2049), SPEC)
        with cpus(2):
            _featurize_many(texts_with_repeats(1000), SPEC)
        with mock.patch.object(tuning, "_worker_count", return_value=1), \
                tuning._fold_models(small_matrix(3), [(TrainConfig(epochs=1), 1)]) as fold_models:
            list(fold_models)
    assert calls == []


def test_a_refused_affinity_call_changes_no_output(tmp_path):
    """sched_setaffinity raising OSError in every worker leaves both pools
    working, with the same features, probabilities and fold models."""
    texts = texts_with_repeats(2049)
    model = compact_model(texts, SPEC)
    matrix = small_matrix(3)
    tasks = [(TrainConfig(epochs=2, seed=2), v) for v in (1, 2)]

    def outputs():
        with cpus(2), mock.patch.object(tuning, "_worker_count", return_value=2):
            with tuning._fold_models(matrix, tasks) as fold_models:
                folds = [a for ckpt, val, test in fold_models for a in (ckpt.weights, val, test)]
            feats, text_of = _featurize_many(texts, SPEC)
            return [*feats, text_of, np.asarray(predict_proba(model, texts, SPEC)), *folds]

    want = outputs()
    with affinity_calls(tmp_path / "calls", act=refuse) as calls:
        got = outputs()
    assert len(calls) == 6  # one refused call by each of 2 fold workers and 2 x 2 threads
    assert len(got) == len(want) == 11
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))
