"""corpus_stats against the per-call reference in tests/oracles.py."""

from dataclasses import fields, replace

import pytest

from holdscan.corpus import Call, Corpus, corpus_stats, generate_synthetic, ingest_transcripts
from holdscan.corpus.synthetic import DEFAULT_PROFILE
from holdscan.errors import Unlabeled

from conftest import make_turn
from oracles import per_call_corpus_stats

OTHER_PROFILE = replace(DEFAULT_PROFILE, rows_per_call_median=12.0, unregistered_rate=0.3,
                        joint_counts=((5, 3, 1), (4, 6, 2), (1, 2, 3)))

HEADER = "call_id,turn_index,channel,start_ms,end_ms,text,label\n"


def _typed(value):
    """value with every dict sorted by key and every int tagged with its type,
    so that an np.int64 key or count, or a float count, compares unequal."""
    if isinstance(value, dict):
        return (type(value).__name__, sorted((_typed(k), _typed(v)) for k, v in value.items()))
    if isinstance(value, tuple):
        return tuple(map(_typed, value))
    return (type(value).__name__, value)


def assert_same_stats(got, want):
    for f in fields(want):
        assert _typed(getattr(got, f.name)) == _typed(getattr(want, f.name)), f.name


@pytest.mark.parametrize("n_calls, seed, profile", [
    (1, 3, DEFAULT_PROFILE), (60, 7, DEFAULT_PROFILE), (300, 11, DEFAULT_PROFILE),
    (80, 5, OTHER_PROFILE),
], ids=["one_call", "default_60", "default_300", "other_profile"])
def test_generated_corpus_matches_the_per_call_reference(n_calls, seed, profile):
    corpus, _ = generate_synthetic(n_calls, seed, profile)
    assert_same_stats(corpus_stats(corpus), per_call_corpus_stats(corpus))


def test_ingested_corpus_matches_the_per_call_reference(tmp_path):
    """Rows out of turn order, calls in first-seen order, and texts of zero,
    one and several words, split on any whitespace."""
    path = tmp_path / "t.csv"
    path.write_text(HEADER + "b,2,agent,9000,9500,,1\n"
                    "b,0,client,0,100,  two\twords ,0\n"
                    "a,0,,0,10,one,2\n"
                    "b,1,agent,200,300,please hold for a moment,1\n"
                    "c,5,agent,0,1,thanks　for holding,2\n", encoding="utf-8")
    corpus = ingest_transcripts(path)
    want = per_call_corpus_stats(corpus)
    assert_same_stats(corpus_stats(corpus), want)
    assert want.script_matrix == {(2, 0): 1, (0, 1): 2}


def test_empty_corpus_matches_the_per_call_reference():
    assert_same_stats(corpus_stats(Corpus()), per_call_corpus_stats(Corpus()))


@pytest.mark.parametrize("labels", [
    {"a": [0, 1], "b": [2, None, None]},
    {"b": [None], "a": [0]},
], ids=["later_call", "first_row"])
def test_unlabeled_turn_raises_the_reference_message(labels):
    corpus = Corpus(calls=[
        Call(call_id, tuple(make_turn(call_id, i, label=label) for i, label in enumerate(ls)))
        for call_id, ls in labels.items()
    ])
    with pytest.raises(Unlabeled) as want:
        per_call_corpus_stats(corpus)
    with pytest.raises(Unlabeled) as got:
        corpus_stats(corpus)
    assert str(got.value) == str(want.value)
