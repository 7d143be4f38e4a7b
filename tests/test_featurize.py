from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holdscan import classifier
from holdscan.classifier import FeatureSpec, _featurize_many, featurize

from oracles import per_text_featurize, per_text_featurize_many

CHAR_ONLY = FeatureSpec(hash_dim=2 ** 10, char_ngram_min=2, char_ngram_max=2, word_unigrams=False)


def test_empty_text_all_zero():
    assert featurize("", FeatureSpec()) == {}


def test_featurize_many_rows_hold_sorted_counts():
    texts = ["go go", "", "hold on", "go go", ""]
    feats = _featurize_many(texts, CHAR_ONLY)
    assert feats.indptr[0] == 0 and len(feats.indptr) == len(texts) + 1
    for i, text in enumerate(texts):
        row = slice(feats.indptr[i], feats.indptr[i + 1])
        items = sorted(featurize(text, CHAR_ONLY).items())
        assert feats.indices[row].tolist() == [b for b, _ in items]
        assert feats.data[row].tolist() == [float(c) for _, c in items]
    picked = feats.take(np.array([2, 1, 0]))
    direct = _featurize_many(["hold on", "", "go go"], CHAR_ONLY)
    assert all(np.array_equal(a, b) for a, b in zip(picked, direct))


def test_two_char_text_single_bucket():
    counts = featurize("ab", CHAR_ONLY)
    assert len(counts) == 1
    assert list(counts.values()) == [1]


def test_repeated_bigram_accumulates():
    # "abab" yields bigrams ab, ba, ab
    counts = featurize("abab", CHAR_ONLY)
    assert sorted(counts.values()) == [1, 2]


def test_word_unigrams_counted():
    spec = FeatureSpec(hash_dim=2 ** 10, char_ngram_min=2, char_ngram_max=2, word_unigrams=True)
    with_words = featurize("go go", spec)
    assert sum(with_words.values()) > sum(featurize("go go", CHAR_ONLY).values())


def test_max_tokens_truncates_before_ngrams():
    spec = FeatureSpec(hash_dim=2 ** 10, max_tokens=2)
    assert featurize("alpha beta gamma delta", spec) == featurize("alpha beta", spec)


def test_lowercase_folding():
    spec_fold = FeatureSpec(hash_dim=2 ** 10)
    spec_keep = FeatureSpec(hash_dim=2 ** 10, lowercase=False)
    assert featurize("Hello", spec_fold) == featurize("hello", spec_fold)
    assert featurize("Hello", spec_keep) != featurize("hello", spec_keep)


def test_hash_dim_must_be_power_of_two():
    with pytest.raises(ValueError):
        FeatureSpec(hash_dim=3000)
    with pytest.raises(ValueError):
        FeatureSpec(hash_dim=512)


@given(st.text(max_size=200))
def test_deterministic_and_in_range(text):
    spec = FeatureSpec(hash_dim=2 ** 12)
    first = featurize(text, spec)
    second = featurize(text, spec)
    assert first == second
    for bucket, count in first.items():
        assert 0 <= bucket < spec.hash_dim
        assert count >= 1


# Cyrillic, emoji, Unicode whitespace and characters whose lowercase form is
# longer than themselves, mixed with any character UTF-8 can encode (lone
# surrogates have their own test below).
CHARS = st.one_of(st.characters(codec="utf-8"), st.sampled_from("ab ёжЖЯ😀🫠 \t\n\u3000\xa0İẞ"))
TEXTS = st.lists(st.text(CHARS, max_size=40), max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool + ["", " \t\n "]), max_size=12))
SPECS = st.integers(1, 6).flatmap(lambda top: st.builds(
    FeatureSpec,
    hash_dim=st.sampled_from([2 ** 10, 2 ** 18, 2 ** 40]),
    char_ngram_min=st.integers(1, top),
    char_ngram_max=st.just(top),
    word_unigrams=st.booleans(),
    lowercase=st.booleans(),
    max_tokens=st.sampled_from([1, 2, 3, 128]),
))


def assert_same_csr(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@settings(max_examples=400, deadline=None)
@given(TEXTS, SPECS, st.sampled_from([1, 3, classifier._BLOCK]))
def test_matches_per_text_featurizer(texts, spec, block):
    with mock.patch.object(classifier, "_BLOCK", block):
        assert_same_csr(_featurize_many(texts, spec), per_text_featurize_many(texts, spec))
    for text in texts:
        assert featurize(text, spec) == per_text_featurize(text, spec)


def test_matches_per_text_featurizer_on_corpus_turns(small_synthetic):
    # Distinct turn texts with repeats, enough for several blocks of distinct texts.
    corpus, _ = small_synthetic
    texts = [f"{turn.text} {turn.call_id[-3:]} {turn.turn_index % 3}"
             for turn in corpus.iter_turns()]
    for spec in (FeatureSpec(), FeatureSpec(hash_dim=2 ** 10, char_ngram_min=1, char_ngram_max=6)):
        assert_same_csr(_featurize_many(texts, spec), per_text_featurize_many(texts, spec))


def test_lone_surrogate_fails_only_inside_a_gram():
    spec = FeatureSpec(hash_dim=2 ** 10, char_ngram_min=2, word_unigrams=False)
    assert featurize("\ud800", spec) == per_text_featurize("\ud800", spec) == {}
    with pytest.raises(UnicodeEncodeError):
        per_text_featurize("a\ud800", spec)
    with pytest.raises(UnicodeEncodeError):
        featurize("a\ud800", spec)
