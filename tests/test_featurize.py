import numpy as np
import pytest
from hypothesis import given, strategies as st

from holdscan.classifier import FeatureSpec, _featurize_many, featurize

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
