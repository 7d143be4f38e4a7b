import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holdscan import classifier
from holdscan.classifier import FeatureSpec, _featurize_many

from conftest import featurize_rows
from oracles import per_text_featurize, per_text_featurize_many

CHAR_ONLY = FeatureSpec(hash_dim=2 ** 10, char_ngram_min=2, char_ngram_max=2, word_unigrams=False)


def row_counts(text, spec):
    """text's row of _featurize_many, as {bucket: count}."""
    feats, _ = _featurize_many([text], spec)
    return dict(zip(feats.indices.tolist(), map(int, feats.data.tolist())))


def test_empty_text_all_zero():
    assert row_counts("", FeatureSpec()) == {}


def test_featurize_many_rows_hold_sorted_counts():
    texts = ["go go", "", "hold on", "go go", ""]
    feats, text_of = _featurize_many(texts, CHAR_ONLY)
    assert text_of.dtype == np.int64 and text_of.tolist() == [0, 1, 2, 0, 1]
    assert feats.indptr[0] == 0 and len(feats.indptr) == 4
    for text, r in zip(texts, text_of.tolist()):
        row = slice(feats.indptr[r], feats.indptr[r + 1])
        items = sorted(row_counts(text, CHAR_ONLY).items())
        assert feats.indices[row].tolist() == [b for b, _ in items]
        assert feats.data[row].tolist() == [float(c) for _, c in items]
    picked = feats.take(np.array([2, 1, 0]))
    direct = featurize_rows(["hold on", "", "go go"], CHAR_ONLY)
    assert all(np.array_equal(a, b) for a, b in zip(picked, direct))


def test_two_char_text_single_bucket():
    counts = row_counts("ab", CHAR_ONLY)
    assert len(counts) == 1
    assert list(counts.values()) == [1]


def test_repeated_bigram_accumulates():
    # "abab" yields bigrams ab, ba, ab
    counts = row_counts("abab", CHAR_ONLY)
    assert sorted(counts.values()) == [1, 2]


def test_word_unigrams_counted():
    spec = FeatureSpec(hash_dim=2 ** 10, char_ngram_min=2, char_ngram_max=2, word_unigrams=True)
    with_words = row_counts("go go", spec)
    assert sum(with_words.values()) > sum(row_counts("go go", CHAR_ONLY).values())


def test_max_tokens_truncates_before_ngrams():
    spec = FeatureSpec(hash_dim=2 ** 10, max_tokens=2)
    assert row_counts("alpha beta gamma delta", spec) == row_counts("alpha beta", spec)


def test_lowercase_folding():
    spec_fold = FeatureSpec(hash_dim=2 ** 10)
    spec_keep = FeatureSpec(hash_dim=2 ** 10, lowercase=False)
    assert row_counts("Hello", spec_fold) == row_counts("hello", spec_fold)
    assert row_counts("Hello", spec_keep) != row_counts("hello", spec_keep)


def test_hash_dim_must_be_power_of_two():
    with pytest.raises(ValueError):
        FeatureSpec(hash_dim=3000)
    with pytest.raises(ValueError):
        FeatureSpec(hash_dim=512)


def test_hash_dim_is_at_most_2_24():
    assert FeatureSpec(hash_dim=2 ** 24).hash_dim == 2 ** 24
    for too_big in (2 ** 25, 2 ** 40):
        with pytest.raises(ValueError, match=r"from 1024 to 16777216 \(2\*\*24\), got"):
            FeatureSpec(hash_dim=too_big)


@given(st.text(max_size=200))
def test_deterministic_and_in_range(text):
    spec = FeatureSpec(hash_dim=2 ** 12)
    first = row_counts(text, spec)
    second = row_counts(text, spec)
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
    hash_dim=st.sampled_from([2 ** 10, 2 ** 18, 2 ** 24]),
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
        got = featurize_rows(texts, spec)
    assert_same_csr(got, per_text_featurize_many(texts, spec))
    for text in texts:
        assert row_counts(text, spec) == per_text_featurize(text, spec)


# Turn-like texts beyond ASCII: Cyrillic (2-byte UTF-8), CJK (3-byte) and emoji
# (4-byte), alone and mixed within a text.
WIDE_SUFFIXES = ("", "ожидайте на линии", "спасибо за ожидание 😀", "少々お待ちください",
                 "ok 🫠 минутку", "Ёж ẞ İ")


def test_matches_per_text_featurizer_on_corpus_turns(small_synthetic):
    # Distinct turn texts with repeats, enough for several blocks of distinct texts.
    corpus, _ = small_synthetic
    texts = [f"{turn.text} {turn.call_id[-3:]} {turn.turn_index % 3} "
             f"{WIDE_SUFFIXES[turn.turn_index % len(WIDE_SUFFIXES)]}"
             for turn in corpus.iter_turns()]
    for spec in (FeatureSpec(), FeatureSpec(hash_dim=2 ** 10, char_ngram_min=1, char_ngram_max=6)):
        got = featurize_rows(texts, spec)
        assert_same_csr(got, per_text_featurize_many(texts, spec))


def test_lone_surrogate_fails_only_inside_a_gram():
    spec = FeatureSpec(hash_dim=2 ** 10, char_ngram_min=2, word_unigrams=False)
    assert row_counts("\ud800", spec) == per_text_featurize("\ud800", spec) == {}
    with pytest.raises(UnicodeEncodeError):
        per_text_featurize("a\ud800", spec)
    with pytest.raises(UnicodeEncodeError):
        row_counts("a\ud800", spec)
    # In a block, a surrogate in a text too short for a gram does not taint the others.
    texts = ["\ud800", "hold on", "x\udfff"]
    spec = FeatureSpec(hash_dim=2 ** 10, char_ngram_min=3, word_unigrams=False)
    assert_same_csr(featurize_rows(texts, spec), per_text_featurize_many(texts, spec))
    with pytest.raises(UnicodeEncodeError):
        _featurize_many(["hold on", "ab\ud800"], spec)


TAGS = st.sampled_from(["w", *(f"c{n}" for n in range(1, 7))])


@given(st.binary(max_size=64), TAGS)
def test_crc_table_and_tag_shift_match_zlib(data, tag):
    """R0(data), the register after data from zero by the byte table, XOR the
    tag's register shifted by len(data) zero bytes is crc32 of tag + data."""
    table, reg = classifier._CRC_TABLE, np.uint32(0)
    for byte in data:
        reg = table[(reg ^ np.uint32(byte)) & np.uint32(0xFF)] ^ (reg >> np.uint32(8))
    tags = classifier._tag_registers(tag, 64)
    assert classifier._CRC_TABLE.dtype == tags.dtype == reg.dtype == np.uint32
    assert int(reg ^ tags[len(data)]) == zlib.crc32(f"{tag}\x00".encode("utf-8") + data)


# One to four UTF-8 bytes per character, including each length's first and last code point.
UTF8_CHARS = st.one_of(st.characters(codec="utf-8"),
                       st.sampled_from("a \x00\x7f\x80ÿЖё\u07ff\u0800中\uffff\U00010000😀\U0010ffff"))


@given(st.text(UTF8_CHARS, max_size=24), st.integers(1, 6))
def test_gram_registers_match_zlib(text, n_max):
    grams = list(classifier._gram_registers(text.encode("utf-8"), n_max))
    assert len(grams) == min(n_max, len(text))
    for n, (reg, nbytes) in enumerate(grams, 1):
        crcs = reg ^ classifier._tag_registers(f"c{n}", 4 * n)[nbytes]
        assert reg.dtype == crcs.dtype == np.uint32
        assert crcs.tolist() == [zlib.crc32(f"c{n}\x00{text[p : p + n]}".encode("utf-8"))
                                 for p in range(len(text) - n + 1)]
