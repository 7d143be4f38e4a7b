from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holdscan import classifier
from holdscan.classifier import (
    Checkpoint,
    FeatureSpec,
    ProbTriple,
    TrainConfig,
    load_checkpoint,
    predict_proba,
    save_checkpoint,
    train,
)
from holdscan.errors import SpecMismatch

from oracles import per_text_proba

SPEC = FeatureSpec(hash_dim=2 ** 10)


def zero_model(spec=SPEC):
    return Checkpoint(epoch=1, columns=np.arange(spec.hash_dim),
                      weights=np.zeros((spec.hash_dim, 3)), bias=np.zeros(3),
                      validation_auc=0.5, feature_spec=spec)


def trained_model():
    examples = [("alpha one", 0)] * 20 + [("bravo two", 1)] * 20 + [("charlie three", 2)] * 20
    return train(examples, TrainConfig(epochs=2, seed=1), SPEC, examples)[-1]


def test_zero_model_is_uniform():
    probs = predict_proba(zero_model(), ["anything at all", ""], SPEC)
    for p in probs:
        assert p.p0 == pytest.approx(1 / 3, abs=1e-15)
        assert p.p1 == pytest.approx(1 / 3, abs=1e-15)
        assert p.p2 == pytest.approx(1 / 3, abs=1e-15)


def test_empty_batch_predicts_nothing():
    assert predict_proba(trained_model(), [], SPEC) == []


def test_mixed_batch_matches_one_text_at_a_time():
    # Empty texts have empty CSR rows, at the ends and between others.
    model = trained_model()
    texts = ["", "alpha one", "", "", "bravo two", "alpha one", ""]
    batch = predict_proba(model, texts, SPEC)
    assert batch == [predict_proba(model, [t], SPEC)[0] for t in texts]
    assert batch[0] != batch[1]


def test_batch_across_blocks_matches_one_text_at_a_time():
    # More distinct texts than one featurization block; every fifth one recurs after
    # them all, so its row is copied from whichever block first held it.
    model = trained_model()
    distinct = [f"alpha {i} bravo {i % 7}" for i in range(classifier._BLOCK + 300)]
    texts = distinct + distinct[::-5] + ["", distinct[0]]
    assert len(set(texts)) > classifier._BLOCK
    batch = predict_proba(model, texts, SPEC)
    assert batch == [predict_proba(model, [t], SPEC)[0] for t in texts]


def test_predictions_are_a_view_of_one_read_only_array():
    model = trained_model()
    rows = predict_proba(model, ["alpha one", "bravo two", "alpha one"], SPEC)
    probs = np.asarray(rows)
    assert probs is rows.probs and probs.shape == (3, 3) and not probs.flags.writeable
    assert np.array(rows).flags.writeable  # a copy
    assert len(rows) == 3 and rows[0] == rows[2] == rows[-1] != rows[1]
    assert rows[1] == ProbTriple(*probs[1].tolist()) and isinstance(rows[1], ProbTriple)
    assert list(rows) == [rows[0], rows[1], rows[2]] and rows[1:] == [rows[1], rows[2]]


def test_spec_mismatch_rejected():
    other = FeatureSpec(hash_dim=2 ** 11)
    with pytest.raises(SpecMismatch):
        predict_proba(zero_model(), ["x"], other)


def test_prediction_deterministic():
    model = trained_model()
    texts = ["alpha one", "bravo two", "something new"]
    first = predict_proba(model, texts, SPEC)
    second = predict_proba(model, texts, SPEC)
    assert first == second


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(max_size=80), min_size=1, max_size=5))
def test_outputs_are_valid_triples(texts):
    model = zero_model()
    model.weights[:] = 0.3  # any fixed weights keep this deterministic
    for p in predict_proba(model, texts, SPEC):
        assert isinstance(p, ProbTriple)
        total = p.p0 + p.p1 + p.p2
        assert abs(total - 1.0) <= 1e-9
        assert min(tuple(p)) >= 0.0


def test_checkpoint_roundtrip(tmp_path):
    model = trained_model()
    path = tmp_path / "model.npz"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.epoch == model.epoch
    assert loaded.validation_auc == model.validation_auc
    assert loaded.feature_spec == model.feature_spec
    assert np.array_equal(loaded.columns, model.columns)
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.bias, model.bias)
    texts = ["alpha one", "fresh text"]
    assert predict_proba(loaded, texts, SPEC) == predict_proba(model, texts, SPEC)


def random_model(seed=5, spec=SPEC):
    rng = np.random.default_rng(seed)
    return Checkpoint(epoch=1, columns=np.arange(spec.hash_dim),
                      weights=rng.normal(size=(spec.hash_dim, 3)),
                      bias=rng.normal(size=3), validation_auc=0.5, feature_spec=spec)


def with_repeats(n_distinct):
    """Distinct texts (one empty) with repeats inside a block and from earlier blocks."""
    distinct = [""] + [f"alpha {i} bravo {i % 7} charlie" for i in range(n_distinct - 1)]
    texts = []
    for i, text in enumerate(distinct):
        texts.append(text)
        if i % 3 == 0:
            texts.append(text)
        if i % 2:
            texts.append(distinct[i // 2])
    return texts


def per_text_triples(model, texts):
    return [ProbTriple(float(p[0]), float(p[1]), float(p[2])) for p in per_text_proba(model, texts)]


@pytest.mark.parametrize("block", [1, 3, 2048])
@pytest.mark.parametrize("batch", ["repeats", "all_identical", "empty"])
def test_blocked_scoring_matches_the_full_matrix(block, batch):
    texts = {"repeats": lambda: with_repeats(2 * block + 5),
             "all_identical": lambda: ["alpha 1 bravo 1"] * (2 * block + 5),
             "empty": list}[batch]()
    model = random_model()
    want = per_text_triples(model, texts)
    with mock.patch.object(classifier, "_BLOCK", block):
        assert predict_proba(model, texts, SPEC) == want
    assert len(want) == len(texts)


def test_scoring_never_gathers_more_than_one_block():
    # The memory bound: no array of prediction grows with the whole batch's non-zeros.
    texts = with_repeats(160)
    assert 250 < len(texts) < 350
    model = random_model()
    with mock.patch.object(classifier, "_BLOCK", 64), \
            mock.patch.object(classifier, "_keyed_logits",
                              wraps=classifier._keyed_logits) as score, \
            mock.patch.object(classifier, "_featurize_many",
                              wraps=classifier._featurize_many) as featurize_many, \
            mock.patch.object(classifier, "_rank_table", wraps=classifier._rank_table) as rank:
        predict_proba(model, texts, SPEC)
    rows = [call.args[2] for call in score.call_args_list]  # each scored block's texts
    assert max(rows) <= 64
    assert sum(rows) == len(set(texts))
    assert featurize_many.call_count == 0
    assert rank.call_count == 1  # one rank table for all the blocks


WIDE = FeatureSpec(hash_dim=2 ** 14)  # wide enough that a trained model leaves most buckets unseen


def compact_model(kind):
    """A model on its own columns: trained, trained with -0.0 and subnormal
    weight rows, or with no columns at all."""
    if kind == "no_columns":
        return Checkpoint(epoch=1, columns=np.empty(0, np.int64), weights=np.empty((0, 3)),
                          bias=np.array([0.25, -1.5, 0.75]), validation_auc=0.5, feature_spec=WIDE)
    examples = [(f"please hold {i % 4} line", 1) for i in range(12)] + \
        [(f"thanks for holding {i % 3}", 2) for i in range(12)] + \
        [(f"my account number is {i}", 0) for i in range(24)]
    model = train(examples, TrainConfig(epochs=2, seed=4), WIDE, examples)[-1]
    assert 0 < len(model.columns) < WIDE.hash_dim // 4
    if kind == "special":
        model.weights[::3] = [-0.0, 5e-324, -2.5e-310]  # a negative zero and two subnormals
    return model


BATCHES = {
    "templated": lambda: ["please hold 1 line", "thanks for holding 2", ""] * 9,
    "distinct": lambda: [f"my account number is {i} hold {i % 5}" for i in range(70)],
    "unseen": lambda: ["zebra quokka xylophone", "", "ещё минутку 😀", "zebra quokka xylophone"],
    "empty": list,
}


@pytest.mark.parametrize("block", [1, 3, 2048])
@pytest.mark.parametrize("kind", ["trained", "special", "no_columns"])
@pytest.mark.parametrize("batch", BATCHES)
def test_compact_scoring_matches_dense_weights(batch, kind, block):
    """predict_proba equals per-text scoring of the dense weights bit for bit."""
    model = compact_model(kind)
    texts = BATCHES[batch]()
    want = per_text_proba(model, texts)
    with mock.patch.object(classifier, "_BLOCK", block):
        got = np.array(predict_proba(model, texts, WIDE)).reshape(-1, 3)
    assert got.shape == want.shape == (len(texts), 3)
    assert got.tobytes() == want.tobytes()
