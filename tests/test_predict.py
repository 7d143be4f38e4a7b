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
from holdscan.errors import ProbabilityInvariantViolation, SpecMismatch

SPEC = FeatureSpec(hash_dim=2 ** 10)


def zero_model(spec=SPEC):
    return Checkpoint(epoch=1, weights=np.zeros((spec.hash_dim, 3)), bias=np.zeros(3),
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
        assert min(p.as_tuple()) >= 0.0


def test_prob_triple_invariants():
    with pytest.raises(ProbabilityInvariantViolation):
        ProbTriple(0.5, 0.5, 0.2)
    with pytest.raises(ProbabilityInvariantViolation):
        ProbTriple(-0.1, 0.6, 0.5)
    ProbTriple(0.2, 0.3, 0.5)


def test_checkpoint_roundtrip(tmp_path):
    model = trained_model()
    path = tmp_path / "model.npz"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.epoch == model.epoch
    assert loaded.validation_auc == model.validation_auc
    assert loaded.feature_spec == model.feature_spec
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.bias, model.bias)
    texts = ["alpha one", "fresh text"]
    assert predict_proba(loaded, texts, SPEC) == predict_proba(model, texts, SPEC)
