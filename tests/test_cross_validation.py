import numpy as np
import pytest

from holdscan.classifier import FeatureSpec, TrainConfig
from holdscan.corpus import Call, Corpus, PhraseTurn, stratified_split
from holdscan.errors import FoldTooSmall, UnknownAxis
from holdscan.metrics import mean_bundle
from holdscan.tuning import (
    DEFAULT_CLASS_WEIGHT_GRID,
    DEFAULT_LEARNING_RATE_GRID,
    run_cross_validation,
    sweep,
)

from conftest import make_turn

SPEC = FeatureSpec(hash_dim=2 ** 11)
CONFIG = TrainConfig(epochs=2, seed=17)


def separable_corpus(n_per_class=100):
    """300 turns with unmistakable per-class texts, spread over calls."""
    texts = {0: "let me check the account balance", 1: "please hold the line now",
             2: "thanks for waiting patiently"}
    calls = []
    per_call = 10
    labels = [c for c in (0, 1, 2) for _ in range(n_per_class)]
    rng = np.random.default_rng(0)
    rng.shuffle(labels)
    for start in range(0, len(labels), per_call):
        call_id = f"call{start // per_call:03d}"
        turns = tuple(
            make_turn(call_id, i, label=label, text=texts[label])
            for i, label in enumerate(labels[start : start + per_call])
        )
        calls.append(Call(call_id=call_id, turns=turns))
    return Corpus(calls=tuple(calls))


@pytest.fixture(scope="module")
def separable_run():
    corpus = separable_corpus()
    plan = stratified_split(corpus, 3, seed=2)
    return corpus, plan, run_cross_validation(corpus, plan, CONFIG, SPEC)


def test_separable_corpus_scores_perfectly(separable_run):
    _, plan, run = separable_run
    assert len(run.folds) == plan.k - 1 == 2
    assert run.mean_test_bundle.f1_macro == pytest.approx(1.0)


def test_one_shared_threshold(separable_run):
    _, _, run = separable_run
    assert all(b.threshold_used == run.shared_threshold for b in run.test_bundles)


def test_mean_is_arithmetic_mean(separable_run):
    _, _, run = separable_run
    recomputed = mean_bundle(run.test_bundles)
    assert run.mean_test_bundle == recomputed
    for name, value in run.mean_test_bundle.as_dict().items():
        per_fold = [b.as_dict()[name] for b in run.test_bundles]
        assert min(per_fold) - 1e-12 <= value <= max(per_fold) + 1e-12


def test_deterministic_rerun(separable_run):
    corpus, plan, run = separable_run
    again = run_cross_validation(corpus, plan, CONFIG, SPEC)
    assert again.shared_threshold == run.shared_threshold
    for a, b in zip(run.folds, again.folds):
        assert np.array_equal(a.checkpoint.weights, b.checkpoint.weights)
        assert a.checkpoint.validation_auc == b.checkpoint.validation_auc
    assert again.test_bundles == run.test_bundles


def test_test_fold_labels_cannot_leak(separable_run):
    corpus, plan, run = separable_run
    perturbed_calls = []
    test_keys = {key for key, fold in plan.assignment.items() if fold == plan.test_fold}
    for call in corpus.calls:
        turns = tuple(
            PhraseTurn(
                call_id=t.call_id,
                turn_index=t.turn_index,
                channel=t.channel,
                start_ms=t.start_ms,
                end_ms=t.end_ms,
                text=t.text,
                label=(t.label + 1) % 3 if t.key in test_keys else t.label,
            )
            for t in call.turns
        )
        perturbed_calls.append(Call(call_id=call.call_id, turns=turns))
    perturbed = Corpus(calls=tuple(perturbed_calls))
    other = run_cross_validation(perturbed, plan, CONFIG, SPEC)
    assert other.shared_threshold == run.shared_threshold
    for a, b in zip(run.folds, other.folds):
        assert np.array_equal(a.checkpoint.weights, b.checkpoint.weights)
        assert np.array_equal(a.checkpoint.bias, b.checkpoint.bias)


def test_k_below_three_rejected():
    corpus = separable_corpus(n_per_class=10)
    plan = stratified_split(corpus, 2, seed=0)
    with pytest.raises(FoldTooSmall):
        run_cross_validation(corpus, plan, CONFIG, SPEC)


class TestSweep:
    def test_class_weight_grid_shape(self):
        corpus = separable_corpus(n_per_class=30)
        plan = stratified_split(corpus, 3, seed=1)
        grid = [(0.05, 1.0, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 1.0)]
        result = sweep(corpus, plan, CONFIG, "class_weights", grid, SPEC)
        assert result.axis == "class_weights"
        assert len(result.rows()) == 3
        assert 0 <= result.best_index < 3

    def test_learning_rate_grid_accepts_tiny_values(self):
        corpus = separable_corpus(n_per_class=30)
        plan = stratified_split(corpus, 3, seed=1)
        grid = [5e-7, 1e-6, 3e-6, 5e-6]
        result = sweep(corpus, plan, CONFIG, "learning_rate", grid, SPEC)
        assert len(result.rows()) == 4
        assert [v for v, _ in result.rows()] == grid

    def test_single_value_equals_bare_run(self):
        corpus = separable_corpus(n_per_class=30)
        plan = stratified_split(corpus, 3, seed=1)
        result = sweep(corpus, plan, CONFIG, "learning_rate", [0.2], SPEC)
        from dataclasses import replace
        bare = run_cross_validation(corpus, plan, replace(CONFIG, learning_rate=0.2), SPEC)
        assert result.bundles[0] == bare.mean_test_bundle
        assert result.best_index == 0

    def test_default_grids_match_documented_shapes(self):
        assert len(DEFAULT_CLASS_WEIGHT_GRID) == 7
        assert [w[0] for w in DEFAULT_CLASS_WEIGHT_GRID] == [
            0.005, 0.01, 0.02, 0.05, 0.075, 0.1, 1.0
        ]
        assert all(w[1:] == (1.0, 1.0) for w in DEFAULT_CLASS_WEIGHT_GRID)
        assert DEFAULT_LEARNING_RATE_GRID == (5e-7, 1e-6, 3e-6, 5e-6)

    def test_default_class_weight_grid_yields_seven_rows(self):
        corpus = separable_corpus(n_per_class=10)
        plan = stratified_split(corpus, 3, seed=1)
        config = TrainConfig(epochs=1, seed=0)
        result = sweep(corpus, plan, config, "class_weights", DEFAULT_CLASS_WEIGHT_GRID, SPEC)
        assert len(result.rows()) == 7

    def test_unknown_axis(self):
        corpus = separable_corpus(n_per_class=10)
        plan = stratified_split(corpus, 3, seed=1)
        with pytest.raises(UnknownAxis):
            sweep(corpus, plan, CONFIG, "dropout", [0.1], SPEC)

    def test_empty_grid(self):
        corpus = separable_corpus(n_per_class=10)
        plan = stratified_split(corpus, 3, seed=1)
        with pytest.raises(ValueError):
            sweep(corpus, plan, CONFIG, "learning_rate", [], SPEC)
