import multiprocessing
import sys
import weakref
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from holdscan import classifier, tuning
from holdscan.classifier import (
    FeatureSpec,
    TrainConfig,
    predict_proba,
    select_best_checkpoint,
    train,
)
from holdscan.corpus import Call, Corpus, FoldPlan, generate_synthetic, stratified_split
from holdscan.errors import FoldTooSmall, SingleClassOnly, UnknownAxis
from holdscan.metrics import as_prob_array, mean_bundle
from holdscan.tuning import (
    DEFAULT_CLASS_WEIGHT_GRID,
    DEFAULT_LEARNING_RATE_GRID,
    run_cross_validation,
    sweep,
    tune_and_test,
)

from conftest import flat_corpus, make_turn

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


def _relabel_test_fold(corpus, plan):
    """The corpus with every test-fold label moved to the next class."""
    test_keys = {key for key, fold in plan.assignment.items() if fold == plan.test_fold}
    return Corpus(calls=tuple(
        Call(call_id=call.call_id, holds=call.holds, turns=tuple(
            replace(t, label=(t.label + 1) % 3) if t.key in test_keys else t for t in call.turns
        ))
        for call in corpus.calls
    ))


def test_test_fold_labels_cannot_leak(separable_run):
    corpus, plan, run = separable_run
    other = run_cross_validation(_relabel_test_fold(corpus, plan), plan, CONFIG, SPEC)
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
        bare = run_cross_validation(corpus, plan, replace(CONFIG, learning_rate=0.2), SPEC)
        assert result.bundles[0] == bare.mean_test_bundle
        assert result.validation_mean_f1 == [bare.shared_threshold_mean_f1]
        assert result.best_index == 0

    def test_pick_ignores_test_fold_labels(self):
        corpus, _ = generate_synthetic(30, 2)
        plan = stratified_split(corpus, 3, seed=2)
        config = TrainConfig(epochs=1, seed=2)
        grid = [(0.05, 1.0, 1.0), (0.2, 1.0, 1.0), (1.0, 1.0, 1.0)]
        base = sweep(corpus, plan, config, "class_weights", grid, SPEC)
        other = sweep(_relabel_test_fold(corpus, plan), plan, config, "class_weights", grid, SPEC)

        def by_test_f1(result):
            return max(range(len(grid)), key=lambda i: (result.bundles[i].f1_macro, -i))

        # Picking by mean test F1 would move here (row 0 to row 2).
        assert by_test_f1(base) != by_test_f1(other)
        assert other.validation_mean_f1 == base.validation_mean_f1
        assert other.best_index == base.best_index
        f1 = base.validation_mean_f1
        assert base.best_index == f1.index(max(f1))

    def test_default_grids_match_documented_shapes(self):
        assert len(DEFAULT_CLASS_WEIGHT_GRID) == 7
        assert [w[0] for w in DEFAULT_CLASS_WEIGHT_GRID] == [
            0.005, 0.01, 0.02, 0.05, 0.075, 0.1, 1.0
        ]
        assert all(w[1:] == (1.0, 1.0) for w in DEFAULT_CLASS_WEIGHT_GRID)
        assert DEFAULT_LEARNING_RATE_GRID == (0.025, 0.05, 0.1, 0.2, 0.4)

    @pytest.mark.parametrize("axis, grid", [
        ("class_weights", DEFAULT_CLASS_WEIGHT_GRID),
        ("learning_rate", DEFAULT_LEARNING_RATE_GRID),
    ], ids=["class_weights", "learning_rate"])
    def test_every_default_grid_value_trains(self, small_synthetic, axis, grid):
        """A learning rate at the scale of transformer fine-tuning (5e-7 to
        5e-6) leaves this trainer at chance, validation mean F1 ~0.45 here."""
        corpus, _ = small_synthetic
        plan = stratified_split(corpus, 3, seed=7)
        result = sweep(corpus, plan, TrainConfig(seed=7), axis, grid, FeatureSpec())
        assert min(result.validation_mean_f1) > 0.9, result.validation_mean_f1

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


# --- the shared feature matrix against the per-fold text path -----------------


def _distinct_texts(corpus):
    """The corpus with every turn's text made unique to its turn."""
    return Corpus(calls=tuple(
        Call(call_id=call.call_id, holds=call.holds, turns=tuple(
            replace(t, text=f"{t.text} {t.call_id} t{t.turn_index}") for t in call.turns
        ))
        for call in corpus.calls
    ))


def _text_path(corpus, plan, config, spec):
    """Per validation fold: (v, best checkpoint, val probs, val labels, test probs),
    from train() on the fold's texts and predict_proba() on the scored texts."""
    keys_by_fold = plan.keys_by_fold()

    def examples(keys):
        return [(corpus.turn(key).text, corpus.turn(key).label) for key in keys]

    test_texts = [text for text, _ in examples(keys_by_fold[plan.test_fold])]
    for v in range(plan.k):
        if v == plan.test_fold:
            continue
        train_keys = [key for f in range(plan.k) if f not in (v, plan.test_fold)
                      for key in keys_by_fold[f]]
        val = examples(keys_by_fold[v])
        best = select_best_checkpoint(
            train(examples(train_keys), replace(config, seed=config.seed + v), spec, val)
        )
        yield (v, best, predict_proba(best, [text for text, _ in val], spec),
               [label for _, label in val], predict_proba(best, test_texts, spec))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("distinct", [False, True], ids=["templated", "distinct"])
@pytest.mark.parametrize("mode", ["row", "call_grouped"])
def test_shared_matrix_matches_per_fold_text_path(mode, distinct):
    corpus, _ = generate_synthetic(60, 2)
    if distinct:
        corpus = _distinct_texts(corpus)
    plan = stratified_split(corpus, 4, seed=3, mode=mode, test_fold=1)
    config = TrainConfig(epochs=3, seed=11)
    with mock.patch("holdscan.tuning.tune_and_test", wraps=tune_and_test) as tail:
        run = run_cross_validation(corpus, plan, config, SPEC)
    ((val_folds, test_sets, test_labels), _), = tail.call_args_list

    reference = list(_text_path(corpus, plan, config, SPEC))
    assert [r.fold_index for r in run.folds] == [v for v, *_ in reference]
    ref_test_labels = [corpus.turn(key).label for key in plan.keys_by_fold()[plan.test_fold]]
    assert list(test_labels) == ref_test_labels
    for result, (val_probs, val_labels), test_probs, (_, best, ref_val, ref_val_labels, ref_test) \
            in zip(run.folds, val_folds, test_sets, reference):
        got = result.checkpoint
        assert _same_bits(got.weights, best.weights)
        assert _same_bits(got.bias, best.bias)
        assert (got.epoch, got.validation_auc) == (best.epoch, best.validation_auc)
        assert np.array_equal(as_prob_array(val_probs), as_prob_array(ref_val))
        assert np.array_equal(as_prob_array(test_probs), as_prob_array(ref_test))
        assert list(val_labels) == ref_val_labels

    expected = tune_and_test([(p, y) for _, _, p, y, _ in reference],
                             [t for *_, t in reference], ref_test_labels)
    assert run.test_bundles == expected.test_bundles
    assert (run.shared_threshold, run.shared_threshold_mean_f1) == (
        expected.shared_threshold, expected.shared_threshold_mean_f1)


def _fold_workers(n):
    """Run fold models on n worker processes (1: in-process)."""
    return mock.patch.object(tuning, "_worker_count", return_value=n)


@contextmanager
def _counting(fn):
    """A mock wrapping fn, installed wherever a holdscan module refers to fn."""
    counter = mock.MagicMock(wraps=fn)
    with ExitStack() as stack:
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("holdscan"):
                for name, value in list(vars(module).items()):
                    if value is fn:
                        stack.enter_context(mock.patch.object(module, name, counter))
        yield counter


def test_cross_validation_featurizes_once_and_never_predicts():
    corpus = separable_corpus(n_per_class=30)
    plan = stratified_split(corpus, 4, seed=1)
    with _fold_workers(1), _counting(classifier._featurize_many) as featurize, \
            _counting(classifier.predict_proba) as predict:
        run_cross_validation(corpus, plan, CONFIG, SPEC)
    assert featurize.call_count == 1
    assert predict.call_count == 0


@pytest.mark.parametrize("grid", [[0.1], [0.05, 0.1, 0.2]])
def test_sweep_featurizes_once_for_the_whole_grid(grid):
    corpus = separable_corpus(n_per_class=30)
    plan = stratified_split(corpus, 3, seed=1)
    with _fold_workers(1), _counting(classifier._featurize_many) as featurize, \
            _counting(classifier.predict_proba) as predict:
        sweep(corpus, plan, CONFIG, "learning_rate", grid, SPEC)
    assert featurize.call_count == 1
    assert predict.call_count == 0


def test_pool_run_featurizes_in_the_parent_and_trains_in_workers():
    corpus = separable_corpus(n_per_class=30)
    plan = stratified_split(corpus, 4, seed=1)
    with _fold_workers(2), _counting(classifier._featurize_many) as featurize, \
            _counting(classifier.fit) as fit:
        run_cross_validation(corpus, plan, CONFIG, SPEC)
    assert featurize.call_count == 1
    assert fit.call_count == 0


# --- fold models on a worker pool against the in-process path ------------------


def _tails(workers, fn, *args):
    """fn(*args) on the given worker count, and the arguments of each tune_and_test call."""
    with _fold_workers(workers), \
            mock.patch("holdscan.tuning.tune_and_test", wraps=tune_and_test) as tail:
        result = fn(*args)
    return result, [call.args for call in tail.call_args_list]


def _assert_same_tails(tails_a, tails_b, n_folds):
    """The same validation and test probabilities and labels, bit for bit."""
    assert len(tails_a) == len(tails_b)
    for (val_a, test_a, labels_a), (val_b, test_b, labels_b) in zip(tails_a, tails_b):
        assert len(val_a) == len(val_b) == len(test_a) == len(test_b) == n_folds
        for (probs_a, y_a), (probs_b, y_b) in zip(val_a, val_b):
            assert _same_bits(probs_a, probs_b) and _same_bits(y_a, y_b)
        assert all(_same_bits(a, b) for a, b in zip(test_a, test_b))
        assert _same_bits(labels_a, labels_b)


@pytest.mark.parametrize("distinct", [False, True], ids=["templated", "distinct"])
@pytest.mark.parametrize("mode", ["row", "call_grouped"])
def test_pool_matches_in_process(mode, distinct):
    corpus, _ = generate_synthetic(60, 2)
    if distinct:
        corpus = _distinct_texts(corpus)
    plan = stratified_split(corpus, 4, seed=3, mode=mode, test_fold=1)
    args = (run_cross_validation, corpus, plan, TrainConfig(epochs=3, seed=11), SPEC)
    pooled, pooled_tails = _tails(2, *args)
    serial, serial_tails = _tails(1, *args)
    assert [r.fold_index for r in pooled.folds] == [r.fold_index for r in serial.folds]
    for a, b in zip(pooled.folds, serial.folds):
        assert _same_bits(a.checkpoint.weights, b.checkpoint.weights)
        assert _same_bits(a.checkpoint.bias, b.checkpoint.bias)
        assert (a.checkpoint.epoch, a.checkpoint.validation_auc) == (
            b.checkpoint.epoch, b.checkpoint.validation_auc)
    _assert_same_tails(pooled_tails, serial_tails, n_folds=3)
    assert pooled.test_bundles == serial.test_bundles
    assert (pooled.shared_threshold, pooled.shared_threshold_mean_f1) == (
        serial.shared_threshold, serial.shared_threshold_mean_f1)


def test_sweep_on_a_pool_matches_in_process():
    corpus, _ = generate_synthetic(40, 5)
    plan = stratified_split(corpus, 4, seed=1, test_fold=2)
    grid = [(0.05, 1.0, 1.0), (0.2, 1.0, 1.0), (1.0, 1.0, 1.0)]
    args = (sweep, corpus, plan, CONFIG, "class_weights", grid, SPEC)
    pooled, pooled_tails = _tails(2, *args)
    serial, serial_tails = _tails(1, *args)
    assert pooled == serial
    assert len(pooled_tails) == 3
    _assert_same_tails(pooled_tails, serial_tails, n_folds=3)


@pytest.mark.parametrize("workers", [1, 2], ids=["in_process", "pool"])
def test_fold_error_reaches_the_caller(workers):
    """A one-class validation fold fails its ROC AUC, in a worker or in-process alike."""
    corpus = flat_corpus({1: 30}, per_call=10)
    keys = sorted(corpus.labeled_keys())
    plan = FoldPlan(k=3, assignment={key: i % 3 for i, key in enumerate(keys)}, test_fold=0)
    with _fold_workers(workers), pytest.raises(SingleClassOnly) as raised:
        run_cross_validation(corpus, plan, CONFIG, SPEC)
    assert type(raised.value) is SingleClassOnly
    assert str(raised.value) == "need at least two distinct labels for ROC AUC"
    assert multiprocessing.active_children() == []


def test_fold_model_keeps_at_most_two_checkpoints(monkeypatch):
    """_fold_model keeps only the best epoch's Checkpoint and the current one."""
    refs = []
    peak = 0
    real_fit = tuning.fit

    def counting_fit(*args, **kwargs):
        nonlocal peak
        for ckpt in real_fit(*args, **kwargs):
            refs.append(weakref.ref(ckpt))
            peak = max(peak, sum(ref() is not None for ref in refs))
            yield ckpt

    monkeypatch.setattr(tuning, "fit", counting_fit)
    corpus = separable_corpus()
    plan = stratified_split(corpus, k=5, seed=3)
    matrix = tuning.fold_matrix(corpus, plan, SPEC)
    tuning._fold_model(matrix, 1, replace(CONFIG, epochs=5))
    assert len(refs) == 5
    assert peak <= 2
