import multiprocessing
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from holdscan import classifier, tuning
from holdscan.classifier import (
    FeatureSpec,
    TrainConfig,
    load_checkpoint,
    predict_proba,
    select_best_checkpoint,
    train,
)
from holdscan.cli import run_pipeline
from holdscan.config import RunConfig
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
from oracles import dense_weights, per_text_featurize, reference_select_best

SPEC = FeatureSpec(hash_dim=2 ** 11)
CONFIG = TrainConfig(epochs=2, seed=17)


def separable_corpus(n_per_class=100, mislabel_every=None):
    """300 turns with unmistakable per-class texts, spread over calls.

    With mislabel_every=m, every m-th turn keeps its class's text but
    carries the next class's label, so a text occurs under two labels and
    no model separates the classes: validation AUC stays below 1.0.
    """
    texts = {0: "let me check the account balance", 1: "please hold the line now",
             2: "thanks for waiting patiently"}
    calls = []
    per_call = 10
    labels = [c for c in (0, 1, 2) for _ in range(n_per_class)]
    rng = np.random.default_rng(0)
    rng.shuffle(labels)
    texts_in_order = [texts[label] for label in labels]
    if mislabel_every:
        labels[::mislabel_every] = [(label + 1) % 3 for label in labels[::mislabel_every]]
    for start in range(0, len(labels), per_call):
        call_id = f"call{start // per_call:03d}"
        turns = tuple(
            make_turn(call_id, i, label=label, text=text)
            for i, (label, text) in enumerate(zip(labels[start : start + per_call],
                                                  texts_in_order[start : start + per_call]))
        )
        calls.append(Call(call_id=call_id, turns=turns))
    return Corpus(calls=tuple(calls))


def _run_and_models(corpus, plan, config=CONFIG):
    """run_cross_validation and its {validation fold: best Checkpoint}."""
    run = run_cross_validation(corpus, plan, config, SPEC)
    assert list(run.models) == [v for v in range(plan.k) if v != plan.test_fold]
    return run, run.models


@pytest.fixture(scope="module")
def separable_run():
    """(corpus, plan, run, {fold: Checkpoint})."""
    corpus = separable_corpus()
    plan = stratified_split(corpus, 3, seed=2)
    return corpus, plan, *_run_and_models(corpus, plan)


def test_separable_corpus_scores_perfectly(separable_run):
    _, plan, run, _ = separable_run
    assert len(run.models) == plan.k - 1 == 2
    assert run.mean_test_bundle.f1_macro == pytest.approx(1.0)


def test_one_shared_threshold(separable_run):
    _, _, run, _ = separable_run
    assert all(b.threshold_used == run.shared_threshold for b in run.test_bundles)


def test_mean_is_arithmetic_mean(separable_run):
    _, _, run, _ = separable_run
    recomputed = mean_bundle(run.test_bundles)
    assert run.mean_test_bundle == recomputed
    for name, value in run.mean_test_bundle.as_dict().items():
        per_fold = [b.as_dict()[name] for b in run.test_bundles]
        assert min(per_fold) - 1e-12 <= value <= max(per_fold) + 1e-12


def test_deterministic_rerun(separable_run):
    corpus, plan, run, models = separable_run
    again, again_models = _run_and_models(corpus, plan)
    assert again.shared_threshold == run.shared_threshold
    assert list(again_models) == list(models)
    for v, a in models.items():
        b = again_models[v]
        assert np.array_equal(a.weights, b.weights)
        assert (a.epoch, a.validation_auc) == (b.epoch, b.validation_auc)
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
    corpus, plan, run, models = separable_run
    other, other_models = _run_and_models(_relabel_test_fold(corpus, plan), plan)
    assert other.shared_threshold == run.shared_threshold
    assert sorted(other_models) == sorted(models)
    for v, a in models.items():
        b = other_models[v]
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


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


def _keys_by_fold(plan):
    """Each fold's assigned keys, sorted."""
    return [sorted(key for key, f in plan.assignment.items() if f == fold)
            for fold in range(plan.k)]


def _text_path(corpus, plan, config, spec):
    """Per validation fold: (v, best checkpoint, val probs, val labels, test probs),
    from train() on the fold's texts and predict_proba() on the scored texts."""
    keys_by_fold = _keys_by_fold(plan)

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
        run, models = _run_and_models(corpus, plan, config)
    ((val_folds, test_sets, test_labels), _), = tail.call_args_list

    reference = list(_text_path(corpus, plan, config, SPEC))
    assert list(models) == [v for v, *_ in reference]
    ref_test_labels = [corpus.turn(key).label for key in _keys_by_fold(plan)[plan.test_fold]]
    assert list(test_labels) == ref_test_labels
    for got, (val_probs, val_labels), test_probs, (_, best, ref_val, ref_val_labels, ref_test) \
            in zip(models.values(), val_folds, test_sets, reference):
        # The run's columns are every fold's buckets; train's are its examples'.
        assert _same_bits(dense_weights(got), dense_weights(best))
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


def _featurized_texts(block_csr):
    """The texts a _block_csr mock featurized, over all its calls."""
    return [text for call in block_csr.call_args_list for text in call.args[0]]


def test_cross_validation_featurizes_once_and_never_predicts():
    corpus = separable_corpus(n_per_class=30)
    plan = stratified_split(corpus, 4, seed=1)
    with _fold_workers(1), _counting(classifier._block_csr) as featurize, \
            _counting(classifier.predict_proba) as predict:
        run_cross_validation(corpus, plan, CONFIG, SPEC)
    assert sorted(_featurized_texts(featurize)) == sorted(set(corpus.table.text))
    assert predict.call_count == 0


@pytest.mark.parametrize("grid", [[0.1], [0.05, 0.1, 0.2]])
def test_sweep_featurizes_once_for_the_whole_grid(grid):
    corpus = separable_corpus(n_per_class=30)
    plan = stratified_split(corpus, 3, seed=1)
    with _fold_workers(1), _counting(classifier._block_csr) as featurize, \
            _counting(classifier.predict_proba) as predict:
        sweep(corpus, plan, CONFIG, "learning_rate", grid, SPEC)
    assert sorted(_featurized_texts(featurize)) == sorted(set(corpus.table.text))
    assert predict.call_count == 0


def test_pool_run_featurizes_in_the_parent_and_trains_in_workers():
    corpus = separable_corpus(n_per_class=30)
    plan = stratified_split(corpus, 4, seed=1)
    with _fold_workers(2), _counting(classifier._block_csr) as featurize, \
            _counting(classifier.fit) as fit:
        run_cross_validation(corpus, plan, CONFIG, SPEC)
    assert sorted(_featurized_texts(featurize)) == sorted(set(corpus.table.text))
    assert fit.call_count == 0


def _plan_matrix(distinct):
    """(corpus, k=4 plan, its FoldMatrix) of a 60-call corpus, its texts
    templated or each made unique to its turn."""
    corpus, _ = generate_synthetic(60, 2)
    if distinct:
        corpus = _distinct_texts(corpus)
    plan = stratified_split(corpus, 4, seed=3, test_fold=1)
    return corpus, plan, tuning.fold_matrix(corpus, plan, SPEC)


@pytest.mark.parametrize("distinct", [False, True], ids=["templated", "distinct"])
def test_fold_matrix_keeps_one_row_per_distinct_text(distinct):
    """feats has one row per distinct labeled text, in first-seen turn order,
    holding that text's counts; text_of sends every turn to its text's row."""
    corpus, plan, matrix = _plan_matrix(distinct)
    texts = [corpus.table.text[r] for r in np.concatenate(plan.fold_rows(corpus)).tolist()]
    distinct_texts = list(dict.fromkeys(texts))
    if distinct:
        assert len(distinct_texts) == len(texts)
    else:
        assert len(distinct_texts) < len(texts) // 10  # templated texts repeat
    assert len(matrix.feats.indptr) - 1 == len(distinct_texts)
    assert len(matrix.text_of) == len(matrix.labels) == len(texts)
    assert [distinct_texts[r] for r in matrix.text_of.tolist()] == texts
    for r, text in enumerate(distinct_texts):
        row = slice(matrix.feats.indptr[r], matrix.feats.indptr[r + 1])
        got = dict(zip(matrix.columns[matrix.feats.indices[row]].tolist(),
                       matrix.feats.data[row].tolist()))
        assert got == per_text_featurize(text, SPEC)


@pytest.mark.parametrize("workers", [1, 2], ids=["in_process", "pool"])
@pytest.mark.parametrize("distinct", [False, True], ids=["templated", "distinct"])
def test_distinct_text_rows_train_as_per_turn_rows(distinct, workers):
    """Fold models and probabilities from the matrix of distinct texts equal,
    bit for bit, those from the same matrix expanded to one row per turn."""
    _, _, matrix = _plan_matrix(distinct)
    expanded = replace(matrix, feats=matrix.feats.take(matrix.text_of),
                       text_of=np.arange(len(matrix.text_of)))
    tasks = [(TrainConfig(epochs=3, seed=11), v) for v in (0, 2, 3)]
    results = []
    for m in (matrix, expanded):
        with _fold_workers(workers), tuning._fold_models(m, tasks) as fold_models:
            results.append(list(fold_models))
    for (got, got_val, got_test), (want, want_val, want_test) in zip(*results):
        assert (got.epoch, got.validation_auc) == (want.epoch, want.validation_auc)
        for name in ("columns", "weights", "bias"):
            assert _same_bits(getattr(got, name), getattr(want, name))
        assert _same_bits(got_val, want_val) and _same_bits(got_test, want_test)


# --- fold models on a worker pool against the in-process path ------------------


def _tails(workers, fn, *args, **kwargs):
    """fn(*args, **kwargs) on the given worker count, and the arguments of
    each tune_and_test call."""
    with _fold_workers(workers), \
            mock.patch("holdscan.tuning.tune_and_test", wraps=tune_and_test) as tail:
        result = fn(*args, **kwargs)
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
    assert list(pooled.models) == list(serial.models) == [0, 2, 3]
    for v, a in pooled.models.items():
        b = serial.models[v]
        assert _same_bits(a.columns, b.columns)
        assert _same_bits(a.weights, b.weights)
        assert _same_bits(a.bias, b.bias)
        assert (a.epoch, a.validation_auc) == (b.epoch, b.validation_auc)
    _assert_same_tails(pooled_tails, serial_tails, n_folds=3)
    assert pooled.test_bundles == serial.test_bundles
    assert (pooled.shared_threshold, pooled.shared_threshold_mean_f1) == (
        serial.shared_threshold, serial.shared_threshold_mean_f1)


@pytest.mark.parametrize("workers", [1, 2], ids=["in_process", "pool"])
def test_run_models_are_the_pipeline_model_files(workers, tmp_path):
    """Each run.models[v] is the checkpoint select_best_checkpoint picks from
    train_fold, and the one load_checkpoint reads from the pipeline's
    models/fold_v.npz, bit for bit."""
    corpus, _ = generate_synthetic(60, 2)
    cfg = RunConfig(seed=5, folds=4, epochs=3, hash_dim=SPEC.hash_dim)
    plan = stratified_split(corpus, cfg.folds, cfg.seed, cfg.split_mode, cfg.test_fold)
    config, spec = cfg.train_config(), cfg.feature_spec()
    with _fold_workers(workers):
        run = run_cross_validation(corpus, plan, config, spec)
        run_pipeline(cfg, corpus, tmp_path)
    matrix = tuning.fold_matrix(corpus, plan, spec)
    assert list(run.models) == [v for v in range(plan.k) if v != plan.test_fold]
    for v, got in run.models.items():
        for want in (select_best_checkpoint(tuning.train_fold(matrix, v, config)),
                     load_checkpoint(tmp_path / "models" / f"fold_{v}.npz")):
            assert _same_bits(got.columns, want.columns)
            assert _same_bits(got.weights, want.weights)
            assert _same_bits(got.bias, want.bias)
            assert (got.epoch, got.validation_auc, got.feature_spec) == (
                want.epoch, want.validation_auc, want.feature_spec)


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
    keys = sorted(corpus.table.keys)
    plan = FoldPlan(k=3, assignment={key: i % 3 for i, key in enumerate(keys)}, test_fold=0)
    with _fold_workers(workers), pytest.raises(SingleClassOnly) as raised:
        run_cross_validation(corpus, plan, CONFIG, SPEC)
    assert type(raised.value) is SingleClassOnly
    assert str(raised.value) == "need at least two distinct labels for ROC AUC"
    assert multiprocessing.active_children() == []


class _FitRecorder:
    """tuning.fit, patched to count the Checkpoints it yields."""

    def __init__(self, monkeypatch):
        self.yielded = 0
        real_fit = tuning.fit

        def recording_fit(*args, **kwargs):
            for ckpt in real_fit(*args, **kwargs):
                self.yielded += 1
                yield ckpt

        monkeypatch.setattr(tuning, "fit", recording_fit)


# Folds of k=5 splits at seed 3 whose validation AUC first reads 1.0 at
# epoch 1, at epoch 2, and at no epoch of 5.
EXIT_CASES = {
    "perfect_at_1": (lambda: separable_corpus(), 1, 1),
    "perfect_at_2": (lambda: _distinct_texts(generate_synthetic(60, 2)[0]), 1, 2),
    "never_perfect": (lambda: separable_corpus(mislabel_every=10), 1, None),
}


@pytest.fixture(scope="module", params=list(EXIT_CASES), ids=list(EXIT_CASES))
def exit_case(request):
    """(fold matrix, validation fold, first epoch at AUC 1.0 or None, 5-epoch config)."""
    make_corpus, v, first_perfect = EXIT_CASES[request.param]
    corpus = make_corpus()
    matrix = tuning.fold_matrix(corpus, stratified_split(corpus, k=5, seed=3), SPEC)
    return matrix, v, first_perfect, replace(CONFIG, epochs=5)


def test_fold_model_exit_picks_the_checkpoint_of_every_epoch(exit_case):
    """Every fold's _fold_model checkpoint, in-process or on the worker pool,
    is the one a max over all 5 epochs' checkpoints picks."""
    matrix, _, _, config = exit_case
    folds = [f for f in range(matrix.k) if f != matrix.test_fold]
    with tuning._fold_models(matrix, [(config, f) for f in folds]) as results:
        picked = [model for model, _, _ in results]
    assert len(picked) == len(folds)
    for f, got in zip(folds, picked):
        want = reference_select_best(list(tuning.train_fold(matrix, f, config)))
        assert (got.epoch, got.validation_auc) == (want.epoch, want.validation_auc)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()


def test_fold_model_trains_no_epoch_after_auc_one(exit_case, monkeypatch):
    """A fold whose validation AUC first reads 1.0 at epoch k trains k epochs;
    one that never reads 1.0 trains all 5."""
    matrix, v, first_perfect, config = exit_case
    curve = [ckpt.validation_auc for ckpt in tuning.train_fold(matrix, v, config)]
    assert next((e for e, auc in enumerate(curve, 1) if auc == 1.0), None) == first_perfect
    fits = _FitRecorder(monkeypatch)
    tuning._fold_model(matrix, v, config)
    assert fits.yielded == (first_perfect or config.epochs)
