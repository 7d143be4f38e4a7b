from unittest import mock

import numpy as np
import pytest

from holdscan import classifier
from holdscan.classifier import (
    Checkpoint,
    FeatureSpec,
    TrainConfig,
    _compact,
    _featurize_many,
    fit,
    load_checkpoint,
    predict_proba,
    save_checkpoint,
    select_best_checkpoint,
    train,
    weighted_ce_loss_and_grad,
)
from holdscan.corpus import generate_synthetic
from holdscan.errors import EmptyInput, EmptyTrainingSet, UnlabeledExample

from conftest import featurize_rows
from oracles import dense_weights, per_example_train, per_text_proba

SPEC = FeatureSpec(hash_dim=2 ** 10)


def toy_separable():
    examples = [("alpha", 0)] * 50 + [("bravo", 1)] * 50
    return examples


def test_separable_toy_reaches_full_accuracy():
    examples = toy_separable()
    config = TrainConfig(epochs=5, learning_rate=0.1, seed=0)
    checkpoints = train(examples, config, SPEC, validation=examples)
    final = checkpoints[-1]
    probs = predict_proba(final, [t for t, _ in examples], SPEC)
    preds = [int(np.argmax(tuple(p))) for p in probs]
    assert preds == [label for _, label in examples]


def test_one_checkpoint_per_epoch():
    checkpoints = train(toy_separable(), TrainConfig(epochs=5, seed=0), SPEC, toy_separable())
    assert [c.epoch for c in checkpoints] == [1, 2, 3, 4, 5]


def test_training_deterministic():
    examples = toy_separable()
    config = TrainConfig(epochs=3, seed=42)
    a = train(examples, config, SPEC, examples)
    b = train(examples, config, SPEC, examples)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.weights, cb.weights)
        assert np.array_equal(ca.bias, cb.bias)
        assert ca.validation_auc == cb.validation_auc


def test_uniform_class_weight_scaling_scales_loss():
    feats = featurize_rows(["aa bb", "cc dd", "ee"], SPEC)
    y = [0, 1, 2]
    rng = np.random.default_rng(0)
    w = rng.normal(size=(SPEC.hash_dim, 3)) * 0.1
    b = rng.normal(size=3) * 0.1
    loss1, g1w, g1b = weighted_ce_loss_and_grad(w, b, feats, y, (1.0, 1.0, 1.0))
    loss2, g2w, g2b = weighted_ce_loss_and_grad(w, b, feats, y, (2.0, 2.0, 2.0))
    assert loss2 == pytest.approx(2.0 * loss1, rel=1e-12)
    assert np.allclose(g2w, 2.0 * g1w, rtol=1e-12)
    assert np.allclose(g2b, 2.0 * g1b, rtol=1e-12)


def test_gradient_matches_central_differences():
    spec = FeatureSpec(hash_dim=2 ** 10, char_ngram_min=2, char_ngram_max=3)
    feats = featurize_rows(["hold on", "thanks", "ok"], spec)
    y = [1, 2, 0]
    cw = (0.3, 1.0, 2.0)
    rng = np.random.default_rng(7)
    w = rng.normal(size=(spec.hash_dim, 3)) * 0.5
    b = rng.normal(size=3) * 0.5
    _, grad_w, grad_b = weighted_ce_loss_and_grad(w, b, feats, y, cw)

    eps = 1e-5
    touched = np.unique(feats.indices)
    for row in touched:
        for col in range(3):
            w[row, col] += eps
            up, _, _ = weighted_ce_loss_and_grad(w, b, feats, y, cw)
            w[row, col] -= 2 * eps
            down, _, _ = weighted_ce_loss_and_grad(w, b, feats, y, cw)
            w[row, col] += eps
            numeric = (up - down) / (2 * eps)
            denom = max(abs(numeric), 1e-8)
            assert abs(grad_w[row, col] - numeric) / denom < 1e-6
    for col in range(3):
        b[col] += eps
        up, _, _ = weighted_ce_loss_and_grad(w, b, feats, y, cw)
        b[col] -= 2 * eps
        down, _, _ = weighted_ce_loss_and_grad(w, b, feats, y, cw)
        b[col] += eps
        numeric = (up - down) / (2 * eps)
        assert abs(grad_b[col] - numeric) / max(abs(numeric), 1e-8) < 1e-6


def test_single_step_matches_reference_gradient():
    # One epoch, one batch, no decay: the trained weights must equal a
    # single explicit gradient step from zero.
    examples = [("aa", 0), ("bb", 1), ("cc", 2), ("dd", 0)]
    config = TrainConfig(epochs=1, batch_size=8, learning_rate=0.5, weight_decay=0.0, seed=3)
    ckpt = train(examples, config, SPEC, examples)[0]

    feats = featurize_rows([t for t, _ in examples], SPEC)
    y = [label for _, label in examples]
    zero_w = np.zeros((SPEC.hash_dim, 3))
    zero_b = np.zeros(3)
    _, grad_w, grad_b = weighted_ce_loss_and_grad(zero_w, zero_b, feats, y, config.class_weights)
    assert np.array_equal(dense_weights(ckpt), -config.learning_rate * grad_w)
    assert np.array_equal(ckpt.bias, -config.learning_rate * grad_b)


def test_raising_class_weight_never_loses_class1_predictions():
    # 30 copies of an ambiguous text labeled 0 vs 10 labeled 1: upweighting
    # class 1 should flip the shared text toward class 1, never away.
    examples = [("ping", 0)] * 30 + [("ping", 1)] * 10 + [("safe", 2)] * 10 + [("calm", 0)] * 10
    val = [("ping", 1), ("safe", 2), ("calm", 0)]

    def count_class1(weight1: float) -> int:
        config = TrainConfig(epochs=20, learning_rate=0.5, seed=5,
                             class_weights=(1.0, weight1, 1.0))
        final = train(examples, config, SPEC, val)[-1]
        probs = predict_proba(final, [t for t, _ in examples], SPEC)
        return sum(1 for p in probs if np.argmax(tuple(p)) == 1)

    counts = [count_class1(w) for w in (1.0, 4.0, 16.0)]
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[-1] > 0


def _no_weights_checkpoint(epoch, auc):
    return Checkpoint(epoch=epoch, columns=np.zeros(0, np.int64), weights=np.zeros((0, 3)),
                      bias=np.zeros(3), validation_auc=auc, feature_spec=SPEC)


def test_select_best_checkpoint_rules():
    ckpt = _no_weights_checkpoint

    picked = select_best_checkpoint([ckpt(1, 0.7), ckpt(2, 0.9), ckpt(3, 0.8)])
    assert picked.epoch == 2
    tied = select_best_checkpoint([ckpt(1, 0.9), ckpt(2, 0.9)])
    assert tied.epoch == 1
    single = ckpt(1, 0.4)
    assert select_best_checkpoint([single]) is single
    with pytest.raises(EmptyInput):
        select_best_checkpoint([])


def test_select_best_checkpoint_takes_a_generator():
    ckpt = _no_weights_checkpoint

    aucs = [0.7, 0.9, 0.8, 0.9]
    assert select_best_checkpoint(ckpt(e, a) for e, a in enumerate(aucs, start=1)).epoch == 2
    asked = []

    def epochs(aucs):
        for e, a in enumerate(aucs, start=1):
            asked.append(e)
            yield ckpt(e, a)

    # No AUC exceeds 1.0, so the pick asks for nothing after the first 1.0.
    assert select_best_checkpoint(epochs([0.7, 1.0, 1.0, 0.9])).epoch == 2
    assert asked == [1, 2]
    with pytest.raises(EmptyInput):
        select_best_checkpoint(ckpt(e, a) for e, a in [])


def test_empty_training_set_rejected():
    with pytest.raises(EmptyTrainingSet):
        train([], TrainConfig(seed=0), SPEC, [("x", 0)])


def test_empty_validation_rejected():
    with pytest.raises(EmptyInput):
        train([("x", 0)], TrainConfig(seed=0), SPEC, [])


def test_unlabeled_example_rejected():
    with pytest.raises(UnlabeledExample):
        train([("x", None)], TrainConfig(seed=0), SPEC, [("y", 0), ("z", 1)])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(class_weights=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=200.0, weight_decay=0.01)
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="^weight_decay must be >= 0 and finite, got nan$"):
        TrainConfig(weight_decay=nan)
    with pytest.raises(ValueError, match=r"^class_weights must be 3 positive finite reals, got \(nan, "):
        TrainConfig(class_weights=(nan, 1.0, 1.0))
    with pytest.raises(ValueError, match="^learning_rate must be positive and finite, got inf$"):
        TrainConfig(learning_rate=inf, weight_decay=0.0)


# --- differential test against the per-example trainer -------------------------


def _synthetic_examples(distinct: bool) -> list[tuple[str, int]]:
    corpus, _ = generate_synthetic(24, 17)
    return [
        (f"{t.text} {t.call_id} {t.turn_index}" if distinct else t.text, t.label)
        for t in corpus.iter_turns()
    ]


def _assert_same_checkpoints(got, want):
    """Weights, bias and validation AUC equal at every epoch, bit for bit. The
    per-example weights are dense, so every bucket outside a model's columns
    must read +0.0."""
    assert [c.epoch for c in got] == [c.epoch for c in want]
    for g, w in zip(got, want):
        assert np.all(np.isfinite(g.weights))
        assert dense_weights(g).tobytes() == w.weights.tobytes()
        assert g.bias.tobytes() == w.bias.tobytes()
        assert g.validation_auc == w.validation_auc
    assert select_best_checkpoint(got).epoch == select_best_checkpoint(want).epoch


_REFOLD = TrainConfig(batch_size=2, learning_rate=0.5, weight_decay=1.98, seed=2)


def _refold_config(n_train: int) -> TrainConfig:
    # Each early step multiplies scale by ~0.01. Over all steps the decay
    # reaches 1e-400, below the smallest float, so v must be refolded.
    steps = -(-n_train // _REFOLD.batch_size) * _REFOLD.epochs
    lrs = _REFOLD.learning_rate * (1.0 - np.arange(steps) / steps)
    assert np.log10(1.0 - lrs * _REFOLD.weight_decay).sum() < -400
    return _REFOLD


@pytest.mark.parametrize("case", ["templated", "distinct", "refold"])
def test_matches_per_example_trainer(case):
    examples = _synthetic_examples(distinct=case == "distinct")
    train_set, validation = examples[:-150], examples[-150:]
    spec = FeatureSpec(hash_dim=2 ** 12)
    if case == "refold":
        config = _refold_config(len(train_set))
    else:
        config = TrainConfig(class_weights=(0.5, 2.0, 3.0), seed=9)
    want = per_example_train(train_set, config, spec, validation)
    assert [c.epoch for c in want] == list(range(1, config.epochs + 1))
    _assert_same_checkpoints(train(train_set, config, spec, validation), want)


def _fit_inputs(examples, spec: FeatureSpec):
    """fit's inputs for the examples: the compacted rows of their distinct
    texts, text_of, columns and labels, 405 shuffled train rows and 53
    validation rows.

    The corpus has five scripted turns; each side gets some of them.
    """
    feats, text_of = _featurize_many([t for t, _ in examples], spec)
    columns, compact = _compact(feats, spec.hash_dim)
    y = np.array([label for _, label in examples])
    scripted, plain = np.flatnonzero(y > 0), np.flatnonzero(y == 0)
    train_rows = np.random.default_rng(5).permutation(np.concatenate([scripted[1::2], plain[:400]]))
    return compact, text_of, columns, y, train_rows, np.concatenate([scripted[::2], plain[400:450]])


@pytest.mark.parametrize("distinct", [False, True], ids=["templated", "distinct"])
@pytest.mark.parametrize("batch_size", [1, 3, 16, 50, "n-1", "n", "n+5", "refold"])
def test_fit_matches_per_step_take(distinct, batch_size):
    """fit on chosen rows of a feature matrix, and train on the same examples
    listed in train_rows order, equal the per-example trainer fed the rows
    that each step takes, bit for bit, at every batch size."""
    spec = FeatureSpec(hash_dim=2 ** 12)
    examples = _synthetic_examples(distinct)
    compact, text_of, columns, y, train_rows, val_rows = _fit_inputs(examples, spec)
    n = len(train_rows)
    if batch_size == "refold":
        config = _refold_config(n)
    else:
        size = {"n-1": n - 1, "n": n, "n+5": n + 5}.get(batch_size, batch_size)
        config = TrainConfig(batch_size=size, class_weights=(0.5, 2.0, 3.0), seed=9)

    train_set, validation = [examples[r] for r in train_rows], [examples[r] for r in val_rows]
    want = per_example_train(train_set, config, spec, validation)
    assert [c.epoch for c in want] == list(range(1, config.epochs + 1))
    _assert_same_checkpoints(
        list(fit(compact, text_of, columns, y, train_rows, val_rows, config, spec)), want)
    _assert_same_checkpoints(train(train_set, config, spec, validation), want)


def test_checkpoints_hold_and_save_c_order_weights(tmp_path):
    """fit trains class-major weights but yields them as C-order (U, 3), so
    a model file stores them in C order, as before the layout changed."""
    spec = FeatureSpec(hash_dim=2 ** 12)
    compact, text_of, columns, y, train_rows, val_rows = _fit_inputs(_synthetic_examples(False), spec)
    for ckpt in fit(compact, text_of, columns, y, train_rows, val_rows,
                    TrainConfig(epochs=2, seed=9), spec):
        assert ckpt.weights.shape == (len(columns), 3) and ckpt.weights.flags.c_contiguous
        save_checkpoint(tmp_path / "model.npz", ckpt)
        with np.load(tmp_path / "model.npz") as bundle:
            assert not bundle["weights"].flags.f_contiguous


@pytest.mark.parametrize("texts", ["templated", "distinct", "with_empty", "all_empty"])
def test_compact_ranks_buckets_as_unique_does(texts):
    """_compact's columns and remapped indices are np.unique's values and
    inverse; indptr and data are unchanged."""
    spec = FeatureSpec(hash_dim=2 ** 12)
    examples = _synthetic_examples(distinct=texts == "distinct")[:200]
    corpus = {"with_empty": ["", *[t for t, _ in examples], ""], "all_empty": ["", ""]}.get(
        texts, [t for t, _ in examples])
    feats, _ = _featurize_many(corpus, spec)
    want_columns, want_indices = np.unique(feats.indices, return_inverse=True)
    indptr, data = feats.indptr.copy(), feats.data.copy()
    with mock.patch.object(classifier, "_REMAP_SLICE", 100):  # several slices and a partial one
        columns, compact = _compact(feats, spec.hash_dim)
    assert columns.dtype == compact.indices.dtype == np.int64
    assert np.array_equal(columns, want_columns)
    assert np.array_equal(compact.indices, want_indices)
    assert np.array_equal(compact.indptr, indptr) and np.array_equal(compact.data, data)


@pytest.mark.parametrize("distinct", [False, True], ids=["templated", "distinct"])
def test_saved_model_predicts_as_the_dense_model(distinct, tmp_path):
    """save -> load -> predict_proba of a compact model gives per-text scoring
    of its dense weights bit for bit, with rows of -0.0 and subnormals too."""
    spec = FeatureSpec(hash_dim=2 ** 12)
    examples = _synthetic_examples(distinct)
    compact, text_of, columns, y, train_rows, val_rows = _fit_inputs(examples, spec)
    got = list(fit(compact, text_of, columns, y, train_rows, val_rows,
                   TrainConfig(epochs=2, seed=9), spec))[-1]
    got.weights[::7] = [-0.0, 5e-324, -2.5e-310]  # a negative zero and two subnormals
    path = tmp_path / "model.npz"
    save_checkpoint(path, got)
    loaded = load_checkpoint(path)
    for name in ("columns", "weights", "bias"):
        a, b = getattr(loaded, name), getattr(got, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    texts = [t for t, _ in examples] + ["words no model has seen", ""]
    assert np.array(predict_proba(loaded, texts, spec)).tobytes() == \
        per_text_proba(loaded, texts).tobytes()


@pytest.mark.parametrize("n_rows", [0, 1, 128, 300])
def test_csr_take_matches_row_by_row(n_rows):
    """take holds each asked-for row's entries, concatenated in the order asked for."""
    examples = _synthetic_examples(distinct=True)[:90] + [("", 0)]  # the last row is empty
    feats = featurize_rows([t for t, _ in examples], FeatureSpec(hash_dim=2 ** 12))
    rows = np.random.default_rng(n_rows).integers(0, len(examples), n_rows)
    got = feats.take(rows)
    spans = [slice(feats.indptr[r], feats.indptr[r + 1]) for r in rows]
    assert got.indptr.dtype == np.int64
    assert np.array_equal(got.indptr, np.cumsum([0] + [s.stop - s.start for s in spans]))
    for name in ("indices", "data"):
        whole = getattr(feats, name)
        want = np.concatenate([whole[:0]] + [whole[s] for s in spans])
        assert getattr(got, name).dtype == whole.dtype
        assert np.array_equal(getattr(got, name), want)


@pytest.mark.parametrize("start, stop", [(0, 0), (7, 7), (0, 16), (5, 21), (32, 48),
                                         (48, 53), (48, 64), (53, 53), (0, 53)])
def test_csr_slice_equals_take(start, stop):
    """A slice is take over the same row range, array for array and dtype for
    dtype, for empty slices and a last partial batch (53 rows, stop past the end)."""
    examples = _synthetic_examples(distinct=True)[:53]
    feats = featurize_rows([t for t, _ in examples], FeatureSpec(hash_dim=2 ** 12))
    got = feats.slice(start, stop)
    want = feats.take(np.arange(start, min(stop, 53)))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
