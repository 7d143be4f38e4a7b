from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holdscan import classifier
from holdscan.classifier import (
    Checkpoint,
    FeatureSpec,
    TrainConfig,
    _compact,
    _Csr,
    _featurize_many,
    _gather,
    _scatter,
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

from oracles import (
    dense_weights,
    per_example_train,
    per_step_take_fit,
    row_major_gather,
    row_major_scatter,
)

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
    feats = _featurize_many(["aa bb", "cc dd", "ee"], SPEC)
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
    feats = _featurize_many(["hold on", "thanks", "ok"], spec)
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

    feats = _featurize_many([t for t, _ in examples], SPEC)
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


# --- differential test against the retired per-example trainer -------------


def _synthetic_examples(distinct: bool) -> list[tuple[str, int]]:
    corpus, _ = generate_synthetic(24, 17)
    return [
        (f"{t.text} {t.call_id} {t.turn_index}" if distinct else t.text, t.label)
        for t in corpus.iter_turns()
    ]


@pytest.mark.parametrize("case", ["templated", "distinct", "refold"])
def test_matches_per_example_trainer(case):
    examples = _synthetic_examples(distinct=case == "distinct")
    train_set, validation = examples[:-150], examples[-150:]
    spec = FeatureSpec(hash_dim=2 ** 12)
    if case == "refold":
        # Each early step multiplies scale by ~0.01. Over all steps the decay
        # reaches 1e-400, below the smallest float, so v must be refolded.
        config = TrainConfig(batch_size=2, learning_rate=0.5, weight_decay=1.98, seed=2)
        steps = -(-len(train_set) // config.batch_size) * config.epochs
        lrs = config.learning_rate * (1.0 - np.arange(steps) / steps)
        assert np.log10(1.0 - lrs * config.weight_decay).sum() < -400
    else:
        config = TrainConfig(class_weights=(0.5, 2.0, 3.0), seed=9)

    got = train(train_set, config, spec, validation)
    want = per_example_train(train_set, config, spec, validation)
    assert len(got) == len(want) == config.epochs
    for g, w in zip(got, want):
        assert np.all(np.isfinite(g.weights))
        assert np.max(np.abs(dense_weights(g) - w.weights)) <= 1e-12
        assert np.max(np.abs(g.bias - w.bias)) <= 1e-12
        assert g.validation_auc == w.validation_auc
    assert select_best_checkpoint(got).epoch == select_best_checkpoint(want).epoch


# --- differential tests against the dense per-step row-take trainer -----------


def _fit_inputs(distinct: bool, spec: FeatureSpec):
    """A feature matrix of synthetic turns, 405 shuffled train rows and 53 validation rows.

    The corpus has five scripted turns; each side gets some of them.
    """
    examples = _synthetic_examples(distinct)
    feats = _featurize_many([t for t, _ in examples], spec)
    y = np.array([label for _, label in examples])
    scripted, plain = np.flatnonzero(y > 0), np.flatnonzero(y == 0)
    train_rows = np.random.default_rng(5).permutation(np.concatenate([scripted[1::2], plain[:400]]))
    return feats, y, train_rows, np.concatenate([scripted[::2], plain[400:450]])


def _copy(feats):
    """feats with its own indices, which _compact remaps in place."""
    return feats._replace(indices=feats.indices.copy())


_REFOLD = TrainConfig(batch_size=2, learning_rate=0.5, weight_decay=1.98, seed=2)


@pytest.mark.parametrize("distinct", [False, True], ids=["templated", "distinct"])
@pytest.mark.parametrize("batch_size", [1, 3, 16, 50, "n-1", "n", "n+5", "refold"])
def test_fit_matches_per_step_take(distinct, batch_size):
    """fit's compact weights are the dense trainer's on their columns, bit
    for bit, and every other bucket's dense weights are +0.0."""
    spec = FeatureSpec(hash_dim=2 ** 12)
    feats, y, train_rows, val_rows = _fit_inputs(distinct, spec)
    columns, compact = _compact(_copy(feats), spec.hash_dim)
    n = len(train_rows)
    if batch_size == "refold":
        # As in test_matches_per_example_trainer: the decay reaches below the
        # smallest float, so v is refolded mid-run.
        config = _REFOLD
        steps = -(-n // config.batch_size) * config.epochs
        lrs = config.learning_rate * (1.0 - np.arange(steps) / steps)
        assert np.log10(1.0 - lrs * config.weight_decay).sum() < -400
    else:
        size = {"n-1": n - 1, "n": n, "n+5": n + 5}.get(batch_size, batch_size)
        config = TrainConfig(batch_size=size, class_weights=(0.5, 2.0, 3.0), seed=9)

    got = list(fit(compact, columns, y, train_rows, val_rows, config, spec))
    want = list(per_step_take_fit(feats, y, train_rows, val_rows, config, spec))
    assert [c.epoch for c in got] == [c.epoch for c in want] == list(range(1, config.epochs + 1))
    unused = np.setdiff1d(np.arange(spec.hash_dim), columns)
    for g, w in zip(got, want):
        assert g.columns is columns
        assert np.all(np.isfinite(g.weights))
        assert g.weights.tobytes() == w.weights[columns].tobytes()
        assert w.weights[unused].tobytes() == bytes(len(unused) * 3 * 8)
        assert dense_weights(g).tobytes() == w.weights.tobytes()
        assert g.bias.tobytes() == w.bias.tobytes()
        assert g.validation_auc == w.validation_auc


def test_checkpoints_hold_and_save_c_order_weights(tmp_path):
    """fit trains class-major weights but yields them as C-order (U, 3), so
    a model file stores them in C order, as before the layout changed."""
    spec = FeatureSpec(hash_dim=2 ** 12)
    feats, y, train_rows, val_rows = _fit_inputs(False, spec)
    columns, compact = _compact(feats, spec.hash_dim)
    for ckpt in fit(compact, columns, y, train_rows, val_rows, TrainConfig(epochs=2, seed=9), spec):
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
    feats = _featurize_many(corpus, spec)
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
    """save -> load -> predict_proba of a compact model gives the dense
    model's probabilities bit for bit, with rows of -0.0 and subnormals too."""
    spec = FeatureSpec(hash_dim=2 ** 12)
    feats, y, train_rows, val_rows = _fit_inputs(distinct, spec)
    columns, compact = _compact(_copy(feats), spec.hash_dim)
    config = TrainConfig(epochs=2, seed=9)
    got = list(fit(compact, columns, y, train_rows, val_rows, config, spec))[-1]
    dense = list(per_step_take_fit(feats, y, train_rows, val_rows, config, spec))[-1]
    special = np.array([-0.0, 5e-324, -2.5e-310])  # a negative zero and two subnormals
    got.weights[::7] = special
    dense.weights[columns[::7]] = special
    path = tmp_path / "model.npz"
    save_checkpoint(path, got)
    loaded = load_checkpoint(path)
    for name in ("columns", "weights", "bias"):
        a, b = getattr(loaded, name), getattr(got, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert dense_weights(loaded).tobytes() == dense.weights.tobytes()
    texts = [t for t, _ in _synthetic_examples(distinct)] + ["words no model has seen", ""]
    assert np.array(predict_proba(loaded, texts, spec)).tobytes() == \
        np.array(predict_proba(dense, texts, spec)).tobytes()


@pytest.mark.parametrize("n_rows", [0, 1, 128, 300])
def test_csr_take_matches_row_by_row(n_rows):
    """take holds each asked-for row's entries, concatenated in the order asked for."""
    examples = _synthetic_examples(distinct=True)[:90] + [("", 0)]  # the last row is empty
    feats = _featurize_many([t for t, _ in examples], FeatureSpec(hash_dim=2 ** 12))
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
    feats = _featurize_many([t for t, _ in examples], FeatureSpec(hash_dim=2 ** 12))
    got = feats.slice(start, stop)
    want = feats.take(np.arange(start, min(stop, 53)))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


# --- the class-major kernels against the row-major ones ------------------------

_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310]  # signed zeros and subnormals
_VALUES = st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e3, 1e3))


@st.composite
def _kernel_case(draw):
    """Weights over U buckets, CSR rows over them (empty rows, and buckets
    repeated within and across rows), a logit gradient and a step coefficient."""
    u = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.tuples(st.integers(0, u - 1), st.integers(1, 4)), max_size=9),
                         max_size=7))
    indptr = np.cumsum([0, *map(len, rows)])
    entries = [e for row in rows for e in row]
    feats = _Csr(indptr, np.array([b for b, _ in entries], np.int64),
                 np.array([c for _, c in entries], np.float64))
    weights = np.array(draw(st.lists(_VALUES, min_size=3 * u, max_size=3 * u))).reshape(u, 3)
    g = np.array(draw(st.lists(_VALUES, min_size=3 * len(rows), max_size=3 * len(rows))))
    # 1.0 as in weighted_ce_loss_and_grad, a plain step's -lr / scale, and one
    # just before a refold (scale near 1e-100).
    coef = draw(st.sampled_from([1.0, -0.1, -0.05 / 0.99, -0.5 / 1.3e-100]))
    return feats, weights, g.reshape(len(rows), 3), coef


@settings(max_examples=300, deadline=None)
@given(_kernel_case())
def test_class_major_kernels_match_row_major_bit_for_bit(case):
    feats, weights, g, coef = case
    weights_t = np.ascontiguousarray(weights.T)
    want = row_major_gather(feats, weights)
    seg = feats.row_ids()
    for got in (_gather(feats, weights_t), _gather(feats, weights_t, seg)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    row_major_scatter(weights, feats, g, coef)
    _scatter(weights_t, feats, seg, g, coef)
    assert np.ascontiguousarray(weights_t.T).tobytes() == weights.tobytes()
