"""Independent reference implementations used as test oracles.

Everything here is written from scratch, in plain Python loops or plain
numpy, and shares no code with the package under test: it imports only
the package's data types, its errors and `roc_auc_ovr_macro` (whose
binary AUC `brute_pair_auc` checks). It keeps one reference per concept, and
each one that stands for an optimized path is bit-exact: a test compares
whole results with ==, or their bytes.

- `reference_decide`: the gated-argmax rule of `decide_batch`.
- `naive_confusion` and `naive_macro_prf`: `metrics.confusion` and
  `metrics.macro_prf`, by counting in lists.
- `exhaustive_threshold_search`: `tuning.shared_threshold_search`, by
  deciding every row at every candidate threshold; the same
  `(threshold, mean F1)` bits, with ties to the smallest threshold.
- `brute_pair_auc` and `trapezoid_auc`: binary ROC AUC, by pairs and by
  trapezoids.
- `per_text_featurize` and `per_text_featurize_many`: the featurizer,
  hashing every n-gram of every text through a dict; the same CSR arrays
  as `classifier._featurize_many`.
- `per_example_train`: `classifier.fit` and `classifier.train`, with one
  Python iteration per example per step and dense `(hash_dim, 3)`
  weights; the same bits for every epoch's weights, bias and validation
  AUC, at any batch size and through a refold of the decay.
- `reference_select_best`: the checkpoint pick, a `max` over every
  checkpoint.
- `dense_weights` and `per_text_proba`: a compact model's weights spread
  over all `hash_dim` buckets, and its probabilities scored on
  `per_text_featurize` features with them; the same bits as
  `classifier.predict_proba`.

A path-specific reference, such as a verbatim copy of code the package
replaced, lives here only until an independent reference checks the same
bits; then it is deleted with the tests that only it served.
`tests/mutants.py` shows which tests kill which defects, and so whether a
reference still adds a kill.
"""

from __future__ import annotations

import zlib

import numpy as np

from holdscan.classifier import Checkpoint, FeatureSpec
from holdscan.errors import EmptyInput, EmptyTrainingSet, UnlabeledExample
from holdscan.metrics import roc_auc_ovr_macro

REJECT_ALL = 1.0 + 1e-9


def reference_decide(p: tuple[float, float, float], threshold: float) -> int:
    """Direct restatement of the gated-argmax rule."""
    p0, p1, p2 = p
    if p1 + p2 >= threshold:
        if p1 >= p2:
            return 1
        return 2
    return 0


def naive_confusion(y_true, y_pred):
    cm = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for t, p in zip(y_true, y_pred):
        cm[t][p] += 1
    return cm


def naive_macro_prf(y_true, y_pred):
    """(precision_macro, recall_macro, f1_macro) with zero-denominator -> 0."""
    cm = naive_confusion(y_true, y_pred)
    ps, rs, fs = [], [], []
    for c in range(3):
        tp = cm[c][c]
        fp = sum(cm[r][c] for r in range(3)) - tp
        fn = sum(cm[c]) - tp
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(f)
    return sum(ps) / 3, sum(rs) / 3, sum(fs) / 3


def exhaustive_threshold_search(folds):
    """Brute-force sweep over every candidate threshold.

    folds: list of (list of (p0,p1,p2), list of labels).
    Returns (best threshold, best mean f1), smallest threshold on ties.
    """
    sums = sorted({p[1] + p[2] for probs, _ in folds for p in probs})
    candidates = sums + [REJECT_ALL]
    scored = []
    for threshold in candidates:
        f1s = []
        for probs, labels in folds:
            preds = [reference_decide(p, threshold) for p in probs]
            f1s.append(naive_macro_prf(labels, preds)[2])
        scored.append((threshold, sum(f1s) / len(f1s)))
    best_f1 = max(f1 for _, f1 in scored)
    best_threshold = min(t for t, f1 in scored if f1 == best_f1)
    return best_threshold, best_f1


def brute_pair_auc(scores, positives):
    """O(n^2) pairwise AUC with half credit for ties."""
    pos = [s for s, flag in zip(scores, positives) if flag]
    neg = [s for s, flag in zip(scores, positives) if not flag]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def trapezoid_auc(scores, positives):
    """Area under the ROC curve by trapezoidal integration.

    The curve is built from distinct score levels in descending order, so
    tie groups become diagonal segments; the area equals pairwise counting
    with 0.5 per tie.
    """
    pairs = sorted(zip(scores, positives), key=lambda sp: -sp[0])
    n_pos = sum(1 for _, flag in pairs if flag)
    n_neg = len(pairs) - n_pos
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(pairs):
        j = i
        while j < len(pairs) and pairs[j][0] == pairs[i][0]:
            if pairs[j][1]:
                tp += 1
            else:
                fp += 1
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def random_prob_triple(rng):
    """A valid probability triple from three uniform draws."""
    raw = [rng.random() + 1e-12 for _ in range(3)]
    total = sum(raw)
    return (raw[0] / total, raw[1] / total, raw[2] / total)


# --- the per-example trainer ----------------------------------------------------


def _featurize_list(texts, spec):
    """One (buckets, counts) pair per text, buckets ascending; each distinct text featurized once."""
    cache = {}
    out = []
    for text in texts:
        feats = cache.get(text)
        if feats is None:
            items = sorted(per_text_featurize(text, spec).items())
            idx = np.fromiter((i for i, _ in items), dtype=np.int64, count=len(items))
            cnt = np.fromiter((c for _, c in items), dtype=np.float64, count=len(items))
            feats = (idx, cnt)
            cache[text] = feats
        out.append(feats)
    return out


def _softmax_rows(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _row_sums(feats, weights):
    """(n, 3): for each (idx, cnt) row, the sum of cnt[k] * weights[idx[k]],
    added in order from +0.0 (cumsum adds sequentially, as np.bincount does)."""
    sums = np.zeros((len(feats), 3))
    for j, (idx, cnt) in enumerate(feats):
        sums[j] = np.cumsum(np.concatenate((np.zeros((1, 3)), cnt[:, None] * weights[idx])),
                            axis=0)[-1]
    return sums


def per_example_train(examples, config, spec, validation):
    """Mini-batch trainer with one Python iteration per example per step.

    examples and validation are (text, label) pairs; the batches are
    positions in examples, shuffled as fit shuffles its train_rows. Each
    Checkpoint holds dense (hash_dim, 3) weights, every bucket a column.
    """
    if not examples:
        raise EmptyTrainingSet("training set is empty")
    if not validation:
        raise EmptyInput("validation set is empty")
    for text, label in list(examples) + list(validation):
        if label is None or label not in (0, 1, 2):
            raise UnlabeledExample(f"example {text[:40]!r} has label {label!r}")

    train_feats = _featurize_list([t for t, _ in examples], spec)
    y_train = np.array([label for _, label in examples])
    val_feats = _featurize_list([t for t, _ in validation], spec)
    y_val = np.array([label for _, label in validation])

    n = len(examples)
    cw = np.asarray(config.class_weights, dtype=float)
    rng = np.random.default_rng(config.seed)

    # weights = scale * v; the decoupled decay multiplies the scalar only.
    v = np.zeros((spec.hash_dim, 3))
    scale = 1.0
    bias = np.zeros(3)

    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    step = 0
    checkpoints = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            lr = config.learning_rate * (1.0 - step / total_steps)
            step += 1

            bsz = len(batch)
            probs = _softmax_rows(scale * _row_sums([train_feats[i] for i in batch], v) + bias)
            yb = y_train[batch]
            g = probs
            g[np.arange(bsz), yb] -= 1.0
            g *= (cw[yb] / bsz)[:, None]

            scale *= 1.0 - lr * config.weight_decay
            if scale < 1e-100:  # refold to keep v representable
                v *= scale
                scale = 1.0
            coef = lr / scale
            for j, i in enumerate(batch):
                idx, cnt = train_feats[int(i)]
                if len(idx):
                    v[idx] -= coef * cnt[:, None] * g[j]
            bias -= lr * g.sum(axis=0)

        weights = scale * v
        val_probs = _softmax_rows(_row_sums(val_feats, weights) + bias)
        auc = roc_auc_ovr_macro(y_val, val_probs)
        checkpoints.append(
            Checkpoint(
                epoch=epoch,
                columns=np.arange(spec.hash_dim),
                weights=weights,
                bias=bias.copy(),
                validation_auc=auc,
                feature_spec=spec,
            )
        )
    return checkpoints


# --- the checkpoint pick, dense weights and per-text scoring -------------------


def reference_select_best(checkpoints):
    """The checkpoint with maximal validation AUC; ties go to the earliest epoch."""
    best = max(checkpoints, key=lambda ckpt: ckpt.validation_auc, default=None)
    if best is None:
        raise EmptyInput("no checkpoints to select from")
    return best


def dense_weights(model: Checkpoint) -> np.ndarray:
    """The model's (hash_dim, 3) weight matrix: its weights on its columns, +0.0 elsewhere."""
    dense = np.zeros((model.feature_spec.hash_dim, 3))
    dense[model.columns] = model.weights
    return dense


def per_text_proba(model: Checkpoint, texts) -> np.ndarray:
    """(n, 3) probabilities of the texts: per-text features against the model's dense weights."""
    feats = _featurize_list(texts, model.feature_spec)
    return _softmax_rows(_row_sums(feats, dense_weights(model)) + model.bias)


# --- the per-text featurizer --------------------------------------------------


def _bucket(tag: str, token: str, hash_dim: int) -> int:
    return zlib.crc32(f"{tag}\x00{token}".encode("utf-8")) % hash_dim


def per_text_featurize(text: str, spec: FeatureSpec) -> dict[int, int]:
    """Sparse count vector of dimension spec.hash_dim, as {bucket: count}.

    Deterministic (crc32 hashing, no process salt). Empty text maps to the
    all-zero vector.
    """
    if spec.lowercase:
        text = text.lower()
    tokens = text.split()[: spec.max_tokens]
    counts: dict[int, int] = {}
    if spec.word_unigrams:
        for token in tokens:
            b = _bucket("w", token, spec.hash_dim)
            counts[b] = counts.get(b, 0) + 1
    joined = " ".join(tokens)
    for n in range(spec.char_ngram_min, spec.char_ngram_max + 1):
        tag = f"c{n}"
        for i in range(len(joined) - n + 1):
            b = _bucket(tag, joined[i : i + n], spec.hash_dim)
            counts[b] = counts.get(b, 0) + 1
    return counts


def per_text_featurize_many(texts, spec: FeatureSpec):
    """(indptr, indices, data) of one CSR row per text, as int64, int64 and float64."""
    rows = _featurize_list(texts, spec)
    indptr = np.cumsum([0, *(len(idx) for idx, _ in rows)], dtype=np.int64)
    indices = np.concatenate([np.empty(0, np.int64), *(idx for idx, _ in rows)])
    return indptr, indices, np.concatenate([np.empty(0), *(cnt for _, cnt in rows)])
