"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch in plain Python
(loops, no numpy) so it shares no code path with the package under test.
The exceptions are differential references kept verbatim from earlier
versions of the package:

- `incremental_threshold_search`: the candidate-by-candidate sweep used
  before the vectorized search, with the per-matrix `scalar_macro_prf` it
  called; a bit-exact reference.
- `per_example_train`: the trainer used before the shared sparse kernels,
  with its per-example logits and update loops and the `(idx, cnt)`
  feature lists it read.
- `per_text_featurize` and `per_text_featurize_many`: the featurizer used
  before the batched array passes, hashing every n-gram of every text
  through a dict; a bit-exact reference for the CSR arrays.
"""

from __future__ import annotations

import zlib

import numpy as np

from holdscan.classifier import Checkpoint, FeatureSpec, _Csr
from holdscan.errors import EmptyFold, EmptyInput, EmptyTrainingSet, UnlabeledExample
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


def scalar_macro_prf(cm):
    """(precision_macro, recall_macro, f1_macro, balanced_accuracy) from counts."""
    cm = np.asarray(cm)
    precisions, recalls, f1s = [], [], []
    for c in range(3):
        tp = float(cm[c, c])
        fp = float(cm[:, c].sum() - cm[c, c])
        fn = float(cm[c, :].sum() - cm[c, c])
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    precision_macro = sum(precisions) / 3
    recall_macro = sum(recalls) / 3
    f1_macro = sum(f1s) / 3
    return precision_macro, recall_macro, f1_macro, recall_macro


def incremental_threshold_search(per_fold_predictions):
    """The O(folds x candidates) sweep over sequences of ProbTriple.

    Walks the candidates in descending order, flipping rows from class 0
    to their winner as the threshold drops and scoring every confusion
    matrix on the way. Returns (threshold, mean F1-macro), smallest
    threshold on ties.
    """
    if not per_fold_predictions:
        raise EmptyFold("need at least one fold of predictions")
    folds = []
    for probs, labels in per_fold_predictions:
        if len(probs) == 0:
            raise EmptyFold("a fold with zero predictions cannot be scored")
        if len(probs) != len(labels):
            raise EmptyFold(f"{len(probs)} predictions but {len(labels)} labels in a fold")
        s = np.array([p.p1 + p.p2 for p in probs])
        winner = np.array([1 if p.p1 >= p.p2 else 2 for p in probs])
        folds.append((s, winner, np.asarray(labels, dtype=np.int64)))

    all_sums = np.concatenate([s for s, _, _ in folds])
    # Descending sweep: start from the sentinel (everything rejected) and
    # flip predictions to their positive winner as the threshold drops.
    candidates_desc = np.unique(all_sums)[::-1]
    n_cand = candidates_desc.size + 1  # sentinel first

    f1_sum = np.zeros(n_cand)
    for s, winner, y in folds:
        order = np.argsort(-s, kind="mergesort")
        cm = np.zeros((3, 3), dtype=np.int64)
        np.add.at(cm, (y, np.zeros_like(y)), 1)
        f1_sum[0] += scalar_macro_prf(cm)[2]
        ptr = 0
        for ci, cand in enumerate(candidates_desc, start=1):
            while ptr < s.size and s[order[ptr]] >= cand:
                i = order[ptr]
                cm[y[i], 0] -= 1
                cm[y[i], winner[i]] += 1
                ptr += 1
            f1_sum[ci] += scalar_macro_prf(cm)[2]

    mean_f1 = f1_sum / len(folds)
    thresholds = np.r_[REJECT_ALL, candidates_desc]
    best_f1 = mean_f1.max()
    winners = thresholds[mean_f1 == best_f1]
    return float(winners.min()), float(best_f1)


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


# --- the per-example trainer, kept as a differential reference ----------------


def _featurize_list(texts, spec):
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


def _batch_logits(feats, weights, bias):
    n = len(feats)
    logits = np.tile(bias, (n, 1))
    if n == 0:
        return logits
    lengths = np.array([len(f[0]) for f in feats])
    if lengths.sum() == 0:
        return logits
    rows = np.concatenate([f[0] for f in feats])
    vals = np.concatenate([f[1] for f in feats])
    seg = np.repeat(np.arange(n), lengths)
    contrib = vals[:, None] * weights[rows]
    for c in range(3):
        logits[:, c] += np.bincount(seg, weights=contrib[:, c], minlength=n)
    return logits


def per_example_train(examples, config, spec, validation):
    """Mini-batch trainer with one Python iteration per example per step."""
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
            logits = np.empty((bsz, 3))
            for j, i in enumerate(batch):
                idx, cnt = train_feats[int(i)]
                logits[j] = scale * (cnt @ v[idx]) + bias if len(idx) else bias
            probs = _softmax_rows(logits)
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
        val_probs = _softmax_rows(_batch_logits(val_feats, weights, bias))
        auc = roc_auc_ovr_macro(y_val, val_probs)
        checkpoints.append(
            Checkpoint(
                epoch=epoch,
                weights=weights,
                bias=bias.copy(),
                validation_auc=auc,
                feature_spec=spec,
            )
        )
    return checkpoints


# --- the per-text featurizer, kept as a differential reference ----------------


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


def per_text_featurize_many(texts, spec: FeatureSpec) -> _Csr:
    """One CSR row per text; each distinct text is featurized once."""
    first: dict[str, int] = {}  # distinct text -> its row among the distinct texts
    rows = np.array([first.setdefault(text, len(first)) for text in texts], dtype=np.int64)
    idx, cnt = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for text in first:
        items = sorted(per_text_featurize(text, spec).items())
        idx.append(np.fromiter((i for i, _ in items), dtype=np.int64, count=len(items)))
        cnt.append(np.fromiter((c for _, c in items), dtype=np.float64, count=len(items)))
    indptr = np.cumsum([0, *map(len, idx[1:])])
    return _Csr(indptr, np.concatenate(idx), np.concatenate(cnt)).take(rows)
