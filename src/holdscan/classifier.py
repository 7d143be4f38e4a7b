"""Turn scorer: hashed n-gram features into a linear softmax over 3 classes.

The scorer contract is deliberately narrow: a trained Checkpoint maps turn
texts to probability triples over {irrelevant, opening, closing}. Scores
produced elsewhere (e.g. by a fine-tuned transformer) enter through
load_external_proba and flow through the identical downstream machinery.
predict_proba and load_external_proba return ProbTriples, plain named
tuples that check nothing; consumers take the (n, 3) float64 array that
metrics.as_prob_array builds and checks.
The predictions CSV is read and written by holdscan.corpus.io's read_csv
and write_csv, as transcripts and holds are: blank lines and lines
starting with '#' are skipped, columns beyond the five read are ignored,
and a row without a cell for each of them is a MalformedRow.

Training is plain mini-batch gradient descent on class-weighted
cross-entropy with decoupled weight decay and a step size that decays
linearly to zero. Internally the weight matrix is kept as scale * V so the
decay multiplies a scalar instead of the full matrix each step. Features
are one CSR matrix, one row per turn; training, prediction and the loss
share one gather (logits), one softmax-gradient function and one in-order
scatter (gradients, touching only the feature rows present in a batch).
fit trains on chosen rows of such a matrix, so a cross-validation run
featurizes its turns once and every fold is a set of rows; train
featurizes texts and then uses the same kernels. predict_proba never
builds the whole batch's matrix: it featurizes and scores one block of
distinct texts at a time, keeping only each block's (n, 3) probabilities.

Featurization is feature hashing: each word token and character n-gram
counts in bucket crc32(f"{tag}\\x00{gram}") % hash_dim. _feature_blocks
yields one CSR matrix per block of distinct texts, built in array passes;
_featurize_many stacks the blocks into one row per text, and featurize is
its one-row view.
"""

from __future__ import annotations

import json
import sys
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .corpus.io import read_csv, strict, write_csv
from .errors import (
    DuplicateKey,
    EmptyInput,
    EmptyTrainingSet,
    MalformedRow,
    ProbabilityInvariantViolation,
    SpecMismatch,
    UnlabeledExample,
)
from .metrics import PROB_SUM_TOL, roc_auc_ovr_macro

PathLike = Union[str, Path]

PROBA_COLUMNS = ("call_id", "turn_index", "p0", "p1", "p2")
MODEL_FORMAT_VERSION = 1

# Sum-of-probabilities tolerance of the predictions file: rows within 1e-6 of 1
# are renormalized (when further off than PROB_SUM_TOL), the rest rejected.
PROB_FILE_TOL = 1e-6


class ProbTriple(NamedTuple):
    """Probability vector over (irrelevant, opening, closing); not validated."""

    p0: float
    p1: float
    p2: float


@dataclass(frozen=True)
class FeatureSpec:
    """Hashed bag-of-n-grams featurization parameters.

    max_tokens caps the number of whitespace tokens considered per turn,
    applied before n-gram extraction.
    """

    hash_dim: int = 2 ** 18
    char_ngram_min: int = 2
    char_ngram_max: int = 4
    word_unigrams: bool = True
    lowercase: bool = True
    max_tokens: int = 128

    def __post_init__(self):
        if self.hash_dim < 2 ** 10 or self.hash_dim & (self.hash_dim - 1):
            raise ValueError(f"hash_dim must be a power of two >= 1024, got {self.hash_dim}")
        if not 1 <= self.char_ngram_min <= self.char_ngram_max:
            raise ValueError("need 1 <= char_ngram_min <= char_ngram_max")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 16
    learning_rate: float = 0.1
    weight_decay: float = 0.01
    class_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if len(self.class_weights) != 3 or any(w <= 0 for w in self.class_weights):
            raise ValueError(f"class_weights must be 3 positive reals, got {self.class_weights}")
        if self.learning_rate * self.weight_decay >= 1.0:
            raise ValueError("learning_rate * weight_decay must stay below 1")


@dataclass
class Checkpoint:
    """Model snapshot at an epoch boundary, scored on the validation fold."""

    epoch: int
    weights: np.ndarray  # (hash_dim, 3)
    bias: np.ndarray     # (3,)
    validation_auc: float
    feature_spec: FeatureSpec

    def __post_init__(self):
        if self.epoch < 1:
            raise ValueError(f"epoch must be >= 1, got {self.epoch}")
        if self.weights.shape != (self.feature_spec.hash_dim, 3) or self.bias.shape != (3,):
            raise ValueError(f"weights {self.weights.shape} and bias {self.bias.shape} do not "
                             f"have shapes ({self.feature_spec.hash_dim}, 3) and (3,)")


class _Csr(NamedTuple):
    """Sparse count rows in CSR form.

    Row i has counts data[indptr[i]:indptr[i + 1]] in the buckets
    indices[indptr[i]:indptr[i + 1]], buckets ascending within a row.
    """

    indptr: np.ndarray   # (n + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    data: np.ndarray     # (nnz,) float64

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(len(self.indptr) - 1), self.indptr[1:] - self.indptr[:-1])

    def take(self, rows: np.ndarray) -> "_Csr":
        """The given rows, in the given order."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        pos = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return _Csr(indptr, self.indices[pos], self.data[pos])


# Distinct texts featurized (and, in predict_proba, scored) together; bounds the
# temporary arrays of one pass.
_BLOCK = 2048
_CODE_POINTS = sys.maxunicode + 1


def featurize(text: str, spec: FeatureSpec) -> dict[int, int]:
    """Sparse count vector of dimension spec.hash_dim, as {bucket: count}.

    Deterministic (crc32 hashing, no process salt). Empty text maps to the
    all-zero vector. A one-row view of _featurize_many.
    """
    feats = _featurize_many([text], spec)
    return dict(zip(feats.indices.tolist(), map(int, feats.data.tolist())))


def _featurize_many(texts: Iterable[str], spec: FeatureSpec) -> _Csr:
    """One CSR row per text; each distinct text is featurized once."""
    distinct, rows = _distinct(texts)
    blocks = list(_feature_blocks(distinct, spec))
    lengths = np.concatenate([np.diff(b.indptr) for b in blocks])
    feats = _Csr(np.concatenate(([0], np.cumsum(lengths))),
                 np.concatenate([b.indices for b in blocks]),
                 np.concatenate([b.data for b in blocks]))
    return feats if len(distinct) == len(rows) else feats.take(rows)


def _distinct(texts: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """The distinct texts in first-seen order, and the row of each text among them."""
    first: dict[str, int] = {}
    rows = [first.setdefault(text, len(first)) for text in texts]
    return list(first), np.array(rows, dtype=np.int64)


def _feature_blocks(distinct: Sequence[str], spec: FeatureSpec) -> Iterator[_Csr]:
    """One CSR matrix per block of _BLOCK distinct texts, built as it is asked for.

    Yields at least one block, possibly empty, so an empty batch gets the same dtypes.
    """
    for i in range(0, max(len(distinct), 1), _BLOCK):
        yield _featurize_block(distinct[i : i + _BLOCK], spec)


def _featurize_block(texts: Sequence[str], spec: FeatureSpec) -> _Csr:
    """One CSR row of counts per distinct text, buckets ascending per row.

    Python only lowercases, splits and truncates each text. Every word token
    and character n-gram then gets an integer id (a dict for tokens; for an
    n-gram, the rank of its (n-1)-gram's id * _CODE_POINTS + its last code
    point), crc32 runs once per distinct id, and one sort over
    (row, bucket) gives the counts.
    """
    span = min(spec.hash_dim, 1 << 32)  # crc32 < 2**32, so crc % hash_dim == crc % span
    tokens: list[str] = []
    n_tokens, joined = [], []
    for text in texts:
        if spec.lowercase:
            text = text.lower()
        words = text.split()[: spec.max_tokens]
        tokens += words
        n_tokens.append(len(words))
        joined.append(" ".join(words))
    row_ids = np.arange(len(texts))
    rows, buckets = [], []  # (row, bucket) of every token and n-gram
    if spec.word_unigrams:
        vocab = {token: i for i, token in enumerate(dict.fromkeys(tokens))}
        ids = np.fromiter(map(vocab.__getitem__, tokens), np.int64, len(tokens))
        rows.append(np.repeat(row_ids, n_tokens))
        buckets.append(_crc_buckets("w", vocab, span)[ids])

    chars = "".join(joined)
    lengths = [len(j) for j in joined]
    row = np.repeat(row_ids, lengths)
    stop = np.repeat(np.cumsum(lengths), lengths)  # one past the end of each position's text
    code = np.frombuffer(chars.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)
    pos, ids = np.arange(len(chars)), code  # the n-grams starting at pos; ids exact per gram
    for n in range(1, spec.char_ngram_max + 1):
        if n > 1:
            keep = pos + n <= stop[pos]
            pos = pos[keep]
            # ids < max(len(chars), _CODE_POINTS), so this stays far below 2**63.
            ids = ids[keep] * _CODE_POINTS + code[pos + n - 1]
        if n > 1 or spec.char_ngram_min == 1:
            uniq, ids = np.unique(ids, return_inverse=True)
        if n >= spec.char_ngram_min:
            at = np.empty(len(uniq), np.int64)
            at[ids] = pos  # one start of each distinct gram; any of them spells it
            grams = [chars[p : p + n] for p in at.tolist()]
            rows.append(row[pos])
            buckets.append(_crc_buckets(f"c{n}", grams, span)[ids])

    # row < _BLOCK and bucket < span <= 2**32, so the keys fit int64 for any hash_dim.
    keys, counts = np.unique(np.concatenate(rows) * span + np.concatenate(buckets),
                             return_counts=True)
    lengths = np.bincount(keys // span, minlength=len(texts))
    return _Csr(np.concatenate(([0], np.cumsum(lengths))), keys % span, counts.astype(np.float64))


def _crc_buckets(tag: str, grams: Iterable[str], span: int) -> np.ndarray:
    """crc32(f"{tag}\\x00{gram}") % span for each gram, as int64."""
    seed = zlib.crc32(f"{tag}\x00".encode("utf-8"))
    crcs = np.fromiter((zlib.crc32(g.encode("utf-8"), seed) for g in grams), dtype=np.int64)
    return crcs % span


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _gather(feats: _Csr, weights: np.ndarray) -> np.ndarray:
    """feats @ weights as an (n, 3) array; each row sums its terms in order."""
    n = len(feats.indptr) - 1
    seg = feats.row_ids()
    terms = np.take(weights, feats.indices, axis=0)
    terms *= feats.data[:, None]
    return np.stack([np.bincount(seg, weights=terms[:, c], minlength=n) for c in range(3)], axis=1)


def _scatter(out: np.ndarray, feats: _Csr, g: np.ndarray, coef: float) -> None:
    """out += coef * feats.T @ g, in place, one (row, bucket) term at a time.

    Terms are (coef * count) * g[row], added unbuffered in row order, so a
    bucket shared by several rows accumulates exactly as a per-row loop of
    out[idx] += (coef * cnt)[:, None] * g[row] would.
    """
    terms = (coef * feats.data)[:, None] * np.take(g, feats.row_ids(), axis=0)
    for c in range(3):
        np.add.at(out[:, c], feats.indices, terms[:, c])


def _ce_logit_grad(probs: np.ndarray, y: np.ndarray, class_weights: Sequence[float]) -> np.ndarray:
    """Gradient of the batch-mean class-weighted cross-entropy w.r.t. the logits."""
    n = len(y)
    g = probs.copy()
    g[np.arange(n), y] -= 1.0
    g *= (np.asarray(class_weights, dtype=float)[y] / n)[:, None]
    return g


def weighted_ce_loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    feats: _Csr,
    y: Sequence[int],
    class_weights: Sequence[float],
) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch-mean class-weighted cross-entropy with analytic gradients.

    feats holds one CSR row per example, as built by _featurize_many. The
    loss term of an example with true class y is multiplied by
    class_weights[y]; the batch loss is the plain mean of the weighted
    terms (so scaling all weights scales the loss by the same factor).
    Returns (loss, grad_weights, grad_bias); grad_weights is dense.
    """
    y = np.asarray(y)
    n = len(feats.indptr) - 1
    if n == 0:
        raise EmptyInput("cannot evaluate the loss on an empty batch")
    cw = np.asarray(class_weights, dtype=float)
    probs = _softmax_rows(_gather(feats, weights) + bias)
    loss = float(np.mean(cw[y] * -np.log(probs[np.arange(n), y])))
    g = _ce_logit_grad(probs, y, cw)
    grad_w = np.zeros(weights.shape)
    _scatter(grad_w, feats, g, 1.0)
    return loss, grad_w, g.sum(axis=0)


def train(
    examples: Sequence[tuple[str, Optional[int]]],
    config: TrainConfig,
    spec: FeatureSpec,
    validation: Sequence[tuple[str, Optional[int]]],
) -> list[Checkpoint]:
    """Train on (text, label) examples; one Checkpoint per epoch, scored on validation.

    Checks the labels, featurizes both sequences in one call and runs fit
    on their rows, keeping every epoch's Checkpoint.
    """
    labeled = list(examples) + list(validation)
    for text, label in labeled:
        if label is None or label not in (0, 1, 2):
            raise UnlabeledExample(f"example {text[:40]!r} has label {label!r}")
    feats = _featurize_many([t for t, _ in labeled], spec)
    y = np.array([label for _, label in labeled])
    n = len(examples)
    return list(fit(feats, y, np.arange(n), np.arange(n, len(labeled)), config, spec))


def fit(
    feats: _Csr,
    y: np.ndarray,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    config: TrainConfig,
    spec: FeatureSpec,
) -> Iterator[Checkpoint]:
    """Train the linear softmax model, yielding one Checkpoint per epoch.

    Trains on the rows train_rows of feats and y (labels in {0, 1, 2}) and
    scores each epoch's macro one-vs-rest ROC AUC on the rows val_rows.
    Deterministic given the rows, config and spec: the per-epoch shuffle of
    train_rows is driven solely by config.seed. Each epoch is trained when
    the next Checkpoint is asked for, and fit keeps none it has yielded, so
    a caller that keeps only the best holds at most two at a time.
    """
    if len(train_rows) == 0:
        raise EmptyTrainingSet("training set is empty")
    if len(val_rows) == 0:
        raise EmptyInput("validation set is empty")
    val_feats = feats.take(val_rows)
    y_val = y[val_rows]

    n = len(train_rows)
    rng = np.random.default_rng(config.seed)

    # weights = scale * v; the decoupled decay multiplies the scalar only.
    v = np.zeros((spec.hash_dim, 3))
    scale = 1.0
    bias = np.zeros(3)

    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    step = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = train_rows[order[start : start + config.batch_size]]
            lr = config.learning_rate * (1.0 - step / total_steps)
            step += 1

            batch_feats = feats.take(batch)
            probs = _softmax_rows(scale * _gather(batch_feats, v) + bias)
            g = _ce_logit_grad(probs, y[batch], config.class_weights)

            scale *= 1.0 - lr * config.weight_decay
            if scale < 1e-100:  # refold to keep v representable
                v *= scale
                scale = 1.0
            _scatter(v, batch_feats, g, -lr / scale)
            bias -= lr * g.sum(axis=0)

        weights = scale * v
        val_probs = _softmax_rows(_gather(val_feats, weights) + bias)
        auc = roc_auc_ovr_macro(y_val, val_probs)
        yield Checkpoint(
            epoch=epoch,
            weights=weights,
            bias=bias.copy(),
            validation_auc=auc,
            feature_spec=spec,
        )
        del weights  # free a dropped epoch's weights before the next epoch is trained


def select_best_checkpoint(checkpoints: Iterable[Checkpoint]) -> Checkpoint:
    """Checkpoint with maximal validation AUC; ties go to the earliest epoch.

    Takes any iterable, so a generator such as fit is consumed one
    Checkpoint at a time and only the best so far is kept.
    """
    best = max(checkpoints, key=lambda ckpt: ckpt.validation_auc, default=None)
    if best is None:
        raise EmptyInput("no checkpoints to select from")
    return best


def predict_proba(
    model: Checkpoint, turns: Sequence[str], spec: FeatureSpec
) -> list[ProbTriple]:
    """Score turn texts with a trained checkpoint, one ProbTriple per turn.

    Each distinct text is featurized and scored once, one block of _BLOCK
    distinct texts at a time, so no array grows with the batch's non-zeros.
    """
    if spec != model.feature_spec:
        raise SpecMismatch("supplied FeatureSpec differs from the one the model was trained with")
    distinct, rows = _distinct(turns)
    probs = np.empty((len(distinct), 3))
    start = 0
    for block in _feature_blocks(distinct, spec):
        stop = start + len(block.indptr) - 1
        probs[start:stop] = _softmax_rows(_gather(block, model.weights) + model.bias)
        start = stop
    if len(distinct) < len(rows):
        probs = probs[rows]
    return list(map(ProbTriple._make, probs.tolist()))


# --- model files ----------------------------------------------------------


def save_checkpoint(path: PathLike, model: Checkpoint, extra_meta: dict | None = None) -> None:
    """Write a checkpoint as a compressed npz with a JSON metadata record.

    extra_meta lets callers stamp provenance fields (tool version, config
    hash); unknown keys are preserved but ignored on load.
    """
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "epoch": model.epoch,
        "validation_auc": model.validation_auc,
        "feature_spec": asdict(model.feature_spec),
        **(extra_meta or {}),
    }
    np.savez_compressed(
        path,
        weights=model.weights,
        bias=model.bias,
        meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8),
    )


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Read a model file written by save_checkpoint.

    Raises ValueError naming the file for anything else: an empty, truncated
    or non-npz file, missing or non-float arrays, or a meta record of the
    wrong shape, keys or value types.
    """
    try:
        # np.load leaves a path it opened unclosed when the npz turns out bad.
        with open(path, "rb") as fh:
            bundle = np.load(fh)
            if not isinstance(bundle, np.lib.npyio.NpzFile):
                raise ValueError("it holds one array, not an npz archive")
            if not {"meta", "weights", "bias"} <= set(bundle.files):
                raise ValueError("it needs meta, weights and bias arrays")
            raw_meta, weights, bias = (bundle[name] for name in ("meta", "weights", "bias"))
        if weights.dtype.kind != "f" or bias.dtype.kind != "f":
            raise ValueError(f"weights ({weights.dtype}) and bias ({bias.dtype}) must be floats")
        meta = json.loads(raw_meta.tobytes().decode("utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("its meta record is not a JSON object")
        if meta.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {meta.get('format_version')!r}")
        missing = {"epoch", "validation_auc", "feature_spec"} - set(meta)
        if missing:
            raise ValueError(f"meta lacks {', '.join(sorted(missing))}")
        spec_types = {f.name: type(f.default) for f in fields(FeatureSpec)}
        spec_meta = meta["feature_spec"]
        if not isinstance(spec_meta, dict) or set(spec_meta) != set(spec_types):
            raise ValueError(f"feature_spec needs exactly the keys {', '.join(sorted(spec_types))}")
        mistyped = sorted(k for k, v in spec_meta.items() if type(v) is not spec_types[k])
        if mistyped:
            raise ValueError(f"feature_spec has a value of the wrong type for {', '.join(mistyped)}")
        if type(meta["epoch"]) is not int or type(meta["validation_auc"]) not in (int, float):
            raise ValueError("meta needs an integer epoch and a numeric validation_auc")
        return Checkpoint(
            epoch=meta["epoch"],
            weights=weights,
            bias=bias,
            validation_auc=float(meta["validation_auc"]),
            feature_spec=FeatureSpec(**spec_meta),
        )
    except (EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError(f"model file {path} is not a holdscan model: {exc}") from None


# --- externally computed probabilities -------------------------------------


def load_external_proba(path: PathLike) -> dict[tuple[str, int], ProbTriple]:
    """Read a predictions CSV (call_id,turn_index,p0,p1,p2) into a key map.

    Rows whose probabilities sum to 1 within 1e-6 are renormalized; rows
    further off are rejected with ProbabilityInvariantViolation. The file
    is read by read_csv, so blank lines, lines starting with '#', a leading
    UTF-8 byte-order mark and extra columns are ignored.
    """
    result: dict[tuple[str, int], ProbTriple] = {}
    for line_no, (call_id, turn_index, p0, p1, p2) in strict(read_csv(path, PROBA_COLUMNS)):
        try:
            key = (call_id, int(turn_index))
            p = [float(p0), float(p1), float(p2)]
        except ValueError as exc:
            raise MalformedRow(line_no, f"bad numeric field ({exc})") from None
        if key in result:
            raise DuplicateKey(*key)
        if any(not (x >= 0.0) for x in p):
            raise ProbabilityInvariantViolation(f"line {line_no}: negative probability")
        total = sum(p)
        if abs(total - 1.0) > PROB_FILE_TOL:
            raise ProbabilityInvariantViolation(
                f"line {line_no}: probabilities sum to {total!r}"
            )
        if abs(total - 1.0) > PROB_SUM_TOL:
            p = [x / total for x in p]
        result[key] = ProbTriple._make(p)
    return result


def write_proba(
    path: PathLike,
    rows: Iterable[tuple[str, int, ProbTriple]],
    header_comment: str | None = None,
) -> None:
    rows = ([call_id, turn_index, repr(p.p0), repr(p.p1), repr(p.p2)]
            for call_id, turn_index, p in rows)
    write_csv(path, PROBA_COLUMNS, rows, header_comment)
