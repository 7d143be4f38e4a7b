"""Turn scorer: hashed n-gram features into a linear softmax over 3 classes.

The scorer contract is deliberately narrow: a trained Checkpoint maps turn
texts to probability triples over {irrelevant, opening, closing}. Scores
produced elsewhere (e.g. by a fine-tuned transformer) enter through
load_external_proba and flow through the identical downstream machinery.

Training is plain mini-batch gradient descent on class-weighted
cross-entropy with decoupled weight decay and a step size that decays
linearly to zero. Internally the weight matrix is kept as scale * V so the
decay multiplies a scalar instead of the full matrix each step. Features
are one CSR matrix, one row per turn; training, prediction and the loss
share one gather (logits), one softmax-gradient function and one in-order
scatter (gradients, touching only the feature rows present in a batch).

Featurization is feature hashing: each word token and character n-gram
counts in bucket crc32(f"{tag}\\x00{gram}") % hash_dim. _featurize_many
computes a batch in array passes over blocks of distinct texts, and
featurize is its one-row view.
"""

from __future__ import annotations

import csv
import json
import sys
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    DuplicateKey,
    EmptyInput,
    EmptyTrainingSet,
    MalformedRow,
    MissingColumn,
    ProbabilityInvariantViolation,
    SpecMismatch,
    UnlabeledExample,
)
from .metrics import PROB_SUM_TOL, roc_auc_ovr_macro

PathLike = Union[str, Path]

PROBA_COLUMNS = ("call_id", "turn_index", "p0", "p1", "p2")
MODEL_FORMAT_VERSION = 1

# Sum-of-probabilities tolerances: construction demands PROB_SUM_TOL (1e-9),
# file loading renormalizes anything within 1e-6 and rejects the rest.
PROB_FILE_TOL = 1e-6


@dataclass(frozen=True)
class ProbTriple:
    """Probability vector over (irrelevant, opening, closing)."""

    p0: float
    p1: float
    p2: float

    def __post_init__(self):
        for value in (self.p0, self.p1, self.p2):
            if not (value >= 0.0):
                raise ProbabilityInvariantViolation(f"negative or NaN component {value!r}")
        total = self.p0 + self.p1 + self.p2
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ProbabilityInvariantViolation(f"components sum to {total!r}, expected 1")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p0, self.p1, self.p2)


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


# Distinct texts featurized together; bounds the scratch arrays of one pass.
_BLOCK = 2048
_CODE_POINTS = sys.maxunicode + 1


def featurize(text: str, spec: FeatureSpec) -> dict[int, int]:
    """Sparse count vector of dimension spec.hash_dim, as {bucket: count}.

    Deterministic (crc32 hashing, no process salt). Empty text maps to the
    all-zero vector. A one-row view of _featurize_many.
    """
    feats = _featurize_many([text], spec)
    return dict(zip(feats.indices.tolist(), map(int, feats.data.tolist())))


def _featurize_many(texts: Sequence[str], spec: FeatureSpec) -> _Csr:
    """One CSR row per text; each distinct text is featurized once."""
    first: dict[str, int] = {}  # distinct text -> its row among the distinct texts
    rows = [first.setdefault(text, len(first)) for text in texts]
    distinct = list(first)
    # At least one block, possibly empty, so an empty batch gets the same dtypes.
    parts = [_featurize_block(distinct[i : i + _BLOCK], spec)
             for i in range(0, max(len(distinct), 1), _BLOCK)]
    lengths, indices, data = map(np.concatenate, zip(*parts))
    feats = _Csr(np.concatenate(([0], np.cumsum(lengths))), indices, data)
    return feats if len(distinct) == len(rows) else feats.take(np.array(rows, dtype=np.int64))


def _featurize_block(
    texts: Sequence[str], spec: FeatureSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row lengths, buckets, counts) of distinct texts, buckets ascending per row.

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
    return (np.bincount(keys // span, minlength=len(texts)), keys % span,
            counts.astype(np.float64))


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
    """Train the linear softmax model, returning one Checkpoint per epoch.

    Deterministic given (examples, config, spec, validation): the per-epoch
    shuffle is driven solely by config.seed. Each checkpoint carries the
    macro one-vs-rest ROC AUC on the validation sequence.
    """
    if not examples:
        raise EmptyTrainingSet("training set is empty")
    if not validation:
        raise EmptyInput("validation set is empty")
    for text, label in list(examples) + list(validation):
        if label is None or label not in (0, 1, 2):
            raise UnlabeledExample(f"example {text[:40]!r} has label {label!r}")

    train_feats = _featurize_many([t for t, _ in examples], spec)
    y_train = np.array([label for _, label in examples])
    val_feats = _featurize_many([t for t, _ in validation], spec)
    y_val = np.array([label for _, label in validation])

    n = len(examples)
    rng = np.random.default_rng(config.seed)

    # weights = scale * v; the decoupled decay multiplies the scalar only.
    v = np.zeros((spec.hash_dim, 3))
    scale = 1.0
    bias = np.zeros(3)

    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    step = 0
    checkpoints: list[Checkpoint] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            lr = config.learning_rate * (1.0 - step / total_steps)
            step += 1

            feats = train_feats.take(batch)
            probs = _softmax_rows(scale * _gather(feats, v) + bias)
            g = _ce_logit_grad(probs, y_train[batch], config.class_weights)

            scale *= 1.0 - lr * config.weight_decay
            if scale < 1e-100:  # refold to keep v representable
                v *= scale
                scale = 1.0
            _scatter(v, feats, g, -lr / scale)
            bias -= lr * g.sum(axis=0)

        weights = scale * v
        val_probs = _softmax_rows(_gather(val_feats, weights) + bias)
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


def select_best_checkpoint(checkpoints: Sequence[Checkpoint]) -> Checkpoint:
    """Checkpoint with maximal validation AUC; ties go to the earliest epoch."""
    if not checkpoints:
        raise EmptyInput("no checkpoints to select from")
    return max(checkpoints, key=lambda ckpt: ckpt.validation_auc)


def predict_proba(
    model: Checkpoint, turns: Sequence[str], spec: FeatureSpec
) -> list[ProbTriple]:
    """Score turn texts with a trained checkpoint, one ProbTriple per turn."""
    if spec != model.feature_spec:
        raise SpecMismatch("supplied FeatureSpec differs from the one the model was trained with")
    feats = _featurize_many(turns, spec)
    probs = _softmax_rows(_gather(feats, model.weights) + model.bias)
    return [ProbTriple(float(p[0]), float(p[1]), float(p[2])) for p in probs]


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
    with np.load(path) as bundle:
        if not {"meta", "weights", "bias"} <= set(bundle.files):
            raise ValueError(f"model file {path} needs meta, weights and bias arrays")
        meta = json.loads(bundle["meta"].tobytes().decode("utf-8"))
        if meta.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {meta.get('format_version')!r}")
        missing = {"epoch", "validation_auc", "feature_spec"} - set(meta)
        if missing:
            raise ValueError(f"model file {path} meta lacks {', '.join(sorted(missing))}")
        spec_keys = {f.name for f in fields(FeatureSpec)}
        if not isinstance(meta["feature_spec"], dict) or set(meta["feature_spec"]) != spec_keys:
            raise ValueError(f"model file {path} feature_spec needs exactly the keys "
                             f"{', '.join(sorted(spec_keys))}")
        spec = FeatureSpec(**meta["feature_spec"])
        return Checkpoint(
            epoch=int(meta["epoch"]),
            weights=bundle["weights"],
            bias=bundle["bias"],
            validation_auc=float(meta["validation_auc"]),
            feature_spec=spec,
        )


# --- externally computed probabilities -------------------------------------


def load_external_proba(path: PathLike) -> dict[tuple[str, int], ProbTriple]:
    """Read a predictions CSV (call_id,turn_index,p0,p1,p2) into a key map.

    Rows whose probabilities sum to 1 within 1e-6 are renormalized; rows
    further off are rejected with ProbabilityInvariantViolation. Lines
    starting with '#' are ignored.
    """
    result: dict[tuple[str, int], ProbTriple] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = None
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = row
                missing = [c for c in PROBA_COLUMNS if c not in header]
                if missing:
                    raise MissingColumn(missing)
                pos = {c: header.index(c) for c in PROBA_COLUMNS}
                continue
            line_no = reader.line_num
            if len(row) < len(header):
                raise MalformedRow(line_no, f"expected {len(header)} cells, got {len(row)}")
            try:
                key = (row[pos["call_id"]], int(row[pos["turn_index"]]))
                p = [float(row[pos[c]]) for c in ("p0", "p1", "p2")]
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
            result[key] = ProbTriple(p[0], p[1], p[2])
        if header is None:
            raise MalformedRow(0, "file has no header row")
    return result


def write_proba(
    path: PathLike,
    rows: Iterable[tuple[str, int, ProbTriple]],
    header_comment: str | None = None,
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(PROBA_COLUMNS)
        for call_id, turn_index, p in rows:
            writer.writerow([call_id, turn_index, repr(p.p0), repr(p.p1), repr(p.p2)])
