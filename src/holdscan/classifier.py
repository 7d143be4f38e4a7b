"""Turn scorer: hashed n-gram features into a linear softmax over 3 classes.

The scorer contract is deliberately narrow: a trained Checkpoint maps turn
texts to probability triples over {irrelevant, opening, closing}. Scores
produced elsewhere (e.g. by a fine-tuned transformer) enter through
load_external_proba and flow through the identical downstream machinery.
predict_proba returns a ProbaRows, a read-only sequence view over one
(n, 3) float64 array: its items are ProbTriples, plain named tuples that
check nothing, built only when read, and consumers take the array itself
(np.asarray), which metrics.as_prob_array checks. A predictions file is
keys plus one such array both ways: load_external_proba returns a
KeyedProba, a mapping over one, and write_proba takes keys and an array.
The file is read once by holdscan.corpus.io's read_columns, as
transcripts and holds are, and written in the bytes of its write_csv:
blank lines and comment lines are skipped, columns beyond the five read
are ignored, and a row without a cell for each of them is a
MalformedRow.

Training is plain mini-batch gradient descent on class-weighted
cross-entropy with decoupled weight decay and a step size that decays
linearly to zero. A weight row stays +0.0 unless a training feature
hashes to its bucket, so a run's buckets are ranked once (_compact) and
training keeps weights only for the buckets its feature matrix uses:
scale * V over those U columns, where the decay multiplies the scalar
instead of the matrix each step. The kernels work on class-major weights,
a C-contiguous (3, U) array, so a gather takes every class's weights in
one call and each class's sums and updates run over a contiguous row. A
Checkpoint and its model file hold the same weights as U rows of (U, 3),
in C order, with their bucket numbers. Training features are one CSR
matrix with one row per distinct text, plus text_of, the row of each
example's text (_featurize_many); on templated calls, where scripts
repeat, that is a few dozen rows for thousands of turns. fit copies the
rows its examples read, a run of batches at a time, so every example
reads the row it would read from a matrix of one row per example.
Training and the loss share one gather (logits), one softmax-gradient
function and one in-order scatter (gradients, touching only the feature
rows present in a batch). fit trains on chosen examples of such a
matrix, so a cross-validation run featurizes its distinct texts once and
every fold is a set of examples; train featurizes texts and then uses
the same kernels. predict_proba builds no feature matrix: it scores each
block of distinct texts straight from the block's sorted keys
(_keyed_logits) against the checkpoint's own weights, as (3, U), keeping
only each block's (n, 3) probabilities. A
row sums its terms in the order the gather sums its CSR row, and a
bucket the model never saw is sent to one appended column of zeros, so
every score equals the one dense (hash_dim, 3) weights would give, bit
for bit.

Featurization is feature hashing: each word token and character n-gram
counts in bucket crc32(f"{tag}\\x00{gram}") % hash_dim. _map_blocks maps
a function over the blocks of 1024 distinct texts, in block order; each
function featurizes its block with _block_keys, in array passes, into
sorted (row << bits) | bucket keys and their counts, and returns CSR rows
(_block_csr, which _featurize_many stacks) or, in predict_proba, the
block's (len(block), 3) probabilities, which it concatenates. A text's
row depends on that text alone, so the blocks run on a ThreadPoolExecutor
of one thread per usable CPU, at most one per block, shut down inside the
call; numpy's sorts, takes, bincounts and ufuncs release the GIL, and only
the per-text Python (lowercase, split, join, the token dict, a crc32 per
distinct word) runs one thread at a time. With one CPU or one block no
pool is made. Threads started together may all begin on one CPU and stay
there, so each pool thread, as each fold worker of holdscan.tuning, first
runs on the next usable CPU of a queue (_take_cpu) and then gets back the
affinity mask it started with. Each thread holds one block's arrays at a
time, so memory grows as threads x one block. A block's keys are uint32,
which sort faster than int64, wherever 1024 rows fit beside hash_dim's
bits (hash_dim up to 2**22); above that they are int64.

zlib hashes each distinct word token; the character n-grams get the same
crc32 bits from a vectorised kernel (_gram_registers), one array pass per
n over the block's characters instead of a zlib call per distinct gram.
On a 2-vCPU Xeon VM that is about 14-15 us per distinct 59-character turn
on one thread, against 31-32 us when each n's grams were ranked with
np.unique and hashed one zlib call at a time.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields
from itertools import cycle, islice
from operator import itemgetter
from pathlib import Path
from collections import ChainMap
from collections.abc import Mapping, Sequence
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .corpus.io import first_cells, numeric_cells, open_csv, read_columns, row_errors
from .corpus.model import TurnKey
from .errors import (
    DuplicateKey,
    EmptyInput,
    EmptyTrainingSet,
    LengthMismatch,
    ProbabilityInvariantViolation,
    SpecMismatch,
    UnlabeledExample,
)
from .metrics import PROB_SUM_TOL, roc_auc_ovr_macro

PathLike = Union[str, Path]

PROBA_COLUMNS = ("call_id", "turn_index", "p0", "p1", "p2")
MODEL_FORMAT_VERSION = 2

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
        if not 2 ** 10 <= self.hash_dim <= 2 ** 24 or self.hash_dim & (self.hash_dim - 1):
            raise ValueError("hash_dim must be a power of two from 1024 to 16777216 (2**24), "
                             f"got {self.hash_dim}")
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
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if len(self.class_weights) != 3 or not all(0 < w < math.inf for w in self.class_weights):
            raise ValueError(f"class_weights must be 3 positive finite reals, got {self.class_weights}")
        if self.learning_rate * self.weight_decay >= 1.0:
            raise ValueError("learning_rate * weight_decay must stay below 1")


@dataclass
class Checkpoint:
    """Model snapshot at an epoch boundary, scored on the validation fold.

    Row i of weights holds the weights of bucket columns[i]; every bucket
    not in columns has weights +0.0.
    """

    epoch: int
    columns: np.ndarray  # (U,) integer buckets, strictly ascending, in [0, hash_dim)
    weights: np.ndarray  # (U, 3)
    bias: np.ndarray     # (3,)
    validation_auc: float
    feature_spec: FeatureSpec

    def __post_init__(self):
        if self.epoch < 1:
            raise ValueError(f"epoch must be >= 1, got {self.epoch}")
        cols = self.columns
        if cols.dtype.kind not in "iu" or cols.ndim != 1:
            raise ValueError(f"columns must be a 1-D integer array, not {cols.dtype} {cols.shape}")
        if not np.all(cols[1:] > cols[:-1]):
            raise ValueError("columns must be strictly ascending")
        if len(cols) and (cols[0] < 0 or cols[-1] >= self.feature_spec.hash_dim):
            raise ValueError(f"columns must lie in [0, {self.feature_spec.hash_dim})")
        if self.weights.shape != (len(cols), 3) or self.bias.shape != (3,):
            raise ValueError(f"weights {self.weights.shape} and bias {self.bias.shape} do not "
                             f"have shapes ({len(cols)}, 3) and (3,)")


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

    def slice(self, start: int, stop: int) -> "_Csr":
        """Rows start to stop (clipped to the last row), as views; 0 <= start <= n."""
        indptr = self.indptr[start : stop + 1]
        lo, hi = indptr[0], indptr[-1]
        return _Csr(indptr - lo, self.indices[lo:hi], self.data[lo:hi])


# Distinct texts featurized (and, in predict_proba, scored) together; bounds the
# temporary arrays of one pass, of which each pool thread holds one at a time.
_BLOCK = 1024
# Stored entries _remap rewrites at once; bounds its temporary array.
_REMAP_SLICE = 1 << 16
# Training rows fit copies out of the feature matrix at once, rounded to whole
# batches. A copy per batch took ~47 us of a ~265 us step on templated text (on
# a 2-vCPU Xeon VM); a copy of a whole epoch's rows raised fit's peak memory by
# their size.
_RUN_ROWS = 128


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say (macOS)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def _cpu_queue(queue, n_workers: int):
    """queue, with a CPU id put in it for each of n_workers workers: the
    usable CPUs in turn, cycled, so no worker waits for an id."""
    for cpu in islice(cycle(sorted(os.sched_getaffinity(0))), n_workers):
        queue.put(cpu)
    return queue


def _take_cpu(cpus) -> None:
    """Run the calling thread on the next CPU of the queue cpus, then give it
    back the affinity mask it started with.

    A pool's workers, started together, may all begin on one CPU and stay
    there while another idles; moving each to its own CPU once spreads
    them, and the restored mask lets the kernel move them later. An
    OSError is ignored, since a pool whose initializer raises is broken.
    """
    cpu = cpus.get()
    try:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, mask)
    except OSError:
        pass


def _featurize_many(texts: Iterable[str], spec: FeatureSpec) -> tuple[_Csr, np.ndarray]:
    """One CSR row per distinct text, in first-seen order, and text_of, the
    row of each text; each distinct text is featurized once."""
    distinct, text_of = _distinct(texts)
    blocks = _map_blocks(lambda block: _block_csr(block, spec), distinct)
    lengths = np.concatenate([np.diff(b.indptr) for b in blocks])
    feats = _Csr(np.concatenate(([0], np.cumsum(lengths))),
                 np.concatenate([b.indices for b in blocks]),
                 np.concatenate([b.data for b in blocks]))
    return feats, text_of


def _distinct(texts: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """The distinct texts in first-seen order, and the row of each text among them."""
    first: dict[str, int] = {}
    rows = [first.setdefault(text, len(first)) for text in texts]
    return list(first), np.array(rows, dtype=np.int64)


def _map_blocks(work: Callable[[Sequence[str]], object], distinct: Sequence[str]) -> list:
    """[work(block) for each block of _BLOCK distinct texts], in block order.

    There is at least one block, possibly empty, so an empty batch gets the
    same dtypes. With one usable CPU or one block the calling thread runs
    them; otherwise a pool of one thread per CPU, at most one per block,
    does, so work returns its block's output and writes nothing shared.
    Each pool thread starts on a CPU of its own (_take_cpu). Every thread
    is joined before this returns or raises, and the error raised is the
    earliest failing block's, as on one thread.
    """
    blocks = [distinct[i : i + _BLOCK] for i in range(0, max(len(distinct), 1), _BLOCK)]
    n_threads = min(_usable_cpus(), len(blocks))
    if n_threads == 1:
        return list(map(work, blocks))
    from concurrent.futures.thread import ThreadPoolExecutor
    from queue import SimpleQueue

    with ThreadPoolExecutor(n_threads, initializer=_take_cpu,
                            initargs=(_cpu_queue(SimpleQueue(), n_threads),)) as pool:
        return list(pool.map(work, blocks))


def _block_keys(texts: Sequence[str], spec: FeatureSpec) -> tuple[np.ndarray, np.ndarray]:
    """The sorted, distinct (row << bits) | bucket keys of a block's features,
    and each key's count; bits is hash_dim's bit count and row a text's position.

    Python only lowercases, splits and truncates each text. Word tokens get
    ids from a dict and crc32 runs once per distinct token. Character
    n-grams are hashed by _gram_registers over the block's concatenated
    text; a gram that crosses a text boundary is dropped. Every (row,
    bucket) pair becomes one integer key, and one in-place sort plus a
    run-length pass gives the counts.
    """
    bits = spec.hash_dim.bit_length() - 1
    low = np.uint32(spec.hash_dim - 1)  # hash_dim is a power of two, so crc % hash_dim == crc & low
    tokens: list[str] = []
    n_tokens, joined = [], []
    for text in texts:
        if spec.lowercase:
            text = text.lower()
        words = text.split()[: spec.max_tokens]
        tokens += words
        n_tokens.append(len(words))
        joined.append(" ".join(words))
    # Keys are (row << bits) | bucket: uint32 where they fit, which sorts faster.
    key = np.uint32 if len(texts) << bits <= 2 ** 32 else np.int64
    row_keys = np.arange(len(texts), dtype=key) << key(bits)
    keys = [np.empty(0, key)]  # the key of every token and n-gram
    if spec.word_unigrams:
        vocab = {token: i for i, token in enumerate(dict.fromkeys(tokens))}
        ids = np.fromiter(map(vocab.__getitem__, tokens), np.int64, len(tokens))
        keys.append(np.repeat(row_keys, n_tokens) | _crc_buckets("w", vocab, low)[ids])

    chars = "".join(joined)
    try:
        raw = chars.encode("utf-8")
    except UnicodeEncodeError:
        # A lone surrogate has no UTF-8 form. It is an error only inside a
        # hashed gram, that is in a text of at least char_ngram_min characters.
        for text in joined:
            if len(text) >= spec.char_ngram_min:
                text.encode("utf-8")
        raw = chars.encode("utf-8", "surrogatepass")
    lengths = [len(j) for j in joined]
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(chars))  # chars to its text's end
    pos_keys = np.repeat(row_keys, lengths)
    for n, (reg, nbytes) in enumerate(_gram_registers(raw, spec.char_ngram_max), 1):
        if n >= spec.char_ngram_min:
            crcs = reg ^ _tag_registers(f"c{n}", 4 * n)[nbytes]
            m = len(crcs)
            keys.append((pos_keys[:m] | (crcs & low))[left[:m] >= n])

    keys = np.concatenate(keys)
    keys.sort()
    edges = np.empty(len(keys) + 1, bool)  # where a run of equal keys starts, and the end
    edges[0] = edges[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    edges = np.flatnonzero(edges)
    return keys[edges[:-1]], np.diff(edges)


def _split_keys(keys: np.ndarray, spec: FeatureSpec) -> tuple[np.ndarray, np.ndarray]:
    """The row and the bucket of each (row << bits) | bucket key, in its dtype."""
    key = keys.dtype.type
    return keys >> key(spec.hash_dim.bit_length() - 1), keys & key(spec.hash_dim - 1)


def _block_csr(texts: Sequence[str], spec: FeatureSpec) -> _Csr:
    """One CSR row of counts per text of a block, buckets ascending per row."""
    keys, counts = _block_keys(texts, spec)
    rows, buckets = _split_keys(keys, spec)
    indptr = np.searchsorted(rows, np.arange(len(texts) + 1, dtype=rows.dtype))
    return _Csr(indptr, buckets.astype(np.int64, copy=False), counts.astype(np.float64))


def _compact(feats: _Csr, hash_dim: int) -> tuple[np.ndarray, _Csr]:
    """The buckets feats uses (columns, ascending int64), and feats with each
    bucket replaced by its rank among them, in place.

    A lookup table over the hash_dim buckets ranks them without sorting the
    stored entries.
    """
    used = np.zeros(hash_dim, bool)
    used[feats.indices] = True
    columns = np.flatnonzero(used)
    return columns, _remap(feats, _rank_table(columns, hash_dim))


def _rank_table(columns: np.ndarray, hash_dim: int) -> np.ndarray:
    """An int32 table over the hash_dim buckets: columns[i] maps to i, and
    every bucket not in columns to len(columns)."""
    rank = np.full(hash_dim, len(columns), np.int32)
    rank[columns] = np.arange(len(columns), dtype=np.int32)
    return rank


def _remap(feats: _Csr, rank: np.ndarray) -> _Csr:
    """feats with each bucket b replaced by rank[b], in place, a slice at a
    time so no temporary array grows with the stored entries."""
    for start in range(0, len(feats.indices), _REMAP_SLICE):
        part = feats.indices[start : start + _REMAP_SLICE]
        part[:] = rank[part]
    return feats


def _crc_buckets(tag: str, grams: Iterable[str], low: np.uint32) -> np.ndarray:
    """crc32(f"{tag}\\x00{gram}") & low for each gram, as uint32."""
    seed = zlib.crc32(f"{tag}\x00".encode("utf-8"))
    return np.fromiter((zlib.crc32(g.encode("utf-8"), seed) for g in grams), np.uint32) & low


# --- vectorised CRC-32 of character n-grams ---------------------------------
#
# zlib's CRC-32 keeps a 32-bit register. A byte b advances a register r to
# _CRC_TABLE[(r ^ b) & 0xFF] ^ (r >> 8), and crc32(data) is the ones'
# complement of the register after data from ~0. The map is linear over
# GF(2), so with R0(data) the register after data from zero,
#     crc32(tag + data) == R0(data) ^ crc32(tag + bytes(len(data))).
# R0 of an n-gram is R0 of its (n-1)-gram advanced by the UTF-8 bytes of its
# last character: by that character's byte count in zero bytes, then XORed
# with the character's own R0. All arithmetic stays in uint32.

_CRC_TABLE = np.array([zlib.crc32(bytes([b])) ^ zlib.crc32(b"\0") for b in range(256)],
                      dtype=np.uint32)  # R0 of each single byte
_LOW_BYTE = np.uint32(0xFF)
_BYTE_BITS = np.uint32(8)


def _crc_zero_byte(reg: np.ndarray) -> np.ndarray:
    """Each uint32 register advanced by one zero byte."""
    return _CRC_TABLE[reg & _LOW_BYTE] ^ (reg >> _BYTE_BITS)


def _tag_registers(tag: str, max_bytes: int) -> np.ndarray:
    """crc32(f"{tag}\\x00" + bytes(length)) for length 0 to max_bytes, as uint32."""
    seed = zlib.crc32(f"{tag}\x00".encode("utf-8"))
    return np.array([zlib.crc32(bytes(k), seed) for k in range(max_bytes + 1)], dtype=np.uint32)


def _gram_registers(raw: bytes, n_max: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """R0 and UTF-8 byte count of the n characters at each position, for n = 1 to n_max.

    raw is UTF-8 text (a lone surrogate in its 3-byte "surrogatepass" form).
    For each n this yields two arrays with one entry per start position p
    of an n-character gram: its uint32 register and its byte count. A
    gram's register is the (n-1)-gram's at the same position advanced by
    one character, so each n costs one shifted slice: one unmasked zero-byte
    round, plus one masked round per extra byte of the longest character.
    Stops early when no gram of n characters fits.
    """
    data = np.frombuffer(raw, dtype=np.uint8)
    starts = np.flatnonzero((data & 0xC0) != 0x80)  # every byte but continuation bytes
    offsets = np.append(starts, len(data))
    nbytes = np.diff(offsets)
    char_reg = _CRC_TABLE[data[starts]]
    longer = [nbytes > j for j in range(1, nbytes.max(initial=1))]
    for j, more in enumerate(longer, 1):
        at = np.flatnonzero(more)
        char_reg[at] = _CRC_TABLE[(char_reg[at] ^ data[starts[at] + j]) & _LOW_BYTE] \
            ^ (char_reg[at] >> _BYTE_BITS)
    reg = char_reg
    for n in range(1, n_max + 1):
        m = len(starts) - n + 1
        if m <= 0:
            return
        if n > 1:
            reg = _crc_zero_byte(reg[:m])
            for more in longer:
                reg = np.where(more[n - 1 :], _crc_zero_byte(reg), reg)
            reg ^= char_reg[n - 1 :]
        yield reg, offsets[n:] - offsets[:m]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _gather(feats: _Csr, weights_t: np.ndarray, seg: Optional[np.ndarray] = None) -> np.ndarray:
    """feats @ weights_t.T as an (n, 3) array; each row sums its terms in order.

    weights_t is class-major, (3, U), so one take gives a (3, nnz) array
    with a contiguous row per class. seg is feats.row_ids(), computed here
    when not given.
    """
    n = len(feats.indptr) - 1
    if seg is None:
        seg = feats.row_ids()
    terms = np.take(weights_t, feats.indices, axis=1)
    terms *= feats.data
    return np.stack([np.bincount(seg, weights=t, minlength=n) for t in terms], axis=1)


def _scatter(out_t: np.ndarray, feats: _Csr, seg: np.ndarray, g: np.ndarray, coef: float) -> None:
    """out_t += coef * (feats.T @ g).T, in place, one (row, bucket) term at a time.

    out_t is class-major, (3, U); seg is feats.row_ids() and g is (n, 3).
    Terms are (coef * count) * g[row], added unbuffered in row order, so a
    bucket shared by several rows accumulates exactly as a per-row loop of
    out[idx] += (coef * cnt)[:, None] * g[row] would.
    """
    terms = (coef * feats.data) * np.take(np.ascontiguousarray(g.T), seg, axis=1)
    for c in range(3):
        np.add.at(out_t[c], feats.indices, terms[c])


def _ce_logit_grad(probs: np.ndarray, y: np.ndarray, class_weights: np.ndarray) -> np.ndarray:
    """Gradient of the batch-mean class-weighted cross-entropy w.r.t. the logits.

    class_weights is a float64 array of the 3 class weights.
    """
    n = len(y)
    g = probs.copy()
    g[np.arange(n), y] -= 1.0
    g *= (class_weights[y] / n)[:, None]
    return g


def weighted_ce_loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    feats: _Csr,
    y: Sequence[int],
    class_weights: Sequence[float],
) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch-mean class-weighted cross-entropy with analytic gradients.

    feats holds one CSR row per example, such as _featurize_many's rows
    taken through its text_of. The loss term of an example with true class
    y is multiplied by class_weights[y]; the batch loss is the plain mean
    of the weighted terms (so scaling all weights scales the loss by the
    same factor).
    weights is (U, 3), as a Checkpoint holds it. Returns (loss,
    grad_weights, grad_bias); grad_weights is dense and (U, 3) too.
    """
    y = np.asarray(y)
    n = len(feats.indptr) - 1
    if n == 0:
        raise EmptyInput("cannot evaluate the loss on an empty batch")
    cw = np.asarray(class_weights, dtype=float)
    seg = feats.row_ids()
    probs = _softmax_rows(_gather(feats, weights.T, seg) + bias)
    loss = float(np.mean(cw[y] * -np.log(probs[np.arange(n), y])))
    g = _ce_logit_grad(probs, y, cw)
    grad_w_t = np.zeros(weights.shape[::-1])
    _scatter(grad_w_t, feats, seg, g, 1.0)
    return loss, grad_w_t.T, g.sum(axis=0)


def train(
    examples: Sequence[tuple[str, Optional[int]]],
    config: TrainConfig,
    spec: FeatureSpec,
    validation: Sequence[tuple[str, Optional[int]]],
) -> list[Checkpoint]:
    """Train on (text, label) examples; one Checkpoint per epoch, scored on validation.

    Checks the labels, featurizes both sequences' distinct texts in one
    call, keeps the buckets they use and runs fit on their rows, keeping
    every epoch's Checkpoint.
    """
    labeled = list(examples) + list(validation)
    for text, label in labeled:
        if label is None or label not in (0, 1, 2):
            raise UnlabeledExample(f"example {text[:40]!r} has label {label!r}")
    feats, text_of = _featurize_many([t for t, _ in labeled], spec)
    columns, feats = _compact(feats, spec.hash_dim)
    y = np.array([label for _, label in labeled])
    n = len(examples)
    return list(fit(feats, text_of, columns, y, np.arange(n), np.arange(n, len(labeled)),
                    config, spec))


def fit(
    feats: _Csr,
    text_of: np.ndarray,
    columns: np.ndarray,
    y: np.ndarray,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    config: TrainConfig,
    spec: FeatureSpec,
) -> Iterator[Checkpoint]:
    """Train the linear softmax model, yielding one Checkpoint per epoch.

    Trains on the examples train_rows (labels y, in {0, 1, 2}) and scores
    each epoch's macro one-vs-rest ROC AUC on the examples val_rows.
    Example i's features are row text_of[i] of feats, so a text that recurs
    is one row, and only the rows a run of batches or the validation set
    reads are copied out, in example order. feats' indices are ranks into
    columns, as _compact returns them, so the weights are one row per
    column.
    Deterministic given the rows, config and spec: the per-epoch shuffle of
    train_rows is driven solely by config.seed. Each epoch is trained when
    the next Checkpoint is asked for.
    """
    if len(train_rows) == 0:
        raise EmptyTrainingSet("training set is empty")
    if len(val_rows) == 0:
        raise EmptyInput("validation set is empty")
    val_feats = feats.take(text_of[val_rows])
    y_val = y[val_rows]

    n = len(train_rows)
    rng = np.random.default_rng(config.seed)
    class_weights = np.asarray(config.class_weights, dtype=float)

    # weights = scale * v, class-major; the decoupled decay multiplies the scalar only.
    v = np.zeros((3, len(columns)))
    scale = 1.0
    bias = np.zeros(3)

    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    step = 0
    # Each run of whole batches is copied out of feats once; a batch is a slice of it.
    run = config.batch_size * max(1, _RUN_ROWS // config.batch_size)
    for epoch in range(1, config.epochs + 1):
        order = train_rows[rng.permutation(n)]
        for first in range(0, n, run):
            rows = order[first : first + run]
            run_feats, run_y = feats.take(text_of[rows]), y[rows]
            for start in range(0, len(rows), config.batch_size):
                stop = start + config.batch_size
                lr = config.learning_rate * (1.0 - step / total_steps)
                step += 1

                batch_feats = run_feats.slice(start, stop)
                seg = batch_feats.row_ids()
                probs = _softmax_rows(scale * _gather(batch_feats, v, seg) + bias)
                g = _ce_logit_grad(probs, run_y[start:stop], class_weights)

                scale *= 1.0 - lr * config.weight_decay
                if scale < 1e-100:  # refold to keep v representable
                    v *= scale
                    scale = 1.0
                _scatter(v, batch_feats, seg, g, -lr / scale)
                bias -= lr * g.sum(axis=0)

        weights_t = scale * v
        val_probs = _softmax_rows(_gather(val_feats, weights_t) + bias)
        auc = roc_auc_ovr_macro(y_val, val_probs)
        yield Checkpoint(
            epoch=epoch,
            columns=columns,
            # C order, so a saved model's bytes do not depend on the working layout.
            weights=np.ascontiguousarray(weights_t.T),
            bias=bias.copy(),
            validation_auc=auc,
            feature_spec=spec,
        )


def select_best_checkpoint(checkpoints: Iterable[Checkpoint]) -> Checkpoint:
    """Checkpoint with maximal validation AUC; ties go to the earliest epoch.

    Takes any iterable, so a generator such as fit is consumed one
    Checkpoint at a time. It stops at the first AUC of 1.0 and asks for no
    later Checkpoint, so fit trains no later epoch; the pick is the same,
    since no AUC exceeds 1.0 and a tie keeps the earlier epoch. binary_auc
    computes (positive rank sum - n_pos(n_pos+1)/2) / (n_pos * n_neg) from
    half-integer ranks, exact in float64 for any realistic row count, so a
    class's AUC is at most 1.0 and equals it only under perfect separation;
    the macro mean is at most 1.0 and equals it only when every class reads
    1.0.
    """
    best = None
    for ckpt in checkpoints:
        if best is None or ckpt.validation_auc > best.validation_auc:
            best = ckpt
        if best.validation_auc == 1.0:
            break
    if best is None:
        raise EmptyInput("no checkpoints to select from")
    return best


def _keyed_logits(keys: np.ndarray, counts: np.ndarray, n: int, spec: FeatureSpec,
                  rank: np.ndarray, weights_t: np.ndarray) -> np.ndarray:
    """The (n, 3) logits, without bias, of a block's rows from its _block_keys.

    rank sends each bucket to a column of the class-major weights_t. Each
    row sums its terms count * weight in key order, that is by ascending
    bucket, as _gather sums the row's CSR entries, so the bits are the same.
    """
    rows, buckets = _split_keys(keys, spec)
    terms = np.take(weights_t, rank[buckets], axis=1)
    terms *= counts.astype(np.float64)
    rows = rows.astype(np.intp)  # bincount would convert it once per class
    return np.stack([np.bincount(rows, weights=t, minlength=n) for t in terms], axis=1)


class ProbaRows(Sequence):
    """Predictions as one read-only (n, 3) float64 array, seen as a sequence.

    rows[i] is row i of probs as a ProbTriple, built when it is read, and
    np.asarray(rows) is probs itself. A ProbaRows equals a list or another
    ProbaRows with the same triples.
    """

    def __init__(self, probs: np.ndarray):
        self.probs = probs
        probs.flags.writeable = False

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ProbaRows(self.probs[i])
        return ProbTriple._make(self.probs[i].tolist())

    def __iter__(self) -> Iterator[ProbTriple]:
        return map(ProbTriple._make, self.probs.tolist())

    def __len__(self) -> int:
        return len(self.probs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, ProbaRows)):
            return NotImplemented
        return list(self) == list(other)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.probs, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"ProbaRows({self.probs!r})"


def predict_proba(model: Checkpoint, turns: Sequence[str], spec: FeatureSpec) -> ProbaRows:
    """Score turn texts with a trained checkpoint, one row per turn.

    Each distinct text is featurized and scored once, in blocks of _BLOCK
    distinct texts, one block in flight per thread (_map_blocks), so no
    array grows with the batch's non-zeros. A block is scored from its
    sorted keys (_keyed_logits), with no CSR matrix, into its own
    (len(block), 3) probabilities, concatenated in block order. Every
    block's buckets are sent to the model's weight rows by one rank table,
    built once; a bucket the model never saw goes to a column of +0.0
    appended to the class-major weights, as its dense weight row would be.
    """
    if spec != model.feature_spec:
        raise SpecMismatch("supplied FeatureSpec differs from the one the model was trained with")
    distinct, rows = _distinct(turns)
    rank = _rank_table(model.columns, spec.hash_dim)
    weights_t = np.zeros((3, len(model.columns) + 1))
    weights_t[:, :-1] = model.weights.T

    def score(texts: Sequence[str]) -> np.ndarray:
        logits = _keyed_logits(*_block_keys(texts, spec), len(texts), spec, rank, weights_t)
        return _softmax_rows(logits + model.bias)

    probs = np.concatenate(_map_blocks(score, distinct))
    return ProbaRows(probs if len(distinct) == len(rows) else probs[rows])


# --- model files ----------------------------------------------------------


def save_checkpoint(path: PathLike, model: Checkpoint, extra_meta: dict | None = None) -> None:
    """Write a checkpoint as an npz of its columns, weights and bias, with a
    JSON metadata record.

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
    with open(path, "wb") as f:  # np.savez appends ".npz" to a path, not to a handle
        np.savez(
            f,
            columns=model.columns,
            weights=model.weights,
            bias=model.bias,
            meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8),
        )


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Read a model file written by save_checkpoint.

    Raises ValueError naming the file for anything else: an empty, truncated
    or non-npz file, another format version, missing or mistyped arrays,
    columns that are not strictly ascending buckets in [0, hash_dim), one
    per weight row, weights or bias that are not finite, or a meta record
    of the wrong shape, keys or value types.
    """
    try:
        # np.load leaves a path it opened unclosed when the npz turns out bad.
        with open(path, "rb") as fh:
            bundle = np.load(fh)
            if not isinstance(bundle, np.lib.npyio.NpzFile):
                raise ValueError("it holds one array, not an npz archive")
            arrays = {name: bundle[name] for name in ("meta", "columns", "weights", "bias")
                      if name in bundle.files}
        if "meta" not in arrays:
            raise ValueError("it has no meta array")
        meta = json.loads(arrays["meta"].tobytes().decode("utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("its meta record is not a JSON object")
        if meta.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {meta.get('format_version')!r}")
        if not {"columns", "weights", "bias"} <= arrays.keys():
            raise ValueError("it needs columns, weights and bias arrays")
        columns, weights, bias = (arrays[name] for name in ("columns", "weights", "bias"))
        if weights.dtype.kind != "f" or bias.dtype.kind != "f":
            raise ValueError(f"weights ({weights.dtype}) and bias ({bias.dtype}) must be floats")
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise ValueError("weights and bias must be finite")
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
            columns=columns,
            weights=weights,
            bias=bias,
            validation_auc=float(meta["validation_auc"]),
            feature_spec=FeatureSpec(**spec_meta),
        )
    except (EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError(f"model file {path} is not a holdscan model: {exc}") from None


# --- externally computed probabilities -------------------------------------


class KeyedProba(Mapping):
    """Predictions as turn keys plus one read-only (n, 3) float64 array.

    probs[i] is the row of turn_keys[i], and row_of maps a key to its row.
    proba[key] is that row as a ProbTriple.
    """

    def __init__(self, keys: list[TurnKey], probs: np.ndarray, row_of: dict[TurnKey, int]):
        self.turn_keys, self.probs, self.row_of = keys, probs, row_of
        probs.flags.writeable = False

    def __getitem__(self, key: TurnKey) -> ProbTriple:
        return ProbTriple._make(self.probs[self.row_of[key]].tolist())

    def __contains__(self, key: object) -> bool:
        return key in self.row_of

    def __iter__(self) -> Iterator[TurnKey]:
        return iter(self.turn_keys)

    def __len__(self) -> int:
        return len(self.turn_keys)

    def rows(self, keys: Iterable[TurnKey]) -> np.ndarray:
        """The probabilities of keys, in order; KeyError names the first key without a row."""
        return self.probs[list(map(self.row_of.__getitem__, keys))]


def load_external_proba(path: PathLike) -> KeyedProba:
    """Read a predictions CSV (call_id,turn_index,p0,p1,p2) into a KeyedProba.

    Rows whose probabilities sum to 1 within 1e-6 are renormalized. The
    file is read once, by holdscan.corpus.io's read_columns, so blank
    lines, comment lines, a leading UTF-8 byte-order mark and extra
    columns are ignored. Every rule is one array pass, and the first bad
    row in file order raises the first rule it breaks: a short row or a
    bad numeric field (MalformedRow), a turn_index outside the 64-bit
    range (MalformedRow), a key an earlier row has (DuplicateKey), a
    negative or NaN probability, or a sum further than 1e-6 from 1
    (ProbabilityInvariantViolation).
    """
    lines, (call_ids, index_col, *prob_cols), short = read_columns(path, PROBA_COLUMNS)
    n = len(lines)
    turn_index, index_bad, index_out = numeric_cells(index_col)
    columns = [numeric_cells(column, float) for column in prob_cols]
    probs = np.stack([values for values, _, _ in columns], axis=1)
    # A row's first bad cell, in column order, names it.
    numeric = ChainMap(index_bad, *(rejected for _, rejected, _ in columns))
    keys = list(zip(call_ids, turn_index.tolist()))
    row_of = dict(zip(keys, range(n)))
    repeats = {}
    if len(row_of) < n:
        first = dict(zip(reversed(keys), range(n - 1, -1, -1)))
        repeats = {i: DuplicateKey(*key) for i, key in enumerate(keys) if first[key] != i}
    # The row sums in the order sum() adds a row's three floats.
    total = (probs[:, 0] + probs[:, 1]) + probs[:, 2]
    off = np.abs(total - 1.0)
    for error in row_errors(lines, [
        (short, short.get),
        (numeric, lambda i: f"bad numeric field ({numeric[i]})"),
        (index_out, index_out.get),
        (repeats, repeats.get),
        (~(probs >= 0.0).all(axis=1), lambda i: ProbabilityInvariantViolation(
            f"line {lines[i]}: negative or NaN probability")),
        (off > PROB_FILE_TOL, lambda i: ProbabilityInvariantViolation(
            f"line {lines[i]}: probabilities sum to {sum(probs[i].tolist())!r}")),
    ]).values():
        raise error
    fix = off > PROB_SUM_TOL
    probs[fix] /= total[fix, None]
    return KeyedProba(keys, probs, row_of)


def write_proba(
    path: PathLike,
    keys: Sequence[TurnKey],
    probs: np.ndarray,
    header_comment: str | None = None,
) -> None:
    """Write keys[i] with row i of the (n, 3) probabilities, each as its float repr.

    The bytes are write_csv's: each distinct call id is rendered once by
    first_cells, and every row is one % template, since a turn index and a
    float repr never need quoting.
    """
    probs = np.asarray(probs, np.float64).reshape(-1, 3)
    if len(keys) != len(probs):
        raise LengthMismatch(f"{len(keys)} keys but {len(probs)} probability rows")
    call_ids = list(map(itemgetter(0), keys))
    cells = map(first_cells(call_ids).__getitem__, call_ids)
    rows = zip(cells, map(itemgetter(1), keys), *probs.T.tolist())
    with open_csv(path, PROBA_COLUMNS, header_comment) as fh:
        fh.writelines(map("%s,%d,%r,%r,%r\r\n".__mod__, rows))
