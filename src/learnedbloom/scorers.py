"""Key scorers: pre-filter functions mapping keys to [0, 1].

Two concrete families. Interval scorers return a fixed high score on a
union of disjoint closed integer intervals and a fixed low score
elsewhere. Logistic scorers apply a sigmoid to a linear function of a
named, deterministic feature encoding of the key, and are trained by
full-batch gradient descent on the clamped cross-entropy loss.

Keys are integers in [0, 2^64).  Every scorer scores one key (``score``) or a
uint64 batch (``score_batch``), and every feature map encodes one key
(``transform_one``, the specification) or a batch (``transform``, equal to it
row for row); no batch path goes key by key.  ``byte-ngram`` counts the seven
bigrams of each key's 8 little-endian bytes through a 65,536-entry table of
bigram digests, built on first use, once per process.

Scorers are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import FilterFormatError, ParameterError, TrainingError
from .hashing import _held_keys, _key, as_keys

LOG_CLAMP = 1e-9  # scores are clamped to [LOG_CLAMP, 1 - LOG_CLAMP] before logs
SCORE_FLOAT_BITS = 64  # accounting convention for each stored real
_BACKTRACK_FLOOR = 1e-30


class Scorer(ABC):
    """Deterministic, total map from keys to [0, 1] with a measurable bit size."""

    @abstractmethod
    def score(self, key) -> float:
        """Score a single key."""

    @abstractmethod
    def score_batch(self, keys) -> np.ndarray:
        """Scores of any key batch (:func:`as_keys`), equal to :meth:`score` key by key."""

    @abstractmethod
    def size_bits(self) -> int:
        """Representation size under the package's fixed accounting rules."""

    @abstractmethod
    def to_record(self) -> dict:
        """JSON-compatible tagged record; reals are hex-float strings."""


@dataclass(frozen=True)
class IntervalScorer(Scorer):
    """``inside_score`` on a union of disjoint closed integer intervals, ``outside_score`` elsewhere."""

    intervals: tuple[tuple[int, int], ...]
    inside_score: float
    outside_score: float

    def __post_init__(self):
        ivs = tuple((int(lo), int(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for lo, hi in ivs:
            if lo > hi:
                raise ParameterError(f"empty interval [{lo}, {hi}]")
        for (_, b), (c, _) in zip(ivs, ivs[1:]):
            if c <= b:
                raise ParameterError("intervals must be sorted and pairwise disjoint")
        for name in ("inside_score", "outside_score"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1]")
        if not self.inside_score > self.outside_score:
            raise ParameterError("inside_score must exceed outside_score")

    def score(self, key) -> float:
        x = _key(key)
        for lo, hi in self.intervals:
            if x < lo:
                break
            if x <= hi:
                return self.inside_score
        return self.outside_score

    def score_batch(self, keys) -> np.ndarray:
        x = as_keys(keys)
        inside = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            if hi < 0 or lo >= 1 << 64:
                continue
            lo_b = np.uint64(max(lo, 0))
            hi_b = np.uint64(min(hi, (1 << 64) - 1))
            inside |= (x >= lo_b) & (x <= hi_b)
        return np.where(inside, self.inside_score, self.outside_score)

    def size_bits(self) -> int:
        # 128 bits per interval (two 64-bit bounds) + 128 for the two scores.
        return 128 * len(self.intervals) + 128

    def to_record(self) -> dict:
        return {
            "kind": "interval",
            "intervals": [[lo, hi] for lo, hi in self.intervals],
            "inside_score": float(self.inside_score).hex(),
            "outside_score": float(self.outside_score).hex(),
        }


# ---------------------------------------------------------------------------
# Feature maps: named deterministic key -> vector encodings.


class FeatureMap(ABC):
    """Named deterministic key -> feature-vector encoding."""

    name: str
    dim: int

    @abstractmethod
    def transform_one(self, key) -> np.ndarray: ...

    @abstractmethod
    def transform(self, keys) -> np.ndarray:
        """Feature matrix, one row per key of the batch; row i is ``transform_one(keys[i])``."""


# (scale, offset) of each affine family; names are part of serialized scorer records.
_AFFINE = {"int-norm": (1.0, 0.0), "int-centered": (2.0, -1.0)}


class _Affine(FeatureMap):
    """One feature, scale * float(key) / universe_max + offset: onto [0, 1] or [-1, 1]."""

    def __init__(self, family: str, universe_max: int):
        if universe_max < 1:
            raise ParameterError(f"{family} universe_max must be >= 1")
        self.universe_max = universe_max
        self.name = f"{family}:{universe_max}"
        self.dim = 1
        self._scale, self._offset = _AFFINE[family]
        self._max = float(universe_max)

    def transform_one(self, key) -> np.ndarray:
        x = float(_key(key))
        return np.array([self._scale * x / self._max + self._offset], dtype=np.float64)

    def transform(self, keys) -> np.ndarray:
        x = as_keys(keys).astype(np.float64)
        return (self._scale * x / self._max + self._offset)[:, None]


_NGRAM_KEY = b"lbf-ngram"  # blake2b key of the byte-bigram hash


@functools.cache
def _pair_digests() -> np.ndarray:
    """Read-only uint64 bigram digests, entry ``b0 | b1 << 8`` for the pair ``bytes([b0, b1])``.

    :meth:`_ByteNgram._bucket` before its modulus, built on first use, once per process.
    """
    state = hashlib.blake2b(digest_size=8, key=_NGRAM_KEY)
    digests = []
    for pair in range(1 << 16):
        h = state.copy()
        h.update(pair.to_bytes(2, "little"))
        digests.append(h.digest())
    table = np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)
    table.flags.writeable = False
    return table


class _ByteNgram(FeatureMap):
    """Hashed counts of the seven byte bigrams of a key's 8 little-endian bytes, over 7.

    :meth:`transform_one` is the specification.  :meth:`transform` reads each
    key's seven bigram buckets from :func:`_pair_digests` instead; the counts are
    exact integers either way, so the rows are equal bit for bit.
    """

    def __init__(self, buckets: int):
        if buckets < 1:
            raise ParameterError("byte-ngram bucket count must be >= 1")
        self.buckets = buckets
        self.name = f"byte-ngram:{buckets}"
        self.dim = buckets

    def _bucket(self, pair: bytes) -> int:
        digest = hashlib.blake2b(pair, digest_size=8, key=_NGRAM_KEY).digest()
        return int.from_bytes(digest, "little") % self.buckets

    def transform_one(self, key) -> np.ndarray:
        data = _key(key).to_bytes(8, "little")
        out = np.zeros(self.buckets, dtype=np.float64)
        for i in range(7):
            out[self._bucket(data[i : i + 2])] += 1.0
        return out / 7

    @functools.cached_property
    def _pair_buckets(self) -> np.ndarray:
        """The bucket of every bigram, indexed like :func:`_pair_digests`."""
        return (_pair_digests() % np.uint64(self.buckets)).astype(np.intp)

    def transform(self, keys) -> np.ndarray:
        keys = as_keys(keys)
        data = keys.astype("<u8").view(np.uint8).reshape(-1, 8)  # little-endian on any host
        pairs = data[:, :-1] | data[:, 1:].astype(np.uint16) << 8
        cells = self._pair_buckets[pairs]
        cells += np.arange(0, keys.size * self.buckets, self.buckets)[:, None]
        counts = np.bincount(cells.ravel(), minlength=keys.size * self.buckets)
        return counts.reshape(keys.size, self.buckets) / 7


def feature_map(name: str) -> FeatureMap:
    """Resolve a feature-map name like ``int-norm:1000000`` or ``byte-ngram:16``."""
    family, _, arg = name.partition(":")
    if not arg:
        raise ParameterError(f"feature map {name!r} is missing its parameter")
    try:
        value = int(arg)
    except ValueError as exc:
        raise ParameterError(f"feature map parameter {arg!r} is not an integer") from exc
    if family in _AFFINE:
        return _Affine(family, value)
    if family == "byte-ngram":
        return _ByteNgram(value)
    raise ParameterError(f"unknown feature map family {family!r}")


def _logit(x: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """Row-wise x . w + b; unlike BLAS ``x @ w``, a row's rounding ignores the batch size."""
    return np.einsum("ij,j->i", x, w) + b


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so no exp overflows."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


@dataclass(frozen=True)
class LogisticScorer(Scorer):
    """sigmoid(weights . features(key) + bias) over a named feature encoding."""

    weights: tuple[float, ...]
    bias: float
    feature_map: str

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if not all(math.isfinite(w) for w in ws) or not math.isfinite(self.bias):
            raise ParameterError("logistic weights and bias must be finite")
        fm = feature_map(self.feature_map)
        if fm.dim != len(ws):
            raise ParameterError(
                f"feature map {fm.name} has dim {fm.dim}, got {len(ws)} weights"
            )
        object.__setattr__(self, "_fm", fm)
        object.__setattr__(self, "_w", np.array(ws, dtype=np.float64))

    def score(self, key) -> float:
        phi = self._fm.transform_one(key)
        return float(_sigmoid(_logit(phi[None, :], self._w, self.bias))[0])

    def score_batch(self, keys) -> np.ndarray:
        return _sigmoid(_logit(self._fm.transform(keys), self._w, self.bias))

    def size_bits(self) -> int:
        # 64 bits per weight + 64 for the bias; the feature-map name is free.
        return SCORE_FLOAT_BITS * len(self.weights) + SCORE_FLOAT_BITS

    def to_record(self) -> dict:
        return {
            "kind": "logistic",
            "weights": [float(w).hex() for w in self.weights],
            "bias": float(self.bias).hex(),
            "feature_map": self.feature_map,
        }


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Labeled keys: members of the set (positives) and known non-members (negatives).

    Each is held as a read-only uint64 array, in the given order.
    """

    positives: np.ndarray
    negatives: np.ndarray

    def __init__(self, positives, negatives, check_disjoint: bool = True):
        object.__setattr__(self, "positives", _held_keys(positives))
        object.__setattr__(self, "negatives", _held_keys(negatives))
        if not self.positives.size:
            raise ParameterError("training set needs at least one positive key")
        if check_disjoint and np.isin(self.negatives, self.positives).any():
            raise ParameterError("positives and negatives must be disjoint")

    def __len__(self) -> int:
        return self.positives.size + self.negatives.size


def _clamped_xent(p_pos: np.ndarray, p_neg: np.ndarray) -> float:
    lo, hi = LOG_CLAMP, 1.0 - LOG_CLAMP
    loss = -np.log(np.clip(p_pos, lo, hi)).sum()
    loss -= np.log1p(-np.clip(p_neg, lo, hi)).sum()
    return float(loss)


def log_loss(scorer: Scorer, data: TrainingSet) -> float:
    """Clamped cross-entropy of the scorer on the labeled keys (lower is better).

    Scores are clamped to [1e-9, 1 - 1e-9] before logs so a hard 0/1 score
    cannot produce an infinite loss.
    """
    return _clamped_xent(scorer.score_batch(data.positives), scorer.score_batch(data.negatives))


def _design(fm: FeatureMap, data: TrainingSet) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and 0/1 labels of the labeled keys, positives first."""
    x = fm.transform(np.concatenate([data.positives, data.negatives]))
    y = np.concatenate([np.ones(data.positives.size), np.zeros(data.negatives.size)])
    return x, y


def _gradient(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float) -> tuple[np.ndarray, float]:
    residual = _sigmoid(_logit(x, w, b)) - y
    return x.T @ residual, float(residual.sum())


def train_logistic(
    data: TrainingSet,
    feature_map_name: str,
    epochs: int,
    learning_rate: float,
    loss_trace: list | None = None,
) -> LogisticScorer:
    """Full-batch gradient descent from zero weights with step backtracking.

    Each epoch takes one gradient step; if the step would increase the loss it
    is halved until the loss is non-increasing (or the step underflows, which
    freezes the weights).  The trainer is fully deterministic: zero
    initialization and whole-batch updates leave nothing to chance.  When
    ``loss_trace`` is a list, the loss before training and after each epoch
    is appended to it.
    """
    if epochs < 0:
        raise ParameterError("epochs must be >= 0")
    if not learning_rate > 0:
        raise ParameterError("learning_rate must be positive")
    fm = feature_map(feature_map_name)
    x, y = _design(fm, data)

    def loss_at(w: np.ndarray, b: float) -> float:
        p = _sigmoid(_logit(x, w, b))
        return _clamped_xent(p[y == 1.0], p[y == 0.0])

    w = np.zeros(fm.dim, dtype=np.float64)
    b = 0.0
    loss = loss_at(w, b)
    if loss_trace is not None:
        loss_trace.append(loss)
    for epoch in range(epochs):
        grad_w, grad_b = _gradient(x, y, w, b)
        if not (np.all(np.isfinite(grad_w)) and math.isfinite(grad_b) and math.isfinite(loss)):
            raise TrainingError(f"non-finite loss or gradient at epoch {epoch}", epoch=epoch)
        step = learning_rate
        while step > _BACKTRACK_FLOOR:
            cand_w = w - step * grad_w
            cand_b = b - step * grad_b
            cand_loss = loss_at(cand_w, cand_b)
            if math.isfinite(cand_loss) and cand_loss <= loss:
                w, b, loss = cand_w, cand_b, cand_loss
                break
            step *= 0.5
        if loss_trace is not None:
            loss_trace.append(loss)
    return LogisticScorer(weights=tuple(float(v) for v in w), bias=b, feature_map=fm.name)


def log_loss_gradient(
    weights: np.ndarray, bias: float, fm: FeatureMap, data: TrainingSet
) -> tuple[np.ndarray, float]:
    """Analytic gradient of the clamped cross-entropy at (weights, bias)."""
    x, y = _design(fm, data)
    return _gradient(x, y, np.asarray(weights, dtype=np.float64), bias)


# ---------------------------------------------------------------------------
# Serialization: tagged text records with hex-float reals for exact round trips.


def scorer_to_text(scorer: Scorer) -> str:
    return json.dumps(scorer.to_record(), sort_keys=True)


def scorer_from_record(record: dict) -> Scorer:
    try:
        kind = record["kind"]
        if kind == "interval":
            return IntervalScorer(
                intervals=tuple((int(lo), int(hi)) for lo, hi in record["intervals"]),
                inside_score=float.fromhex(record["inside_score"]),
                outside_score=float.fromhex(record["outside_score"]),
            )
        if kind == "logistic":
            return LogisticScorer(
                weights=tuple(float.fromhex(w) for w in record["weights"]),
                bias=float.fromhex(record["bias"]),
                feature_map=record["feature_map"],
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FilterFormatError(f"malformed scorer record: {exc}") from exc
    raise FilterFormatError(f"unknown scorer kind {record.get('kind')!r}")


def scorer_from_text(text: str | bytes) -> Scorer:
    """The scorer a record describes; a ``bytes`` record is decoded as UTF-8."""
    try:
        record = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FilterFormatError(f"scorer record is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise FilterFormatError("scorer record must be a JSON object")
    return scorer_from_record(record)
