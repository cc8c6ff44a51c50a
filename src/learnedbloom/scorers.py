"""Key scorers: pre-filter functions mapping keys to [0, 1].

Two concrete families. Interval scorers return a fixed high score on a union of disjoint
closed intervals of keys and a fixed low score elsewhere; a record loads straight into two
uint64 arrays, checked whole-array, so it costs O(I) past its JSON.  Logistic scorers apply
a sigmoid to a linear function of a named, deterministic feature encoding of the key, and
are trained by full-batch gradient descent on the clamped cross-entropy loss.

Keys are integers in [0, 2^64).  Every scorer scores one key (``score``) or a
uint64 batch (``score_batch``) bit for bit alike, at a cost bounded by the batch,
not the record: past 16 intervals an interval batch is one ``searchsorted`` on the
starts, O(n log I); a logistic batch is encoded in O(1) values per key, never an
n x dim matrix.  ``byte-ngram`` sums seven gathered weights per key in bigram order,
O(n*7 + D) for D buckets, which can round unlike a dot product with bigram counts.
Scorers are immutable after construction and safe for concurrent reads.

A threshold ``tau`` is applied to a key's ``rank`` (``rank_batch``), not its score: a
key is at or above ``tau`` iff its rank is ``>= cut(tau)``.  An interval scorer's rank
is its score and its cut is ``tau``.  A logistic scorer's rank is its logit, and its
cut is :func:`logit_cut`, derived from ``tau`` by IEEE arithmetic alone.  A logit
rounds alike on every machine while ``np.exp`` does not (numpy picks its SIMD loop at
import), so a logistic key's side of ``tau`` depends on the weights and ``tau`` alone;
its displayed ``score`` is the same bit for bit only within one process.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import math
import struct
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

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
    def rank(self, key) -> float:
        """The value a threshold is applied to for one key, equal to its :meth:`rank_batch` entry."""

    @abstractmethod
    def rank_batch(self, keys) -> np.ndarray:
        """The values a threshold is applied to for any key batch (:func:`as_keys`): a key
        is at or above ``tau`` iff its rank is ``>= cut(tau)``."""

    @abstractmethod
    def cut(self, tau: float) -> float:
        """The least rank at or above ``tau``: -inf if every rank is, NaN if none is."""

    @abstractmethod
    def size_bits(self) -> int:
        """Representation size under the package's fixed accounting rules."""

    @abstractmethod
    def to_record(self) -> dict:
        """JSON-compatible tagged record; reals are hex-float strings."""


@dataclass(frozen=True, eq=False)
class IntervalScorer(Scorer):
    """``inside_score`` on a union of disjoint closed intervals of keys, ``outside_score``
    elsewhere; the intervals are held once, as read-only uint64 arrays of starts and ends."""

    _lo: np.ndarray
    _hi: np.ndarray
    inside_score: float
    outside_score: float

    def __init__(self, intervals, inside_score: float, outside_score: float):
        try:  # one key check for every bound, then row 0 the starts and row 1 the ends
            bounds = as_keys(b for lo, hi in intervals for b in (lo, hi)).reshape(-1, 2).T.copy()
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"intervals are (lo, hi) pairs of keys: {exc}") from None
        bounds.flags.writeable = False
        lo, hi = bounds
        empty = np.flatnonzero(lo > hi)
        if empty.size:
            raise ParameterError(f"empty interval [{lo[empty[0]]}, {hi[empty[0]]}]")
        if (lo[1:] <= hi[:-1]).any():
            raise ParameterError("intervals must be sorted and pairwise disjoint")
        self.__dict__.update(_lo=lo, _hi=hi, inside_score=inside_score, outside_score=outside_score)
        for name in ("inside_score", "outside_score"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1]")
        if not self.inside_score > self.outside_score:
            raise ParameterError("inside_score must exceed outside_score")

    def __eq__(self, other) -> bool:  # every field, the arrays element by element
        return isinstance(other, IntervalScorer) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def score(self, key) -> float:
        x = _key(key)
        i = bisect.bisect_right(self._lo.data, x) - 1  # the last start <= x, read as Python ints
        return self.inside_score if i >= 0 and x <= self._hi.data[i] else self.outside_score

    def score_batch(self, keys) -> np.ndarray:
        x = as_keys(keys)
        if self._lo.size > 16:  # past 16 intervals, one binary search beats two compares each
            last = np.searchsorted(self._lo, x, side="right") - 1  # the last start <= x
            inside = (last >= 0) & (x <= self._hi[last])
        else:
            inside = np.zeros(x.shape, bool)
            for lo, hi in zip(self._lo, self._hi):
                inside |= (x >= lo) & (x <= hi)
        return np.where(inside, self.inside_score, self.outside_score)

    def rank(self, key) -> float:
        return self.score(key)

    def rank_batch(self, keys) -> np.ndarray:
        return self.score_batch(keys)

    def cut(self, tau: float) -> float:
        return tau

    def count_at_least(self, tau: float, lo: int, hi: int) -> int:
        """How many keys in [lo, hi) score at or above ``tau``: the whole range, nothing, or
        the held intervals clipped to it, in O(log intervals + the intervals overlapping it)."""
        if not 0 <= lo < hi <= 1 << 64:
            raise ParameterError(f"invalid range [{lo}, {hi})")
        if self.outside_score >= tau:
            return hi - lo
        if not self.inside_score >= tau:  # not <: a NaN tau counts nothing, as in a batch
            return 0
        first = np.searchsorted(self._hi, np.uint64(lo))  # the first interval to end at or past lo
        stop = np.searchsorted(self._lo, np.uint64(hi - 1), side="right")  # past the last to start
        ends = np.minimum(self._hi[first:stop], np.uint64(hi - 1))  # closed ends, clipped
        starts = np.maximum(self._lo[first:stop], np.uint64(lo))
        # the clipped intervals are disjoint in [0, 2^64), so this uint64 sum cannot wrap
        return int((ends - starts).sum(dtype=np.uint64)) + int(stop - first)

    def size_bits(self) -> int:
        # 128 bits per interval (two 64-bit bounds) + 128 for the two scores.
        return 128 * self._lo.size + 128

    def to_record(self) -> dict:
        return {
            "kind": "interval",
            "intervals": np.column_stack((self._lo, self._hi)).tolist(),
            "inside_score": float(self.inside_score).hex(),
            "outside_score": float(self.outside_score).hex(),
        }


# ---------------------------------------------------------------------------
# Feature maps: named deterministic key encodings with their logit and gradient.


class FeatureMap(ABC):
    """Named deterministic key encoding, O(1) values per key, with its logit and gradient."""

    name: str
    dim: int

    def held(self, weights: np.ndarray) -> np.ndarray:
        """The weights in the form :meth:`logit` reads; a scorer computes it once."""
        return weights

    @abstractmethod
    def encode(self, keys) -> np.ndarray:
        """The encoding of a key batch (:func:`as_keys`), one entry per key along the last axis."""

    @abstractmethod
    def logit(self, codes: np.ndarray, held: np.ndarray, bias: float) -> np.ndarray:
        """weights . features(key) + bias of every encoded key; one past the float range is
        +-inf, silently, as in Python floats, so its score saturates."""

    def logit_one(self, key, held: np.ndarray, bias: float) -> float:
        """:meth:`logit` of one key, equal bit for bit to its logit in any batch."""
        return float(self.logit(self.encode(np.array([_key(key)], dtype=np.uint64)), held, bias)[0])

    @abstractmethod
    def gradient(self, codes: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """The sum over encoded keys of residual * features(key): the weights' gradient."""


# (scale, offset) of each affine family; names are part of serialized scorer records.
_AFFINE = {"int-norm": (1.0, 0.0), "int-centered": (2.0, -1.0)}


class _Affine(FeatureMap):
    """One feature, scale * float(key) / universe_max + offset: onto [0, 1] or [-1, 1]."""

    def __init__(self, family: str, universe_max: int):
        if not 1 <= universe_max <= sys.float_info.max:
            raise ParameterError(f"{family} universe_max must lie in [1, {sys.float_info.max}]")
        self.name, self.dim = f"{family}:{universe_max}", 1
        self._scale, self._offset = _AFFINE[family]
        self._max = float(universe_max)

    def encode(self, keys) -> np.ndarray:
        return self._scale * as_keys(keys).astype(np.float64) / self._max + self._offset

    def logit(self, codes: np.ndarray, held: np.ndarray, bias: float) -> np.ndarray:
        with np.errstate(over="ignore"):
            return codes * held[0] + bias

    def logit_one(self, key, held: np.ndarray, bias: float) -> float:  # same sums, no array
        return (self._scale * float(_key(key)) / self._max + self._offset) * float(held[0]) + bias

    def gradient(self, codes: np.ndarray, residual: np.ndarray) -> np.ndarray:
        # numpy's own pairwise sum, not BLAS: a BLAS dot splits the sum by thread count
        return np.array([np.multiply(codes, residual).sum()])


_NGRAM_KEY = b"lbf-ngram"  # blake2b key of the byte-bigram hash


@functools.cache
def _pair_digests() -> np.ndarray:
    """Each bigram's :meth:`_ByteNgram._bucket` before the modulus, at ``b0 | b1 << 8`` for
    ``bytes([b0, b1])``: read-only uint64, built on first use, once per process."""
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

    A key is encoded as its seven bigram buckets, one per row, read from a table
    built from :meth:`_bucket`; its logit adds the seven held weights ``w / 7`` of
    its buckets in bigram order, then the bias.
    """

    def __init__(self, buckets: int):
        if buckets < 1:
            raise ParameterError("byte-ngram bucket count must be >= 1")
        self.name, self.dim = f"byte-ngram:{buckets}", buckets

    def _bucket(self, pair: bytes) -> int:
        digest = hashlib.blake2b(pair, digest_size=8, key=_NGRAM_KEY).digest()
        return int.from_bytes(digest, "little") % self.dim

    @functools.cached_property
    def _pair_buckets(self) -> np.ndarray:
        """The bucket of every bigram, indexed like :func:`_pair_digests`."""
        return (_pair_digests() % np.uint64(self.dim)).astype(np.intp)

    def held(self, weights: np.ndarray) -> np.ndarray:
        return weights / 7  # dividing first keeps every partial sum within the weights' range

    def encode(self, keys) -> np.ndarray:
        pairs = as_keys(keys) >> np.arange(0, 56, 8, dtype=np.uint64)[:, None]  # bytes i, i+1
        pairs &= np.uint64(0xFFFF)
        return self._pair_buckets[pairs.view(np.int64)]  # a bigram fits int64: no index cast

    def logit(self, codes: np.ndarray, held: np.ndarray, bias: float) -> np.ndarray:
        z = held[codes[0]]
        for row in codes[1:]:  # in bigram order
            z += held[row]
        with np.errstate(over="ignore"):
            return z + bias

    def gradient(self, codes: np.ndarray, residual: np.ndarray) -> np.ndarray:
        return np.bincount(codes.ravel(), np.tile(residual, 7), minlength=self.dim) / 7


def feature_map(name: str) -> FeatureMap:
    """Resolve a feature-map name like ``int-norm:1000000`` or ``byte-ngram:16``."""
    if not isinstance(name, str):
        raise ParameterError(f"feature map name must be a string, not {type(name).__name__}")
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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so no exp overflows.

    For display and training only: ``np.exp``'s last bits move with numpy's SIMD loop."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


# Cody-Waite split of ln 2: _LN2_HI's low 21 bits are zero, so n * _LN2_HI is exact
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")  # ln 2 - _LN2_HI
_INV_LN2 = float.fromhex("0x1.71547652b82fep+0")
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(12, -1, -1))  # 1/12! down to 1/0!


def _sigmoid_ref(z: float) -> float:
    """:func:`_sigmoid` of one float, with e^-|z| from IEEE add, multiply, round-half-even
    and ``ldexp`` alone: -|z| = n ln 2 + r with |r| <= ln 2 / 2, then a 13-term Taylor
    series in r scaled by 2^n.  Every machine computes it bit for bit alike; it lay
    within 3 ulp of :func:`_sigmoid` on every point measured."""
    x = -abs(z)
    if x < -746.0:  # e^x is below half the least subnormal
        ez = 0.0
    else:
        n = round(x * _INV_LN2)
        r = (x - n * _LN2_HI) - n * _LN2_LO
        p = 0.0
        for c in _TAYLOR:
            p = p * r + c
        ez = math.ldexp(p, n)
    return (1.0 if z >= 0 else ez) / (1.0 + ez)


def _ordinal(x: float) -> int:
    """The rank of a non-NaN double among the doubles, 0 at +-0; :func:`_double` inverts it."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & (1 << 63) - 1)


def _double(ordinal: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", ordinal if ordinal >= 0 else -ordinal | 1 << 63))[0]


def logit_cut(tau: float) -> float:
    """z_tau, the cut a logit is compared with for the threshold ``tau``.

    A bisection over the ordered doubles, 64 steps from -inf to +inf, finds where
    ``_sigmoid_ref`` crosses ``tau``: the least double z with ``_sigmoid_ref(z) >= tau``
    wherever ``_sigmoid_ref`` is non-decreasing, which its rounding breaks only at an
    ulp's scale.  -inf when tau <= 0 (every logit is at or above), NaN when no logit is
    (tau above 1, or NaN).  The rule ``z >= z_tau`` is monotone by construction; it
    differs from ``_sigmoid(z) >= tau`` only where that score is within 2 ulp of ``tau``.
    """
    if not _sigmoid_ref(math.inf) >= tau:
        return math.nan
    if _sigmoid_ref(-math.inf) >= tau:
        return -math.inf
    lo, hi = _ordinal(-math.inf), _ordinal(math.inf)  # below tau at lo, not below at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sigmoid_ref(_double(mid)) >= tau:
            hi = mid
        else:
            lo = mid
    return _double(hi)


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
            raise ParameterError(f"feature map {fm.name} has dim {fm.dim}, got {len(ws)} weights")
        object.__setattr__(self, "_fm", fm)
        object.__setattr__(self, "_w", fm.held(np.array(ws, dtype=np.float64)))

    def score(self, key) -> float:  # _sigmoid's operations on one Python float, no array
        z = self.rank(key)
        ez = float(np.exp(-abs(z)))
        return (1.0 if z >= 0 else ez) / (1.0 + ez)

    def score_batch(self, keys) -> np.ndarray:
        return _sigmoid(self.rank_batch(keys))

    def rank(self, key) -> float:
        """The key's logit, :meth:`FeatureMap.logit_one`."""
        return self._fm.logit_one(key, self._w, self.bias)

    def rank_batch(self, keys) -> np.ndarray:
        """The keys' logits, :meth:`FeatureMap.logit`."""
        return self._fm.logit(self._fm.encode(keys), self._w, self.bias)

    def cut(self, tau: float) -> float:
        """:func:`logit_cut`: z_tau, the same for every logistic scorer."""
        return logit_cut(tau)

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

    Each is held as a read-only uint64 array, in the given order; no key may be both.
    """

    positives: np.ndarray
    negatives: np.ndarray

    def __init__(self, positives, negatives):
        object.__setattr__(self, "positives", _held_keys(positives))
        object.__setattr__(self, "negatives", _held_keys(negatives))
        if not self.positives.size:
            raise ParameterError("training set needs at least one positive key")
        if np.isin(self.negatives, self.positives).any():
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


def _loss_and_residual(fm: FeatureMap, codes: np.ndarray, n_pos: int, w: np.ndarray, b: float):
    """The clamped cross-entropy at (w, b) and the residual sigmoid - label of every encoded
    key, from one logit pass; the first ``n_pos`` encoded keys are positives."""
    residual = _sigmoid(fm.logit(codes, fm.held(w), b))
    loss = _clamped_xent(residual[:n_pos], residual[n_pos:])
    residual[:n_pos] -= 1.0
    return loss, residual


def train_logistic(
    data: TrainingSet,
    feature_map_name: str,
    epochs: int,
    learning_rate: float,
    loss_trace: list | None = None,
) -> LogisticScorer:
    """Full-batch gradient descent from zero weights with step backtracking.

    Each epoch takes one gradient step; if the step would leave the float range
    or increase the loss it is halved until neither holds (or the step underflows,
    which freezes the weights).  One logit pass gives each visited point's loss and,
    once the step is taken, the next epoch's gradient.  The learning rate must
    be positive and finite.  Zero initialization, whole-batch updates and sums
    that never go through BLAS (whose thread count moves their last bits) make
    the trainer deterministic on one machine; its loss goes through ``np.exp``,
    ``np.log`` and ``np.log1p``, whose last bits can differ on another.  When
    ``loss_trace`` is a list, the loss before training and after each epoch is
    appended to it.
    """
    if epochs < 0:
        raise ParameterError("epochs must be >= 0")
    if not 0 < learning_rate < math.inf:
        raise ParameterError("learning_rate must be positive and finite")
    fm = feature_map(feature_map_name)
    codes = fm.encode(np.concatenate([data.positives, data.negatives]))
    n_pos = data.positives.size

    w = np.zeros(fm.dim, dtype=np.float64)
    b = 0.0
    loss, residual = _loss_and_residual(fm, codes, n_pos, w, b)
    if loss_trace is not None:
        loss_trace.append(loss)
    for epoch in range(epochs):
        grad_w, grad_b = fm.gradient(codes, residual), float(residual.sum())
        if not (np.all(np.isfinite(grad_w)) and math.isfinite(grad_b) and math.isfinite(loss)):
            raise TrainingError(f"non-finite loss or gradient at epoch {epoch}")
        step = learning_rate
        while step > _BACKTRACK_FLOOR:
            with np.errstate(over="ignore"):  # a candidate past the float range is halved
                cand_w = w - step * grad_w
            cand_b = b - step * grad_b
            if np.isfinite(cand_w).all() and math.isfinite(cand_b):
                cand_loss, cand_residual = _loss_and_residual(fm, codes, n_pos, cand_w, cand_b)
                if math.isfinite(cand_loss) and cand_loss <= loss:
                    w, b, loss, residual = cand_w, cand_b, cand_loss, cand_residual
                    break
            step *= 0.5
        if loss_trace is not None:
            loss_trace.append(loss)
    return LogisticScorer(weights=tuple(float(v) for v in w), bias=b, feature_map=fm.name)


# ---------------------------------------------------------------------------
# Serialization: tagged text records with hex-float reals for exact round trips.


def scorer_to_text(scorer: Scorer) -> str:
    return json.dumps(scorer.to_record(), sort_keys=True)


def _json_list(record: dict, name: str) -> list:
    """Field ``name`` of a scorer record, a JSON list: a string or an object would iterate too."""
    value = record[name]
    if not isinstance(value, list):
        raise FilterFormatError(f"{name} must be a list, not {type(value).__name__}")
    return value


def scorer_from_text(text: str | bytes) -> Scorer:
    """The scorer a record describes; a ``bytes`` record is decoded as UTF-8."""
    try:
        record = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FilterFormatError(f"scorer record is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise FilterFormatError("scorer record must be a JSON object")
    try:
        kind = record["kind"]
        if kind == "interval":
            return IntervalScorer(
                _json_list(record, "intervals"),
                inside_score=float.fromhex(record["inside_score"]),
                outside_score=float.fromhex(record["outside_score"]),
            )
        if kind == "logistic":
            return LogisticScorer(
                weights=tuple(float.fromhex(w) for w in _json_list(record, "weights")),
                bias=float.fromhex(record["bias"]),
                feature_map=record["feature_map"],
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FilterFormatError(f"malformed scorer record: {exc}") from exc
    raise FilterFormatError(f"unknown scorer kind {record.get('kind')!r}")
