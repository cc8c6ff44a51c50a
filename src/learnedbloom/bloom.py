"""Standard Bloom filter with seeded double hashing.

Also provides the closed-form fill-ratio and false-positive expressions
for a filter of m bits and k hashes holding n keys, and the sizing
inverse that picks (m, k) for a target false positive probability.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FilterFormatError, ParameterError
from .hashing import _MASK, _key, as_keys, hash_pair, hash_pair_batch

_LN2 = math.log(2.0)

MAGIC = b"LBF1"
# Largest hash count a filter may have; params_for_target never returns more
# than 1,024 (at its smallest accepted target), and a loaded header above it
# would let one probe take k rounds.
MAX_K = 2048
_HEADER = struct.Struct("<4sQIQQ")  # magic, m, k, seed, inserted_count
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)
# Keys hashed and probed at a time by the batch paths, so each uint64 temporary
# is 128 KB. 2^13 to 2^16 measure alike on 1M-key batches (10.7M to 12.3M keys/s
# on a 2-core VM, numpy 2.4.6); 2^12 and 2^17 or more measured slower.
_BLOCK = 1 << 14


def _remainder(acc: np.ndarray, m: np.uint64) -> np.ndarray:
    """``acc % m`` as a new uint64 array, exact for every uint64 ``acc`` and m >= 1.

    Not ``%``: numpy's floor_divide divides by a scalar through a precomputed
    reciprocal, while its remainder does one hardware divide per element, so
    this costs about a third of ``acc % m`` on a 2^14-key block.
    """
    r = acc // m
    r *= m
    np.subtract(acc, r, out=r)
    return r


@dataclass(frozen=True)
class FilterParams:
    """Bloom filter sizing: ``m`` bits probed by ``k`` hash functions."""

    m: int
    k: int

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError("bit count m must be >= 1")
        if not 1 <= self.k <= MAX_K:
            raise ParameterError(f"hash count k must lie in [1, {MAX_K}]")


class BloomFilter:
    """An m-bit array probed by k seeded hash functions.

    Answers may be false positives, never false negatives.  Construction is
    single-writer; once insertions stop the filter is immutable and safe for
    any number of concurrent readers.  Two filters built with the same
    (m, k, seed) and insertion sequence are bit-identical.
    """

    def __init__(self, m: int, k: int, seed: int):
        params = FilterParams(m=int(m), k=int(k))
        self.m = params.m
        self.k = params.k
        self.seed = int(seed) & _MASK
        try:
            self._bits = np.zeros((self.m + 7) // 8, dtype=np.uint8)
        except (MemoryError, ValueError) as exc:  # numpy refuses at once, allocating nothing
            raise ParameterError(f"bit count m={self.m} is too large to allocate") from exc
        self.inserted_count = 0

    @classmethod
    def from_params(cls, params: FilterParams, seed: int) -> "BloomFilter":
        return cls(params.m, params.k, seed)

    def insert(self, key) -> None:
        """Set the k probe bits for ``key``; idempotent on the bit array."""
        h, step = hash_pair(_key(key), self.seed)
        bits = self._bits.data
        for _ in range(self.k):
            p = h % self.m
            bits[p >> 3] |= 1 << (p & 7)
            h = (h + step) & _MASK
        self.inserted_count += 1

    def insert_many(self, keys) -> None:
        """Bulk insert of any key batch; the same bits as inserting each key in turn.

        The batch is checked whole, then hashed :data:`_BLOCK` keys at a time, so no
        probe temporary grows with the batch or with k: round i sets bit
        ``(h1 + i*h2) % m`` of a block's keys in one byte-per-bit copy of the array,
        packed back at the end.  An invalid key, or an m-byte copy numpy cannot
        allocate, is a ParameterError; the filter is unchanged.
        """
        keys = as_keys(keys)
        try:
            unpacked = np.unpackbits(self._bits, count=self.m, bitorder="little")
        except MemoryError as exc:
            raise ParameterError(f"bit count m={self.m} is too large to insert into") from exc
        m = np.uint64(self.m)
        for start in range(0, keys.size, _BLOCK):
            acc, step = hash_pair_batch(keys[start : start + _BLOCK], self.seed)
            for i in range(self.k):
                if i:
                    acc += step
                # m < 2^63: the packed array was allocated
                unpacked[_remainder(acc, m).view(np.int64)] = 1
        self._bits = np.packbits(unpacked, bitorder="little")
        self.inserted_count += int(keys.size)

    def contains(self, key) -> bool:
        """True iff all k probed bits are set; never False for an inserted key.

        Probes in order and stops at the first zero bit, as :meth:`contains_many` does.
        """
        h, step = hash_pair(_key(key), self.seed)
        bits = self._bits.data
        for _ in range(self.k):
            p = h % self.m
            if not bits[p >> 3] >> (p & 7) & 1:
                return False
            h = (h + step) & _MASK
        return True

    def contains_many(self, keys) -> np.ndarray:
        """Membership test over any key batch; a boolean array of :meth:`contains` answers.

        The batch is checked whole, then probed :data:`_BLOCK` keys and one hash round
        at a time: round i probes bit ``(h1 + i*h2) % m`` only of the keys whose earlier
        probes all hit, so a non-member stops at its first zero bit, and no probe
        temporary grows with the batch or with k.
        """
        keys = as_keys(keys)
        answers = np.zeros(keys.size, dtype=bool)
        m = np.uint64(self.m)
        for start in range(0, keys.size, _BLOCK):
            acc, step = hash_pair_batch(keys[start : start + _BLOCK], self.seed)
            alive = np.arange(start, start + acc.size)
            for i in range(self.k):
                if i:
                    acc += step
                p = _remainder(acc, m).view(np.int64)  # m < 2^63: the packed array was allocated
                probed = self._bits[p >> 3] >> (p & 7).astype(np.uint8) & np.uint8(1)
                # The 0/1 bytes viewed as bool: np.flatnonzero on uint8 is a slower, branchy path.
                hit = probed.view(bool).nonzero()[0]
                alive, acc, step = alive[hit], acc[hit], step[hit]
                if not alive.size:
                    break
            answers[alive] = True
        return answers

    @property
    def popcount(self) -> int:
        return int(_POPCOUNT[self._bits].sum())

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set to 1 (exact)."""
        return self.popcount / self.m

    def to_bytes(self) -> bytes:
        """Header (magic, m, k, seed, inserted_count; little-endian) + packed bits.

        The bit array is held as it is stored: bit p is bit ``p & 7`` of byte
        ``p >> 3``, and the padding bits past m are 0.  Round-trips bit-exactly.
        """
        header = _HEADER.pack(MAGIC, self.m, self.k, self.seed, self.inserted_count)
        return header + self._bits.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """A filter from :meth:`to_bytes` output; set padding bits past m load as 0."""
        if len(data) < _HEADER.size:
            raise FilterFormatError("truncated filter header")
        magic, m, k, seed, inserted = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise FilterFormatError(f"bad magic {magic!r}")
        if m < 1 or k < 1:
            raise FilterFormatError("header declares an empty filter")
        if k > MAX_K:
            raise FilterFormatError(f"header declares k={k}, above the limit {MAX_K}")
        if len(data) - _HEADER.size != (m + 7) // 8:
            raise FilterFormatError("bit array length does not match header")
        filt = cls(m, k, seed)
        filt._bits[:] = np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)
        filt._bits[-1] &= 0xFF >> (-m & 7)  # clear the padding bits past m
        filt.inserted_count = int(inserted)
        return filt

    def __eq__(self, other) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            (self.m, self.k, self.seed, self.inserted_count)
            == (other.m, other.k, other.seed, other.inserted_count)
            and bool(np.array_equal(self._bits, other._bits))
        )


def expected_fill_ratio(n: int, m: int, k: int) -> float:
    """Expected 1s fraction after inserting n distinct keys: 1 - (1 - 1/m)^(k*n)."""
    if m < 1:
        raise ParameterError("m must be >= 1")
    if n < 0:
        raise ParameterError("n must be >= 0")
    if k < 1:
        raise ParameterError("k must be >= 1")
    if n == 0:
        return 0.0
    if m == 1:
        return 1.0
    return -math.expm1(k * n * math.log1p(-1.0 / m))


def expected_fpp(n: int, m: int, k: int) -> float:
    """Expected false positive probability: (expected fill ratio)^k."""
    return expected_fill_ratio(n, m, k) ** k


def params_for_target(n: int, target_fpp: float) -> FilterParams:
    """Size a filter for n keys at a target false positive probability.

    m = ceil(n * log2(1/target_fpp) / ln 2), k = round((m/n) * ln 2), k >= 1.
    The asymptotic formula can overshoot the target by a hair at very small n,
    so m is bumped until expected_fpp(n, m, k) <= 1.1 * target_fpp holds.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not 0.0 < target_fpp < 1.0:
        raise ParameterError("target_fpp must lie in (0, 1)")
    bits = math.log2(1.0 / target_fpp)
    if math.isinf(bits):
        raise ParameterError(f"target_fpp {target_fpp!r} is too small: 1/target_fpp overflows")
    m = math.ceil(n * bits / _LN2)
    while True:
        k = max(1, round((m / n) * _LN2))
        if expected_fpp(n, m, k) <= 1.1 * target_fpp:
            return FilterParams(m=m, k=k)
        m += 1
