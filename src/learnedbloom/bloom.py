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
from .hashing import _MASK, _key, _pair_from_base, _seed_base, as_keys, hash_pair_batch

_LN2 = math.log(2.0)

MAGIC = b"LBF1"
# Largest hash count a filter may have; params_for_target never returns more
# than 1,024 (at its smallest accepted target), and a loaded header above it
# would let one probe take k rounds.
MAX_K = 2048
_HEADER = struct.Struct("<4sQIQQ")  # magic, m, k, seed, inserted_count
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)
# Keys hashed and probed at a time by the batch paths, so each uint64 temporary
# is 128 KB. On a 1M-key contains_many batch, half members (m 9.59M, k 7), 2^14
# and 2^15 measured fastest and 2^13 to 2^17 within a fifth of them (21M to 29M
# keys/s over two runs on a 2-core VM, numpy 2.4.6); 2^12 measured 15M to 21M.
_BLOCK = 1 << 14
# Largest m whose insert_many sets bits in a byte-per-bit copy (4 MiB); above it each
# round ORs into the packed bits, with no m-byte copy.  Packed time over unpacked time,
# inserting m/10 keys at k 7 (2-core VM, 2 MiB L2, numpy 2.4.6; medians of 21 pairs):
# 1.9 at m 0.96M, 1.4 at 1.9M, 1.1 at 4.2M, 1.03-1.13 at 9.59M, 1.4 at 19.2M (past L2).
_UNPACK_LIMIT = 1 << 22


def _remainder(acc: np.ndarray, m: np.uint64, out: np.ndarray) -> np.ndarray:
    """``acc % m`` written into ``out``, a uint64 array that is not ``acc``; exact for
    every uint64 ``acc`` and m >= 1.

    Not ``%``: numpy's floor_divide divides by a scalar through a precomputed
    reciprocal, while its remainder does one hardware divide per element, so
    this costs about a third of ``acc % m`` on a 2^14-key block.
    """
    np.floor_divide(acc, m, out=out)
    out *= m
    np.subtract(acc, out, out=out)
    return out


def _or_bits(bits: np.ndarray, pos: np.ndarray, scratch: np.ndarray, *, apart: bool = False) -> None:
    """Set bit p of the packed array ``bits`` (bit ``p & 7`` of byte ``p >> 3``) for each
    uint64 p in ``pos``, every p below ``8 * bits.size``.

    ``pos`` is overwritten; ``scratch`` is a uint8 buffer of 3 rows of at least its size.
    A pass gathers each entry's byte, ORs in its bit and scatters the bytes back; of
    entries sharing a byte only the last write stays, so the bytes are gathered again and
    the entries whose byte differs from what they wrote make the next pass.  A pass sets
    the bit of its last writer in every contested byte, and entries of one bit write
    alike, so a byte is settled within 8 passes.  A caller whose positions lie ``apart``,
    no two in one byte, loses no write: its one pass is not checked.
    """
    n = pos.size
    mask, wrote, back = scratch[:, :n]
    np.copyto(mask, pos, casting="unsafe")  # the low byte: p & 7 once masked
    mask &= 7
    np.left_shift(np.uint8(1), mask, out=mask)
    pos >>= 3
    byte = pos.view(np.int64)  # p >> 3 < 2^61 fits int64
    # byte < the byte count, so "wrap" never wraps (and, unlike "raise", gathers
    # straight into the buffer, not into a copy of it)
    np.take(bits, byte, out=wrote, mode="wrap")
    wrote |= mask
    bits[byte] = wrote
    if apart:
        return
    np.take(bits, byte, out=back, mode="wrap")
    lost = np.flatnonzero(np.not_equal(back, wrote, out=back.view(bool)))
    while lost.size:  # a few entries a round: fresh arrays cost less than the buffers' slicing
        byte, mask = byte[lost], mask[lost]
        wrote = bits[byte] | mask
        bits[byte] = wrote
        lost = np.flatnonzero(bits[byte] != wrote)


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
        self._seed = int(seed) & _MASK
        self._base = _seed_base(self._seed)  # what every scalar probe adds to its key
        try:
            self._bits = np.zeros((self.m + 7) // 8, dtype=np.uint8)
        except (MemoryError, ValueError) as exc:  # numpy refuses at once, allocating nothing
            raise ParameterError(f"bit count m={self.m} is too large to allocate") from exc
        self.inserted_count = 0

    @property
    def seed(self) -> int:
        """The hash seed, read-only: the scalar probes hold its mixed base."""
        return self._seed

    @classmethod
    def from_params(cls, params: FilterParams, seed: int) -> "BloomFilter":
        return cls(params.m, params.k, seed)

    def insert(self, key) -> None:
        """Set the k probe bits for ``key``; idempotent on the bit array."""
        h, step = _pair_from_base(_key(key), self._base)
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
        ``(h1 + i*h2) % m`` of a block's keys into a copy of the array, which replaces
        it at the end.  Up to m = :data:`_UNPACK_LIMIT` (2^22) the copy is unpacked, one
        byte per bit, and a round is one scatter; above it the copy stays packed, m/8
        bytes, and :func:`_or_bits` ORs each round's bits into it.  An invalid key, or a
        copy numpy cannot allocate, is a ParameterError; the filter is unchanged.
        """
        keys = as_keys(keys)
        packed = self.m > _UNPACK_LIMIT
        try:
            if packed:
                bits = np.copy(self._bits)
            else:
                bits = np.unpackbits(self._bits, count=self.m, bitorder="little")
        except MemoryError as exc:
            raise ParameterError(f"bit count m={self.m} is too large to insert into") from exc
        m = np.uint64(self.m)
        size = min(keys.size, _BLOCK)
        pos = np.empty(size, dtype=np.uint64)  # a round's bit positions
        scratch = np.empty((3, size), dtype=np.uint8) if packed else None
        for start in range(0, keys.size, _BLOCK):
            acc, step = hash_pair_batch(keys[start : start + _BLOCK], self.seed)
            p = pos[: acc.size]
            for i in range(self.k):
                if i:
                    acc += step
                _remainder(acc, m, out=p)
                if packed:
                    _or_bits(bits, p, scratch)
                else:
                    bits[p.view(np.int64)] = 1  # m < 2^63: the packed array was allocated
        self._bits = bits if packed else np.packbits(bits, bitorder="little")
        self.inserted_count += int(keys.size)

    def contains(self, key) -> bool:
        """True iff all k probed bits are set; never False for an inserted key.

        Probes in order and stops at the first zero bit; :meth:`contains_many` agrees.
        """
        h, step = _pair_from_base(_key(key), self._base)
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
        at a time: round i probes bit ``(h1 + i*h2) % m`` of the keys still probed and
        ANDs it into their mask.  Those keys are compacted to the survivors only once at
        most half of them are alive, so a dead key is probed until the next compaction
        (in a block half of members, to the last round) and a batch of members is never
        copied.  A round writes its positions, bit offsets and probed bytes into three
        buffers allocated once a call, so no probe temporary grows with the batch or
        with k.  Answers are those of probing each key to its first zero bit.
        """
        keys = as_keys(keys)
        answers = np.zeros(keys.size, dtype=bool)
        m = np.uint64(self.m)
        size = min(keys.size, _BLOCK)
        pos = np.empty(size, dtype=np.uint64)  # a round's bit positions, then their bytes
        shift = np.empty(size, dtype=np.uint8)  # a round's bit offsets in those bytes
        got = np.empty(size, dtype=np.uint8)  # the probed bytes, shifted to their bit
        for start in range(0, keys.size, _BLOCK):
            acc, step = hash_pair_batch(keys[start : start + _BLOCK], self.seed)
            alive = None  # the block's answer indices, made at its first compaction
            ok = np.ones(acc.size, dtype=np.uint8)  # 1 where every probe since the last compaction hit
            for i in range(self.k):
                if i:
                    acc += step
                p, sh, g = pos[: acc.size], shift[: acc.size], got[: acc.size]
                _remainder(acc, m, out=p)
                np.copyto(sh, p, casting="unsafe")  # the low byte: p & 7 once masked
                sh &= 7
                p >>= 3
                # m < 2^63, so p fits int64; p < the byte count, so "wrap" never wraps
                # (and, unlike "raise", gathers straight into g, not into a copy of it)
                np.take(self._bits, p.view(np.int64), out=g, mode="wrap")
                g >>= sh
                ok &= g  # ANDs the probed bit into bit 0
                live = np.count_nonzero(ok)
                if not live:
                    break
                if 2 * live <= ok.size and i + 1 < self.k:  # at least half died: compact
                    # The 0/1 bytes viewed as bool: np.flatnonzero on uint8 is a slower, branchy path.
                    hit = ok.view(bool).nonzero()[0]
                    alive = hit + start if alive is None else alive[hit]
                    acc, step = acc[hit], step[hit]
                    ok = np.ones(hit.size, dtype=np.uint8)
            if alive is None:
                answers[start : start + ok.size] = ok.view(bool)
            else:
                answers[alive] = ok.view(bool)  # a scatter: indexing alive by the mask is far slower
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
