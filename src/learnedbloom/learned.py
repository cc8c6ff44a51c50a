"""Learned Bloom filter: a scorer pre-filter, a threshold, and a backup filter.

A query scoring at or above the threshold is answered positive outright;
anything below is referred to a standard backup Bloom filter that holds
exactly the build keys the scorer missed, so the composite never returns
a false negative.  A key is at or above ``tau`` iff ``scorer.rank(key) >=
scorer.cut(tau)``: for a logistic scorer its logit against z_tau, so no ``np.exp``
decides an answer, and a stored filter answers alike on every machine.  A batch is
ranked :data:`bloom._BLOCK` keys at a time, so no float temporary grows with it, into
one bool mask, :func:`_at_or_above` (read by build and ``classify_many``), or into one
count per threshold, :func:`_count_at_or_above` (the exact and sampled alpha and the
threshold sweep).  Both, and the scalar ``contains``, compare ``rank >= cut``: the one
rule for a tie at the threshold in every path.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .bloom import _BLOCK, BloomFilter, FilterParams, params_for_target
from .errors import FilterFormatError, ParameterError
from .hashing import as_keys
from .scorers import Scorer, scorer_from_text, scorer_to_text

_LEN = struct.Struct("<Q")


def _at_or_above(scorer: Scorer, cut: float, keys: np.ndarray) -> np.ndarray:
    """``scorer.rank_batch(keys) >= cut`` for a uint64 key array, as one bool mask.

    Ranks :data:`_BLOCK` keys per ``rank_batch`` call, so each float temporary
    is at most 128 KB; a tie at ``cut`` counts as above, and a NaN ``cut`` as below.
    """
    mask = np.empty(keys.size, dtype=bool)
    for start in range(0, keys.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        np.greater_equal(scorer.rank_batch(keys[block]), cut, out=mask[block])
    return mask


def _count_at_or_above(scorer: Scorer, taus, batches) -> list[int]:
    """For each of ``taus``, how many keys in ``batches`` (uint64 arrays) are at or above it.

    The comparison :func:`_at_or_above` makes, with each tau's cut derived once and
    each :data:`_BLOCK` keys ranked once for every tau, so no temporary grows with a
    batch; an exact or sampled alpha and a sweep's key counts are this count.
    """
    cuts = [scorer.cut(tau) for tau in taus]
    counts = [0] * len(cuts)
    for keys in batches:
        for start in range(0, keys.size, _BLOCK):
            ranks = scorer.rank_batch(keys[start : start + _BLOCK])
            counts = [count + int(np.count_nonzero(ranks >= cut)) for count, cut in zip(counts, cuts)]
    return counts


def _sized_backup(backup: FilterParams | float, below: int) -> FilterParams:
    """``backup`` if it is sized already, else a filter for ``below`` keys at the rate ``backup``."""
    if isinstance(backup, FilterParams):
        return backup
    if not 0.0 < backup < 1.0:
        raise ParameterError(f"backup_target_fpp {backup} must lie in (0, 1)")
    if math.isinf(1.0 / backup):
        raise ParameterError(f"backup_target_fpp {backup} is too small: 1/backup_target_fpp overflows")
    return params_for_target(max(below, 1), backup)


class LearnedBloomFilter:
    """Composite membership filter with no false negatives.

    Ties at the threshold count as positive.  Only ``tau`` is stored; its cut is
    derived from it once, when the filter is made or loaded.  The structure is immutable for
    queries after build; ``insert`` requires exclusive access and there is no
    deletion.  ``inserted_after_build`` counts post-build insertions so
    reports can flag false-positive drift in the (smaller) backup filter.
    """

    def __init__(
        self,
        scorer: Scorer,
        tau: float,
        backup: BloomFilter,
        key_count: int,
        below_threshold_count: int,
        inserted_after_build: int = 0,
    ):
        if not 0.0 <= tau <= 1.0:
            raise ParameterError("threshold tau must lie in [0, 1]")
        self.scorer = scorer
        self.tau = float(tau)
        self._cut = scorer.cut(self.tau)  # derived once; only tau is stored
        self.backup = backup
        self.key_count = int(key_count)
        self.below_threshold_count = int(below_threshold_count)
        self.inserted_after_build = int(inserted_after_build)

    @classmethod
    def build(
        cls,
        keys,
        scorer: Scorer,
        tau: float,
        backup: FilterParams | float,
        seed: int,
    ) -> "LearnedBloomFilter":
        """Score every key, in blocks, and store the below-threshold ones in the backup filter.

        ``backup`` is the backup filter's ``FilterParams``, or its design false
        positive rate, in which case the backup is sized for exactly the keys
        found below ``tau``: ``params_for_target(max(below, 1), backup)``.
        """
        keys = as_keys(keys)
        if not keys.size:
            raise ParameterError("key set must be nonempty")
        if not 0.0 <= tau <= 1.0:
            raise ParameterError("threshold tau must lie in [0, 1]")
        below = keys[~_at_or_above(scorer, scorer.cut(tau), keys)]
        backup_filter = BloomFilter.from_params(_sized_backup(backup, below.size), seed)
        backup_filter.insert_many(below)
        return cls(
            scorer,
            tau,
            backup_filter,
            key_count=keys.size,
            below_threshold_count=below.size,
        )

    def contains(self, key) -> bool:
        """Positive iff the key is at or above tau (rank >= cut), or the backup filter reports it."""
        if self.scorer.rank(key) >= self._cut:
            return True
        return self.backup.contains(key)

    def classify_many(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """(at-or-above-tau mask, answers) for any key batch, :data:`_BLOCK` keys at a time.

        A block's keys below tau reach the backup in one :meth:`BloomFilter.contains_many`
        call, so nothing but the two masks grows with the batch.
        """
        keys = as_keys(keys)
        above = np.empty(keys.size, dtype=bool)
        answers = np.empty(keys.size, dtype=bool)
        for start in range(0, keys.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            hit = _at_or_above(self.scorer, self._cut, keys[block])
            above[block] = answers[block] = hit
            below = ~hit
            count = np.count_nonzero(below)
            if count:
                # a mask indexes fast only when nearly all True; else its indices are faster
                at = below if 32 * count >= 31 * below.size else np.flatnonzero(below)
                answers[block][at] = self.backup.contains_many(keys[block][at])
        return above, answers

    def contains_many(self, keys) -> np.ndarray:
        """Membership test over any key batch; a boolean array of :meth:`contains` answers."""
        return self.classify_many(keys)[1]

    def insert(self, key) -> bool:
        """Add a key; returns True when the backup filter was modified.

        A key that already tests positive (above threshold, or a backup hit)
        is left alone, so repeated inserts are no-ops.
        """
        if self.contains(key):
            return False
        self.backup.insert(key)
        self.inserted_after_build += 1
        return True

    def size_bits(self) -> int:
        """Scorer representation bits plus backup bit-array size (metadata excluded)."""
        return self.scorer.size_bits() + self.backup.m

    def build_fields(self) -> dict:
        """The build's counts and sizes: ``lbf build``'s summary and the repro report show these."""
        return {"key_count": self.key_count, "backup_keys": self.below_threshold_count,
                "backup_m": self.backup.m, "backup_k": self.backup.k,
                "scorer_bits": self.scorer.size_bits(), "total_bits": self.size_bits()}

    def to_bytes(self) -> bytes:
        """Length-prefixed concatenation: scorer record, hex-float tau, backup filter, counts."""
        meta = json.dumps(
            {
                "key_count": self.key_count,
                "below_threshold_count": self.below_threshold_count,
                "inserted_after_build": self.inserted_after_build,
            },
            sort_keys=True,
        )
        parts = [
            scorer_to_text(self.scorer).encode("utf-8"),
            float(self.tau).hex().encode("ascii"),
            self.backup.to_bytes(),
            meta.encode("utf-8"),
        ]
        return b"".join(_LEN.pack(len(p)) + p for p in parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "LearnedBloomFilter":
        parts = []
        offset = 0
        for _ in range(4):
            if offset + _LEN.size > len(data):
                raise FilterFormatError("truncated learned filter record")
            (length,) = _LEN.unpack_from(data, offset)
            offset += _LEN.size
            if offset + length > len(data):
                raise FilterFormatError("learned filter part overruns the record")
            parts.append(data[offset : offset + length])
            offset += length
        if offset != len(data):
            raise FilterFormatError("trailing bytes after learned filter record")
        scorer = scorer_from_text(parts[0])
        try:
            tau = float.fromhex(parts[1].decode("ascii"))
            meta = json.loads(parts[3].decode("utf-8"))
            names = ("key_count", "below_threshold_count", "inserted_after_build")
            counts = {name: meta[name] for name in names}
            for name, count in counts.items():
                if type(count) is not int or count < 0:  # type(): JSON's true loads as a bool
                    raise FilterFormatError(f"{name} {count!r} is not a non-negative integer")
            return cls(scorer, tau, BloomFilter.from_bytes(parts[2]), **counts)
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise FilterFormatError(f"malformed learned filter record: {exc}") from exc
