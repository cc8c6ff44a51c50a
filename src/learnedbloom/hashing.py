"""Seeded, reproducible hashing for filter probes and seed derivation.

Keys are arbitrary byte strings; integer keys are canonically encoded as
8-byte little-endian words.  Probe sequences come from a 128-bit keyed
hash split into a pair (h1, h2) with h2 forced odd, probe i landing on
(h1 + i*h2) mod m.  Exactly 8-byte keys take a splitmix64-style mixing
path that vectorizes with numpy; all other lengths go through keyed
blake2b.  Both paths are deterministic functions of (key bytes, seed),
and the scalar and batch paths agree bit for bit.

:func:`as_keys` is the one boundary every batch entry point passes its
keys through, so a batch accepts and rejects exactly what the per-key
:func:`encode_key` does.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ParameterError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN2 = (2 * _GOLDEN) & _MASK
_SEED_SALT = 0xA0761D6478BD642F


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_batch(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _seed_base(seed: int) -> int:
    return _mix64((seed & _MASK) ^ _SEED_SALT)


def encode_key(key) -> bytes:
    """Canonical byte encoding: bytes pass through, integers become 8-byte little-endian."""
    if isinstance(key, (bytes, bytearray)):
        return bytes(key)
    if isinstance(key, (int, np.integer)):
        value = int(key)
        if not 0 <= value < 1 << 64:
            raise ParameterError(f"integer key {value} outside the 64-bit range")
        return value.to_bytes(8, "little")
    raise ParameterError(f"unsupported key type {type(key).__name__}")


def hash_pair(key: bytes, seed: int) -> tuple[int, int]:
    """128-bit keyed hash of ``key`` split into (h1, h2), h2 odd."""
    if len(key) == 8:
        z = (int.from_bytes(key, "little") + _seed_base(seed)) & _MASK
        h1 = _mix64((z + _GOLDEN) & _MASK)
        h2 = _mix64((z + _GOLDEN2) & _MASK)
    else:
        digest = hashlib.blake2b(
            key, digest_size=16, key=(seed & _MASK).to_bytes(8, "little")
        ).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little")
    return h1, h2 | 1


def as_keys(keys) -> np.ndarray:
    """The key batch as a 1-D array, in order: the one key contract of every batch path.

    A batch is an array or any iterable of keys, never a single key.  If every
    key is an integer in [0, 2^64), Python or numpy, the result is a uint64
    array (the vectorized path).  Otherwise, if every key is such an integer
    or a byte string, it is an object array of the :func:`encode_key` bytes,
    trailing NULs kept, which batch paths handle key by key (a numpy ``S``
    array has already dropped its NULs).  A key :func:`encode_key` rejects
    raises :class:`ParameterError`: an integer outside [0, 2^64), a float
    (integral too), a string, ``None`` or a numpy bool.
    """
    if isinstance(keys, np.ndarray):
        keys = keys.ravel()
        if keys.dtype.kind == "u":
            return keys.astype(np.uint64, copy=False)
        if keys.dtype.kind == "i":
            if keys.size and keys.min() < 0:
                raise ParameterError(f"integer key {int(keys.min())} outside the 64-bit range")
            return keys.astype(np.uint64)
    elif isinstance(keys, (bytes, bytearray, str)) or not np.iterable(keys):
        raise ParameterError(f"expected a batch of keys, got one {type(keys).__name__}")
    items = list(keys)
    plain_ints = set(map(type, items)) <= {int}
    if plain_ints and 0 <= min(items, default=0) and max(items, default=0) < 1 << 64:
        return np.fromiter(items, dtype=np.uint64, count=len(items))
    encoded = [encode_key(k) for k in items]  # raises on the first key it rejects
    if all(isinstance(k, (int, np.integer)) for k in items):
        return np.array([int(k) for k in items], dtype=np.uint64)
    return np.fromiter(encoded, dtype=object, count=len(encoded))


def hash_pair_batch(keys, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hash_pair` over a key batch: integer batches vectorize, byte batches go key by key."""
    keys = as_keys(keys)
    if keys.dtype == object:
        pairs = np.array([hash_pair(k, seed) for k in keys], dtype=np.uint64)
        return pairs[:, 0], pairs[:, 1]
    z = keys + np.uint64(_seed_base(seed))
    h1 = _mix64_batch(z + np.uint64(_GOLDEN))
    h2 = _mix64_batch(z + np.uint64(_GOLDEN2))
    return h1, h2 | np.uint64(1)


def derive_seed(seed: int, label: str) -> int:
    """Stable per-component seed: keyed blake2b of the label, truncated to 64 bits.

    Every source of randomness in an experiment derives its own seed from one
    top-level seed this way, so a single value reproduces the whole run.
    """
    digest = hashlib.blake2b(
        label.encode("utf-8"), digest_size=8, key=(seed & _MASK).to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")
