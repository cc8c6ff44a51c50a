"""Seeded, reproducible hashing for filter probes and seed derivation.

A key is an integer in [0, 2^64), Python or numpy.  :func:`_key` checks one
key and :func:`as_keys` a batch, into a uint64 array; every scalar and batch
entry point of the package passes its keys through one of the two, so they
accept and reject the same keys.  Probe sequences come from a 128-bit keyed
hash split into a pair (h1, h2) with h2 forced odd, probe i landing on
(h1 + i*h2) mod m.  The hash is a splitmix64-style mix of the key plus a
seed-derived offset; the scalar :func:`hash_pair` and the vectorized
:func:`hash_pair_batch` agree bit for bit.
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


def _mix64_batch(z: np.ndarray, scratch: np.ndarray) -> None:
    """:func:`_mix64` of every entry of the uint64 array ``z``, in place, through ``scratch``."""
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


def _seed_base(seed: int) -> int:
    return _mix64((seed & _MASK) ^ _SEED_SALT)


def _key(key) -> int:
    """The key as a Python int: an integer, Python or numpy, in [0, 2^64); else a ParameterError."""
    if isinstance(key, bool) or not isinstance(key, (int, np.integer)):
        raise ParameterError(f"keys are integers in [0, 2^64), not {type(key).__name__}")
    value = int(key)
    if not 0 <= value < 1 << 64:
        raise ParameterError(f"integer key {value} outside the 64-bit range")
    return value


def hash_pair(key: int, seed: int) -> tuple[int, int]:
    """128-bit keyed hash of the integer ``key`` split into (h1, h2), h2 odd."""
    z = (key + _seed_base(seed)) & _MASK
    return _mix64((z + _GOLDEN) & _MASK), _mix64((z + _GOLDEN2) & _MASK) | 1


def as_keys(keys) -> np.ndarray:
    """The key batch as a 1-D uint64 array, in order: the one key contract of every batch path.

    A batch is an array or any iterable of keys, never a single key (nor a 0-d array).  Every key
    must pass :func:`_key`; the first that does not raises its
    :class:`ParameterError`: an integer outside [0, 2^64), a float (integral
    too), a byte string, a string, ``None`` or a bool, Python or numpy.
    """
    if isinstance(keys, np.ndarray):
        if keys.ndim == 0:
            raise ParameterError("expected a batch of keys, got one ndarray")
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
    if not (plain_ints and 0 <= min(items, default=0) and max(items, default=0) < 1 << 64):
        items = [_key(k) for k in items]  # raises on the first key it rejects
    return np.fromiter(items, dtype=np.uint64, count=len(items))


def _held_keys(keys, distinct: bool = False) -> np.ndarray:
    """A read-only uint64 copy of a key batch, sorted and deduplicated if ``distinct``."""
    keys = as_keys(keys)
    held = np.sort(keys) if distinct else keys.copy()  # a copy: never freeze the caller's array
    if distinct and held.size:  # keep each key unlike its predecessor: np.unique is far slower
        held = held[np.concatenate(([True], held[1:] != held[:-1]))]
    held.flags.writeable = False
    return held


def hash_pair_batch(keys, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hash_pair` of every key of a batch (:func:`as_keys`), vectorized.

    Each hash is mixed in place in a new array: :func:`as_keys` may return the
    caller's own array, which is never written.
    """
    keys = as_keys(keys)
    base = _seed_base(seed)
    h1 = keys + np.uint64((base + _GOLDEN) & _MASK)
    h2 = keys + np.uint64((base + _GOLDEN2) & _MASK)
    scratch = np.empty_like(h1)
    _mix64_batch(h1, scratch)
    _mix64_batch(h2, scratch)
    h2 |= np.uint64(1)
    return h1, h2


def derive_seed(seed: int, label: str) -> int:
    """Stable per-component seed: keyed blake2b of the label, truncated to 64 bits.

    Every source of randomness in an experiment derives its own seed from one
    top-level seed this way, so a single value reproduces the whole run.
    """
    digest = hashlib.blake2b(
        label.encode("utf-8"), digest_size=8, key=(seed & _MASK).to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")
