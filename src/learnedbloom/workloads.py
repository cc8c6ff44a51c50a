"""Query workloads: sampleable distributions over the universe minus the key set.

Distributions are immutable descriptions; a distribution resolves each
component's excluded positions once, into a draw map: sampling draws each key
straight from the eligible support, the source's keys outside the exclusion, so
no draw is rejected, and the exact oracles walk that support ``BLOCK`` keys at a
time.  Also provides the hot-range worked example (1000 keys, half clustered in
one interval) used by the reproduction experiments, and dataset file I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ParameterError, WorkloadError
from .hashing import _held_keys, as_keys
from .scorers import IntervalScorer

BLOCK = 1 << 16  # positions per block of an eligible-support walk


@dataclass(frozen=True)
class UniformRange:
    """Uniform integers in [lo, hi)."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 0 <= self.lo < self.hi <= 1 << 64:
            raise ParameterError(f"invalid range [{self.lo}, {self.hi})")

    @property
    def size(self) -> int:
        return self.hi - self.lo

    def excluded_positions(self, exclusion: np.ndarray) -> np.ndarray:
        """Sorted uint64 positions of the keys the sorted, distinct ``exclusion`` holds."""
        start = np.searchsorted(exclusion, np.uint64(self.lo))
        stop = np.searchsorted(exclusion, np.uint64(self.hi - 1), side="right")
        return exclusion[start:stop] - np.uint64(self.lo)

    def keys_at(self, positions: np.ndarray) -> np.ndarray:
        return positions + np.uint64(self.lo)


@dataclass(frozen=True, eq=False)
class FixedSet:
    """Uniform over an explicit key list (duplicates weight accordingly), held as uint64."""

    keys: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "keys", _held_keys(self.keys))
        if not self.keys.size:
            raise ParameterError("fixed key set must be nonempty")

    @property
    def size(self) -> int:
        return int(self.keys.size)

    def excluded_positions(self, exclusion: np.ndarray) -> np.ndarray:
        """Sorted uint64 positions of the keys ``exclusion`` holds."""
        return np.flatnonzero(np.isin(self.keys, exclusion)).astype(np.uint64)

    def keys_at(self, positions: np.ndarray) -> np.ndarray:
        return self.keys[positions]


@dataclass(frozen=True)
class Mixture:
    """Weighted mixture of uniform-range / fixed-set components."""

    components: tuple
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.components) != len(self.weights) or not self.components:
            raise ParameterError("mixture needs matching, nonempty components and weights")
        if not all(isinstance(c, (UniformRange, FixedSet)) for c in self.components):
            raise ParameterError("mixture components must be uniform ranges or fixed sets")
        if any(w <= 0 for w in self.weights):
            raise ParameterError("mixture weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ParameterError("mixture weights must sum to 1 within 1e-12")


class Part(NamedTuple):
    """One component of a distribution, its weight and its draw map, all held.

    A draw takes a position below ``cut``, the eligible count; ``low`` holds the
    excluded positions below ``cut`` and ``top`` the equally many eligible ones at or
    above it, in order, so a draw landing on ``low[i]`` becomes ``top[i]``.
    """

    component: UniformRange | FixedSet
    weight: float
    cut: int
    low: np.ndarray
    top: np.ndarray


def _part(component: UniformRange | FixedSet, weight: float, exclusion: np.ndarray) -> Part:
    excluded = component.excluded_positions(exclusion)
    cut = component.size - excluded.size
    low = top = excluded
    if excluded.size:  # else cut may be 2**64, past uint64
        low = excluded[: np.searchsorted(excluded, np.uint64(cut))]
        free = np.ones(excluded.size, dtype=bool)  # positions cut..size-1
        free[excluded[low.size :] - np.uint64(cut)] = False
        top = np.uint64(cut) + np.flatnonzero(free).astype(np.uint64)
    for held in (low, top):
        held.flags.writeable = False
    return Part(component, weight, cut, low, top)


@dataclass(frozen=True, eq=False)
class QueryDistribution:
    """A sampleable query description whose samples never land in ``exclusion``.

    ``exclusion`` may be any integer key batch (a set, a list, an array, ...);
    it is held as a read-only, sorted, deduplicated uint64 array.  ``parts`` holds a
    :class:`Part` per component, resolved once; a lone component weighs 1.0.
    """

    source: UniformRange | FixedSet | Mixture
    exclusion: np.ndarray = ()
    parts: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.source, (UniformRange, FixedSet, Mixture)):
            raise ParameterError(f"unknown distribution source {type(self.source).__name__}")
        exclusion = _held_keys(self.exclusion, distinct=True)
        object.__setattr__(self, "exclusion", exclusion)
        mix = self.source if isinstance(self.source, Mixture) else Mixture((self.source,), (1.0,))
        parts = tuple(_part(c, w, exclusion) for c, w in zip(mix.components, mix.weights))
        object.__setattr__(self, "parts", parts)


def uniform_queries(lo: int, hi: int, exclude=()) -> QueryDistribution:
    return QueryDistribution(UniformRange(lo, hi), exclude)


def _check_sample_count(n: int) -> None:
    """A ParameterError unless ``n`` is at least 1 and numpy would allocate ``n`` draws."""
    if n < 1:
        raise ParameterError("sample count must be >= 1")
    try:
        np.empty(n, dtype=np.uint64)
    except (MemoryError, ValueError) as exc:  # numpy refuses at once, allocating nothing
        raise ParameterError(f"sample count {n} is too large to allocate") from exc


def _draw_positions(
    dist: QueryDistribution, n: int, rng_seed: int
) -> tuple[np.ndarray | None, tuple[np.ndarray, ...]]:
    """The random part of :func:`sample`: each draw's part index, and each part's raw positions.

    The index array is None for a lone component.  The positions of a part lie
    below its ``cut``, in draw order; a part no draw picked gets an empty
    array.  Raises ParameterError when ``n`` cannot be allocated and WorkloadError
    when no key is eligible, before drawing anything.
    """
    _check_sample_count(n)
    mass = [p.weight * p.cut / p.component.size for p in dist.parts]
    if not any(mass):
        raise WorkloadError("exclusion removes the whole support")
    rng = np.random.default_rng(rng_seed)
    if len(mass) == 1:
        return None, (rng.integers(0, dist.parts[0].cut, size=n, dtype=np.uint64),)
    which = rng.choice(len(mass), size=n, p=np.array(mass) / sum(mass))
    counts = np.bincount(which, minlength=len(mass))
    return which, tuple(
        rng.integers(0, part.cut, size=int(count), dtype=np.uint64) if count
        else np.empty(0, dtype=np.uint64)
        for part, count in zip(dist.parts, counts)
    )


def _keys_at(part: Part, pos: np.ndarray) -> np.ndarray:
    """The keys at raw positions below a part's cut; a position on ``low[i]`` becomes
    ``top[i]``, in ``pos`` itself."""
    if part.low.size:
        moved = np.isin(pos, part.low)
        pos[moved] = part.top[np.searchsorted(part.low, pos[moved])]
    return part.component.keys_at(pos)


def _eligible_blocks(part: Part) -> Iterator[np.ndarray]:
    """A part's eligible keys in raw-position order, ``BLOCK`` positions at a time: position
    ``i`` yields the key at ``i``, or at ``top[j]`` when ``i`` is ``low[j]``, as in :func:`sample`."""
    for start in range(0, part.cut, BLOCK):
        stop = min(start + BLOCK, part.cut)
        pos = np.arange(start, stop, dtype=np.uint64)
        first, last = np.searchsorted(part.low, np.array([start, stop], dtype=np.uint64))
        pos[part.low[first:last] - np.uint64(start)] = part.top[first:last]
        yield part.component.keys_at(pos)


def sample(dist: QueryDistribution, n: int, rng_seed: int) -> np.ndarray:
    """Draw n i.i.d. keys from the source conditioned on missing the exclusion; none is rejected.

    A draw picks a component by its weight times its eligible share, then one of
    its eligible keys uniformly.  Deterministic for fixed (dist, n, rng_seed).
    Raises WorkloadError when no key is eligible.
    """
    which, positions = _draw_positions(dist, n, rng_seed)
    if which is None:
        return _keys_at(dist.parts[0], positions[0])
    out = np.empty(n, dtype=np.uint64)
    for ci, (part, pos) in enumerate(zip(dist.parts, positions)):
        if pos.size:
            out[which == ci] = _keys_at(part, pos)
    return out


# ---------------------------------------------------------------------------
# The hot-range worked example.

UNIVERSE_SIZE = 1_000_000
HOT_LO = 1000
HOT_HI = 2000  # closed interval [1000, 2000]


@dataclass(frozen=True, eq=False)
class HotRangeExample:
    """1000-key dataset over [0, 1000000): 500 keys in [1000, 2000], 500 outside, held as uint64."""

    keys_in_range: np.ndarray
    keys_outside: np.ndarray
    universe_size: int = field(default=UNIVERSE_SIZE, init=False)
    hot_lo: int = field(default=HOT_LO, init=False)
    hot_hi: int = field(default=HOT_HI, init=False)

    def __post_init__(self):
        for name in ("keys_in_range", "keys_outside"):
            object.__setattr__(self, name, _held_keys(getattr(self, name)))
        if _held_keys(self.keys, distinct=True).size != self.keys.size:
            raise ParameterError("example keys must be distinct")

    @property
    def keys(self) -> np.ndarray:
        """The in-range keys, then the outside ones."""
        return np.concatenate([self.keys_in_range, self.keys_outside])

    def full_range_queries(self) -> QueryDistribution:
        return uniform_queries(0, self.universe_size, self.keys)

    def restricted_range_queries(self, hi: int = 100_000) -> QueryDistribution:
        return uniform_queries(0, hi, self.keys)


def hot_range_example(seed: int) -> tuple[HotRangeExample, IntervalScorer, float]:
    """Build the worked example: dataset, its hand-set scorer, and threshold 0.4.

    The scorer returns 0.5 on the hot interval and 0 elsewhere, so with the
    0.4 threshold every in-range key clears the pre-filter and exactly the
    500 outside keys land in the backup filter.
    """
    rng = np.random.default_rng(seed)
    hot = np.arange(HOT_LO, HOT_HI + 1, dtype=np.uint64)
    in_range = np.sort(rng.choice(hot, size=500, replace=False))
    rest = np.concatenate(
        [np.arange(0, HOT_LO, dtype=np.uint64), np.arange(HOT_HI + 1, UNIVERSE_SIZE, dtype=np.uint64)]
    )
    outside = np.sort(rng.choice(rest, size=500, replace=False))
    example = HotRangeExample(keys_in_range=in_range, keys_outside=outside)
    scorer = IntervalScorer(((HOT_LO, HOT_HI),), inside_score=0.5, outside_score=0.0)
    return example, scorer, 0.4


# ---------------------------------------------------------------------------
# Dataset files: decimal text keys, and key=value config files.


def save_keys_text(path, keys) -> None:
    """Newline-delimited decimal integers."""
    with open(path, "w", encoding="ascii") as fh:
        for key in keys:
            fh.write(f"{int(key)}\n")


def load_keys_text(path) -> np.ndarray:
    """Newline-delimited decimal integers, blank lines skipped, as a uint64 array in file order.

    A line that is no integer, or a key outside [0, 2^64), raises ParameterError.
    """
    with open(path, "rb") as fh:
        lines = fh.readlines()
    try:
        keys = [int(line) for line in lines if line.strip()]
    except ValueError:
        number = next(n for n, line in enumerate(lines, 1) if not _is_key_line(line))
        raise ParameterError(f"{path}: line {number}: not a decimal integer key") from None
    return as_keys(keys)  # outside the try: ParameterError is a ValueError


def _is_key_line(line: bytes) -> bool:
    """True for a line :func:`load_keys_text` accepts: an integer, or blank."""
    try:
        int(line)
    except ValueError:
        return not line.strip()
    return True


def read_manifest(path) -> dict:
    """``key=value`` lines of a UTF-8 text file (blank lines skipped) as a dict."""
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                key, _, value = line.partition("=")
                entries[key] = value
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text: {exc}") from None
    return entries
