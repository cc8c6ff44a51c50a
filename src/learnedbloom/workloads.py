"""Query workloads: sampleable distributions over the universe minus the key set.

A distribution is an immutable description of one source, a uniform range or a
fixed key list, less an exclusion.  It resolves the excluded positions once,
into a draw map: sampling draws each key straight from the eligible support, the
source's keys outside the exclusion, so no draw is rejected.  ``SUPPORT_LIMIT``
bounds the support that is enumerable: :func:`support_table`, the one walk of it,
and the held :class:`Marks` a draw is mapped through exist only at or below it;
past it, ``np.isin`` maps each draw.  Every sampled count reads :class:`Draws`,
``BLOCK`` draws at a time, within :func:`check_draws`'s ``DRAW_LIMIT``.  Also
provides the hot-range worked example (1000 keys, half clustered in one interval)
used by the reproduction experiments, and dataset file I/O.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bloom import _POPCOUNT
from .errors import OracleUnavailableError, ParameterError, WorkloadError
from .hashing import _held_keys, as_keys
from .scorers import IntervalScorer

BLOCK = 1 << 16  # positions per block of an eligible-support walk or of a draw stream
SUPPORT_LIMIT = 10**7  # largest eligible support that is walked or marked
DRAW_LIMIT = 10**8  # most draws one command makes, checked before its first


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

    def excluded_keys(self, exclusion: np.ndarray) -> np.ndarray:
        """The keys of the sorted, distinct ``exclusion`` in the range: a slice of it."""
        start = np.searchsorted(exclusion, np.uint64(self.lo))
        stop = np.searchsorted(exclusion, np.uint64(self.hi - 1), side="right")
        return exclusion[start:stop]

    def excluded_positions(self, exclusion: np.ndarray) -> np.ndarray:
        """Sorted uint64 positions of the keys the sorted, distinct ``exclusion`` holds."""
        return self.excluded_keys(exclusion) - np.uint64(self.lo)

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


class Mixture:
    """Empty, and not exported: a distribution has one component.  The benchmark's
    tracer (``perfbench/bench_trace.py``, ``_count_support``) still names this class;
    delete it in the change that rewrites that function."""


class Part(NamedTuple):
    """A distribution's draw map, held.

    A draw takes a position below ``cut``, the eligible count; ``low`` holds the
    excluded positions below ``cut`` and ``top`` the equally many eligible ones at or
    above it, in order, so a draw landing on ``low[i]`` becomes ``top[i]``.
    """

    cut: int
    low: np.ndarray
    top: np.ndarray


class Marks(NamedTuple):
    """A part's ``low`` over ``[0, cut)``, for a draw to learn with one gather whether it
    moves: position ``p`` is bit ``p % 8`` of ``bits[p // 8]``, and ``rank[b]`` counts the
    positions of ``low`` below byte ``b``, so a moved draw's index in ``low`` is its byte's
    rank plus the bits set below it.  Half a byte and one bit per position."""

    bits: np.ndarray
    rank: np.ndarray


def _marks(part: Part) -> Marks:
    on_low = np.zeros(part.cut, bool)
    on_low[part.low] = True
    bits = np.packbits(on_low, bitorder="little")
    del on_low
    rank = np.zeros(bits.size, np.uint32)  # low holds at most SUPPORT_LIMIT positions, < 2^32
    np.cumsum(_POPCOUNT[bits[:-1]], dtype=np.uint32, out=rank[1:])
    for held in (bits, rank):
        held.flags.writeable = False
    return Marks(bits, rank)


def _enumerable(part: Part) -> bool:
    """Whether the eligible support is at most ``SUPPORT_LIMIT``: the one reading of it."""
    return part.cut <= SUPPORT_LIMIT


def _part(source: UniformRange | FixedSet, exclusion: np.ndarray) -> Part:
    excluded = source.excluded_positions(exclusion)
    cut = source.size - excluded.size
    low = top = excluded
    if excluded.size:  # else cut may be 2**64, past uint64
        low = excluded[: np.searchsorted(excluded, np.uint64(cut))]
        free = np.ones(excluded.size, dtype=bool)  # positions cut..size-1
        free[excluded[low.size :] - np.uint64(cut)] = False
        top = np.uint64(cut) + np.flatnonzero(free).astype(np.uint64)
    for held in (low, top):
        held.flags.writeable = False
    return Part(cut, low, top)


@dataclass(frozen=True, eq=False)
class QueryDistribution:
    """A sampleable query description whose samples never land in ``exclusion``.

    ``exclusion`` may be any integer key batch (a set, a list, an array, ...);
    it is held as a read-only, sorted, deduplicated uint64 array.  ``part`` holds the
    source's :class:`Part`, resolved once.
    """

    source: UniformRange | FixedSet
    exclusion: np.ndarray = ()
    part: Part = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.source, (UniformRange, FixedSet)):
            raise ParameterError(f"unknown distribution source {type(self.source).__name__}")
        exclusion = _held_keys(self.exclusion, distinct=True)
        object.__setattr__(self, "exclusion", exclusion)
        object.__setattr__(self, "part", _part(self.source, exclusion))

    @functools.cached_property
    def marks(self) -> Marks | None:
        """The :class:`Marks` of the part's ``low``, or None where nothing moves or the
        eligible support is not enumerable; built at the first draws mapped to keys, then
        held, so a distribution only counted in closed form never pays for them."""
        part = self.part
        return _marks(part) if _enumerable(part) and part.low.size else None


def uniform_queries(lo: int, hi: int, exclude=()) -> QueryDistribution:
    return QueryDistribution(UniformRange(lo, hi), exclude)


def check_draws(counts, times: int = 1, per_set: int = 0) -> None:
    """A ParameterError unless each sample count is at least 1 and drawing each ``times``
    times, each set charged ``per_set`` draws more, stays within ``DRAW_LIMIT``."""
    if min(counts) < 1:
        raise ParameterError("sample count must be >= 1")
    if times * sum(n + per_set for n in counts) > DRAW_LIMIT:
        asked = " + ".join(map(str, counts)) + (f" + {len(counts)} x {per_set}" if per_set else "")
        asked = asked if times == 1 else f"{times} x ({asked})"
        raise ParameterError(f"{asked} draws exceed the draw limit {DRAW_LIMIT}")


def _keys_at(dist: QueryDistribution, pos: np.ndarray) -> np.ndarray:
    """The keys at raw positions below the part's cut; a position on ``low[i]`` becomes
    ``top[i]``, in ``pos`` itself.  Without marks, ``np.isin`` finds the moved draws."""
    part, marks = dist.part, dist.marks
    if marks is not None:
        byte = pos.view(np.int64) >> 3  # positions below a cut fit numpy's index type
        bit = np.left_shift(np.uint8(1), pos.astype(np.uint8) & np.uint8(7))
        held = marks.bits[byte]
        moved = np.flatnonzero((held & bit) != 0)  # a bool mask: nonzero counts it fastest
        rank = marks.rank[byte[moved]] + _POPCOUNT[held[moved] & (bit[moved] - np.uint8(1))]
        pos[moved] = part.top[rank]
    elif part.low.size:
        moved = np.isin(pos, part.low)
        pos[moved] = part.top[np.searchsorted(part.low, pos[moved])]
    return dist.source.keys_at(pos)


class Draws:
    """The ``n`` draws :func:`sample` joins, ``BLOCK`` at a time from one stream: iterated,
    each block's keys; :meth:`positions`, each block's raw positions, below the part's ``cut``.
    Made only for a count :func:`check_draws` accepts and a distribution with an eligible key."""

    def __init__(self, dist: QueryDistribution, n: int, rng_seed: int):
        check_draws([n])
        if not dist.part.cut:
            raise WorkloadError("exclusion removes the whole support")
        self.dist, self.n, self.rng_seed = dist, n, rng_seed

    def positions(self):
        rng, cut = np.random.default_rng(self.rng_seed), self.dist.part.cut
        for start in range(0, self.n, BLOCK):  # the blocks continue one Generator.integers stream
            yield rng.integers(0, cut, size=min(BLOCK, self.n - start), dtype=np.uint64)

    def __iter__(self):
        return (_keys_at(self.dist, pos) for pos in self.positions())


def sample(dist: QueryDistribution, n: int, rng_seed: int) -> np.ndarray:
    """Draw n i.i.d. keys from the source conditioned on missing the exclusion; none is rejected.

    A draw picks one of the source's eligible keys uniformly.  Deterministic for
    fixed (dist, n, rng_seed).  Raises WorkloadError when no key is eligible.
    """
    return np.concatenate(list(Draws(dist, n, rng_seed)))


def support_table(dist: QueryDistribution, answer) -> np.ndarray:
    """``answer(keys)`` at each eligible position: one array of ``answer``'s dtype, indexed
    by raw position below the part's ``cut``.

    Position ``i`` holds the answer for the key at ``i``, or at ``top[j]`` when ``i`` is
    ``low[j]``: the key :func:`sample` draws for it.  ``answer`` gets ``BLOCK`` keys at a
    time, each eligible key once, after one call on no keys that gives the dtype.  Raises
    OracleUnavailableError, before answering any key, when more than ``SUPPORT_LIMIT``
    keys are eligible.
    """
    part = dist.part
    if not _enumerable(part):
        raise OracleUnavailableError(f"eligible support of {part.cut} exceeds the enumeration"
                                     f" limit {SUPPORT_LIMIT}")
    table = np.empty(part.cut, answer(np.empty(0, np.uint64)).dtype)
    for start in range(0, part.cut, BLOCK):
        stop = min(start + BLOCK, part.cut)
        pos = np.arange(start, stop, dtype=np.uint64)
        first, last = np.searchsorted(part.low, np.array([start, stop], dtype=np.uint64))
        pos[part.low[first:last] - np.uint64(start)] = part.top[first:last]
        table[start:stop] = answer(dist.source.keys_at(pos))
    return table


# ---------------------------------------------------------------------------
# The hot-range worked example.

UNIVERSE_SIZE = 1_000_000
HOT_LO = 1000
HOT_HI = 2000  # closed interval [1000, 2000]
RESTRICTED_HI = 100_000  # restricted-range queries: [0, 100000), the reported figure's range


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

    def restricted_range_queries(self) -> QueryDistribution:
        return uniform_queries(0, RESTRICTED_HI, self.keys)


def hot_range_example(seed: int) -> tuple[HotRangeExample, IntervalScorer, float]:
    """Build the worked example: dataset, its hand-set scorer, and threshold 0.4.

    The scorer returns 0.5 on the hot interval and 0 elsewhere, so with the
    0.4 threshold every in-range key clears the pre-filter and exactly the
    500 outside keys land in the backup filter.
    """
    rng = np.random.default_rng(seed)
    hot = np.arange(HOT_LO, HOT_HI + 1, dtype=np.uint64)
    in_range = np.sort(rng.choice(hot, size=500, replace=False))
    # indices into the keys outside the hot interval, in order, each at or past HOT_LO
    # stepped over the interval: rng.choice's draw from an array of those keys, unbuilt
    hot_size = HOT_HI + 1 - HOT_LO
    outside = rng.choice(UNIVERSE_SIZE - hot_size, size=500, replace=False)
    outside[outside >= HOT_LO] += hot_size
    outside = np.sort(outside.astype(np.uint64))
    example = HotRangeExample(keys_in_range=in_range, keys_outside=outside)
    scorer = IntervalScorer(((HOT_LO, HOT_HI),), inside_score=0.5, outside_score=0.0)
    return example, scorer, 0.4


# ---------------------------------------------------------------------------
# Dataset files: decimal text keys, and key=value config files.


def save_keys_text(path, keys) -> None:
    """The key batch as newline-delimited decimal integers, as :func:`load_keys_text` reads them.

    Every key passes :func:`as_keys` before the file is opened.
    """
    text = "".join(f"{key}\n" for key in as_keys(keys).tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


_SPACES = " \t\r\v\f"  # the key grammar's space-like bytes
_SPACE_BYTES = _SPACES.encode()
_OUTSIDE_GRAMMAR = re.compile(rb"[^0-9\n \t\r\v\f]")
_SHARED_RUN = re.compile(rb"[0-9][ \t\r\v\f]+[0-9]")  # two digit runs on one line
_KEY_MAX_DIGITS = np.frombuffer(b"18446744073709551615", np.uint8)  # 2^64 - 1


def _above_key_max(text: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The starts, of ``starts``, of the 20-digit runs of ``text`` above 2^64 - 1, compared
    digit column by digit column; a column reads only the runs equal to 2^64 - 1 so far."""
    above, tied = [], starts
    for column, limit in enumerate(_KEY_MAX_DIGITS):
        digits = text[tied + column]
        above.append(tied[digits > limit])
        tied = tied[digits == limit]
    return np.concatenate(above)


def parse_keys_text(data: bytes) -> tuple[np.ndarray, int | None]:
    """Key text under the key-file grammar: ``(keys, bad)``.

    The grammar: each line, ended by a newline byte or by the end of the text,
    is blank or holds one key, 1-20 ASCII digits of value below 2^64, with
    optional ASCII space-like bytes (space, tab, CR, VT, FF) around it.  If
    every line obeys, ``bad`` is None and ``keys`` holds the keys as a uint64
    array in text order; otherwise ``bad`` is the 0-based index of the first
    line that does not, and ``keys`` is empty.

    Each check refuses only bad lines and names the first line it refuses, and
    together they cover the grammar, so the first bad line is the smallest named:
    a byte outside the grammar, a line of more than 20 digits or of 20 above
    2^64 - 1 (:func:`_stripped_lines`), and two digit runs on one line, which
    ``np.fromstring`` reads as two keys and which are searched for only in a
    refused text that holds a space.
    """
    others = data.translate(None, b"0123456789\n")
    stray = len(others.translate(None, _SPACE_BYTES))  # bytes outside the grammar
    spaced = stray < len(others)
    del others  # freed before the line arrays, to hold the peak near the text size
    lines, bad = _stripped_lines(data, spaced)
    if stray:
        bad.append(data.count(b"\n", 0, _OUTSIDE_GRAMMAR.search(data).start()))
    if not bad:
        # only after the checks: fromstring saturates a key above 2^64 - 1, stops silently
        # at a bad token, and reads a text of blank lines as one 0
        keys = np.fromstring(data, np.uint64, sep=" ") if lines else np.zeros(0, np.uint64)
        if keys.size == lines:
            return keys, None
    if spaced and (shared := _SHARED_RUN.search(data)):
        bad.append(data.count(b"\n", 0, shared.start()))
    if not bad:  # a text no check refuses reads one key a nonblank line
        raise ParameterError(f"{lines} keys read as {keys.size}")
    return np.zeros(0, np.uint64), min(bad)


def _stripped_lines(data: bytes, spaced: bool) -> tuple[int, list[int]]:
    """The count of nonblank lines of ``data`` with its spaces removed (it has some if
    ``spaced``), and the index of the first line longer than 20 bytes and of the first
    20-byte line above 2^64 - 1, where there is one."""
    text = np.frombuffer(data.translate(None, _SPACE_BYTES) if spaced else data, np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    starts = np.concatenate([[0], ends + 1])
    length = np.append(ends, text.size) - starts
    bad = np.flatnonzero(length > 20)[:1].tolist()
    above = _above_key_max(text, starts[length == 20])
    if above.size:
        bad.append(int(np.searchsorted(starts, above.min())))
    return int(np.count_nonzero(length)), bad


def load_keys_text(path) -> np.ndarray:
    """The keys of a key file as a uint64 array in file order.

    A file that breaks the grammar of :func:`parse_keys_text` raises
    ParameterError naming the file and its first bad line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    keys, bad = parse_keys_text(data)
    if bad is not None:
        raise ParameterError(f"{path}: line {bad + 1}: not a decimal integer key")
    return keys


def read_manifest(path) -> dict:
    """``key=value`` lines of a UTF-8 text file (blank lines skipped) as a dict; a line
    loses only its newline and the key grammar's spaces, so a value reads as a flag's."""
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip(_SPACES + "\n")
                if not line:
                    continue
                key, _, value = line.partition("=")
                entries[key] = value
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text: {exc}") from None
    return entries
