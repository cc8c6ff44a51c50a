"""Query distributions, sampling, the worked-example dataset, and file I/O."""

import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from learnedbloom import learned, workloads
from learnedbloom.bloom import BloomFilter, FilterParams
from learnedbloom.errors import OracleUnavailableError, ParameterError, WorkloadError
from learnedbloom.evaluation import (
    concentration_experiment,
    evaluate,
    exact_alpha,
    theorem_bound,
)
from learnedbloom.hashing import derive_seed
from learnedbloom.learned import LearnedBloomFilter
from learnedbloom.scorers import IntervalScorer, LogisticScorer
from learnedbloom.workloads import (
    BLOCK,
    DRAW_LIMIT,
    SUPPORT_LIMIT,
    Draws,
    FixedSet,
    HotRangeExample,
    QueryDistribution,
    UniformRange,
    check_draws,
    hot_range_example,
    load_keys_text,
    read_manifest,
    sample,
    save_keys_text,
    support_blocks,
    support_table,
    uniform_queries,
)

# 0.999 quantile of the chi-square distribution with 19 degrees of freedom
CHI2_CRIT_19_DOF = 43.8202
Z_0999 = 3.090232  # 0.999 quantile of the standard normal


def _chi2_crit_0999(dof: int) -> float:
    """Wilson-Hilferty approximation of the chi-square 0.999 quantile.

    It lies a little above the exact quantile at small dof (11.16 against
    10.83 at 1, 43.95 against 43.82 at 19), so the test it gates errs lenient.
    """
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + Z_0999 * a**0.5) ** 3


class TestSampling:
    def test_forced_support(self):
        dist = uniform_queries(0, 10, exclude=range(9))
        out = sample(dist, 100, rng_seed=1)
        assert (out == 9).all()

    def test_empty_support_errors(self):
        dist = uniform_queries(0, 10, exclude=range(10))
        with pytest.raises(WorkloadError):
            sample(dist, 1, rng_seed=1)

    def test_rejects_zero_samples(self):
        with pytest.raises(ParameterError):
            sample(uniform_queries(0, 10), 0, rng_seed=1)

    def test_unallocatable_sample_count_is_a_parameter_error(self):
        # past the draw limit: refused before any draw
        with pytest.raises(ParameterError, match="10000000000000"):
            sample(uniform_queries(0, 10), 10**13, rng_seed=1)

    def test_deterministic_given_seed(self):
        dist = uniform_queries(0, 1_000_000, exclude=(1, 2, 3))
        a = sample(dist, 5000, rng_seed=42)
        b = sample(dist, 5000, rng_seed=42)
        c = sample(dist, 5000, rng_seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "cut", [1, 2, 97, 999_000, 2**32 - 1, 2**32, 2**32 + 1, 2**33 + 7, 2**63 + 5, 2**64 - 1, 2**64]
    )
    def test_integers_drawn_in_blocks_equal_one_call(self, cut):
        # the premise of drawing BLOCK positions at a time: below 2^32 numpy draws 32-bit
        # halves, and the half left over by a block goes to the next one
        whole = np.random.default_rng(9).integers(0, cut, size=5000, dtype=np.uint64)
        for block in [1, 3, 7, 1000, 4096]:
            rng = np.random.default_rng(9)
            drawn = [rng.integers(0, cut, size=min(block, 5000 - start), dtype=np.uint64)
                     for start in range(0, 5000, block)]
            assert np.concatenate(drawn).tolist() == whole.tolist()

    @pytest.mark.parametrize("block", [7, 4096])
    def test_draws_do_not_depend_on_the_block(self, monkeypatch, block):
        dists = [uniform_queries(0, 1_000_000, range(0, 1_000_000, 3)),
                 uniform_queries(0, 1 << 64, [5, 1 << 40]),
                 QueryDistribution(FixedSet(np.arange(50_000) % 977), range(0, 977, 2))]
        whole = [sample(dist, 9000, rng_seed=4) for dist in dists]
        monkeypatch.setattr(workloads, "BLOCK", block)
        for dist, drawn in zip(dists, whole):
            draws = Draws(dist, 9000, rng_seed=4)
            assert [len(keys) for keys in draws] == [min(block, 9000 - s) for s in range(0, 9000, block)]
            assert np.concatenate(list(draws)).tolist() == drawn.tolist()
            assert sample(dist, 9000, rng_seed=4).tolist() == drawn.tolist()

    def test_the_draw_limit_is_checked_before_a_draw(self):
        check_draws([DRAW_LIMIT])
        check_draws([DRAW_LIMIT // 2 - 4096, DRAW_LIMIT // 2 - 4096], per_set=4096)
        check_draws([9, 1], times=DRAW_LIMIT // 10)
        for counts, times, per_set, asked in [
            ([DRAW_LIMIT + 1], 1, 0, f"{DRAW_LIMIT + 1}"),
            ([DRAW_LIMIT // 2, 1], 2, 0, f"2 x ({DRAW_LIMIT // 2} + 1)"),
            ([1, 1], 10**9, 4096, "1000000000 x (1 + 1 + 2 x 4096)"),
        ]:
            with pytest.raises(ParameterError) as refused:
                check_draws(counts, times, per_set)
            assert str(refused.value) == f"{asked} draws exceed the draw limit {DRAW_LIMIT}"
        with pytest.raises(ParameterError, match="^sample count must be >= 1$"):
            check_draws([5, 0], times=DRAW_LIMIT)  # a count below 1 is named first
        with pytest.raises(ParameterError, match=f"^{DRAW_LIMIT + 1} draws exceed"):
            Draws(uniform_queries(0, 10), DRAW_LIMIT + 1, 1)  # refused when made

    def test_fixed_set_source(self):
        dist = QueryDistribution(FixedSet((4, 8, 15)), frozenset({8}))
        out = sample(dist, 2000, rng_seed=3)
        assert set(out.tolist()) == {4, 15}

    def test_fixed_set_with_duplicates_respects_exclusion(self):
        fixed = FixedSet((0, 1, 2, 3, 100, 101, 101))
        out = sample(QueryDistribution(fixed, frozenset({0, 1, 100})), 2000, rng_seed=6)
        assert set(out.tolist()) == {2, 3, 101}

    def test_uniformity_chi_square(self):
        out = sample(uniform_queries(0, 2000), 100_000, rng_seed=0)
        counts = np.bincount((out // 100).astype(np.int64), minlength=20)
        expected = 100_000 / 20
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_CRIT_19_DOF


class TestSparseSupport:
    def test_one_eligible_key_among_two_million(self):
        dist = uniform_queries(0, 2_000_000, exclude=np.arange(1, 2_000_000))
        for seed in range(10):
            assert sample(dist, 1, seed).tolist() == [0]

    def test_few_eligible_keys_are_drawn_at_once(self):
        rng = np.random.default_rng(0)
        eligible = np.sort(rng.choice(100_000, size=10, replace=False))
        dist = uniform_queries(0, 100_000, exclude=np.setdiff1d(np.arange(100_000), eligible))
        out = sample(dist, 2000, rng_seed=1)
        assert set(out.tolist()) == set(eligible.tolist())

    def test_top_of_the_universe(self):
        # compared as Python ints: numpy 1.24 and numpy 2 disagree on uint64 < 2**64
        dist = uniform_queries(2**64 - 3, 2**64, exclude=[2**64 - 3, 2**64 - 1])
        for seed in range(5):
            assert set(sample(dist, 200, seed).tolist()) == {2**64 - 2}

    def test_whole_universe(self):
        out = sample(uniform_queries(0, 2**64, exclude=[0, 2**64 - 1]), 1000, rng_seed=2)
        assert out.dtype == np.uint64
        assert not {0, 2**64 - 1} & set(out.tolist())

    def test_whole_universe_without_exclusion(self):
        out = sample(uniform_queries(0, 2**64), 1000, rng_seed=2)
        assert out.dtype == np.uint64 and out.size == 1000


_COMPONENTS = st.one_of(
    st.builds(lambda lo, size: UniformRange(lo, lo + size), st.integers(0, 40), st.integers(1, 12)),
    st.lists(st.integers(0, 50), min_size=1, max_size=12).map(FixedSet),  # duplicates weigh more
)


def _component_keys(component) -> list:
    if isinstance(component, UniformRange):
        return list(range(component.lo, component.hi))
    return component.keys.tolist()


@st.composite
def _distributions(draw):
    """A range or a fixed set, with a random exclusion."""
    source = draw(_COMPONENTS)
    keys = sorted(set(_component_keys(source)) | {60, 61})
    return QueryDistribution(source, draw(st.sets(st.sampled_from(keys))))


# a fixed set with duplicates, one of them excluded: each position weighs the same
_DUPLICATES = QueryDistribution(FixedSet([3, 3, 3, 9, 9, 20, 20, 41, 60]), [9])


@pytest.fixture
def small_blocks(monkeypatch):
    """Walk eligible supports 3 positions at a time, and score them 2 keys at a time, so
    a support of up to 63 keys crosses many block edges and its exclusions land on them."""
    monkeypatch.setattr(workloads, "BLOCK", 3)
    monkeypatch.setattr(learned, "_BLOCK", 2)


# the fixture sets one constant, the same for every example
_ACROSS_BLOCKS = dict(suppress_health_check=[HealthCheck.function_scoped_fixture])


def _exact_law(dist) -> dict:
    """Key -> exact probability: the source's positions less the excluded ones, each
    equally likely (the law rejection converges to), so a duplicate key counts twice."""
    excluded = set(dist.exclusion.tolist())
    counts = Counter(key for key in _component_keys(dist.source) if key not in excluded)
    total = sum(counts.values())
    return {key: Fraction(count, total) for key, count in counts.items()}


def _past_the_limit(patch, dist):
    """Patch ``SUPPORT_LIMIT`` one below ``dist``'s eligible count."""
    patch.setattr(workloads, "SUPPORT_LIMIT", dist.part.cut - 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dist=_distributions(), seed=st.integers(0, 2**32), enumerable=st.booleans())
@example(dist=_DUPLICATES, seed=0, enumerable=True)
@example(dist=_DUPLICATES, seed=0, enumerable=False)
def test_draws_follow_the_exact_law_of_the_eligible_support(dist, seed, enumerable):
    law = _exact_law(dist)
    if not law:
        with pytest.raises(WorkloadError, match="whole support"):
            sample(dist, 1, rng_seed=seed)
        return
    n = 4000
    with pytest.MonkeyPatch.context() as patch:
        if not enumerable:  # past the limit, a searchsorted in low maps each draw
            _past_the_limit(patch, dist)
        counts = Counter(sample(dist, n, rng_seed=seed).tolist())
    assert not set(counts) - set(law)  # no draw is excluded
    assert set(counts) == set(law)  # every eligible key appears
    if len(law) > 1:
        chi2 = sum((counts[key] - n * p) ** 2 / (n * p) for key, p in law.items())
        assert chi2 < _chi2_crit_0999(len(law) - 1)


@settings(max_examples=60, deadline=None, derandomize=True, **_ACROSS_BLOCKS)
@given(
    dist=_distributions(),
    interval=st.tuples(st.integers(0, 62), st.integers(0, 62)).map(sorted),
    tau=st.sampled_from([0.1, 0.5, 0.95]),
    enumerable=st.booleans(),
)
@example(dist=_DUPLICATES, interval=[3, 20], tau=0.5, enumerable=True)
@example(dist=_DUPLICATES, interval=[3, 20], tau=0.5, enumerable=False)
def test_exact_alpha_is_the_exact_law_above_the_threshold(
    small_blocks, dist, interval, tau, enumerable
):
    law = _exact_law(dist)
    # the interval scorer counts a range in closed form; the logistic one, 0.5 up to
    # the interval's end, walks the support across block edges
    for scorer in (
        IntervalScorer((tuple(interval),), inside_score=0.9, outside_score=0.1),
        LogisticScorer((-64.0,), interval[1] + 0.5, "int-norm:64"),
    ):
        with pytest.MonkeyPatch.context() as patch:
            if not law:
                with pytest.raises(WorkloadError, match="whole support"):
                    exact_alpha(scorer, tau, dist)
                continue
            closed = isinstance(scorer, IntervalScorer) and isinstance(dist.source, UniformRange)
            if not enumerable:
                _past_the_limit(patch, dist)
                if not closed:  # a walk past the limit is refused
                    with pytest.raises(OracleUnavailableError, match="exceeds the enumeration"):
                        exact_alpha(scorer, tau, dist)
                    continue
            above = sum((p for key, p in law.items() if scorer.score(key) >= tau), Fraction(0))
            assert exact_alpha(scorer, tau, dist) == above


_TOP = 1 << 64
# tau at the inside score, at the outside score, between them, above both, below both
_INTERVAL_TAUS = (0.75, 0.25, 0.5, 0.9, 0.1)


@st.composite
def _interval_cases(draw):
    """An interval scorer (inside 0.75, outside 0.25) and a range or a fixed set inside one
    64-key window at 0, mid-universe or the top, so intervals [0, 0] and [2^64 - 1, 2^64 - 1]
    and ranges ending at 2^64 occur; the exclusion favours interval and range ends and the
    fixed keys."""
    base = draw(st.sampled_from([0, 1 << 40, _TOP - 64]))
    splits = draw(st.sets(st.integers(0, 63)))  # a held key here starts a new interval
    intervals = []
    for x in sorted(draw(st.sets(st.integers(0, 63), max_size=24))):
        if intervals and intervals[-1][1] == x - 1 and x not in splits:
            intervals[-1][1] = x
        else:
            intervals.append([x, x])
    scorer = IntervalScorer([(base + lo, base + hi) for lo, hi in intervals], 0.75, 0.25)
    ends = {e for lo, hi in intervals for e in (lo, hi)}  # closed intervals, half-open ranges
    if draw(st.booleans()):
        bounds = st.tuples(st.integers(0, 64), st.integers(0, 64)).filter(lambda b: b[0] != b[1])
        start, stop = sorted(draw(bounds))
        source = UniformRange(base + start, base + stop)
        ends |= {start, stop - 1}
    else:
        fixed = draw(st.lists(st.integers(0, 63), min_size=1, max_size=8))
        source = FixedSet([base + key for key in fixed])
        ends |= set(fixed)
    excluded = draw(st.sets(st.sampled_from(sorted(ends)) | st.integers(0, 63), max_size=16))
    return scorer, QueryDistribution(source, [base + key for key in excluded])


_EDGES = IntervalScorer(((0, 0), (5, 9), (_TOP - 1, _TOP - 1)), 0.75, 0.25)
_EDGE_EXCLUDED = [0, 9, 63, _TOP - 64, _TOP - 1]  # interval ends and range ends


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_interval_cases())
@example(case=(_EDGES, QueryDistribution(UniformRange(0, 64), _EDGE_EXCLUDED)))
@example(case=(_EDGES, QueryDistribution(UniformRange(_TOP - 64, _TOP), _EDGE_EXCLUDED)))
@example(case=(_EDGES, QueryDistribution(FixedSet([0, 5, 9, _TOP - 1]), _EDGE_EXCLUDED)))
def test_closed_form_counts_are_the_brute_force_counts(case):
    scorer, dist = case
    law = _exact_law(dist)
    source = dist.source
    for tau in _INTERVAL_TAUS:
        if isinstance(source, UniformRange):
            brute = sum(scorer.score(key) >= tau for key in range(source.lo, source.hi))
            assert scorer.count_at_least(tau, source.lo, source.hi) == brute
        if not law:
            with pytest.raises(WorkloadError, match="whole support"):
                exact_alpha(scorer, tau, dist)
            continue
        above = sum((p for key, p in law.items() if scorer.score(key) >= tau), Fraction(0))
        assert exact_alpha(scorer, tau, dist) == above


@settings(max_examples=30, deadline=None)
@given(
    excluded=st.sets(st.integers(0, 99), max_size=60),
    seed=st.integers(0, 2**32),
)
def test_samples_never_hit_the_exclusion_set(excluded, seed):
    dist = uniform_queries(0, 100, exclude=excluded)
    out = sample(dist, 500, rng_seed=seed)
    assert not excluded.intersection(out.tolist())


def _positions(draws) -> np.ndarray:
    """The raw positions of ``draws``, every block joined."""
    return np.concatenate(list(draws.positions()))


def _reference_sample(dist, n, seed):
    """The draw map's spec: a draw on ``low[i]``, found by ``np.isin``, becomes ``top[i]``."""
    pos, part = _positions(Draws(dist, n, seed)), dist.part
    moved = np.isin(pos, part.low)
    pos[moved] = part.top[np.searchsorted(part.low, pos[moved])]
    return dist.source.keys_at(pos)


@st.composite
def _wide_distributions(draw):
    """A range of up to 3000 keys anywhere in [0, 2^64), or as many keys drawn from it with
    duplicates, less an exclusion of any density: ``low`` spans many bytes of the marks."""
    size = draw(st.integers(1, 3000))
    lo = draw(st.sampled_from([0, 1 << 40, _TOP - size]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    base = np.uint64(lo)
    excluded = base + np.flatnonzero(rng.random(size) < draw(st.floats(0, 1))).astype(np.uint64)
    source = UniformRange(lo, lo + size)
    if draw(st.booleans()):
        source = FixedSet(base + rng.integers(0, size, size, dtype=np.uint64))
    return QueryDistribution(source, excluded)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    dist=st.one_of(_distributions(), _wide_distributions()),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32),
    enumerable=st.booleans(),
)
def test_sample_maps_draws_as_the_reference_map_does(dist, n, seed, enumerable):
    with pytest.MonkeyPatch.context() as patch:
        if not enumerable:  # past the limit, a searchsorted in low maps each draw
            _past_the_limit(patch, dist)
        if not dist.part.cut:
            with pytest.raises(WorkloadError, match="whole support"):
                sample(dist, n, seed)
            return
        drawn = sample(dist, n, seed)
        assert (dist.marks is not None) == (enumerable and dist.part.low.size > 0)
    assert drawn.tolist() == _reference_sample(dist, n, seed).tolist()


def _refuse_isin(*args, **kwargs):
    raise AssertionError("np.isin called")


def _refuse_the_loser_search(*args, **kwargs):
    raise AssertionError("np.flatnonzero called")


class TestDrawMarks:
    @pytest.mark.parametrize("source", [UniformRange(0, 800_000), FixedSet(np.arange(0, 9000, 3))],
                             ids=["range", "fixed"])
    def test_an_enumerable_support_is_sampled_without_isin(self, monkeypatch, source):
        dist = QueryDistribution(source, np.arange(0, 1_000_000, 5))
        expected = _reference_sample(dist, 100_000, 4)
        monkeypatch.setattr(np, "isin", _refuse_isin)
        assert sample(dist, 100_000, 4).tolist() == expected.tolist()

    @pytest.mark.parametrize("source", [UniformRange(0, 800_000), FixedSet(np.arange(0, 9000, 3))],
                             ids=["range", "fixed"])
    def test_a_support_past_the_limit_is_sampled_without_isin(self, monkeypatch, source):
        dist = QueryDistribution(source, np.arange(0, 1_000_000, 5))
        _past_the_limit(monkeypatch, dist)  # before the first draw, which would build marks
        expected = _reference_sample(dist, 100_000, 4)
        monkeypatch.setattr(np, "isin", _refuse_isin)
        assert sample(dist, 100_000, 4).tolist() == expected.tolist()
        assert dist.marks is None and dist.part.low.size

    def test_a_distribution_holds_at_most_a_byte_per_eligible_position(self):
        excluded = np.random.default_rng(5).choice(10**7, 1000, replace=False)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dist = uniform_queries(0, 10**7, excluded)
            drawn = sample(dist, 10, rng_seed=1)  # the first draw builds the marks
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert dist.marks is not None and drawn.size == 10
        # a bit and a uint32 rank per 8 positions, the exclusion, low and top
        assert held <= dist.part.cut == 10**7 - 1000

    def test_building_the_marks_never_takes_a_byte_per_position(self):
        excluded = np.random.default_rng(6).choice(10**7, 100_000, replace=False)
        dist = uniform_queries(0, 10**7, excluded)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            marks = dist.marks
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert marks is not None
        # the bits, their uint32 ranks and one popcount per byte: 3/4 of a byte a position
        assert peak <= dist.part.cut

    def test_the_marks_are_set_in_one_unchecked_pass_a_call(self, monkeypatch):
        monkeypatch.setattr(workloads, "BLOCK", 1000)  # every 8th of low spans several calls
        excluded = np.random.default_rng(7).choice(200_000, 30_000, replace=False)
        dist = uniform_queries(0, 200_000, excluded)
        # low[i] and low[i + 8] never share a byte, so no call looks for a lost write
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "flatnonzero", _refuse_the_loser_search)
            marks = dist.marks
        moved = np.zeros(dist.part.cut, bool)
        moved[dist.part.low.view(np.int64)] = True
        bits = np.packbits(moved, bitorder="little")
        counts = np.unpackbits(bits).reshape(-1, 8).sum(axis=1)
        ranks = np.cumsum(counts) - counts  # the positions of low below each byte
        assert dist.part.low.size > 20_000
        assert marks.bits.tolist() == bits.tolist() and marks.rank.tolist() == ranks.tolist()


class TestValidation:
    def test_bad_range(self):
        with pytest.raises(ParameterError):
            UniformRange(10, 10)
        with pytest.raises(ParameterError):
            UniformRange(-1, 5)

    def test_empty_fixed_set(self):
        with pytest.raises(ParameterError):
            FixedSet(())

    @pytest.mark.parametrize("source", [range(5), (0, 10), None])
    def test_unknown_source_rejected(self, source):
        with pytest.raises(ParameterError, match="unknown distribution source"):
            QueryDistribution(source)

    def test_byte_string_keys_rejected(self):
        with pytest.raises(ParameterError):
            FixedSet((b"12",))
        with pytest.raises(ParameterError):
            uniform_queries(0, 10, [b"1"])


class TestHeldKeys:
    def test_held_arrays_are_read_only_copies(self):
        keys = np.array([7, 3, 7], dtype=np.uint64)
        fixed = FixedSet(keys)
        dist = uniform_queries(0, 10, keys)
        for held in (fixed.keys, dist.exclusion):
            with pytest.raises(ValueError):
                held[0] = 1
        keys[0] = 1  # the caller's array stays writable and is not shared
        assert fixed.keys.tolist() == [7, 3, 7]
        assert dist.exclusion.tolist() == [3, 7]

    def test_exclusion_is_sorted_distinct_uint64(self):
        dist = uniform_queries(0, 10, [9, 2, 9, 5])
        assert dist.exclusion.dtype == np.uint64
        assert dist.exclusion.tolist() == [2, 5, 9]
        assert uniform_queries(0, 10).exclusion.size == 0
        for batch, held in [
            ([], []),
            (np.array([], dtype=np.int64), []),
            ([4, 4, 4], [4]),
            (np.array([2**64 - 1, 7, 0, 7, 2**64 - 1], dtype=np.uint64), [0, 7, 2**64 - 1]),
            ((8, 3, 6, 1), [1, 3, 6, 8]),
        ]:
            exclusion = uniform_queries(0, 10, batch).exclusion
            assert exclusion.dtype == np.uint64
            assert exclusion.tolist() == held


class TestSupport:
    def test_a_fixed_set_above_one_block_counts_as_a_direct_count(self, monkeypatch):
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 3000, size=2 * BLOCK, dtype=np.uint64)  # many duplicates
        keys[-5:] = [1002, 1002, 1500, 1998, 1001]  # above tau, 1001 excluded
        exclusion = np.arange(0, 3000, 7, dtype=np.uint64)
        scorer = IntervalScorer(((1000, 1999),), inside_score=0.9, outside_score=0.1)
        batches = []
        score_batch = IntervalScorer.score_batch

        def recorded(self, batch):
            batches.append(len(batch))
            return score_batch(self, batch)

        monkeypatch.setattr(IntervalScorer, "score_batch", recorded)
        alpha = exact_alpha(scorer, 0.5, QueryDistribution(FixedSet(keys), exclusion))
        eligible = ~np.isin(keys, exclusion)
        above = eligible & (keys >= 1000) & (keys <= 1999)
        assert alpha == Fraction(int(above.sum()), int(eligible.sum()))
        # enumerated block by block, and each walked block scored in score blocks
        assert (sum(batches), max(batches)) == (int(eligible.sum()), learned._BLOCK)

    @pytest.mark.parametrize("source", [UniformRange(0, 5000), FixedSet([3, 3, 9, 4000, 7000])],
                             ids=["range", "fixed"])
    def test_excluded_positions_are_resolved_once(self, monkeypatch, source):
        dist = QueryDistribution(source, np.arange(0, 5000, 3))
        filt = BloomFilter(2000, 3, seed=1)
        filt.insert_many(np.arange(0, 400))
        scorer = IntervalScorer(((100, 4500),), inside_score=0.9, outside_score=0.1)

        def results():
            return (
                sample(dist, 3000, rng_seed=8).tolist(),
                exact_alpha(scorer, 0.5, dist),
                concentration_experiment(filt, dist, 200, 300, 0.05, 4, rng_seed=2),
            )

        before = results()

        def refuse(self, exclusion):
            raise AssertionError("excluded positions resolved again")

        for component_type in (UniformRange, FixedSet):
            monkeypatch.setattr(component_type, "excluded_positions", refuse)
        assert results() == before


_SCORER = IntervalScorer(((20, 40),), inside_score=0.9, outside_score=0.1)


@settings(max_examples=30, deadline=None)
@given(
    excluded=st.sets(st.integers(0, 63), max_size=40),
    seed=st.integers(0, 2**32),
    fixed=st.booleans(),
)
def test_exclusion_form_does_not_change_results(excluded, seed, fixed):
    source = FixedSet(range(0, 64, 3)) if fixed else UniformRange(0, 64)
    ordered = sorted(excluded)
    forms = [
        set(excluded),
        frozenset(excluded),
        ordered[::-1],
        np.array(ordered, dtype=np.uint64),
        np.array(ordered, dtype=np.int64),
    ]
    outcomes = []
    for form in forms:
        dist = QueryDistribution(source, form)
        try:
            drawn = sample(dist, 200, rng_seed=seed).tolist()
            outcomes.append((drawn, exact_alpha(_SCORER, 0.5, dist)))
        except WorkloadError as exc:
            outcomes.append(str(exc))
    assert all(outcome == outcomes[0] for outcome in outcomes)


# 22 of the keys 0..62 answer yes, so a misplaced answer moves a rate.
_FILTER = BloomFilter(20, 2, seed=3)
_FILTER.insert_many(np.array([2, 11, 29, 40, 57, 60], dtype=np.uint64))


@settings(max_examples=60, deadline=None, derandomize=True, **_ACROSS_BLOCKS)
@given(dist=_distributions(), n=st.integers(1, 300), seed=st.integers(0, 2**32))
def test_answer_tables_give_the_sampled_answers_key_by_key(small_blocks, dist, n, seed):
    keys = support_table(dist, lambda keys: keys)  # the key at each position
    table = support_table(dist, _FILTER.contains_many)
    assert (keys.dtype, table.dtype) == (np.uint64, bool)
    # the table is the walk's blocks end to end; a support of no key walks no block
    blocks = list(support_blocks(dist))
    walked = np.concatenate(blocks) if blocks else np.empty(0, np.uint64)
    assert walked.dtype == np.uint64 and walked.tolist() == keys.tolist()
    assert all(block.size <= workloads.BLOCK for block in blocks)
    if not dist.part.cut:
        with pytest.raises(WorkloadError, match="whole support"):
            Draws(dist, n, seed)
        return
    drawn = sample(dist, n, seed)
    positions = _positions(Draws(dist, n, seed))
    assert keys[positions].tolist() == drawn.tolist()
    answers = table[positions]
    assert answers.tolist() == _FILTER.contains_many(drawn).tolist()
    assert float(answers.mean()) == evaluate(_FILTER, drawn).empirical_fpr
    assert evaluate(_FILTER, Draws(dist, n, seed)) == evaluate(_FILTER, drawn)


# 10..30 score 0.9, at or above tau; 2, 40, 57 and 60 fill a 16-bit backup that answers
# many of the other keys, so bit 0 (above tau) and bit 1 (the answer) of a table differ
_INSIDE = IntervalScorer(((10, 30),), inside_score=0.9, outside_score=0.1)
_LEARNED = LearnedBloomFilter.build([2, 11, 29, 40, 57, 60], _INSIDE, 0.5, FilterParams(16, 2), seed=3)


@settings(max_examples=60, deadline=None, derandomize=True, **_ACROSS_BLOCKS)
@given(dist=_distributions(), n=st.integers(1, 30), seed=st.integers(0, 2**32))
def test_a_learned_filters_table_gives_the_sampled_report(small_blocks, dist, n, seed):
    # a support of at most 12 keys: n below twice it answers the draws, else a table
    if not dist.part.cut:
        with pytest.raises(WorkloadError, match="whole support"):
            Draws(dist, n, seed)
        return
    drawn = sample(dist, n, seed)
    report = evaluate(_LEARNED, Draws(dist, n, seed))
    assert report == evaluate(_LEARNED, drawn)
    assert report.alpha_estimate == np.count_nonzero(_INSIDE.score_batch(drawn) >= 0.5) / n
    assert report.empirical_fpr == sum(map(_LEARNED.contains, drawn.tolist())) / n


def _sampled_concentration(filt, dist, t_size, q_size, epsilon, trials, rng_seed):
    """The concentration report from a plain loop: every set sampled, then answered."""
    exceed = 0
    for trial in range(trials):
        x = evaluate(filt, sample(dist, t_size, derive_seed(rng_seed, f"T{trial}"))).empirical_fpr
        y = evaluate(filt, sample(dist, q_size, derive_seed(rng_seed, f"Q{trial}"))).empirical_fpr
        exceed += abs(x - y) >= epsilon
    return exceed / trials


@settings(max_examples=60, deadline=None, derandomize=True, **_ACROSS_BLOCKS)
@given(
    dist=_distributions(),
    sizes=st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 12)),
    epsilon=st.sampled_from([0.05, 0.2, 0.5]),
    seed=st.integers(0, 2**32),
    limit=st.integers(0, 63),
)
def test_concentration_equals_the_sampled_loop_on_both_sides_of_the_table_rule(
    small_blocks, monkeypatch, dist, sizes, epsilon, seed, limit
):
    trials, t_size, q_size = sizes
    monkeypatch.setattr(workloads, "SUPPORT_LIMIT", limit)  # against 0 to 63 eligible keys
    filt = _Counting(_FILTER)
    if not dist.part.cut:
        with pytest.raises(WorkloadError, match="whole support"):
            concentration_experiment(filt, dist, t_size, q_size, epsilon, trials, seed)
        return
    report = concentration_experiment(filt, dist, t_size, q_size, epsilon, trials, seed)
    assert report.exceed_fraction == _sampled_concentration(
        _FILTER, dist, t_size, q_size, epsilon, trials, seed
    )
    assert report.theorem_bound == theorem_bound(epsilon, t_size, q_size)
    support = dist.part.cut
    if support <= limit:  # a table: each eligible key answered once
        assert filt.queried().size == support
    else:  # every set sampled, then answered a block at a time
        blocks = [min(3, n - start) for n in [t_size, q_size] * trials  # the fixture's BLOCK
                  for start in range(0, n, 3)]
        assert [batch.size for batch in filt.batches] == blocks


class _Counting:
    """A filter that records every batch its ``contains_many`` answers, or a scorer every
    batch its ``rank_batch`` ranks; anything else is the wrapped object's."""

    def __init__(self, inner, method="contains_many"):
        self.inner, self.method, self.batches = inner, method, []

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name != self.method:
            return attr

        def recorded(keys):
            self.batches.append(np.array(keys, dtype=np.uint64))
            return attr(keys)

        return recorded

    def queried(self) -> np.ndarray:
        return np.concatenate(self.batches)


class TestAnswerTables:
    # 0..149,999 and 5, 5, 9, 7000, 200,000: 150,005 - 2,143 positions eligible, over three
    # table blocks, and keys 5 and 9 at more than one of them
    DIST = QueryDistribution(
        FixedSet(np.concatenate([np.arange(150_000), [5, 5, 9, 7000, 200_000]])),
        np.arange(0, 150_000, 70),
    )
    ELIGIBLE = np.sort(
        np.concatenate(
            [np.setdiff1d(np.arange(150_000), np.arange(0, 150_000, 70)), [5, 5, 9, 200_000]]
        )
    ).astype(np.uint64)

    @pytest.mark.parametrize("trials", [8, 40, 150])
    def test_each_eligible_position_is_answered_once_in_bounded_batches(self, trials):
        filt = _Counting(_FILTER)
        report = concentration_experiment(filt, self.DIST, 10_000, 10_000, 0.01, trials, 6)
        assert report.trials == trials
        assert np.sort(filt.queried()).tolist() == self.ELIGIBLE.tolist()
        assert max(batch.size for batch in filt.batches) <= BLOCK

    def test_the_rule_picks_each_side_with_the_same_report(self, monkeypatch):
        eligible = self.ELIGIBLE.size
        # fewer draws than eligible keys read a table too: only the limit decides
        for trials, limit, table in [(8, SUPPORT_LIMIT, True), (7, SUPPORT_LIMIT, True),
                                     (7, eligible - 1, False)]:  # fmt: skip
            monkeypatch.setattr(workloads, "SUPPORT_LIMIT", limit)
            filt = _Counting(_FILTER)
            report = concentration_experiment(filt, self.DIST, 10_000, 10_000, 0.002, trials, 9)
            assert (filt.queried().size == eligible) is table
            assert report.exceed_fraction == _sampled_concentration(
                _FILTER, self.DIST, 10_000, 10_000, 0.002, trials, 9
            )

    def test_a_support_above_the_limit_is_sampled(self, monkeypatch):
        monkeypatch.setattr(workloads, "SUPPORT_LIMIT", 100)
        filt = _Counting(_FILTER)
        concentration_experiment(filt, uniform_queries(0, 101), 1000, 1000, 0.5, 3, 3)
        assert filt.queried().size == 6000
        filt = _Counting(_FILTER)
        concentration_experiment(filt, uniform_queries(0, 100), 1000, 1000, 0.5, 3, 3)
        assert filt.queried().size == 100

    def test_exact_alpha_and_the_table_rule_switch_at_the_same_eligible_count(self, monkeypatch):
        monkeypatch.setattr(workloads, "SUPPORT_LIMIT", 100)
        # a logistic scorer walks the support; this one scores 0.5 or more on keys 0..9
        scorer = LogisticScorer((-1000.0,), 9.5, "int-norm:1000")
        interval = IntervalScorer(((0, 9),), inside_score=0.9, outside_score=0.1)
        for excluded, walked in [(range(10, 60, 2), True), (range(10, 58, 2), False)]:
            dist = uniform_queries(0, 125, excluded)  # 100 or 101 keys eligible
            filt = _Counting(_FILTER)
            concentration_experiment(filt, dist, 1000, 1000, 0.5, 3, 3)
            assert (filt.queried().size == 100) is walked
            if walked:
                assert exact_alpha(scorer, 0.5, dist) == Fraction(10, 100)
            else:
                with pytest.raises(OracleUnavailableError, match="eligible support of 101"):
                    exact_alpha(scorer, 0.5, dist)
            # an interval scorer counts a range in closed form, on either side of the limit
            assert exact_alpha(interval, 0.5, dist) == Fraction(10, dist.part.cut)

    def test_a_table_is_filled_in_place_block_by_block(self, monkeypatch):
        monkeypatch.setattr(workloads, "BLOCK", 1000)
        dist = uniform_queries(0, 200_000, np.arange(0, 200_000, 70))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = support_table(dist, lambda keys: keys)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        eligible = np.setdiff1d(np.arange(200_000), np.arange(0, 200_000, 70))
        assert np.sort(table).tolist() == eligible.tolist()
        # the table, and a few uint64 temporaries of one block: positions, keys, answers
        assert peak <= table.nbytes + 8 * 1000 * 8

    @pytest.mark.parametrize("sizes", [(10**13, 10), (10, 10**13)], ids=["t_size", "q_size"])
    def test_an_unallocatable_set_size_is_refused_on_the_table_path(self, sizes):
        filt = _Counting(_FILTER)
        asked = " + ".join(map(str, sizes)) + f" + 2 x 4096 draws exceed the draw limit {DRAW_LIMIT}"
        with pytest.raises(ParameterError, match=f"^{re.escape(asked)}$"):
            concentration_experiment(filt, uniform_queries(0, 50, [3]), *sizes, 0.5, 1, 2)
        assert filt.batches == []  # refused before the table is built

    @pytest.mark.parametrize("source", [UniformRange(0, 8), FixedSet([3, 3])], ids=["range", "fixed"])
    def test_an_exclusion_covering_the_support_raises_on_the_table_path(self, source):
        dist = QueryDistribution(source, range(8))
        with pytest.raises(WorkloadError, match="whole support"):
            concentration_experiment(_FILTER, dist, 10, 10, 0.5, 4, 2)


def _refuse_the_draw_map(*args, **kwargs):
    raise AssertionError("a draw was mapped to its key")


class TestEvaluateRule:
    """``evaluate`` answers each eligible key once, into a table, when the draws number at
    least twice the eligible keys, and else answers the draws block by block."""

    EXCLUDED = TestAnswerTables.DIST.exclusion
    ELIGIBLE = TestAnswerTables.ELIGIBLE  # 147,862 positions
    # keys 0..50,000 score at or above tau; the excluded keys are the learned filter's
    # members, and those above 50,000 fill its backup
    SCORER = IntervalScorer(((0, 50_000),), inside_score=0.9, outside_score=0.1)

    def _run(self, n, mapped=True):
        """A standard and a learned report on ``n`` draws from a fresh distribution, whose
        marks no earlier draw built, checked equal to their reports on the draws sampled;
        then the draws, and the recording filter, scorer and backup.  Unless ``mapped``, a
        draw mapped to its key fails the test."""
        dist = QueryDistribution(TestAnswerTables.DIST.source, self.EXCLUDED)
        built = LearnedBloomFilter.build(self.EXCLUDED, self.SCORER, 0.5, 0.01, seed=4)
        standard, backup = _Counting(_FILTER), _Counting(built.backup)
        scorer = _Counting(self.SCORER, "rank_batch")
        learned = LearnedBloomFilter(scorer, 0.5, backup, built.key_count, built.below_threshold_count)
        with pytest.MonkeyPatch.context() as patch:
            for name in () if mapped else ("_keys_at", "_marks"):
                patch.setattr(workloads, name, _refuse_the_draw_map)
            reports = [evaluate(filt, Draws(dist, n, 8)) for filt in (standard, learned)]
        drawn = sample(dist, n, 8)
        assert reports == [evaluate(filt, drawn) for filt in (_FILTER, built)]
        return drawn, standard, scorer, backup

    @pytest.mark.parametrize("n", [2 * ELIGIBLE.size, 2 * ELIGIBLE.size + 70_001])
    def test_draws_twice_the_support_answer_each_eligible_key_once(self, n):
        _, standard, scorer, backup = self._run(n, mapped=False)
        eligible = self.ELIGIBLE.tolist()
        below = self.ELIGIBLE[self.ELIGIBLE > 50_000].tolist()
        for filt, keys in [(standard, eligible), (scorer, eligible), (backup, below)]:
            assert np.sort(filt.queried()).tolist() == keys
            assert max(batch.size for batch in filt.batches) <= BLOCK

    def test_fewer_draws_are_answered_block_by_block(self):
        n = 2 * self.ELIGIBLE.size - 1
        drawn, standard, scorer, backup = self._run(n)
        blocks = [min(BLOCK, n - start) for start in range(0, n, BLOCK)]
        assert [batch.size for batch in standard.batches] == blocks
        assert standard.queried().tolist() == scorer.queried().tolist() == drawn.tolist()
        assert backup.queried().tolist() == drawn[drawn > 50_000].tolist()

    def test_a_table_holds_a_byte_per_eligible_key_and_a_few_blocks(self):
        dist = uniform_queries(0, 4 * 10**6, np.arange(0, 4 * 10**6, 1000))  # 3,996,000 eligible
        n = 2 * dist.part.cut
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = evaluate(_FILTER, Draws(dist, n, 2))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.sample_count == n
        # the table, and the uint64 positions, keys and probe temporaries of a few blocks;
        # two bytes a key would be 8 MB, and every draw held 64 MB
        assert peak <= dist.part.cut + 6 * 8 * BLOCK


class TestHotRangeExample:
    def test_counts_and_distinctness(self):
        ex, scorer, tau = hot_range_example(7)
        assert len(ex.keys_in_range) == 500
        assert len(ex.keys_outside) == 500
        assert len(set(ex.keys.tolist())) == 1000
        assert all(1000 <= k <= 2000 for k in ex.keys_in_range)
        assert all(k < 1000 or k > 2000 for k in ex.keys_outside)
        assert tau == 0.4

    def test_scorer_splits_the_keys_at_the_threshold(self):
        ex, scorer, tau = hot_range_example(11)
        assert all(scorer.score(k) == 0.5 >= tau for k in ex.keys_in_range)
        assert all(scorer.score(k) == 0.0 < tau for k in ex.keys_outside)

    def test_deterministic(self):
        a, _, _ = hot_range_example(3)
        b, _, _ = hot_range_example(3)
        c, _, _ = hot_range_example(4)
        assert np.array_equal(a.keys, b.keys)
        assert not np.array_equal(a.keys, c.keys)

    def test_keys_are_held_as_read_only_uint64(self):
        ex, _, _ = hot_range_example(7)
        for held in (ex.keys_in_range, ex.keys_outside):
            assert held.dtype == np.uint64
            with pytest.raises(ValueError):
                held[0] = 1
        assert ex.keys.tolist() == ex.keys_in_range.tolist() + ex.keys_outside.tolist()

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ParameterError):
            HotRangeExample(keys_in_range=(1000, 1000), keys_outside=(5,))
        with pytest.raises(ParameterError):
            HotRangeExample(keys_in_range=(1000,), keys_outside=(5, 1000))

    def test_full_range_sample_hits_hot_interval_at_oracle_rate(self):
        ex, _, _ = hot_range_example(7)
        # oracle by direct counting: eligible hot keys over eligible keys
        key_set = set(ex.keys.tolist())
        hot_eligible = sum(1 for x in range(1000, 2001) if x not in key_set)
        eligible = ex.universe_size - len(key_set)
        assert (hot_eligible, eligible) == (501, 999000)
        p = hot_eligible / eligible
        n = 1_000_000
        out = sample(ex.full_range_queries(), n, rng_seed=13)
        in_hot = float(((out >= 1000) & (out <= 2000)).mean())
        stderr = (p * (1 - p) / n) ** 0.5
        assert abs(in_hot - p) <= 3 * stderr


def _reference_keys(data: bytes):
    """The key-file grammar line by line: the keys of ``data``, or the number of its first bad line.

    The reference the numpy parse is checked against.
    """
    keys = []
    for number, line in enumerate(data.split(b"\n"), 1):
        match = re.fullmatch(rb"[ \t\r\v\f]*(?:([0-9]{1,20})[ \t\r\v\f]*)?", line)
        if match is None or (match[1] is not None and int(match[1]) >= 1 << 64):
            return number
        if match[1] is not None:
            keys.append(int(match[1]))
    return keys


_spacing = st.lists(st.sampled_from([b" ", b"\t", b"\r", b"\v", b"\f"]), max_size=2).map(b"".join)
_numerals = st.builds(
    lambda zeros, value: b"0" * zeros + str(value).encode(),
    st.integers(0, 3),
    st.one_of(st.integers(0, 999), st.integers(0, 2**64 - 1), st.integers(2**64 - 3, 2**64 + 3)),
)
_noise = st.lists(
    st.sampled_from(
        [*(bytes([b]) for b in b"0123456789 \t\r\v\f\n+-_aZ\x00\x1c\x85\xa0\xff"), "é".encode()]
    ),
    max_size=6,
).map(b"".join)
_key_files = st.builds(
    lambda lines, final_newline: b"\n".join(lines) + b"\n" * final_newline,
    st.lists(
        st.one_of(st.tuples(_spacing, _numerals, _spacing).map(b"".join), _spacing, _noise),
        max_size=8,
    ),
    st.booleans(),
)
# Lines of digits and spaces only, with 0-3 digit runs apart: with their spaces stripped,
# two short runs read as one key, so only the count of keys read refuses such a line.
_gap = st.lists(st.sampled_from([b" ", b"\t", b"\r", b"\v", b"\f"]), min_size=1, max_size=2)
_runs = st.one_of(_numerals, st.text("0123456789", min_size=1, max_size=10).map(str.encode))
_spaced_key_files = st.builds(
    lambda lines, final_newline: b"\n".join(lines) + b"\n" * final_newline,
    st.lists(
        st.builds(
            lambda pairs, end: b"".join(b"".join(gap) + run for gap, run in pairs) + end,
            st.lists(st.tuples(_gap, _runs), max_size=3),
            _spacing,
        ),
        max_size=6,
    ),
    st.booleans(),
)


def _assert_loads_as_the_reference(path, data: bytes) -> None:
    path.write_bytes(data)
    expected = _reference_keys(data)
    if isinstance(expected, list):
        assert load_keys_text(path).tolist() == expected
    else:
        with pytest.raises(ParameterError) as info:
            load_keys_text(path)
        assert str(info.value) == f"{path}: line {expected}: not a decimal integer key"


class TestFiles:
    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "keys.txt"
        keys = [5, 0, 999999, 17]
        save_keys_text(path, keys)
        assert load_keys_text(path).tolist() == keys

    def test_saved_bytes_are_one_decimal_key_per_line(self, tmp_path):
        path = tmp_path / "keys.txt"
        save_keys_text(path, np.array([0, 2**64 - 1, 7], dtype=np.uint64))
        assert path.read_bytes() == b"0\n18446744073709551615\n7\n"
        save_keys_text(path, [])
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("keys", [[3, -1], [3, 2**64], [3, True], [3, 4.0], [3, "5"]])
    def test_save_rejects_a_batch_that_is_not_keys_before_opening_the_file(self, tmp_path, keys):
        path = tmp_path / "keys.txt"
        with pytest.raises(ParameterError):
            save_keys_text(path, keys)
        assert not path.exists()

    @pytest.mark.parametrize(
        "data, keys",
        [
            (b"18446744073709551615\n", [2**64 - 1]),
            (b"00000000000000000042\n", [42]),
            (b"5\n6", [5, 6]),
            (b"", []),
            (b"\n \n\t\n", []),
            (b"5\r\n6\r\n", [5, 6]),
            (b" \t7\v\f\n\n8 \n", [7, 8]),
        ],
        ids=["max_key", "20_digits_leading_zeros", "no_final_newline", "empty", "blank_lines",
             "crlf", "space_like_padding"],
    )
    def test_grammar_accepts(self, tmp_path, data, keys):
        path = tmp_path / "keys.txt"
        path.write_bytes(data)
        got = load_keys_text(path)
        assert got.dtype == np.uint64 and got.tolist() == keys

    @pytest.mark.parametrize(
        "line",
        [b"18446744073709551616", b"+5", b"1_000", b"-0", b"1 2", b"0" * 19 + b"42", b"\x1c",
         b"0x10", b"1.0", b"5\x00", "٥".encode()],
    )
    def test_grammar_rejects_with_the_file_and_line(self, tmp_path, line):
        path = tmp_path / "keys.txt"
        path.write_bytes(b"1\n\n" + line + b"\n2\n")
        message = f"{path}: line 3: not a decimal integer key"
        with pytest.raises(ParameterError, match=re.escape(message)):
            load_keys_text(path)

    @settings(
        max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=_key_files)
    # two checks refuse two lines, and the smaller line is named whichever comes first
    @example(data=b"1 2\nx\n")
    @example(data=b"x\n1 2\n")
    @example(data=b"5\n99999999999999999999\n1 2\n")
    @example(data=b"1 2\n" + b"1" * 21)
    @example(data=b"5\r\nx\r\n1 2\r\n")
    def test_load_follows_the_line_grammar(self, tmp_path, data):
        _assert_loads_as_the_reference(tmp_path / "keys.txt", data)

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=_spaced_key_files)
    @example(data=b"1 2")
    @example(data=b"1234567890 1234567890")  # 20 digits below 2^64 once stripped
    @example(data=b"7\n1844674407 3709551616\n")  # 20 digits at 2^64 once stripped
    @example(data=b"7\n \t9999999999\v9999999999\r\n")
    def test_runs_that_share_a_line_are_refused_where_stripping_would_join_them(
        self, tmp_path, data
    ):
        _assert_loads_as_the_reference(tmp_path / "keys.txt", data)

    @pytest.mark.parametrize(
        "digits, n, tail",
        [(6, 200_000, b""), (20, 200_000, b""), (6, 200_000, b"x\n"), (6, 200_000, b"1 2\n"),
         (6, 0, b"1 " * 1_000_000)],
        ids=["6", "20", "6_then_bad_byte", "6_then_two_keys", "one_2MB_line_of_keys"],
    )
    def test_load_peak_memory_is_bounded_by_the_file_and_the_keys(self, tmp_path, digits, n, tail):
        # the bytes read, a copy without spaces if they hold any, a newline mask, the line
        # ends, starts and lengths, and the uint64 keys; a refused text (the lines after
        # ``n`` keys) reads no keys, and names its line from the same arrays, or from one
        # ``re`` search for a bad byte and, in a text with spaces, one for two digit runs
        c = 4
        keys = np.random.default_rng(digits).integers(
            10 ** (digits - 1), min(10**digits, 2**64) - 1, size=n, dtype=np.uint64, endpoint=True
        )
        lines = n + bool(tail)
        path = tmp_path / "keys.txt"
        save_keys_text(path, keys)
        with open(path, "ab") as fh:
            fh.write(tail)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            try:
                loaded = load_keys_text(path)
            except ParameterError as exc:
                loaded = exc
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        if tail:
            assert str(loaded) == f"{path}: line {n + 1}: not a decimal integer key"
        else:
            assert np.array_equal(loaded, keys)
        assert peak <= c * (path.stat().st_size + 8 * lines)

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "manifest.txt"
        entries = {"seed": "42", "kind": "uniform_range", "lo": "0", "hi": "1000000"}
        path.write_text("".join(f"{key}={value}\n" for key, value in entries.items()))
        assert read_manifest(path) == entries
