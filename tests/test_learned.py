"""Learned Bloom filter: build partition, queries, insertion, sweep, serialization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from learnedbloom import learned, workloads
from learnedbloom.bloom import _BLOCK, BloomFilter, FilterParams, params_for_target
from learnedbloom.errors import FilterFormatError, ParameterError, WorkloadError
from learnedbloom.evaluation import estimate_alpha, exact_alpha, threshold_sweep
from learnedbloom.learned import LearnedBloomFilter
from learnedbloom.scorers import IntervalScorer, LogisticScorer
from learnedbloom.workloads import (
    FixedSet,
    QueryDistribution,
    UniformRange,
    hot_range_example,
    sample,
    uniform_queries,
)

HOT = IntervalScorer(((1000, 2000),), inside_score=0.5, outside_score=0.0)
SMALL = FilterParams(m=1000, k=4)


@pytest.fixture(scope="module")
def example():
    return hot_range_example(7)


@pytest.fixture(scope="module")
def example_lbf(example):
    ex, scorer, tau = example
    return LearnedBloomFilter.build(
        ex.keys, scorer, tau, params_for_target(500, 0.0002), seed=9
    )


class TestBuild:
    def test_tau_zero_keeps_backup_empty(self):
        lbf = LearnedBloomFilter.build([5, 1500, 70], HOT, 0.0, SMALL, seed=1)
        assert lbf.below_threshold_count == 0
        assert lbf.backup.popcount == 0

    def test_tau_one_sends_everything_to_backup(self):
        lbf = LearnedBloomFilter.build([5, 1500, 70], HOT, 1.0, SMALL, seed=1)
        assert lbf.below_threshold_count == 3

    @pytest.mark.parametrize("tau", [1.0000001, -0.1, 2.0])
    def test_rejects_tau_outside_unit_interval(self, tau):
        with pytest.raises(ParameterError):
            LearnedBloomFilter.build([1], HOT, tau, SMALL, seed=1)

    def test_rejects_empty_keys(self):
        with pytest.raises(ParameterError):
            LearnedBloomFilter.build([], HOT, 0.5, SMALL, seed=1)

    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize(
        "scorer",
        [HOT, LogisticScorer(weights=(4.0,), bias=-2.0, feature_map="int-norm:1000000")],
        ids=["interval", "logistic"],
    )
    def test_a_rate_sizes_the_backup_for_the_keys_below_tau(self, example, scorer, tau):
        keys = example[0].keys
        below = int((scorer.score_batch(keys) < tau).sum())
        sized = params_for_target(max(below, 1), 0.001)
        by_rate = LearnedBloomFilter.build(keys, scorer, tau, 0.001, seed=3)
        by_params = LearnedBloomFilter.build(keys, scorer, tau, sized, seed=3)
        assert by_rate.below_threshold_count == below
        assert by_rate.to_bytes() == by_params.to_bytes()

    @pytest.mark.parametrize("rate", [0.0, 1.0, 1e-310])
    def test_rejects_a_rate_outside_the_unit_interval(self, rate):
        with pytest.raises(ParameterError):
            LearnedBloomFilter.build([5, 1500], HOT, 0.4, rate, seed=1)

    def test_worked_example_backup_holds_the_500_outside_keys(self, example, example_lbf):
        ex, scorer, tau = example
        assert example_lbf.below_threshold_count == 500
        assert example_lbf.key_count == 1000
        # partition: every key clears exactly one branch
        for key in ex.keys_in_range:
            assert scorer.score(key) >= tau
        for key in ex.keys_outside:
            assert scorer.score(key) < tau
            assert example_lbf.backup.contains(key)

    def test_build_is_deterministic(self, example):
        ex, scorer, tau = example
        a = LearnedBloomFilter.build(ex.keys, scorer, tau, SMALL, seed=4)
        b = LearnedBloomFilter.build(ex.keys, scorer, tau, SMALL, seed=4)
        assert a.to_bytes() == b.to_bytes()


class TestContains:
    def test_no_false_negatives_on_build_keys(self, example, example_lbf):
        ex, _, _ = example
        assert example_lbf.contains_many(np.array(ex.keys, dtype=np.uint64)).all()

    def test_in_range_non_key_is_a_false_positive(self, example, example_lbf):
        ex, _, _ = example
        key_set = set(ex.keys.tolist())
        non_key = next(x for x in range(1000, 2001) if x not in key_set)
        assert non_key not in key_set
        assert example_lbf.contains(non_key)

    def test_below_threshold_backup_miss_is_negative(self, example, example_lbf):
        ex, scorer, tau = example
        key_set = set(ex.keys.tolist())
        query = next(
            x
            for x in range(900_000, 1_000_000)
            if x not in key_set and not example_lbf.backup.contains(x)
        )
        assert scorer.score(query) < tau
        assert not example_lbf.contains(query)

    def test_batch_matches_scalar(self, example_lbf):
        rng = np.random.default_rng(17)
        keys = rng.integers(0, 1_000_000, size=500, dtype=np.uint64)
        batch = example_lbf.contains_many(keys)
        scalar = np.array([example_lbf.contains(int(k)) for k in keys])
        assert np.array_equal(batch, scalar)


class TestInsert:
    def test_above_threshold_key_is_a_no_op(self, example):
        ex, scorer, tau = example
        lbf = LearnedBloomFilter.build(ex.keys, scorer, tau, SMALL, seed=2)
        before = lbf.backup.to_bytes()
        assert lbf.insert(1500) is False  # scores 0.5 >= 0.4
        assert lbf.backup.to_bytes() == before
        assert lbf.inserted_after_build == 0

    def test_below_threshold_key_lands_in_backup(self, example):
        ex, scorer, tau = example
        lbf = LearnedBloomFilter.build(ex.keys, scorer, tau, SMALL, seed=2)
        key_set = set(ex.keys.tolist())
        key = next(
            x for x in range(500_000, 600_000)
            if x not in key_set and not lbf.backup.contains(x)
        )
        assert lbf.insert(key) is True
        assert lbf.contains(key)
        assert lbf.inserted_after_build == 1

    def test_second_insert_returns_false(self, example):
        ex, scorer, tau = example
        lbf = LearnedBloomFilter.build(ex.keys, scorer, tau, SMALL, seed=2)
        key_set = set(ex.keys.tolist())
        key = next(
            x for x in range(500_000, 600_000)
            if x not in key_set and not lbf.backup.contains(x)
        )
        assert lbf.insert(key) is True
        assert lbf.insert(key) is False
        assert lbf.inserted_after_build == 1


def test_size_bits_is_scorer_plus_backup_bits():
    lbf = LearnedBloomFilter.build([1500], HOT, 0.4, FilterParams(m=1000, k=3), seed=0)
    assert lbf.size_bits() == 256 + 1000


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
    tau=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
    extra=st.lists(st.integers(0, 10**6), max_size=10),
)
def test_never_a_false_negative(keys, tau, seed, extra):
    lbf = LearnedBloomFilter.build(keys, HOT, tau, FilterParams(m=256, k=3), seed=seed)
    assert all(lbf.contains(k) for k in keys)
    for key in extra:
        lbf.insert(key)
    assert all(lbf.contains(k) for k in extra)
    assert all(lbf.contains(k) for k in keys)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(0, 10**6), min_size=1, max_size=50),
    tau=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
def test_build_partition_matches_direct_enumeration(keys, tau, seed):
    # the backup must hold exactly the below-threshold keys: rebuilding a
    # plain filter from the enumerated below-set gives the same bit array
    lbf = LearnedBloomFilter.build(keys, HOT, tau, FilterParams(m=512, k=3), seed=seed)
    below = [k for k in keys if HOT.score(k) < tau]
    assert lbf.below_threshold_count == len(below)
    reference = BloomFilter(512, 3, seed=seed)
    reference.insert_many(below)
    assert reference.to_bytes() == lbf.backup.to_bytes()
    for key in keys:
        assert (HOT.score(key) >= tau) == (key not in below)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
    queries=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
    tau=st.floats(0.0, 1.0),
)
def test_matches_literal_two_branch_reference(keys, queries, tau):
    lbf = LearnedBloomFilter.build(keys, HOT, tau, FilterParams(m=128, k=2), seed=5)

    def reference(query):  # independent reading of the membership rule
        if HOT.score(query) >= tau:
            return True
        return lbf.backup.contains(query)

    for query in queries:
        assert lbf.contains(query) == reference(query)


class TestThresholdSweep:
    def make_args(self, example):
        ex, scorer, _ = example
        return list(ex.keys), scorer, ex.full_range_queries()

    def test_tau_zero_has_alpha_one(self, example):
        keys, scorer, dist = self.make_args(example)
        (point,) = threshold_sweep(keys, scorer, [0.0], dist, 1000, 0.01, rng_seed=1)
        assert point.alpha_estimate == 1.0
        assert point.backup_keys == 0
        assert point.model_fpr == 1.0

    def test_monotone_along_sorted_grid(self, example):
        keys, _, dist = self.make_args(example)
        scorer = LogisticScorer(weights=(4.0,), bias=-2.0, feature_map="int-norm:1000000")
        taus = [0.0, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.0]
        points = threshold_sweep(keys, scorer, taus, dist, 20_000, 0.01, rng_seed=3)
        alphas = [p.alpha_estimate for p in points]
        loads = [p.backup_keys for p in points]
        assert alphas == sorted(alphas, reverse=True)
        assert loads == sorted(loads)

    def test_model_fpr_composes(self, example):
        keys, scorer, dist = self.make_args(example)
        points = threshold_sweep(keys, scorer, [0.2, 0.4, 0.9], dist, 5000, 0.001, rng_seed=9)
        from learnedbloom.bloom import expected_fpp

        for p in points:
            params = params_for_target(max(p.backup_keys, 1), 0.001)
            backup = expected_fpp(p.backup_keys, params.m, params.k)
            assert p.model_fpr == pytest.approx(
                p.alpha_estimate + (1 - p.alpha_estimate) * backup, abs=1e-12
            )
            assert p.total_bits == scorer.size_bits() + params.m

    def test_rejects_bad_grids(self, example):
        keys, scorer, dist = self.make_args(example)
        with pytest.raises(ParameterError):
            threshold_sweep(keys, scorer, [], dist, 100, 0.01, rng_seed=1)
        with pytest.raises(ParameterError):
            threshold_sweep(keys, scorer, [0.5, 1.5], dist, 100, 0.01, rng_seed=1)
        with pytest.raises(ParameterError):
            threshold_sweep(keys, scorer, [0.5], dist, 0, 0.01, rng_seed=1)

    def test_rejects_an_empty_key_set(self, example):
        _, scorer, dist = self.make_args(example)
        with pytest.raises(ParameterError, match="key set must be nonempty"):
            threshold_sweep([], scorer, [0.5], dist, 100, 0.01, rng_seed=1)

    def test_workload_errors_propagate(self):
        dist = QueryDistribution(UniformRange(0, 4), frozenset({0, 1, 2, 3}))
        with pytest.raises(WorkloadError):
            threshold_sweep([1], HOT, [0.5], dist, 10, 0.01, rng_seed=1)


class TestSerialization:
    def test_round_trip(self, example_lbf):
        blob = example_lbf.to_bytes()
        back = LearnedBloomFilter.from_bytes(blob)
        assert back.tau == example_lbf.tau
        assert back.scorer == example_lbf.scorer
        assert back.backup == example_lbf.backup
        assert back.key_count == example_lbf.key_count
        assert back.below_threshold_count == example_lbf.below_threshold_count
        assert back.to_bytes() == blob

    def test_round_trip_preserves_answers(self, example_lbf):
        back = LearnedBloomFilter.from_bytes(example_lbf.to_bytes())
        rng = np.random.default_rng(23)
        keys = rng.integers(0, 1_000_000, size=300, dtype=np.uint64)
        assert np.array_equal(back.contains_many(keys), example_lbf.contains_many(keys))

    def test_garbage_rejected(self):
        with pytest.raises(FilterFormatError):
            LearnedBloomFilter.from_bytes(b"not a filter")
        with pytest.raises(FilterFormatError):
            LearnedBloomFilter.from_bytes(b"")


def test_workload_error_for_impossible_distribution():
    dist = uniform_queries(0, 10, exclude=range(10))
    from learnedbloom.workloads import sample

    with pytest.raises(WorkloadError):
        sample(dist, 5, rng_seed=0)


# Batches are scored learned._BLOCK keys at a time into one threshold mask.
_BLOCK_SCORERS = {
    "interval": IntervalScorer(((10, 20), (40, 45)), inside_score=0.75, outside_score=0.25),
    "int-centered": LogisticScorer((6.0,), -1.0, "int-centered:64"),
    "byte-ngram": LogisticScorer(tuple(np.linspace(-3.0, 3.0, 16)), 0.2, "byte-ngram:16"),
}
_KEY = st.integers(0, 63) | st.integers(0, 2**64 - 1)


@pytest.fixture
def small_blocks(monkeypatch):
    """Score batches 3 keys at a time, so a batch of up to 40 keys crosses many block edges."""
    monkeypatch.setattr(learned, "_BLOCK", 3)


# the fixture sets one constant, the same for every example
_ACROSS_BLOCKS = dict(suppress_health_check=[HealthCheck.function_scoped_fixture])


def _assert_the_scalar_rule(scorer, tau, keys, queries, seed):
    """Build, classify_many and a one-tau sweep against score(k) < tau, score(k) >= tau
    and contains(k); the sweep draws len(keys) + len(queries) times from the keys and
    queries, so its draws hold their ties at tau too."""
    params = FilterParams(m=256, k=3)
    lbf = LearnedBloomFilter.build(keys, scorer, tau, params, seed=seed)
    below = [k for k in keys if scorer.score(k) < tau]
    reference = BloomFilter(256, 3, seed=seed)
    reference.insert_many(below)
    assert lbf.below_threshold_count == len(below)
    assert lbf.backup.to_bytes() == reference.to_bytes()
    above, answers = lbf.classify_many(queries)
    assert above.tolist() == [scorer.score(q) >= tau for q in queries]
    assert answers.tolist() == [lbf.contains(q) for q in queries]
    dist, n = QueryDistribution(FixedSet(keys + queries), ()), len(keys) + len(queries)
    (point,) = threshold_sweep(keys, scorer, [tau], dist, n, params, seed)
    assert (point.backup_keys, point.total_bits) == (len(below), lbf.size_bits())
    drawn = sample(dist, n, seed).tolist()
    assert point.alpha_estimate == sum(scorer.score(q) >= tau for q in drawn) / n


@pytest.mark.parametrize("name", sorted(_BLOCK_SCORERS))
@settings(max_examples=40, deadline=None, **_ACROSS_BLOCKS)
@given(
    data=st.data(),
    keys=st.lists(_KEY, min_size=1, max_size=40),
    queries=st.lists(_KEY, max_size=40),
    seed=st.integers(0, 2**32),
)
def test_blocked_batches_keep_the_scalar_rule(small_blocks, name, data, keys, queries, seed):
    scorer = _BLOCK_SCORERS[name]
    # a key's own score as tau puts ties at the threshold on both paths
    tau = data.draw(st.floats(0.0, 1.0) | st.sampled_from(keys + queries).map(scorer.score))
    _assert_the_scalar_rule(scorer, tau, keys, queries, seed)


def _blocks(n: int, size: int = _BLOCK) -> list[int]:
    """The sizes of ``n`` keys cut into blocks of ``size``."""
    return [min(size, n - start) for start in range(0, n, size)]


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_batches_across_block_boundaries_match_the_scalar_paths(monkeypatch, n):
    rng = np.random.default_rng(n)
    keys, queries = (rng.integers(0, 2**20, size=n).tolist() for _ in range(2))
    scorer = LogisticScorer((6.0,), -0.5, f"int-centered:{2**20}")
    tau = scorer.score(keys[0])
    scored = []
    score_batch = LogisticScorer.score_batch

    def counted(self, keys):
        scored.append(len(keys))
        return score_batch(self, keys)

    monkeypatch.setattr(LogisticScorer, "score_batch", counted)
    _assert_the_scalar_rule(scorer, tau, keys, queries, seed=n)
    # the sweep's 2n draws come in workloads.BLOCK blocks, each scored in _BLOCK blocks
    draws = [size for block in _blocks(2 * n, workloads.BLOCK) for size in _blocks(block)]
    # build, classify_many, then the sweep's draws and its keys: one call per block
    assert scored == _blocks(n) * 2 + draws + _blocks(n)
    # under the limit, exact_alpha walks the 2n positions: workloads.BLOCK keys a walk
    # block, each scored in _BLOCK blocks, the sizes the draws come in
    scored.clear()
    exact_alpha(scorer, tau, QueryDistribution(FixedSet(keys + queries), ()))
    assert scored == draws
    # past the limit, estimate_alpha samples the sweep's draws
    monkeypatch.setattr(workloads, "SUPPORT_LIMIT", 2 * n - 1)
    scored.clear()
    estimate_alpha(scorer, tau, QueryDistribution(FixedSet(keys + queries), ()), 2 * n, n)
    assert scored == draws


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_batch_temporaries_do_not_grow_with_the_batch():
    # A whole-batch float64 score of 10^6 keys is 8 MB, and scoring one took four
    # of them live at once: 32 MB. In blocks, what grows with the batch is the
    # masks (n bytes each), the keys below tau (8 bytes each) and the backup's bits.
    n = 1_000_000
    keys = np.random.default_rng(3).integers(0, n, size=n, dtype=np.uint64)
    scorer = LogisticScorer((8.0,), 0.0, f"int-centered:{n}")
    tau = float(np.quantile(scorer.score_batch(keys[:100_000]), 0.1))
    below = int(np.count_nonzero(scorer.score_batch(keys) < tau))
    params = FilterParams(m=10 * below, k=7)
    bound = 8 * below + 4 * n + 16 * _BLOCK * 8
    build = lambda: LearnedBloomFilter.build(keys, scorer, tau, params, seed=1)
    assert _peak_bytes(build) <= bound + params.m + params.m // 8
    lbf = build()
    assert lbf.below_threshold_count == below
    assert _peak_bytes(lambda: lbf.classify_many(keys)) <= bound
    dist = uniform_queries(0, n)
    sweep = lambda: threshold_sweep(keys, scorer, [tau], dist, 100_000, params, rng_seed=1)
    assert _peak_bytes(sweep) <= bound
    assert sweep()[0].backup_keys == below
