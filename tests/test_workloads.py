"""Query distributions, sampling, the worked-example dataset, and file I/O."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from learnedbloom import evaluation, workloads
from learnedbloom.bloom import BloomFilter
from learnedbloom.errors import OracleUnavailableError, ParameterError, WorkloadError
from learnedbloom.evaluation import (
    _answer_table,
    concentration_experiment,
    empirical_fpr,
    exact_alpha,
    theorem_bound,
)
from learnedbloom.hashing import derive_seed
from learnedbloom.scorers import IntervalScorer
from learnedbloom.workloads import (
    BLOCK,
    FixedSet,
    HotRangeExample,
    Mixture,
    QueryDistribution,
    UniformRange,
    _draw_positions,
    hot_range_example,
    load_keys_text,
    read_manifest,
    sample,
    save_keys_text,
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
        # numpy refuses an 80 TB output at once, so this allocates nothing
        with pytest.raises(ParameterError, match="10000000000000"):
            sample(uniform_queries(0, 10), 10**13, rng_seed=1)

    def test_deterministic_given_seed(self):
        dist = uniform_queries(0, 1_000_000, exclude=(1, 2, 3))
        a = sample(dist, 5000, rng_seed=42)
        b = sample(dist, 5000, rng_seed=42)
        c = sample(dist, 5000, rng_seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_fixed_set_source(self):
        dist = QueryDistribution(FixedSet((4, 8, 15)), frozenset({8}))
        out = sample(dist, 2000, rng_seed=3)
        assert set(out.tolist()) == {4, 15}

    def test_mixture_source(self):
        mix = Mixture(
            components=(UniformRange(0, 10), FixedSet((1000,))),
            weights=(0.5, 0.5),
        )
        out = sample(QueryDistribution(mix), 4000, rng_seed=5)
        high = (out == 1000).mean()
        assert 0.45 < high < 0.55
        assert set(out.tolist()) <= set(range(10)) | {1000}

    def test_mixture_respects_exclusion(self):
        mix = Mixture(
            components=(UniformRange(0, 4), FixedSet((100, 101))),
            weights=(0.5, 0.5),
        )
        out = sample(QueryDistribution(mix, frozenset({0, 1, 100})), 2000, rng_seed=6)
        assert set(out.tolist()) <= {2, 3, 101}

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
    """A range, a fixed set or a two-component mixture, with a random exclusion."""
    components = draw(st.lists(_COMPONENTS, min_size=1, max_size=2))
    if len(components) == 1:
        source = components[0]
    else:
        weight = draw(st.floats(0.25, 0.75))
        source = Mixture(tuple(components), (weight, 1.0 - weight))
    keys = sorted({key for c in components for key in _component_keys(c)} | {60, 61})
    return QueryDistribution(source, draw(st.sets(st.sampled_from(keys))))


@pytest.fixture
def small_blocks(monkeypatch):
    """Walk eligible supports 3 positions at a time, so a support of up to 63 keys
    crosses many block edges and its exclusions land on them."""
    monkeypatch.setattr(workloads, "BLOCK", 3)


# the fixture sets one constant, the same for every example
_ACROSS_BLOCKS = dict(suppress_health_check=[HealthCheck.function_scoped_fixture])


def _exact_law(dist) -> dict:
    """Key -> exact probability: each component's weight spread over its positions,
    the excluded positions dropped, renormalised (the law rejection converges to)."""
    source = dist.source
    mixture = source if isinstance(source, Mixture) else Mixture((source,), (1.0,))
    excluded = set(dist.exclusion.tolist())
    mass = Counter()
    for component, weight in zip(mixture.components, mixture.weights):
        for key in _component_keys(component):
            if key not in excluded:
                mass[key] += Fraction(weight) / component.size
    total = sum(mass.values())
    return {key: m / total for key, m in mass.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dist=_distributions(), seed=st.integers(0, 2**32))
def test_draws_follow_the_exact_law_of_the_eligible_support(dist, seed):
    law = _exact_law(dist)
    if not law:
        with pytest.raises(WorkloadError, match="whole support"):
            sample(dist, 1, rng_seed=seed)
        return
    n = 4000
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
)
def test_exact_alpha_is_the_exact_law_above_the_threshold(small_blocks, dist, interval, tau):
    scorer = IntervalScorer((tuple(interval),), inside_score=0.9, outside_score=0.1)
    law = _exact_law(dist)
    if not law:
        with pytest.raises(WorkloadError, match="whole support"):
            exact_alpha(scorer, tau, dist)
        return
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


class TestValidation:
    def test_bad_range(self):
        with pytest.raises(ParameterError):
            UniformRange(10, 10)
        with pytest.raises(ParameterError):
            UniformRange(-1, 5)

    def test_empty_fixed_set(self):
        with pytest.raises(ParameterError):
            FixedSet(())

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            Mixture(components=(UniformRange(0, 1), UniformRange(5, 6)), weights=(0.5, 0.6))
        with pytest.raises(ParameterError):
            Mixture(components=(UniformRange(0, 1),), weights=(-1.0,))
        with pytest.raises(ParameterError):
            Mixture(components=(), weights=())

    def test_nested_mixture_rejected(self):
        inner = Mixture(components=(UniformRange(0, 10),), weights=(1.0,))
        with pytest.raises(ParameterError):
            Mixture(components=(inner, UniformRange(20, 30)), weights=(0.5, 0.5))

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
        assert max(batches) == BLOCK  # enumerated block by block, not as one batch

    def test_excluded_positions_are_resolved_once(self, monkeypatch):
        mix = Mixture((UniformRange(0, 5000), FixedSet([3, 3, 9, 4000, 7000])), (0.4, 0.6))
        dist = QueryDistribution(mix, np.arange(0, 5000, 3))
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
    if not any(part.cut for part in dist.parts):
        with pytest.raises(WorkloadError, match="whole support"):
            _draw_positions(dist, n, seed)
        return
    tables = [_answer_table(_FILTER, part) for part in dist.parts]
    which, positions = _draw_positions(dist, n, seed)
    if which is None:
        which = np.zeros(n, dtype=np.intp)
    answers = np.empty(n, dtype=bool)
    for ci, (table, pos) in enumerate(zip(tables, positions)):
        answers[which == ci] = table[pos]
    drawn = sample(dist, n, seed)
    assert answers.tolist() == _FILTER.contains_many(drawn).tolist()
    assert float(answers.mean()) == empirical_fpr(_FILTER, drawn)


def _sampled_concentration(filt, dist, t_size, q_size, epsilon, trials, rng_seed):
    """The concentration report from a plain loop: every set sampled, then answered."""
    exceed = 0
    for trial in range(trials):
        x = empirical_fpr(filt, sample(dist, t_size, derive_seed(rng_seed, f"T{trial}")))
        y = empirical_fpr(filt, sample(dist, q_size, derive_seed(rng_seed, f"Q{trial}")))
        exceed += abs(x - y) >= epsilon
    return exceed / trials


@settings(max_examples=60, deadline=None, derandomize=True, **_ACROSS_BLOCKS)
@given(
    dist=_distributions(),
    sizes=st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 12)),
    epsilon=st.sampled_from([0.05, 0.2, 0.5]),
    seed=st.integers(0, 2**32),
)
def test_concentration_equals_the_sampled_loop_on_both_sides_of_the_table_rule(
    small_blocks, dist, sizes, epsilon, seed
):
    trials, t_size, q_size = sizes  # 2 to 72 draws, against 0 to 63 eligible keys
    if not any(part.cut for part in dist.parts):
        with pytest.raises(WorkloadError, match="whole support"):
            concentration_experiment(_FILTER, dist, t_size, q_size, epsilon, trials, seed)
        return
    report = concentration_experiment(_FILTER, dist, t_size, q_size, epsilon, trials, seed)
    assert report.exceed_fraction == _sampled_concentration(
        _FILTER, dist, t_size, q_size, epsilon, trials, seed
    )
    assert report.theorem_bound == theorem_bound(epsilon, t_size, q_size)


class _Counting:
    """A filter that records every batch its ``contains_many`` answers."""

    def __init__(self, filt):
        self.filt, self.batches = filt, []

    def contains_many(self, keys):
        self.batches.append(np.array(keys, dtype=np.uint64))
        return self.filt.contains_many(keys)

    def queried(self) -> np.ndarray:
        return np.concatenate(self.batches)


class TestAnswerTables:
    # 4 fixed keys and 150,000 - 2,143 range keys eligible, over three table blocks
    DIST = QueryDistribution(
        Mixture((UniformRange(0, 150_000), FixedSet([5, 5, 9, 7000, 200_000])), (0.8, 0.2)),
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

    def test_the_rule_picks_each_side_with_the_same_report(self):
        eligible = self.ELIGIBLE.size
        for trials, table in [(8, True), (7, False)]:  # eligible lies between 7 and 8 x 20,000
            filt = _Counting(_FILTER)
            report = concentration_experiment(filt, self.DIST, 10_000, 10_000, 0.002, trials, 9)
            assert (filt.queried().size == eligible) is table
            assert report.exceed_fraction == _sampled_concentration(
                _FILTER, self.DIST, 10_000, 10_000, 0.002, trials, 9
            )

    def test_a_support_above_the_limit_is_sampled(self, monkeypatch):
        monkeypatch.setattr(evaluation, "SUPPORT_LIMIT", 100)
        filt = _Counting(_FILTER)
        concentration_experiment(filt, uniform_queries(0, 101), 1000, 1000, 0.5, 3, 3)
        assert filt.queried().size == 6000
        filt = _Counting(_FILTER)
        concentration_experiment(filt, uniform_queries(0, 100), 1000, 1000, 0.5, 3, 3)
        assert filt.queried().size == 100

    def test_exact_alpha_and_the_table_rule_switch_at_the_same_eligible_count(self, monkeypatch):
        monkeypatch.setattr(evaluation, "SUPPORT_LIMIT", 100)
        scorer = IntervalScorer(((0, 9),), inside_score=0.9, outside_score=0.1)
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

    @pytest.mark.parametrize("sizes", [(10**13, 10), (10, 10**13)], ids=["t_size", "q_size"])
    def test_an_unallocatable_set_size_is_refused_on_the_table_path(self, sizes):
        filt = _Counting(_FILTER)
        with pytest.raises(ParameterError, match=f"sample count {10**13} is too large to allocate"):
            concentration_experiment(filt, uniform_queries(0, 50, [3]), *sizes, 0.5, 1, 2)
        assert filt.batches == []  # refused before the table is built

    def test_an_exclusion_covering_the_support_raises_on_the_table_path(self):
        mix = Mixture((UniformRange(0, 8), FixedSet([3, 3])), (0.5, 0.5))
        dist = QueryDistribution(mix, range(8))
        with pytest.raises(WorkloadError, match="whole support"):
            concentration_experiment(_FILTER, dist, 10, 10, 0.5, 4, 2)


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


class TestFiles:
    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "keys.txt"
        keys = [5, 0, 999999, 17]
        save_keys_text(path, keys)
        assert load_keys_text(path).tolist() == keys

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "manifest.txt"
        entries = {"seed": "42", "kind": "uniform_range", "lo": "0", "hi": "1000000"}
        path.write_text("".join(f"{key}={value}\n" for key, value in entries.items()))
        assert read_manifest(path) == entries
