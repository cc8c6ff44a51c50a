"""Query distributions, sampling, the worked-example dataset, and file I/O."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from learnedbloom.errors import ParameterError, WorkloadError
from learnedbloom.evaluation import exact_alpha
from learnedbloom.scorers import IntervalScorer
from learnedbloom.workloads import (
    FixedSet,
    HotRangeExample,
    Mixture,
    QueryDistribution,
    UniformRange,
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


def _exact_law(dist) -> dict:
    """Key -> probability: each component's weight spread over its positions, the
    excluded positions dropped, renormalised (the law rejection converges to)."""
    source = dist.source
    mixture = source if isinstance(source, Mixture) else Mixture((source,), (1.0,))
    excluded = set(dist.exclusion.tolist())
    mass = Counter()
    for component, weight in zip(mixture.components, mixture.weights):
        for key in _component_keys(component):
            if key not in excluded:
                mass[key] += weight / component.size
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
            HotRangeExample(keys_in_range=(1000, 1000), keys_outside=(5,), rng_seed=0)

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
