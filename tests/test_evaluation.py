"""Rate measurement, the exact-alpha oracle, concentration experiments."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from learnedbloom import workloads
from learnedbloom.bloom import BloomFilter, expected_fpp, params_for_target
from learnedbloom.errors import (
    OracleUnavailableError,
    ParameterError,
    WorkloadError,
)
from learnedbloom.evaluation import (
    ConcentrationReport,
    EvalReport,
    concentration_experiment,
    estimate_alpha,
    evaluate,
    exact_alpha,
    model_fpr,
    theorem_bound,
    threshold_sweep,
)
from learnedbloom.hashing import derive_seed
from learnedbloom.learned import LearnedBloomFilter
from learnedbloom.scorers import IntervalScorer, LogisticScorer
from learnedbloom.workloads import (
    Draws,
    FixedSet,
    QueryDistribution,
    hot_range_example,
    sample,
    uniform_queries,
)

HOT = IntervalScorer(((1000, 2000),), inside_score=0.5, outside_score=0.0)


def _constant_filter(answer: bool) -> BloomFilter:
    """A standard filter that answers ``answer`` to every key: no bit set, or every bit."""
    filt = BloomFilter(8, 1, seed=0)
    if answer:
        filt.insert_many(np.arange(1000))
    assert filt.fill_ratio == answer
    return filt


@pytest.fixture(scope="module")
def example():
    return hot_range_example(7)


@pytest.fixture(scope="module")
def example_lbf(example):
    ex, scorer, tau = example
    return LearnedBloomFilter.build(
        ex.keys, scorer, tau, params_for_target(500, 0.0002), seed=41
    )


class TestEmpiricalFpr:
    def test_always_false_filter(self):
        report = evaluate(_constant_filter(False), np.arange(100))
        assert (report.empirical_fpr, report.alpha_estimate, report.model_fpr) == (0.0, 0.0, 0.0)

    def test_always_true_filter(self):
        report = evaluate(_constant_filter(True), np.arange(100))
        assert (report.empirical_fpr, report.alpha_estimate, report.model_fpr) == (1.0, 0.0, 1.0)

    def test_empty_queries_rejected(self, example_lbf):
        for filt in (_constant_filter(False), example_lbf):
            with pytest.raises(ParameterError, match="^query list must be nonempty$"):
                evaluate(filt, np.array([], dtype=np.uint64))

    def test_counts_positives_exactly(self, example_lbf):
        queries = np.array([1500, 1501, 999_999_937 % 1_000_000], dtype=np.uint64)
        answers = [example_lbf.contains(int(q)) for q in queries]
        assert evaluate(example_lbf, queries).empirical_fpr == sum(answers) / 3


class TestModelFpr:
    def test_alpha_zero_passes_backup_through(self):
        assert model_fpr(0.0, 0.125) == 0.125

    def test_alpha_one_saturates(self):
        assert model_fpr(1.0, 0.125) == 1.0

    def test_worked_composition(self):
        assert model_fpr(0.0005, 0.0002) == pytest.approx(0.0006999, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            model_fpr(-0.1, 0.5)
        with pytest.raises(ParameterError):
            model_fpr(0.5, 1.0001)

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(0, 1), backup=st.floats(0, 1))
    def test_stays_in_unit_interval(self, alpha, backup):
        value = model_fpr(alpha, backup)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(alpha + (1 - alpha) * backup, abs=1e-12)


class TestExactAlpha:
    def test_constant_scorer_gives_one(self):
        everything = IntervalScorer(((0, (1 << 64) - 1),), 1.0, 0.0)
        assert exact_alpha(everything, 1.0, uniform_queries(0, 1000)) == Fraction(1)

    def test_full_range_matches_brute_force(self, example):
        ex, scorer, tau = example
        got = exact_alpha(scorer, tau, ex.full_range_queries())
        # independent brute-force oracle over the whole universe
        key_set = set(ex.keys)
        above = eligible = 0
        for x in range(ex.universe_size):
            if x in key_set:
                continue
            eligible += 1
            if scorer.score(x) >= tau:
                above += 1
        assert got == Fraction(above, eligible)
        assert got == Fraction(501, 999000)

    def test_restricted_range_matches_brute_force(self, example):
        ex, scorer, tau = example
        got = exact_alpha(scorer, tau, ex.restricted_range_queries())
        key_set = set(ex.keys)
        above = eligible = 0
        for x in range(100_000):
            if x in key_set:
                continue
            eligible += 1
            if scorer.score(x) >= tau:
                above += 1
        assert got == Fraction(above, eligible)
        assert above == 501

    def test_fixed_set_support(self):
        dist = QueryDistribution(FixedSet((500, 1500, 2500, 1999)), frozenset({2500}))
        assert exact_alpha(HOT, 0.4, dist) == Fraction(2, 3)

    def test_fixed_set_duplicates_count_once_per_position(self):
        dist = QueryDistribution(FixedSet((1500, 1500, 1500, 500, 2500, 2500)), frozenset({2500}))
        # eligible positions: three of 1500 and one of 500; the 1500s score above tau
        assert exact_alpha(HOT, 0.4, dist) == Fraction(3, 4)

    def test_support_too_large(self):
        # the limit bounds a walk: a logistic scorer walks, an interval scorer needs none
        dist = uniform_queries(0, 10**7 + 1)
        with pytest.raises(OracleUnavailableError):
            exact_alpha(LogisticScorer((4.0,), -2.0, "int-norm:1000"), 0.4, dist)
        assert exact_alpha(HOT, 0.4, dist) == Fraction(1001, 10**7 + 1)
        # no next(): the walk raises when called, before it makes any block
        with pytest.raises(OracleUnavailableError, match="exceeds the enumeration limit"):
            workloads.support_blocks(uniform_queries(0, 1 << 64))

    def test_a_walk_at_the_limit_holds_no_table(self):
        # 10^7 eligible keys, the most a walk takes: a bool table of them alone is 10 MB.
        # The logistic scorer rises with the key, so a top key counted in place of the
        # excluded position it fills would move the count.
        scorer, tau = LogisticScorer((4.0,), -2.0, "int-norm:10000000"), 0.6
        hi = workloads.SUPPORT_LIMIT + 1000
        excluded = np.random.default_rng(11).choice(hi, 1000, replace=False).astype(np.uint64)
        dist = uniform_queries(0, hi, excluded)
        assert dist.part.cut == workloads.SUPPORT_LIMIT
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            alpha = exact_alpha(scorer, tau, dist)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        above = 0
        for lo in range(0, hi, 10**6):
            keys = np.arange(lo, min(lo + 10**6, hi), dtype=np.uint64)
            keys = keys[~np.isin(keys, excluded)]
            above += int(np.count_nonzero(scorer.score_batch(keys) >= tau))
        assert alpha == Fraction(above, workloads.SUPPORT_LIMIT)
        assert peak < 4 << 20

    def test_whole_universe_agrees_with_sampling(self):
        # 2^64 keys: no walk reaches this support, so sampling is the only other witness
        rng = np.random.default_rng(3)
        hot = IntervalScorer(((1 << 62, (1 << 63) - 1),), inside_score=0.9, outside_score=0.1)
        excluded = np.concatenate([rng.integers(1 << 62, 1 << 63, 500, dtype=np.uint64),
                                   rng.integers(1 << 63, 1 << 64, 500, dtype=np.uint64)])
        dist = uniform_queries(0, 1 << 64, excluded)
        alpha = exact_alpha(hot, 0.5, dist)
        assert alpha == Fraction((1 << 62) - 500, (1 << 64) - 1000)
        n = 100_000
        share = float((hot.score_batch(sample(dist, n, rng_seed=4)) >= 0.5).mean())
        assert abs(share - float(alpha)) <= 4 * math.sqrt(float(alpha * (1 - alpha)) / n)

    def test_an_interval_scorer_scores_only_the_excluded_keys(self, example, monkeypatch):
        ex, scorer, tau = example
        scored = []
        score_batch = IntervalScorer.score_batch

        def counted(self, keys):
            scored.append(len(keys))
            return score_batch(self, keys)

        monkeypatch.setattr(IntervalScorer, "score_batch", counted)
        assert exact_alpha(scorer, tau, uniform_queries(0, 10**7, ex.keys)) == Fraction(167, 3333000)
        assert sum(scored) <= ex.keys.size  # the 1,000 excluded keys at most, not 10^7

    def test_empty_support(self):
        with pytest.raises(WorkloadError):
            exact_alpha(HOT, 0.4, uniform_queries(0, 3, exclude=(0, 1, 2)))


@pytest.mark.parametrize("scorer", [HOT, LogisticScorer((-8.0,), 4.0, "int-norm:3000")])
def test_a_sampled_alpha_is_the_sweeps_alpha(scorer, monkeypatch):
    # the limit one below the 5,994 eligible positions: exact_alpha refuses, so estimate_alpha
    # samples; each tau's draws cross a workloads.BLOCK edge and many learned._BLOCK edges
    dist = QueryDistribution(FixedSet(np.arange(6000) // 2 + 500), [999, 1000, 2001])
    monkeypatch.setattr(workloads, "SUPPORT_LIMIT", dist.part.cut - 1)
    with pytest.raises(OracleUnavailableError):
        exact_alpha(scorer, 0.5, dist)
    for tau in (0.0, 0.25, 0.5, scorer.score(1500), 1.0):
        (point,) = threshold_sweep([1500], scorer, [tau], dist, 70_001, 0.01, rng_seed=5)
        assert estimate_alpha(scorer, tau, dist, 70_001, rng_seed=5) == point.alpha_estimate


class TestEvaluate:
    def test_report_arithmetic_recomputes(self, example, example_lbf):
        ex, _, _ = example
        report = evaluate(example_lbf, sample(ex.full_range_queries(), 50_000, rng_seed=5))
        recomputed = model_fpr(report.alpha_estimate, report.backup_fpr_estimate)
        assert abs(report.model_fpr - recomputed) <= 1e-12
        assert report.sample_count == 50_000

    def test_backup_fpr_modes(self, example_lbf):
        fill = evaluate(example_lbf, np.arange(10)).backup_fpr_estimate
        backup = example_lbf.backup
        stored = example_lbf.below_threshold_count + example_lbf.inserted_after_build
        expected = expected_fpp(stored, backup.m, backup.k)
        assert fill == backup.fill_ratio ** backup.k
        # the backup read as a standard filter: its own backup, nothing above tau
        alone = evaluate(backup, np.arange(10))
        assert (alone.alpha_estimate, alone.backup_fpr_estimate, alone.model_fpr) == (0.0, fill, fill)
        assert expected == pytest.approx(fill, rel=0.5)  # same ballpark, different estimator

    @pytest.mark.parametrize("n", [1, 999, 1000, 2501])
    def test_drawn_queries_give_the_report_of_their_sample(self, example, example_lbf, monkeypatch, n):
        monkeypatch.setattr(workloads, "BLOCK", 1000)  # n crosses block edges
        dist = example[0].restricted_range_queries()
        for filt in (example_lbf, example_lbf.backup):
            assert evaluate(filt, Draws(dist, n, 12)) == evaluate(filt, sample(dist, n, 12))

    def test_a_generator_of_keys_is_one_batch(self, example_lbf):
        keys = np.arange(0, 3000, 7)
        assert evaluate(example_lbf, (int(k) for k in keys)) == evaluate(example_lbf, keys)
        blocks = iter(Draws(uniform_queries(0, 3000), 10, 1))  # blocks are not keys
        with pytest.raises(ParameterError, match="keys are integers"):
            evaluate(example_lbf, blocks)

    @pytest.mark.parametrize("n", [10**5, 4 * 10**6])
    def test_drawn_queries_peak_in_memory_that_does_not_grow_with_them(self, example, example_lbf, n):
        # the draws' own held marks included; every draw held at once would be 32 MB at 4 * 10^6
        dist = example[0].full_range_queries()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = evaluate(example_lbf, Draws(dist, n, 3))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.sample_count == n
        assert peak <= 4 << 20

    def test_empirical_matches_model_within_four_stderr(self, example, example_lbf):
        # rate predicted from the exact alpha oracle plus the realized backup,
        # checked against fresh measurements across 100 seeded runs
        ex, scorer, tau = example
        dist = ex.full_range_queries()
        alpha = float(exact_alpha(scorer, tau, dist))
        backup = example_lbf.backup
        predicted = model_fpr(alpha, backup.fill_ratio ** backup.k)
        samples = 20_000
        tolerance = 4 * math.sqrt(predicted * (1 - predicted) / samples)
        misses = 0
        for run in range(100):
            queries = sample(dist, samples, rng_seed=derive_seed(90, f"run{run}"))
            report = evaluate(example_lbf, queries)
            if abs(report.empirical_fpr - predicted) > tolerance:
                misses += 1
        assert misses <= 1


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(0.0, 1.0),
    backup=st.floats(0.0, 1.0),
    rate=st.floats(0.0, 1.0),
    n=st.integers(1, 2**40),
)
def test_eval_report_dict_derives_model_fpr_and_std_err(alpha, backup, rate, n):
    report = EvalReport(
        empirical_fpr=rate, sample_count=n, alpha_estimate=alpha, backup_fpr_estimate=backup
    ).to_dict()
    assert set(report) == {"empirical_fpr", "sample_count", "alpha_estimate",
                           "backup_fpr_estimate", "model_fpr", "binomial_std_err"}
    p = model_fpr(alpha, backup)
    assert report["model_fpr"] == p
    assert report["binomial_std_err"] == math.sqrt(max(p * (1.0 - p), 0.0) / n)



@pytest.mark.parametrize(
    "field, value, message",
    [
        ("empirical_fpr", 1.5, "empirical_fpr must lie in [0, 1]"),
        ("alpha_estimate", -0.1, "alpha_estimate must lie in [0, 1]"),
        ("backup_fpr_estimate", float("nan"), "backup_fpr_estimate must lie in [0, 1]"),
        ("sample_count", 0, "sample_count must be >= 1"),
    ],
)
def test_a_hand_built_eval_report_is_checked_at_construction(field, value, message):
    fields = dict(empirical_fpr=0.1, sample_count=10, alpha_estimate=0.5,
                  backup_fpr_estimate=0.01)
    with pytest.raises(ParameterError) as info:
        EvalReport(**{**fields, field: value})
    assert str(info.value) == message


@pytest.mark.parametrize("exceed", [1.5, -0.1, float("nan")])
def test_a_hand_built_concentration_report_is_checked_at_construction(exceed):
    with pytest.raises(ParameterError, match=r"exceed_fraction must lie in \[0, 1\]"):
        ConcentrationReport(epsilon=0.05, trials=10, exceed_fraction=exceed, t_size=10, q_size=10,
                            seed=0)


@settings(max_examples=200, deadline=None)
@given(
    epsilon=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    trials=st.integers(1, 10**6),
    exceed=st.floats(0.0, 1.0),
    t_size=st.integers(1, 2**40),
    q_size=st.integers(1, 2**40),
)
def test_concentration_report_dict_derives_theorem_bound(epsilon, trials, exceed, t_size, q_size):
    report = ConcentrationReport(
        epsilon=epsilon, trials=trials, exceed_fraction=exceed, t_size=t_size, q_size=q_size,
        seed=0,
    ).to_dict()
    assert set(report) == {"epsilon", "trials", "exceed_fraction", "theorem_bound", "t_size",
                           "q_size", "seed"}
    assert report["theorem_bound"] == theorem_bound(epsilon, t_size, q_size)


class TestConcentration:
    def test_bound_value(self):
        assert theorem_bound(0.05, 10_000, 10_000) == pytest.approx(
            4 * math.exp(-6.25), rel=1e-12
        )
        assert theorem_bound(0.05, 10_000, 10_000) == pytest.approx(
            0.007721816544910837, abs=1e-15
        )

    def test_rejects_bad_epsilon_and_sizes(self, example, example_lbf):
        ex, _, _ = example
        dist = ex.full_range_queries()
        with pytest.raises(ParameterError):
            concentration_experiment(example_lbf, dist, 10, 10, 1.0, 5, rng_seed=1)
        with pytest.raises(ParameterError):
            concentration_experiment(example_lbf, dist, 10, 10, 0.0, 5, rng_seed=1)
        with pytest.raises(ParameterError):
            concentration_experiment(example_lbf, dist, 0, 10, 0.5, 5, rng_seed=1)
        with pytest.raises(ParameterError):
            concentration_experiment(example_lbf, dist, 10, 10, 0.5, 0, rng_seed=1)

    def test_small_run_respects_bound(self, example, example_lbf):
        ex, _, _ = example
        report = concentration_experiment(
            example_lbf, ex.full_range_queries(), 1000, 1000, 0.05, trials=50, rng_seed=8
        )
        slack = 3 * math.sqrt(report.theorem_bound / report.trials)
        assert report.exceed_fraction <= report.theorem_bound + slack
        assert report.theorem_bound == theorem_bound(0.05, 1000, 1000)
        assert report.trials == 50

    def test_deterministic(self, example, example_lbf):
        ex, _, _ = example
        kwargs = dict(t_size=500, q_size=500, epsilon=0.1, trials=10, rng_seed=3)
        a = concentration_experiment(example_lbf, ex.full_range_queries(), **kwargs)
        b = concentration_experiment(example_lbf, ex.full_range_queries(), **kwargs)
        assert a == b

