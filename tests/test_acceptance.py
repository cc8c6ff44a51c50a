"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from learnedbloom.bloom import (
    BloomFilter,
    FilterParams,
    expected_fill_ratio,
    params_for_target,
)
from learnedbloom.cli import main
from learnedbloom.evaluation import (
    concentration_experiment,
    evaluate,
    exact_alpha,
    theorem_bound,
)
from learnedbloom.hashing import derive_seed
from learnedbloom.learned import LearnedBloomFilter
from learnedbloom.repro import build_report
from learnedbloom.scorers import (
    IntervalScorer,
    LogisticScorer,
    TrainingSet,
    feature_map,
    log_loss,
    train_logistic,
)
from learnedbloom.workloads import hot_range_example, sample
from support import log_loss_gradient


def _pass(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def _random_scorer(rng) -> IntervalScorer | LogisticScorer:
    if rng.random() < 0.5:
        count = int(rng.integers(1, 4))
        edges = np.sort(rng.choice(np.arange(0, 10**6, dtype=np.int64), 2 * count, replace=False))
        intervals = tuple((int(edges[2 * i]), int(edges[2 * i + 1])) for i in range(count))
        outside = float(rng.uniform(0.0, 0.4))
        inside = float(rng.uniform(outside + 0.05, 1.0))
        return IntervalScorer(intervals, inside, outside)
    return LogisticScorer(
        weights=(float(rng.normal(scale=3)),),
        bias=float(rng.normal(scale=1)),
        feature_map="int-norm:1000000",
    )


def test_c1_no_false_negatives_over_randomized_configurations():
    start = time.perf_counter()
    rng = np.random.default_rng(0xACCE01)
    for config in range(100):
        n_keys = int(rng.integers(20, 300))
        keys = rng.choice(np.arange(0, 10**6, dtype=np.uint64), n_keys, replace=False)
        scorer = _random_scorer(rng)
        tau = float(rng.uniform(0.0, 1.0))
        backup = FilterParams(m=int(rng.integers(64, 8192)), k=int(rng.integers(1, 10)))
        lbf = LearnedBloomFilter.build(keys, scorer, tau, backup, seed=config)
        hits = lbf.contains_many(keys)
        assert hits.all(), f"config {config}: false negative on a build key"
        inserted = rng.integers(0, 1 << 62, size=30, dtype=np.uint64)
        for key in inserted:
            lbf.insert(int(key))
        assert all(lbf.contains(int(k)) for k in inserted), (
            f"config {config}: false negative on an inserted key"
        )
        assert lbf.contains_many(keys).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    _pass("C1", f"100 configs, zero false negatives, {elapsed:.1f}s")


def test_c2_standard_filter_formulas_over_200_seeds():
    start = time.perf_counter()
    m, k, n = 10_000, 7, 1000
    expected = expected_fill_ratio(n, m, k)
    fills = []
    fpp_hits = 0
    trials = 200
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(0xACCE02, f"keys{trial}"))
        keys = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        assert np.unique(keys).size == n
        filt = BloomFilter(m, k, seed=trial)
        filt.insert_many(keys)
        fills.append(filt.fill_ratio)
        fresh = rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64)
        fresh = fresh[~np.isin(fresh, keys)]
        rate = float(filt.contains_many(fresh).mean())
        p = filt.fill_ratio**k
        stderr = math.sqrt(p * (1 - p) / fresh.size)
        if abs(rate - p) <= 3 * stderr:
            fpp_hits += 1
    mean_fill = float(np.mean(fills))
    assert abs(mean_fill - expected) < 0.005, f"mean fill {mean_fill} vs {expected}"
    assert fpp_hits >= 0.95 * trials, f"only {fpp_hits}/{trials} filters matched rho^k"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    _pass(
        "C2",
        f"mean fill {mean_fill:.4f} vs {expected:.4f}, "
        f"{fpp_hits}/{trials} filters within 3 SE, {elapsed:.1f}s",
    )


def test_c3_worked_example_alpha_exact_and_sampled():
    start = time.perf_counter()
    seed = 7
    example, scorer, tau = hot_range_example(derive_seed(seed, "dataset"))

    # independent brute-force oracle over the full universe
    key_set = set(example.keys)
    above = eligible = 0
    for x in range(example.universe_size):
        if x in key_set:
            continue
        eligible += 1
        if scorer.score(x) >= tau:
            above += 1
    oracle = Fraction(above, eligible)
    assert oracle == Fraction(501, 999000)  # frozen: 501 hot non-keys / 999000 eligible

    got = exact_alpha(scorer, tau, example.full_range_queries())
    assert got == oracle

    # sampled estimate at one million queries stays within 3 standard errors
    n = 1_000_000
    queries = sample(example.full_range_queries(), n, derive_seed(seed, "alpha-sample"))
    sampled = float((scorer.score_batch(queries) >= tau).mean())
    p = float(oracle)
    stderr = math.sqrt(p * (1 - p) / n)
    assert abs(sampled - p) <= 3 * stderr

    # the report must flag the originally reported 0.0002 as not reproduced
    report = build_report(seed, full_samples=n, restricted_samples=100_000)
    figure = report["reference_figures"]["above_threshold_rate_full_range"]
    assert figure["reported"] == 0.0002
    assert figure["reproduced"] is False
    assert figure["derived"]["fraction"] == "167/333000"  # == 501/999000 reduced

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    _pass(
        "C3",
        f"alpha exactly {got} by enumeration, sampled {sampled:.2e} within 3 SE, "
        f"0.0002 flagged unreproduced, {elapsed:.1f}s",
    )


def test_c4_distribution_shift_jump_for_learned_but_not_standard():
    start = time.perf_counter()
    seed = 0xACCE04
    example, scorer, tau = hot_range_example(derive_seed(seed, "dataset"))
    lbf = LearnedBloomFilter.build(
        example.keys, scorer, tau, params_for_target(500, 0.0002),
        derive_seed(seed, "backup"),
    )
    full = example.full_range_queries()
    restricted = example.restricted_range_queries()
    n = 400_000

    lbf_full = evaluate(lbf, sample(full, n, derive_seed(seed, "lf"))).empirical_fpr
    lbf_restricted = evaluate(lbf, sample(restricted, n, derive_seed(seed, "lr"))).empirical_fpr
    assert lbf_full > 0
    learned_ratio = lbf_restricted / lbf_full
    assert learned_ratio >= 5.0, f"learned filter ratio {learned_ratio:.2f} < 5"

    standard = BloomFilter.from_params(
        params_for_target(len(example.keys), max(lbf_full, 1.0 / n)),
        derive_seed(seed, "standard"),
    )
    standard.insert_many(np.array(example.keys, dtype=np.uint64))
    std_full = evaluate(standard, sample(full, n, derive_seed(seed, "sf"))).empirical_fpr
    std_restricted = evaluate(standard, sample(restricted, n, derive_seed(seed, "sr"))).empirical_fpr
    # Combined standard error under the "rate does not depend on the query
    # range" null: binomial sampling noise for each measurement, plus the
    # finite-population noise of each eligible support (for one instantiated
    # filter, the per-range population rate itself fluctuates around rho^k).
    key_set = set(example.keys.tolist())
    pop_full = example.universe_size - len(key_set)
    pop_restricted = 100_000 - sum(1 for key in key_set if key < 100_000)
    pooled = (std_full + std_restricted) / 2
    combined = math.sqrt(
        max(pooled * (1 - pooled), 1e-12)
        * (1 / n + 1 / n + 1 / pop_full + 1 / pop_restricted)
    )
    std_ratio = std_restricted / std_full if std_full > 0 else math.inf
    assert std_ratio <= 1.0 + 3.0 * combined / std_full, (
        f"standard filter ratio {std_ratio:.3f} exceeds 1 + 3 combined SE"
    )

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    _pass(
        "C4",
        f"learned ratio {learned_ratio:.1f} >= 5, standard ratio {std_ratio:.3f} "
        f"within noise of 1, {elapsed:.1f}s",
    )


def test_c5_size_arithmetic_extra_bits_per_element():
    start = time.perf_counter()
    ln2 = math.log(2.0)
    backup_bpe_formula = math.log2(1 / 0.0002) / ln2
    standard_bpe_formula = math.log2(1 / 0.0004) / ln2
    formula_delta = backup_bpe_formula - standard_bpe_formula
    assert abs(formula_delta - 1.44) <= 0.01, f"formula delta {formula_delta}"

    backup = params_for_target(500, 0.0002)
    standard = params_for_target(1000, 0.0004)
    instantiated_delta = backup.m / 500 - standard.m / 1000
    # ceil() on each m adds at most one bit: 1/500 + 1/1000 per element
    rounding = 1 / 500 + 1 / 1000
    assert abs(instantiated_delta - formula_delta) <= rounding, (
        f"instantiated {instantiated_delta} vs formula {formula_delta}"
    )

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _pass(
        "C5",
        f"formula delta {formula_delta:.4f}, instantiated {instantiated_delta:.4f}, "
        f"{elapsed:.2f}s",
    )


def test_c6_concentration_bound_over_the_grid():
    start = time.perf_counter()
    seed = 0xACCE06
    example, scorer, tau = hot_range_example(derive_seed(seed, "dataset"))
    lbf = LearnedBloomFilter.build(
        example.keys, scorer, tau, params_for_target(500, 0.01),
        derive_seed(seed, "backup"),
    )
    dist = example.full_range_queries()
    trials = 1000
    results = {}
    for epsilon in (0.02, 0.05):
        for t_size in (1_000, 10_000):
            for q_size in (1_000, 10_000):
                report = concentration_experiment(
                    lbf, dist, t_size, q_size, epsilon, trials,
                    derive_seed(seed, f"grid-{epsilon}-{t_size}-{q_size}"),
                )
                slack = 3 * math.sqrt(report.theorem_bound / trials)
                assert report.exceed_fraction <= report.theorem_bound + slack, (
                    f"bound violated at eps={epsilon}, t={t_size}, q={q_size}: "
                    f"{report.exceed_fraction} > {report.theorem_bound} + {slack}"
                )
                assert report.theorem_bound == theorem_bound(epsilon, t_size, q_size)
                results[(epsilon, t_size, q_size)] = report.exceed_fraction

    # exceedance must not grow as min(t, q) grows, within binomial noise
    for epsilon in (0.02, 0.05):
        low = [
            results[(epsilon, t, q)]
            for t in (1_000, 10_000)
            for q in (1_000, 10_000)
            if min(t, q) == 1_000
        ]
        high = results[(epsilon, 10_000, 10_000)]
        low_mean = sum(low) / len(low)
        noise = 3 * math.sqrt((low_mean * (1 - low_mean)) / trials) + 3 / trials
        assert high <= low_mean + noise, (
            f"eps={epsilon}: exceedance rose from {low_mean} to {high}"
        )

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    worst = max(results.values())
    _pass("C6", f"8 grid points x {trials} trials, worst exceedance {worst}, {elapsed:.1f}s")


def test_c7_trainer_gradient_descent_and_margins():
    start = time.perf_counter()
    rng = np.random.default_rng(0xACCE07)

    # gradient vs central finite differences on 20 random small instances
    for instance in range(20):
        dim = int(rng.integers(1, 7))
        fm_name = f"byte-ngram:{dim}" if rng.random() < 0.5 else "int-norm:1000"
        fm = feature_map(fm_name)
        dim = fm.dim
        pos = tuple(int(x) for x in rng.integers(0, 1000, size=int(rng.integers(2, 12))))
        neg_pool = [int(x) for x in rng.integers(1000, 2000, size=int(rng.integers(2, 12)))]
        data = TrainingSet(pos, tuple(neg_pool))
        w = rng.normal(scale=1.5, size=dim)
        b = float(rng.normal())
        grad_w, grad_b = log_loss_gradient(w, b, fm, data)
        numeric = np.empty(dim + 1)
        h = 1e-6

        def loss_at(weights, bias):
            return log_loss(LogisticScorer(tuple(weights), bias, fm_name), data)

        for i in range(dim):
            up, down = w.copy(), w.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (loss_at(up, b) - loss_at(down, b)) / (2 * h)
        numeric[dim] = (loss_at(w, b + h) - loss_at(w, b - h)) / (2 * h)
        analytic = np.append(grad_w, grad_b)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel <= 1e-4, f"instance {instance}: gradient relative error {rel:.2e}"

    # loss non-increasing across epochs, including an absurd learning rate
    for lr in (0.1, 10.0, 1e6):
        pos = tuple(int(x) for x in rng.integers(0, 500, size=30))
        neg = tuple(int(x) for x in rng.integers(500, 1000, size=30))
        trace = []
        train_logistic(TrainingSet(pos, neg), "int-norm:1000", 80, lr, loss_trace=trace)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:])), f"ascent at lr={lr}"

    # separable data reaches the 0.9 / 0.1 margins
    data = TrainingSet(positives=(1000,) * 25, negatives=(0,) * 25)
    scorer = train_logistic(data, "int-centered:1000", epochs=500, learning_rate=0.5)
    assert all(scorer.score(k) >= 0.9 for k in data.positives)
    assert all(scorer.score(k) <= 0.1 for k in data.negatives)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    _pass("C7", f"20 gradient checks, monotone descent, margins reached, {elapsed:.1f}s")


def test_c8_repro_command_is_byte_deterministic(tmp_path, capsys):
    start = time.perf_counter()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["repro-example", "--seed", "7"]
    assert main(argv + ["--out", str(first)]) == 0
    out_first = capsys.readouterr().out
    assert main(argv + ["--out", str(second)]) == 0
    out_second = capsys.readouterr().out
    assert first.read_bytes() == second.read_bytes()
    assert out_first == out_second
    assert first.read_bytes()  # non-empty report
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    _pass("C8", f"two runs byte-identical ({len(out_first)} bytes), {elapsed:.1f}s")
