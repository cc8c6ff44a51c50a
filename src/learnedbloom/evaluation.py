"""False positive rates and concentration experiments.

Measures empirical false positive rates on sampled workloads, predicts
them from the above-threshold query mass (alpha) composed with the
backup filter's rate, sweeps candidate thresholds, and runs the concentration
experiment: test-set vs query-set rate agreement.  ``exact_alpha`` and the
experiment's answer tables walk the eligible support through one iterator,
``workloads._eligible_blocks``, when it holds at most ``SUPPORT_LIMIT`` keys (a
table, at most ``trials * (t_size + q_size)`` too); the tables answer each
eligible key once, and the reports keep the bytes sampling gives.  A report
stores what was measured, range-checked when built; ``model_fpr``,
``binomial_std_err`` and ``theorem_bound`` are properties computed by this
module's functions, which ``to_dict`` adds.  Sample counts and set sizes are
checked by ``workloads._check_sample_count``, backup design rates by
``learned._sized_backup``, once for every caller.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .bloom import expected_fpp
from .errors import OracleUnavailableError, ParameterError, WorkloadError
from .hashing import as_keys, derive_seed
from .learned import LearnedBloomFilter, _sized_backup
from .scorers import Scorer
from .workloads import (Part, QueryDistribution, _check_sample_count, _draw_positions,
                        _eligible_blocks, sample)

SUPPORT_LIMIT = 10**7  # largest eligible support exact_alpha or an answer table will walk


@dataclass(frozen=True)
class EvalReport:
    """Measured vs predicted false positive rate for one filter and workload."""

    empirical_fpr: float
    sample_count: int
    alpha_estimate: float
    backup_fpr_estimate: float
    seed: int

    def __post_init__(self):
        for name in ("empirical_fpr", "alpha_estimate", "backup_fpr_estimate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1]")
        if self.sample_count < 1:
            raise ParameterError("sample_count must be >= 1")

    @property
    def model_fpr(self) -> float:
        """alpha + (1 - alpha) * backup rate, by :func:`model_fpr`."""
        return model_fpr(self.alpha_estimate, self.backup_fpr_estimate)

    @property
    def binomial_std_err(self) -> float:
        """sqrt(p (1 - p) / n) at p = ``model_fpr`` and n = ``sample_count``."""
        return math.sqrt(max(self.model_fpr * (1.0 - self.model_fpr), 0.0) / self.sample_count)

    def to_dict(self) -> dict:
        derived = {"model_fpr": self.model_fpr, "binomial_std_err": self.binomial_std_err}
        return {**asdict(self), **derived}


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical exceedance of |X - Y| >= epsilon against the Chernoff-style bound."""

    epsilon: float
    trials: int
    exceed_fraction: float
    t_size: int
    q_size: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.exceed_fraction <= 1.0:
            raise ParameterError("exceed_fraction must lie in [0, 1]")

    @property
    def theorem_bound(self) -> float:
        """The bound :func:`theorem_bound` gives at this report's epsilon and set sizes."""
        return theorem_bound(self.epsilon, self.t_size, self.q_size)

    def to_dict(self) -> dict:
        return {**asdict(self), "theorem_bound": self.theorem_bound}


def empirical_fpr(filt, queries) -> float:
    """Fraction of positive answers over queries known to be non-members."""
    queries = as_keys(queries)
    if queries.size == 0:
        raise ParameterError("query list must be nonempty")
    return float(np.asarray(filt.contains_many(queries), dtype=bool).mean())


def model_fpr(alpha: float, backup_fpr: float) -> float:
    """Composite rate: alpha + (1 - alpha) * backup_fpr."""
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= backup_fpr <= 1.0:
        raise ParameterError("alpha and backup_fpr must lie in [0, 1]")
    return alpha + (1.0 - alpha) * backup_fpr


def exact_alpha(scorer: Scorer, tau: float, dist: QueryDistribution) -> Fraction:
    """Exact Pr(score >= tau) under the distribution, by eligible-support enumeration.

    Returns the exact rational: above-threshold eligible count over eligible
    count for uniform and fixed-set supports, the weighted analogue for
    mixtures: each eligible key scored once, as ``_eligible_blocks`` walks them.
    Raises OracleUnavailableError when the eligible count, summed over the
    components, exceeds ``SUPPORT_LIMIT``; callers should then fall back to sampling.
    """
    eligible = sum(part.cut for part in dist.parts)
    if eligible > SUPPORT_LIMIT:
        raise OracleUnavailableError(
            f"eligible support of {eligible} exceeds the enumeration limit {SUPPORT_LIMIT}"
        )
    above_mass = eligible_mass = Fraction(0)
    for part in dist.parts:
        above = sum(int((scorer.score_batch(keys) >= tau).sum()) for keys in _eligible_blocks(part))
        share = Fraction(part.weight) / part.component.size
        above_mass += share * above
        eligible_mass += share * part.cut
    if eligible_mass == 0:
        raise WorkloadError("exclusion removes the whole support")
    return above_mass / eligible_mass


def backup_fpr_estimate(lbf: LearnedBloomFilter) -> float:
    """Backup filter rate from its realized fill: fill ratio^k (``expected_fpp`` is the closed form)."""
    return lbf.backup.fill_ratio ** lbf.backup.k


def evaluate(
    lbf: LearnedBloomFilter, dist: QueryDistribution, samples: int, rng_seed: int
) -> EvalReport:
    """Measure the empirical rate on a sampled workload and the model prediction."""
    above, answers = lbf.classify_many(sample(dist, samples, rng_seed))
    return EvalReport(
        empirical_fpr=float(answers.mean()),
        sample_count=samples,
        alpha_estimate=float(above.mean()),
        backup_fpr_estimate=backup_fpr_estimate(lbf),
        seed=rng_seed,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One threshold candidate: query mass above it, backup load, size, predicted rate."""

    tau: float
    alpha_estimate: float
    backup_keys: int
    total_bits: int
    model_fpr: float


def threshold_sweep(
    keys,
    scorer: Scorer,
    taus,
    dist: QueryDistribution,
    samples: int,
    backup_target_fpp: float,
    rng_seed: int,
) -> list[SweepPoint]:
    """Evaluate candidate thresholds against one shared query sample.

    A single sample set serves every threshold, so along a sorted grid the
    alpha estimates are non-increasing and the backup key counts
    non-decreasing by pointwise set inclusion, not merely in expectation.
    The backup for each candidate is sized for its below-threshold keys at
    ``backup_target_fpp``, as :meth:`LearnedBloomFilter.build` sizes it, and
    the predicted rate composes the sampled alpha with the sized backup's
    expected false positive probability through :func:`model_fpr`.
    """
    taus = [float(t) for t in taus]
    if not taus:
        raise ParameterError("tau grid must be nonempty")
    if any(not 0.0 <= t <= 1.0 for t in taus):
        raise ParameterError("every tau must lie in [0, 1]")
    keys = as_keys(keys)
    if not keys.size:
        raise ParameterError("key set must be nonempty")
    _sized_backup(backup_target_fpp, 1)  # a bad rate fails before the draw
    query_scores = scorer.score_batch(sample(dist, samples, rng_seed))
    key_scores = scorer.score_batch(keys)
    points = []
    for tau in taus:
        alpha = float((query_scores >= tau).mean())
        below = int((key_scores < tau).sum())
        params = _sized_backup(backup_target_fpp, below)
        points.append(
            SweepPoint(
                tau=tau,
                alpha_estimate=alpha,
                backup_keys=below,
                total_bits=scorer.size_bits() + params.m,
                model_fpr=model_fpr(alpha, expected_fpp(below, params.m, params.k)),
            )
        )
    return points


def theorem_bound(epsilon: float, t_size: int, q_size: int) -> float:
    """2 e^(-eps^2 t / 4) + 2 e^(-eps^2 q / 4)."""
    return 2.0 * math.exp(-(epsilon**2) * t_size / 4.0) + 2.0 * math.exp(
        -(epsilon**2) * q_size / 4.0
    )


def _answer_table(filt, part: Part) -> np.ndarray:
    """The filter's answer at each of a part's eligible positions, indexed by raw position:
    its answer to the key :func:`sample` draws for that position, one block per call."""
    answers = [np.asarray(filt.contains_many(keys), dtype=bool) for keys in _eligible_blocks(part)]
    return np.concatenate(answers) if answers else np.empty(0, dtype=bool)


def _table_rate(tables: list, dist: QueryDistribution, n: int, rng_seed: int) -> float:
    """``empirical_fpr`` of ``sample(dist, n, rng_seed)``, read from each part's answer table."""
    _, positions = _draw_positions(dist, n, rng_seed)
    return float(np.concatenate([table[pos] for table, pos in zip(tables, positions)]).mean())


def concentration_experiment(
    lbf,
    dist: QueryDistribution,
    t_size: int,
    q_size: int,
    epsilon: float,
    trials: int,
    rng_seed: int,
) -> ConcentrationReport:
    """Per trial, draw independent test/query sets and compare their empirical rates.

    Both sets are sampled with replacement from the same distribution; the
    report pairs the observed exceedance fraction of |X - Y| >= epsilon with
    the explicit two-sided bound.

    A filter's answer depends only on the key, so when the eligible support is at
    most ``min(SUPPORT_LIMIT, trials * (t_size + q_size))``, the filter answers each
    eligible key once, into one table per part, and each set's rate is the mean
    of the table at the positions :func:`sample` would draw, from the same random
    stream.  The rates, and so the report, are the same as sampling every set;
    a larger support samples every set.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must lie in (0, 1)")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    _check_sample_count(t_size)  # both before any answer table is built
    _check_sample_count(q_size)
    if sum(part.cut for part in dist.parts) <= min(SUPPORT_LIMIT, trials * (t_size + q_size)):
        rate = partial(_table_rate, [_answer_table(lbf, part) for part in dist.parts], dist)
    else:
        rate = lambda n, seed: empirical_fpr(lbf, sample(dist, n, seed))
    exceed = 0
    for trial in range(trials):
        x = rate(t_size, derive_seed(rng_seed, f"T{trial}"))
        y = rate(q_size, derive_seed(rng_seed, f"Q{trial}"))
        if abs(x - y) >= epsilon:
            exceed += 1
    return ConcentrationReport(
        epsilon=float(epsilon),
        trials=trials,
        exceed_fraction=exceed / trials,
        t_size=t_size,
        q_size=q_size,
        seed=rng_seed,
    )
