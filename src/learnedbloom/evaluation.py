"""False positive rates and concentration experiments.

Measures any filter's false positive rate on a query batch and predicts it
from the above-threshold query mass (alpha) composed with the backup filter's
rate (a standard filter is its own backup, with alpha 0), sweeps candidate
thresholds, and runs the concentration experiment: test-set vs query-set rate
agreement.  ``exact_alpha`` counts an interval scorer's uniform range in closed
form; its other supports, and the experiment's answer table, come from
``workloads.support_table``, the one walk of the eligible support and the one
reader of ``SUPPORT_LIMIT``.  A sampled rate is an integer count over the blocks
of a ``workloads.Draws``, which the experiment reads its table at, so no more
than one block of draws is held and reports keep the bytes sampling gives.  A
report stores what was measured, range-checked when built; ``model_fpr``,
``binomial_std_err`` and ``theorem_bound`` are properties computed by this
module's functions, which ``to_dict`` adds.  Draw counts are checked by
``workloads.check_draws``, backup design rates by ``learned._sized_backup``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .bloom import expected_fpp
from .errors import OracleUnavailableError, ParameterError, WorkloadError
from .hashing import as_keys, derive_seed
from .learned import LearnedBloomFilter, _at_or_above, _sized_backup
from .scorers import IntervalScorer, Scorer
from .workloads import Draws, QueryDistribution, UniformRange, check_draws, support_table


@dataclass(frozen=True)
class EvalReport:
    """Measured vs predicted false positive rate of one filter on one query batch."""

    empirical_fpr: float
    sample_count: int
    alpha_estimate: float
    backup_fpr_estimate: float

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


def model_fpr(alpha: float, backup_fpr: float) -> float:
    """Composite rate: alpha + (1 - alpha) * backup_fpr."""
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= backup_fpr <= 1.0:
        raise ParameterError("alpha and backup_fpr must lie in [0, 1]")
    return alpha + (1.0 - alpha) * backup_fpr


def exact_alpha(scorer: Scorer, tau: float, dist: QueryDistribution) -> Fraction:
    """Exact Pr(score >= tau) under the distribution.

    Returns the exact rational: above-threshold eligible count over eligible
    count.  For an interval scorer, a uniform range's count is closed-form:
    :meth:`IntervalScorer.count_at_least` less the excluded keys in the range
    that score at or above ``tau``, so any range in [0, 2^64) is exact.  Any
    other support is walked by :func:`workloads.support_table`, each eligible key
    scored once.  It raises OracleUnavailableError when a walked support holds more
    than ``SUPPORT_LIMIT`` eligible keys; callers should then fall back to sampling.
    """
    source, cut = dist.source, dist.part.cut
    if not cut:
        raise WorkloadError("exclusion removes the whole support")
    if isinstance(scorer, IntervalScorer) and isinstance(source, UniformRange):
        dropped = _at_or_above(scorer, tau, source.excluded_keys(dist.exclusion))
        above = scorer.count_at_least(tau, source.lo, source.hi) - int(dropped.sum())
    else:
        above = int(support_table(dist, lambda keys: _at_or_above(scorer, tau, keys)).sum())
    return Fraction(above, cut)


def evaluate(filt, queries) -> EvalReport:
    """``filt``'s rate on ``queries`` (non-members) and its prediction: alpha, the share
    scoring at or above ``tau``, composed with the backup's fill ratio^k.  A standard
    filter is a learned filter with nothing above ``tau``: alpha 0, itself the backup.
    ``queries`` is one key batch, or a :class:`workloads.Draws` counted block by block."""
    drawn = isinstance(queries, Draws)
    blocks = queries if drawn else [as_keys(queries)]
    n = queries.n if drawn else blocks[0].size
    if n == 0:
        raise ParameterError("query list must be nonempty")
    learned, above, hits = isinstance(filt, LearnedBloomFilter), 0, 0
    for keys in blocks:
        mask, answers = filt.classify_many(keys) if learned else (False, filt.contains_many(keys))
        above, hits = above + np.count_nonzero(mask), hits + np.count_nonzero(answers)
    backup = filt.backup if learned else filt
    return EvalReport(empirical_fpr=int(hits) / n, sample_count=n, alpha_estimate=int(above) / n,
                      backup_fpr_estimate=backup.fill_ratio ** backup.k)


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

    A single sample set, each block of it scored once, serves every threshold,
    so along a sorted grid the alpha estimates are non-increasing and the backup
    key counts non-decreasing by pointwise set inclusion, not merely in expectation.
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
    above = [0] * len(taus)
    for scores in map(scorer.score_batch, Draws(dist, samples, rng_seed)):
        above = [count + np.count_nonzero(scores >= tau) for count, tau in zip(above, taus)]
    key_scores = scorer.score_batch(keys)
    points = []
    for tau, count in zip(taus, above):
        alpha = int(count) / samples
        below = int((key_scores < tau).sum())
        params = _sized_backup(backup_target_fpp, below)
        predicted = model_fpr(alpha, expected_fpp(below, params.m, params.k))
        points.append(SweepPoint(tau=tau, alpha_estimate=alpha, backup_keys=below,
                                 total_bits=scorer.size_bits() + params.m, model_fpr=predicted))
    return points


def theorem_bound(epsilon: float, t_size: int, q_size: int) -> float:
    """2 e^(-eps^2 t / 4) + 2 e^(-eps^2 q / 4)."""
    return 2.0 * math.exp(-(epsilon**2) * t_size / 4.0) + 2.0 * math.exp(
        -(epsilon**2) * q_size / 4.0
    )


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

    A filter's answer depends only on the key, so the filter answers each eligible
    key once, into :func:`workloads.support_table`, and each set's rate counts the
    table at the set's :meth:`workloads.Draws.positions`.  The rates, and so the
    report, are the same as sampling every set; a support the table refuses
    (``OracleUnavailableError``) answers every set's keys.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must lie in (0, 1)")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    # before any table is built; each set is charged 4096 draws for its fixed cost (a trial
    # of one draw a set still takes about 50 us), so the limit bounds the trials' time too
    check_draws([t_size, q_size], trials, per_set=4096)
    try:
        table = support_table(dist, lbf.contains_many)
        hits = lambda draws: sum(int(np.count_nonzero(table[pos])) for pos in draws.positions())
    except OracleUnavailableError:
        hits = lambda draws: sum(int(np.count_nonzero(lbf.contains_many(keys))) for keys in draws)
    exceed = 0
    for trial in range(trials):
        x = hits(Draws(dist, t_size, derive_seed(rng_seed, f"T{trial}"))) / t_size
        y = hits(Draws(dist, q_size, derive_seed(rng_seed, f"Q{trial}"))) / q_size
        exceed += abs(x - y) >= epsilon
    return ConcentrationReport(epsilon=float(epsilon), trials=trials, exceed_fraction=exceed / trials,
                               t_size=t_size, q_size=q_size, seed=rng_seed)
