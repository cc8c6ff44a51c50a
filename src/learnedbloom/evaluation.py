"""False positive rates and concentration experiments.

Measures empirical false positive rates on sampled workloads, predicts
them from the above-threshold query mass (alpha) composed with the
backup filter's rate, computes alpha exactly by enumerating finite
integer supports, and runs the concentration experiment: test-set vs
query-set rate agreement.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import OracleUnavailableError, ParameterError, WorkloadError
from .hashing import as_keys, derive_seed
from .learned import LearnedBloomFilter
from .scorers import Scorer
from .workloads import QueryDistribution, UniformRange, _as_mixture, _excluded, sample

SUPPORT_LIMIT = 10**7  # largest support exact enumeration will walk
_CHUNK = 1 << 20


@dataclass(frozen=True)
class EvalReport:
    """Measured vs predicted false positive rate for one filter and workload."""

    empirical_fpr: float
    sample_count: int
    alpha_estimate: float
    backup_fpr_estimate: float
    model_fpr: float
    binomial_std_err: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.empirical_fpr <= 1.0:
            raise ParameterError("empirical_fpr must lie in [0, 1]")
        composed = self.alpha_estimate + (1.0 - self.alpha_estimate) * self.backup_fpr_estimate
        if abs(self.model_fpr - composed) > 1e-12:
            raise ParameterError("model_fpr must equal alpha + (1 - alpha) * backup_fpr")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical exceedance of |X - Y| >= epsilon against the Chernoff-style bound."""

    epsilon: float
    trials: int
    exceed_fraction: float
    theorem_bound: float
    t_size: int
    q_size: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.exceed_fraction <= 1.0:
            raise ParameterError("exceed_fraction must lie in [0, 1]")
        stated = theorem_bound(self.epsilon, self.t_size, self.q_size)
        if abs(self.theorem_bound - stated) > 1e-12 * max(stated, 1.0):
            raise ParameterError("theorem_bound must equal 2e^(-eps^2 t/4) + 2e^(-eps^2 q/4)")

    def to_dict(self) -> dict:
        return asdict(self)


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


def _source_counts(scorer: Scorer, tau: float, source, exclusion: np.ndarray) -> tuple[int, int]:
    """(# eligible keys scoring >= tau, # eligible keys) within one component.

    Every key of the component is scored, then the excluded ones (``_excluded``,
    the positions ``sample`` never emits) are taken back out.
    """
    excluded = _excluded(source, exclusion)
    if isinstance(source, UniformRange):
        starts = range(source.lo, source.hi, _CHUNK)
        blocks = (np.arange(s, min(s + _CHUNK, source.hi), dtype=np.uint64) for s in starts)
        excluded_keys = excluded + np.uint64(source.lo)
    else:
        blocks = [source.keys]
        excluded_keys = source.keys[excluded]
    above = sum(int((scorer.score_batch(block) >= tau).sum()) for block in blocks)
    above -= int((scorer.score_batch(excluded_keys) >= tau).sum())
    return above, source.size - int(excluded.size)


def exact_alpha(scorer: Scorer, tau: float, dist: QueryDistribution) -> Fraction:
    """Exact Pr(score >= tau) under the distribution, by support enumeration.

    Returns the exact rational: above-threshold eligible count over eligible
    count for uniform and fixed-set supports, the weighted analogue for
    mixtures.  Raises OracleUnavailableError when the support exceeds
    ``SUPPORT_LIMIT``; callers should then fall back to sampling.
    """
    mixture = _as_mixture(dist.source)
    size = sum(component.size for component in mixture.components)
    if size > SUPPORT_LIMIT:
        raise OracleUnavailableError(
            f"support of {size} exceeds the enumeration limit {SUPPORT_LIMIT}"
        )
    above_mass = eligible_mass = Fraction(0)
    for component, weight in zip(mixture.components, mixture.weights):
        above, eligible = _source_counts(scorer, tau, component, dist.exclusion)
        share = Fraction(weight) / component.size
        above_mass += share * above
        eligible_mass += share * eligible
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
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    above, answers = lbf.classify_many(sample(dist, samples, rng_seed))
    alpha = float(above.mean())
    backup_rate = backup_fpr_estimate(lbf)
    predicted = model_fpr(alpha, backup_rate)
    return EvalReport(
        empirical_fpr=float(answers.mean()),
        sample_count=samples,
        alpha_estimate=alpha,
        backup_fpr_estimate=backup_rate,
        model_fpr=predicted,
        binomial_std_err=math.sqrt(max(predicted * (1.0 - predicted), 0.0) / samples),
        seed=rng_seed,
    )


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
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must lie in (0, 1)")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if t_size < 1 or q_size < 1:
        raise ParameterError("t_size and q_size must be >= 1")
    exceed = 0
    for trial in range(trials):
        t_set = sample(dist, t_size, derive_seed(rng_seed, f"T{trial}"))
        q_set = sample(dist, q_size, derive_seed(rng_seed, f"Q{trial}"))
        x = empirical_fpr(lbf, t_set)
        y = empirical_fpr(lbf, q_set)
        if abs(x - y) >= epsilon:
            exceed += 1
    return ConcentrationReport(
        epsilon=float(epsilon),
        trials=trials,
        exceed_fraction=exceed / trials,
        theorem_bound=theorem_bound(epsilon, t_size, q_size),
        t_size=t_size,
        q_size=q_size,
        seed=rng_seed,
    )
