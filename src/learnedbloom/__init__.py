"""Membership filters and an evaluation harness for learned Bloom filters."""

from .bloom import (
    BloomFilter,
    FilterParams,
    expected_fill_ratio,
    expected_fpp,
    params_for_target,
)
from .errors import (
    FilterFormatError,
    OracleUnavailableError,
    ParameterError,
    TrainingError,
    WorkloadError,
)
from .evaluation import (
    ConcentrationReport,
    EvalReport,
    SweepPoint,
    concentration_experiment,
    evaluate,
    exact_alpha,
    model_fpr,
    theorem_bound,
    threshold_sweep,
)
from .hashing import as_keys, derive_seed
from .learned import LearnedBloomFilter
from .scorers import (
    IntervalScorer,
    LogisticScorer,
    Scorer,
    TrainingSet,
    feature_map,
    log_loss,
    scorer_from_text,
    scorer_to_text,
    train_logistic,
)
from .workloads import (
    Draws,
    FixedSet,
    HotRangeExample,
    QueryDistribution,
    UniformRange,
    hot_range_example,
    sample,
    uniform_queries,
)

__version__ = "0.1.0"

__all__ = [
    "BloomFilter",
    "ConcentrationReport",
    "Draws",
    "EvalReport",
    "FilterFormatError",
    "FilterParams",
    "FixedSet",
    "HotRangeExample",
    "IntervalScorer",
    "LearnedBloomFilter",
    "LogisticScorer",
    "OracleUnavailableError",
    "ParameterError",
    "QueryDistribution",
    "Scorer",
    "SweepPoint",
    "TrainingError",
    "TrainingSet",
    "UniformRange",
    "WorkloadError",
    "as_keys",
    "concentration_experiment",
    "derive_seed",
    "evaluate",
    "exact_alpha",
    "expected_fill_ratio",
    "expected_fpp",
    "feature_map",
    "hot_range_example",
    "log_loss",
    "model_fpr",
    "params_for_target",
    "sample",
    "scorer_from_text",
    "scorer_to_text",
    "theorem_bound",
    "threshold_sweep",
    "train_logistic",
    "uniform_queries",
]
