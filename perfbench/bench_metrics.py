"""Names, units and directions of every metric the benchmark reports.

Kept apart from the code that measures them, and free of library imports,
so that the driver process and the self-tests can read them without
importing numpy or ``learnedbloom``.
"""

# (name, unit, better); every timed run reports all of them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("build_keys_per_s", "keys/s", "higher"),
    ("query_keys_per_s", "keys/s", "higher"),
    ("scalar_query_keys_per_s", "keys/s", "higher"),
    ("report_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("filter_mem_bytes_per_key", "B/key", "lower"),
)

# The experiment-cli commands; every run of one is a span ``cli.<step>``, summed per pass.
CLI_STEPS = (
    "build_standard",
    "query",
    "eval_standard",
    "build_example",
    "eval_example",
    "concentration",
    "repro_example",
)

SCORER_FAMILIES = ("interval", "int_centered", "byte_ngram")

# (name, unit, better) for every per-layer metric; a layer the workload does
# not call reads 0.
PER_LAYER = (
    ("hashing.hash_pair_batch.s", "s", "lower"),
    ("hashing.hash_pair_batch.keys", "count", "lower"),
    ("bloom.insert_many.s", "s", "lower"),
    ("bloom.contains_many.s", "s", "lower"),
    ("bloom.contains_many.self_s", "s", "lower"),
    ("bloom.contains.us", "us", "lower"),
    ("bloom.probes", "count", "lower"),
    ("bloom.probe_temp_bytes_computed", "B", "lower"),
    ("bloom.fill_ratio", "ratio", "lower"),
    ("bloom.to_bytes.s", "s", "lower"),
    ("bloom.from_bytes.s", "s", "lower"),
    *((f"scorers.score_batch.{f}.us_per_key", "us/key", "lower") for f in SCORER_FAMILIES),
    ("scorers.train_logistic.s", "s", "lower"),
    ("learned.build.s", "s", "lower"),
    ("learned.contains_many.s", "s", "lower"),
    ("learned.contains_many.self_s", "s", "lower"),
    ("learned.above_tau", "count", "lower"),
    ("learned.to_backup", "count", "lower"),
    ("learned.backup_hits", "count", "lower"),
    ("learned.backup_hit_ratio", "ratio", "lower"),
    ("workloads.sample.s", "s", "lower"),
    ("workloads.sample.keys", "count", "lower"),
    ("workloads.load_keys_text.s", "s", "lower"),
    ("evaluation.exact_alpha.s", "s", "lower"),
    ("evaluation.exact_alpha.support", "count", "lower"),
    ("evaluation.evaluate.s", "s", "lower"),
    ("evaluation.concentration.trial_ms", "ms", "lower"),
    ("evaluation.concentration.queries", "count", "lower"),
    ("repro.build_report.s", "s", "lower"),
    *((f"cli.{step}.s", "s", "lower") for step in CLI_STEPS),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Metrics that are counts of work, which must repeat exactly for one seed.
EXACT_COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")
