"""Command-line front end for building filters and running experiments.

Commands: build, query, eval, sweep, concentration, repro-example.
Options may come from flags or from a key=value config file (flags win).
Every command is deterministic given its options including --seed; reports
carry no timestamps.

Exit codes: 0 success, 2 parameter error, 3 I/O error, 4 workload error,
5 training error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .bloom import BloomFilter, FilterParams, params_for_target
from .errors import (
    FilterFormatError,
    OracleUnavailableError,
    ParameterError,
    TrainingError,
    WorkloadError,
)
from .evaluation import (
    concentration_experiment,
    empirical_fpr,
    evaluate,
    exact_alpha,
)
from .hashing import derive_seed
from .learned import LearnedBloomFilter, threshold_sweep
from .repro import build_report
from .scorers import IntervalScorer, Scorer, scorer_from_text
from .workloads import (
    FixedSet,
    QueryDistribution,
    UniformRange,
    hot_range_example,
    load_keys_text,
    read_manifest,
    sample,
    save_keys_text,
)
from .bloom import MAGIC as _BLOOM_MAGIC

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_IO = 3
EXIT_WORKLOAD = 4
EXIT_TRAINING = 5


def _load_filter(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == _BLOOM_MAGIC:
        return BloomFilter.from_bytes(data)
    return LearnedBloomFilter.from_bytes(data)


def _parse(cast, text, what: str):
    """``cast(text)``, with a failure reported as a ParameterError naming ``what``."""
    try:
        return cast(text)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad {what} {text!r}: {exc}") from exc


def _parse_scorer(spec: str) -> Scorer:
    if spec.startswith("interval:"):
        parts = spec.split(":")
        if len(parts) != 5:
            raise ParameterError(
                "inline interval scorer must be interval:LO:HI:INSIDE:OUTSIDE"
            )
        _, lo, hi, inside, outside = parts
        return IntervalScorer(
            ((_parse(int, lo, "interval bound"), _parse(int, hi, "interval bound")),),
            inside_score=_parse(float, inside, "interval score"),
            outside_score=_parse(float, outside, "interval score"),
        )
    with open(spec, "r", encoding="utf-8") as fh:
        return scorer_from_text(fh.read())


def _parse_dist(spec: str, exclusion=frozenset()) -> QueryDistribution:
    parts = spec.split(":")
    if parts[0] == "uniform" and len(parts) == 3:
        lo, hi = (_parse(int, bound, "uniform bound") for bound in parts[1:])
        return QueryDistribution(UniformRange(lo, hi), exclusion)
    if parts[0] == "fixed" and len(parts) == 2:
        return QueryDistribution(FixedSet(tuple(load_keys_text(parts[1]))), exclusion)
    raise ParameterError(f"unknown distribution spec {spec!r} (use uniform:LO:HI or fixed:PATH)")


def _flatten(payload, prefix="") -> list[tuple[str, object]]:
    rows = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(_flatten(payload[key], f"{prefix}{key}." if prefix else f"{key}."))
        return [(name.rstrip("."), value) for name, value in rows] if not prefix else rows
    if isinstance(payload, (list, tuple)):
        for i, item in enumerate(payload):
            rows.extend(_flatten(item, f"{prefix}{i}."))
        return rows
    return [(prefix.rstrip("."), payload)]


def _render(payload: dict, fmt: str, csv_rows=None) -> str:
    """JSON, or CSV of ``csv_rows`` (by default the payload flattened to key,value rows)."""
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if csv_rows is None:
        csv_rows = [("key", "value"), *_flatten(payload)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv_rows)
    return buf.getvalue()


def _emit(args, payload: dict, csv_rows=None) -> None:
    """Print the rendered report, and with --out also write it to that file."""
    text = _render(payload, args.format, csv_rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


class _Options:
    """Flag values backed by an optional key=value config file; flags win."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = read_manifest(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, default=None, cast=None):
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is None and name in self.config:
            value = self.config[name]
        if value is None:
            value = default
        if value is not None and cast is not None:
            value = _parse(cast, value, f"value for --{name}")
        return value

    def require(self, name: str, cast=None):
        value = self.get(name, cast=cast)
        if value is None:
            raise ParameterError(f"missing required option --{name}")
        return value


def _backup_params(opts: _Options, below: int) -> FilterParams:
    m = opts.get("backup-m", cast=int)
    k = opts.get("backup-k", cast=int)
    if m is not None and k is not None:
        return FilterParams(m=m, k=k)
    target = opts.get("backup-target-fpp", 0.0002, cast=float)
    return params_for_target(max(below, 1), target)


def _cmd_build(args) -> int:
    opts = _Options(args)
    kind = opts.require("kind")
    seed = opts.get("seed", 0, cast=int)
    out = opts.require("out")
    if kind == "standard":
        keys = load_keys_text(opts.require("keys"))
        m = opts.get("m", cast=int)
        k = opts.get("k", cast=int)
        if m is not None and k is not None:
            params = FilterParams(m=m, k=k)
        else:
            params = params_for_target(max(len(keys), 1), opts.require("target-fpp", cast=float))
        filt = BloomFilter.from_params(params, derive_seed(seed, "standard-filter"))
        filt.insert_many(keys)
        payload = filt.to_bytes()
        summary = {
            "kind": "standard",
            "m": filt.m,
            "k": filt.k,
            "key_count": len(keys),
            "fill_ratio": filt.fill_ratio,
            "out": out,
        }
    elif kind in ("learned", "example"):
        if kind == "example":
            example, scorer, default_tau = hot_range_example(derive_seed(seed, "dataset"))
            keys = list(example.keys)
            tau = opts.get("tau", default_tau, cast=float)
        else:
            keys = load_keys_text(opts.require("keys"))
            scorer = _parse_scorer(opts.require("scorer"))
            tau = opts.require("tau", cast=float)
        below = int((scorer.score_batch(keys) < tau).sum())
        lbf = LearnedBloomFilter.build(
            keys, scorer, tau, _backup_params(opts, below), derive_seed(seed, "backup-filter")
        )
        payload = lbf.to_bytes()
        summary = {
            "kind": kind,
            "tau": tau,
            "key_count": lbf.key_count,
            "backup_keys": lbf.below_threshold_count,
            "backup_m": lbf.backup.m,
            "backup_k": lbf.backup.k,
            "scorer_bits": lbf.scorer.size_bits(),
            "total_bits": lbf.size_bits(),
            "out": out,
        }
        summary_dist = opts.get("summary-dist")
        if summary_dist:
            dist = _parse_dist(summary_dist, frozenset(int(k) for k in keys))
            try:
                alpha = float(exact_alpha(scorer, tau, dist))
            except OracleUnavailableError:
                drawn = sample(dist, 100_000, derive_seed(seed, "summary-alpha"))
                alpha = float((scorer.score_batch(drawn) >= tau).mean())
            summary["alpha"] = alpha
            summary["alpha_dist"] = summary_dist
    else:
        raise ParameterError(f"unknown build kind {kind!r}")
    keys_out = opts.get("keys-out")
    if keys_out:
        save_keys_text(keys_out, keys)
        summary["keys_out"] = keys_out
    with open(out, "wb") as fh:
        fh.write(payload)
    sys.stdout.write(_render(summary, args.format))
    return EXIT_OK


def _cmd_query(args) -> int:
    opts = _Options(args)
    filt = _load_filter(opts.require("filter"))
    if args.key:
        keys = [_parse(int, k, "query key") for k in args.key]
    else:
        keys = load_keys_text(opts.require("queries"))
    results = {str(k): bool(filt.contains(k)) for k in keys}
    _emit(args, {"filter": opts.require("filter"), "results": results})
    return EXIT_OK


def _cmd_eval(args) -> int:
    opts = _Options(args)
    filt = _load_filter(opts.require("filter"))
    seed = opts.get("seed", 0, cast=int)
    key_path = opts.get("keys")
    key_set = frozenset(load_keys_text(key_path)) if key_path else frozenset()
    queries_path = opts.get("queries")
    if queries_path:
        queries = load_keys_text(queries_path)
        overlap = key_set.intersection(queries)
        if overlap:
            raise WorkloadError(
                f"{len(overlap)} query keys overlap the key set (e.g. {min(overlap)})"
            )
        payload = {
            "empirical_fpr": empirical_fpr(filt, queries),
            "sample_count": len(queries),
            "seed": seed,
        }
    else:
        dist = _parse_dist(opts.require("dist"), key_set)
        samples = opts.get("samples", 100_000, cast=int)
        if isinstance(filt, LearnedBloomFilter):
            payload = evaluate(filt, dist, samples, derive_seed(seed, "eval")).to_dict()
        else:
            queries = sample(dist, samples, derive_seed(seed, "eval"))
            payload = {
                "empirical_fpr": empirical_fpr(filt, queries),
                "sample_count": samples,
                "seed": seed,
            }
    _emit(args, {"schema": "learnedbloom-eval/1", "config": _config_echo(opts), **payload})
    return EXIT_OK


def _config_echo(opts: _Options) -> dict:
    echo = {}
    for name, value in sorted(vars(opts.args).items()):
        if name in ("func", "config") or value is None:
            continue
        echo[name] = value
    return echo


def _cmd_sweep(args) -> int:
    opts = _Options(args)
    keys = load_keys_text(opts.require("keys"))
    scorer = _parse_scorer(opts.require("scorer"))
    taus_raw = opts.require("taus")
    taus = [_parse(float, t, "threshold") for t in str(taus_raw).split(",") if t.strip() != ""]
    if not taus:
        raise ParameterError("tau grid must be nonempty")
    dist = _parse_dist(opts.require("dist"), frozenset(keys))
    points = threshold_sweep(
        keys,
        scorer,
        taus,
        dist,
        samples=opts.get("samples", 100_000, cast=int),
        backup_target_fpp=opts.get("backup-target-fpp", 0.0002, cast=float),
        rng_seed=derive_seed(opts.get("seed", 0, cast=int), "sweep"),
    )
    ordered = sorted(points, key=lambda p: p.tau)
    for a, b in zip(ordered, ordered[1:]):  # sanity: inclusion forces monotonicity
        if b.alpha_estimate > a.alpha_estimate or b.backup_keys < a.backup_keys:
            raise RuntimeError("sweep monotonicity violated; shared-sample invariant broken")
    columns = ("tau", "alpha_estimate", "backup_keys", "total_bits", "model_fpr")
    _emit(
        args,
        {"schema": "learnedbloom-sweep/1", "points": [vars(p) for p in points]},
        csv_rows=[columns, *([getattr(p, c) for c in columns] for p in points)],
    )
    return EXIT_OK


def _cmd_concentration(args) -> int:
    opts = _Options(args)
    seed = opts.get("seed", 0, cast=int)
    filter_path = opts.get("filter")
    if filter_path:
        filt = _load_filter(filter_path)
        key_path = opts.get("keys")
        key_set = frozenset(load_keys_text(key_path)) if key_path else frozenset()
        dist = _parse_dist(opts.require("dist"), key_set)
    else:
        example, scorer, tau = hot_range_example(derive_seed(seed, "dataset"))
        below = len(example.keys_outside)
        filt = LearnedBloomFilter.build(
            example.keys,
            scorer,
            tau,
            params_for_target(below, opts.get("backup-target-fpp", 0.0002, cast=float)),
            derive_seed(seed, "backup-filter"),
        )
        dist = example.full_range_queries()
    report = concentration_experiment(
        filt,
        dist,
        t_size=opts.get("t-size", 10_000, cast=int),
        q_size=opts.get("q-size", 10_000, cast=int),
        epsilon=opts.get("epsilon", 0.05, cast=float),
        trials=opts.get("trials", 100, cast=int),
        rng_seed=derive_seed(seed, "concentration"),
    )
    _emit(
        args,
        {"schema": "learnedbloom-concentration/1", "config": _config_echo(opts), **report.to_dict()},
    )
    return EXIT_OK


def _cmd_repro_example(args) -> int:
    opts = _Options(args)
    report = build_report(
        seed=opts.get("seed", 0, cast=int),
        full_samples=opts.get("samples", 1_000_000, cast=int),
        restricted_samples=opts.get("restricted-samples", 200_000, cast=int),
        backup_target_fpp=opts.get("backup-target-fpp", 0.0002, cast=float),
        restricted_hi=opts.get("restricted-hi", 100_000, cast=int),
    )
    _emit(args, report)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="top-level seed (default 0)")
    parser.add_argument("--out", default=None, help="write output to this file as well")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--config", default=None, help="key=value config file; flags win")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbf",
        description="Build and evaluate Bloom filters and learned Bloom filters.",
        epilog="exit codes: 0 ok, 2 parameter, 3 I/O, 4 workload, 5 training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a filter and write it to --out")
    p.add_argument("--kind", choices=("standard", "learned", "example"), default=None)
    p.add_argument("--keys", default=None, help="newline-delimited decimal key file")
    p.add_argument("--target-fpp", default=None)
    p.add_argument("--m", default=None)
    p.add_argument("--k", default=None)
    p.add_argument("--scorer", default=None, help="scorer record file or interval:LO:HI:IN:OUT")
    p.add_argument("--tau", default=None)
    p.add_argument("--backup-target-fpp", default=None)
    p.add_argument("--backup-m", default=None)
    p.add_argument("--backup-k", default=None)
    p.add_argument("--keys-out", default=None, help="also write the key set to this file")
    p.add_argument(
        "--summary-dist", default=None,
        help="also report the above-threshold query mass on this distribution",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="query a serialized filter")
    p.add_argument("--filter", default=None)
    p.add_argument("--queries", default=None, help="key file to query")
    p.add_argument("key", nargs="*", help="integer keys to query")
    _add_common(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("eval", help="measure a filter's false positive rate")
    p.add_argument("--filter", default=None)
    p.add_argument("--keys", default=None, help="key set file (for disjointness/exclusion)")
    p.add_argument("--dist", default=None, help="uniform:LO:HI or fixed:PATH")
    p.add_argument("--queries", default=None, help="explicit query key file")
    p.add_argument("--samples", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="threshold sweep over a tau grid")
    p.add_argument("--keys", default=None)
    p.add_argument("--scorer", default=None)
    p.add_argument("--taus", default=None, help="comma-separated thresholds")
    p.add_argument("--dist", default=None)
    p.add_argument("--samples", default=None)
    p.add_argument("--backup-target-fpp", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("concentration", help="test-vs-query rate concentration experiment")
    p.add_argument("--filter", default=None)
    p.add_argument("--keys", default=None)
    p.add_argument("--dist", default=None)
    p.add_argument("--t-size", default=None)
    p.add_argument("--q-size", default=None)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--trials", default=None)
    p.add_argument("--backup-target-fpp", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_concentration)

    p = sub.add_parser("repro-example", help="run the worked-example reproduction report")
    p.add_argument("--samples", default=None)
    p.add_argument("--restricted-samples", default=None)
    p.add_argument("--restricted-hi", default=None)
    p.add_argument("--backup-target-fpp", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_repro_example)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse reports its own errors on stderr
        return int(exc.code or 0)
    except (ParameterError, FilterFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (WorkloadError, OracleUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKLOAD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
