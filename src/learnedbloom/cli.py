"""Command-line front end for building filters and running experiments.

Commands: build, query, eval, sweep, concentration, repro-example.
Each option's type and default live in its argparse declaration.  A
``--config FILE`` of ``key=value`` lines (keys are option names without
``--``) supplies defaults that argparse casts like flags; flags win.  An
option the command's chosen mode never reads is an error (``_UNREAD``)
unless it keeps its declared default.
Every command is deterministic given its options including --seed; reports
carry no timestamps.

Exit codes: 0 success, 2 parameter error, 3 I/O error, 4 workload error,
5 training error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import astuple, fields

import numpy as np

from .bloom import MAGIC, BloomFilter, FilterParams, params_for_target
from .errors import (
    FilterFormatError,
    OracleUnavailableError,
    ParameterError,
    TrainingError,
    WorkloadError,
)
from .evaluation import (
    SweepPoint,
    concentration_experiment,
    evaluate,
    exact_alpha,
    threshold_sweep,
)
from .hashing import _held_keys, as_keys, derive_seed
from .learned import LearnedBloomFilter
from .repro import build_report, worked_example_filter
from .scorers import IntervalScorer, Scorer, scorer_from_text
from .workloads import (
    FixedSet,
    QueryDistribution,
    UniformRange,
    hot_range_example,
    load_keys_text,
    parse_keys_text,
    read_manifest,
    sample,
    save_keys_text,
)

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_IO = 3
EXIT_WORKLOAD = 4
EXIT_TRAINING = 5


def _load_filter(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == MAGIC:
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
    with open(spec, "rb") as fh:
        return scorer_from_text(fh.read())


def _parse_dist(spec: str, exclusion=()) -> QueryDistribution:
    parts = spec.split(":")
    if parts[0] == "uniform" and len(parts) == 3:
        lo, hi = (_parse(int, bound, "uniform bound") for bound in parts[1:])
        return QueryDistribution(UniformRange(lo, hi), exclusion)
    if parts[0] == "fixed" and len(parts) == 2:
        return QueryDistribution(FixedSet(load_keys_text(parts[1])), exclusion)
    raise ParameterError(f"unknown distribution spec {spec!r} (use uniform:LO:HI or fixed:PATH)")


def _flatten(payload, prefix="") -> list[tuple[str, object]]:
    """``(dotted.key, value)`` rows of a nested report, dict keys sorted."""
    if isinstance(payload, dict):
        items = ((key, payload[key]) for key in sorted(payload))
    elif isinstance(payload, (list, tuple)):
        items = enumerate(payload)
    else:
        return [(prefix.rstrip("."), payload)]
    return [row for key, value in items for row in _flatten(value, f"{prefix}{key}.")]


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
    """Write the rendered report, as :func:`_write` does."""
    _write(args, _render(payload, args.format, csv_rows))


def _write(args, text: str) -> None:
    """Print a report's text, and with --out also write it to that file."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _required(args, name: str):
    """The value of ``--name``, which the command needs in the mode its other options chose."""
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise ParameterError(f"missing required option --{name}")
    return value


def _sizing(args, m: str, k: str) -> FilterParams | None:
    """``FilterParams`` of the options ``--m`` and ``--k`` (or a like pair); None if neither is set."""
    values = [getattr(args, name.replace("-", "_")) for name in (m, k)]
    if None in values and values != [None, None]:
        given, missing = (m, k) if values[1] is None else (k, m)
        raise ParameterError(f"--{given} needs --{missing}: give both or neither")
    return None if None in values else FilterParams(*values)


def _config_echo(args) -> dict:
    """Every resolved option of the run, typed: the ``config`` object of a report."""
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config") and v is not None}


# Per command: how its options choose a mode, and the options each mode never
# reads.  Giving one (a value other than its declared default) is an error,
# never an option ignored but echoed in ``config``.
_UNREAD = {
    "build": (
        lambda args: f"--kind {_required(args, 'kind')}",
        {
            "--kind standard": ("backup-m", "backup-k", "backup-target-fpp",
                                "tau", "scorer", "summary-dist"),
            "--kind learned": ("m", "k", "target-fpp"),
            "--kind example": ("m", "k", "keys", "scorer", "target-fpp"),
        },
    ),
    "eval": (lambda args: "--queries" if args.queries else "--dist",
             {"--queries": ("dist", "samples", "seed")}),
    "concentration": (
        lambda args: "--filter" if args.filter else "without --filter",
        {"--filter": ("backup-target-fpp",), "without --filter": ("keys", "dist")},
    ),
    "query": (
        lambda args: "with key arguments" if args.key else "--queries",
        {"with key arguments": ("queries", "seed"), "--queries": ("seed",)},
    ),
}


def _drop_unread(args, declared: dict) -> None:
    """Clear each option the chosen mode never reads; one off its ``declared`` default is an error."""
    if args.command not in _UNREAD:
        return
    choose_mode, unread = _UNREAD[args.command]
    mode = choose_mode(args)
    for name in unread.get(mode, ()):
        dest = name.replace("-", "_")
        if getattr(args, dest) != declared[dest]:
            raise ParameterError(f"--{name} does not apply to {args.command} {mode}")
        setattr(args, dest, None)  # so ``config`` does not echo it


def _cmd_build(args) -> int:
    kind = _required(args, "kind")
    out = _required(args, "out")
    params = _sizing(args, "m", "k")
    if params is not None and args.target_fpp is not None:
        raise ParameterError("--m/--k and --target-fpp both size the filter: give one")
    backup = _sizing(args, "backup-m", "backup-k") or args.backup_target_fpp
    if kind == "standard":
        keys = load_keys_text(_required(args, "keys"))
        if not keys.size:
            raise ParameterError("key set must be nonempty")
        if params is None:
            params = params_for_target(keys.size, _required(args, "target-fpp"))
        filt = BloomFilter.from_params(params, derive_seed(args.seed, "standard-filter"))
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
    else:  # learned or example
        if kind == "example":
            example, scorer, tau = hot_range_example(derive_seed(args.seed, "dataset"))
            keys = example.keys
            tau = tau if args.tau is None else args.tau
        else:
            keys = load_keys_text(_required(args, "keys"))
            scorer = _parse_scorer(_required(args, "scorer"))
            tau = _required(args, "tau")
        lbf = LearnedBloomFilter.build(keys, scorer, tau, backup, derive_seed(args.seed, "backup-filter"))
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
        if args.summary_dist:
            dist = _parse_dist(args.summary_dist, keys)
            try:
                alpha = float(exact_alpha(scorer, tau, dist))
            except OracleUnavailableError:
                drawn = sample(dist, 100_000, derive_seed(args.seed, "summary-alpha"))
                alpha = float((scorer.score_batch(drawn) >= tau).mean())
            summary["alpha"] = alpha
            summary["alpha_dist"] = args.summary_dist
    if args.keys_out:
        save_keys_text(args.keys_out, keys)
        summary["keys_out"] = args.keys_out
    summary["config"] = _config_echo(args)
    with open(out, "wb") as fh:
        fh.write(payload)
    sys.stdout.write(_render(summary, args.format))
    return EXIT_OK


def _key_arguments(texts: list[str]) -> np.ndarray:
    """The key arguments as a uint64 array: each must be one line of key text that holds a key."""
    data = "\n".join(texts).encode("utf-8", "surrogateescape")
    keys, _ = parse_keys_text(data)
    # n lines of key text hold at most n keys, one a line
    if keys.size != len(texts) or data.count(b"\n") != len(texts) - 1:
        bad = next(
            text for text in texts
            if "\n" in text or parse_keys_text(text.encode("utf-8", "surrogateescape"))[0].size != 1
        )  # fmt: skip
        raise ParameterError(f"query key {bad!r}: not a decimal integer key")
    return keys


def _cmd_query(args) -> int:
    filt = _load_filter(_required(args, "filter"))
    if args.key:
        keys = _key_arguments(args.key)
    else:
        keys = load_keys_text(_required(args, "queries"))
    keys = _held_keys(keys, distinct=True)  # an answer depends only on its key
    pairs = zip(keys.tolist(), filt.contains_many(keys).tolist())
    # The bytes json.dumps(indent=2, sort_keys=True) and _flatten would write for
    # {"filter": ..., "results": {str(key): answer}}.  Each line's key is followed by
    # '"' or ',', both below '0', so the lines sort as their distinct keys do as strings.
    if args.format == "json":
        lines = sorted([f'    "{key}": {"true" if hit else "false"}' for key, hit in pairs])
        results = "{\n" + ",\n".join(lines) + "\n  }" if lines else "{}"
        text = f'{{\n  "filter": {json.dumps(args.filter)},\n  "results": {results}\n}}\n'
    else:
        lines = sorted([f"results.{key},{hit}\n" for key, hit in pairs])
        text = _render({}, "csv", [("key", "value"), ("filter", args.filter)]) + "".join(lines)
    _write(args, text)
    return EXIT_OK


def _cmd_eval(args) -> int:
    filt = _load_filter(_required(args, "filter"))
    key_set = load_keys_text(args.keys) if args.keys else as_keys(())  # uint64, as queries are
    if args.queries:
        queries = load_keys_text(args.queries)
        overlap = np.intersect1d(queries, key_set)  # sorted and distinct
        if overlap.size:
            raise WorkloadError(f"{overlap.size} query keys overlap the key set (e.g. {overlap[0]})")
    else:
        dist = _parse_dist(_required(args, "dist"), key_set)
        queries = sample(dist, args.samples, derive_seed(args.seed, "eval"))
    report = evaluate(filt, queries).to_dict()
    _emit(args, {"schema": "learnedbloom-eval/1", "config": _config_echo(args), **report})
    return EXIT_OK


def _cmd_sweep(args) -> int:
    keys = load_keys_text(_required(args, "keys"))
    scorer = _parse_scorer(_required(args, "scorer"))
    taus = [_parse(float, t, "threshold") for t in _required(args, "taus").split(",") if t.strip()]
    dist = _parse_dist(_required(args, "dist"), keys)
    points = threshold_sweep(
        keys,
        scorer,
        taus,
        dist,
        samples=args.samples,
        backup_target_fpp=args.backup_target_fpp,
        rng_seed=derive_seed(args.seed, "sweep"),
    )
    _emit(
        args,
        {
            "schema": "learnedbloom-sweep/1",
            "config": _config_echo(args),
            "points": [vars(p) for p in points],
        },
        csv_rows=[[f.name for f in fields(SweepPoint)], *map(astuple, points)],
    )
    return EXIT_OK


def _cmd_concentration(args) -> int:
    if args.filter:
        filt = _load_filter(args.filter)
        key_set = load_keys_text(args.keys) if args.keys else ()
        dist = _parse_dist(_required(args, "dist"), key_set)
    else:
        example, filt = worked_example_filter(args.seed, args.backup_target_fpp)
        dist = example.full_range_queries()
    report = concentration_experiment(
        filt,
        dist,
        t_size=args.t_size,
        q_size=args.q_size,
        epsilon=args.epsilon,
        trials=args.trials,
        rng_seed=derive_seed(args.seed, "concentration"),
    )
    _emit(
        args,
        {"schema": "learnedbloom-concentration/1", "config": _config_echo(args), **report.to_dict()},
    )
    return EXIT_OK


def _cmd_repro_example(args) -> int:
    report = build_report(
        seed=args.seed,
        full_samples=args.samples,
        restricted_samples=args.restricted_samples,
        backup_target_fpp=args.backup_target_fpp,
        restricted_hi=args.restricted_hi,
    )
    _emit(args, report)
    return EXIT_OK


def _config_flags(command: argparse.ArgumentParser, path: str) -> list[str]:
    """The ``key=value`` lines of ``path`` as ``--key=value`` flags of ``command``.

    A key is an option name without ``--``.  Parsed ahead of the command
    line's own flags, the values are cast like them, and a flag given on the
    command line wins.
    """
    options = {
        name[2:]: action
        for action in command._actions
        for name in action.option_strings
        if name.startswith("--") and action.dest not in ("help", "config")
    }
    flags = []
    for key, value in read_manifest(path).items():
        action = options.get(key)
        if action is None:
            raise ParameterError(f"config key {key!r} in {path} names no option of this command")
        if action.choices is not None and value not in action.choices:
            raise ParameterError(f"config key {key!r} in {path} must be one of {action.choices}")
        flags.append(f"--{key}={value}")
    return flags


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="top-level seed (default 0)")
    parser.add_argument("--out", help="write output to this file as well")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--config", help="key=value config file; flags win")


def _add_backup_target(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backup-target-fpp", type=float, default=0.0002, help="the backup filter's design rate"
    )


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``lbf`` parser and its command subparsers by name, built once: nothing changes them."""
    parser = argparse.ArgumentParser(
        prog="lbf",
        description="Build and evaluate Bloom filters and learned Bloom filters.",
        epilog="exit codes: 0 ok, 2 parameter, 3 I/O, 4 workload, 5 training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a filter and write it to --out")
    p.add_argument("--kind", choices=("standard", "learned", "example"))
    p.add_argument("--keys", help="newline-delimited decimal key file")
    p.add_argument("--target-fpp", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--scorer", help="scorer record file or interval:LO:HI:IN:OUT")
    p.add_argument("--tau", type=float)
    _add_backup_target(p)
    p.add_argument("--backup-m", type=int)
    p.add_argument("--backup-k", type=int)
    p.add_argument("--keys-out", help="also write the key set to this file")
    p.add_argument("--summary-dist", help="also report the query mass above tau on this distribution")
    _add_common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="query a serialized filter")
    p.add_argument("--filter")
    p.add_argument("--queries", help="key file to query")
    p.add_argument("key", nargs="*", help="integer keys to query")
    _add_common(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("eval", help="measure a filter's false positive rate")
    p.add_argument("--filter")
    p.add_argument("--keys", help="key set file (for disjointness/exclusion)")
    p.add_argument("--dist", help="uniform:LO:HI or fixed:PATH")
    p.add_argument("--queries", help="explicit query key file")
    p.add_argument("--samples", type=int, default=100_000)
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="threshold sweep over a tau grid")
    p.add_argument("--keys")
    p.add_argument("--scorer")
    p.add_argument("--taus", help="comma-separated thresholds")
    p.add_argument("--dist")
    p.add_argument("--samples", type=int, default=100_000)
    _add_backup_target(p)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("concentration", help="test-vs-query rate concentration experiment")
    p.add_argument("--filter")
    p.add_argument("--keys")
    p.add_argument("--dist")
    p.add_argument("--t-size", type=int, default=10_000)
    p.add_argument("--q-size", type=int, default=10_000)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=100)
    _add_backup_target(p)
    _add_common(p)
    p.set_defaults(func=_cmd_concentration)

    p = sub.add_parser("repro-example", help="run the worked-example reproduction report")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--restricted-samples", type=int, default=200_000)
    p.add_argument("--restricted-hi", type=int, default=100_000)
    _add_backup_target(p)
    _add_common(p)
    p.set_defaults(func=_cmd_repro_example)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        command = commands[args.command]
        if args.config:
            # lbf itself takes no option with a value, so the command is argv's first match
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_flags(command, args.config), *argv[at:]])
        _drop_unread(args, {action.dest: action.default for action in command._actions})
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
