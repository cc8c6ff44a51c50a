"""Command-line front end for building filters and running experiments.

Commands: build, query, eval, sweep, concentration, repro-example.
Each option's type and default live in its argparse declaration.  A
``--config FILE`` of ``key=value`` lines (keys are option names without
``--``) supplies defaults that argparse casts like flags; flags win.  The table
``_OPTIONS`` says what each mode needs and never reads, checked before any file opens.
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


def _parse_float(text, what: str) -> float:
    """``float(text)``, with a failure reported as a ParameterError naming ``what``."""
    try:
        return float(text)
    except ValueError as exc:
        raise ParameterError(f"bad {what} {text!r}: {exc}") from exc


def _key_arguments(texts: list[str], label: str) -> np.ndarray:
    """``texts`` as a uint64 array: each must be one line of key text that holds a key.

    Every key ``lbf`` reads from its arguments goes through here, so it follows the
    key-file grammar of :func:`parse_keys_text`; a bad one is named after ``label``.
    """
    data = "\n".join(texts).encode("utf-8", "surrogateescape")
    keys, _ = parse_keys_text(data)
    # n lines of key text hold at most n keys, one a line
    if keys.size != len(texts) or data.count(b"\n") != len(texts) - 1:
        bad = next(
            text for text in texts
            if "\n" in text or parse_keys_text(text.encode("utf-8", "surrogateescape"))[0].size != 1
        )  # fmt: skip
        raise ParameterError(f"{label} {bad!r}: not a decimal integer key")
    return keys


def _parse_scorer(spec: str) -> Scorer:
    if spec.startswith("interval:"):
        parts = spec.split(":")
        if len(parts) != 5:
            raise ParameterError(
                "inline interval scorer must be interval:LO:HI:INSIDE:OUTSIDE"
            )
        _, lo, hi, inside, outside = parts
        return IntervalScorer(
            (tuple(_key_arguments([lo, hi], "interval bound").tolist()),),
            inside_score=_parse_float(inside, "interval score"),
            outside_score=_parse_float(outside, "interval score"),
        )
    with open(spec, "rb") as fh:
        return scorer_from_text(fh.read())


def _parse_dist(spec: str, exclusion=()) -> QueryDistribution:
    parts = spec.split(":")
    if parts[0] == "uniform" and len(parts) == 3:
        lo, hi = parts[1:]
        # HI may also be 2^64, the one bound past the last key
        past = hi.strip(" \t\r\v\f") == str(1 << 64)
        lo, hi = _key_arguments([lo, "0" if past else hi], "uniform bound").tolist()
        return QueryDistribution(UniformRange(lo, 1 << 64 if past else hi), exclusion)
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


def _config_echo(args) -> dict:
    """Every resolved option of the run, typed: the ``config`` object of a report."""
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config") and v is not None}


# the options each kind of build never reads, however it is sized
_STANDARD = ("backup-m", "backup-k", "backup-target-fpp", "tau", "scorer", "summary-dist")
_LEARNED = ("m", "k", "target-fpp")
_EXAMPLE = ("m", "k", "keys", "scorer", "target-fpp")

# Per command: the options it always needs, how its options choose a mode, and per
# mode the options it needs and the options it never reads.  An option is given when
# its value differs from its declared default.  A never-read option given is an error,
# reported ahead of a missing one (it may be what chose the mode), never ignored.
_OPTIONS = {
    "build": (
        ("kind", "out"),
        lambda args, given: f"--kind {args.kind} " + (
            ("--m/--k" if given("m") or given("k") else "without --m/--k") if args.kind == "standard"
            else "--backup-m/--backup-k" if given("backup-m") or given("backup-k")
            else "without --backup-m/--backup-k"),
        {
            "--kind standard --m/--k": (("keys", "m", "k"), (*_STANDARD, "target-fpp")),
            "--kind standard without --m/--k": (("keys", "target-fpp"), _STANDARD),
            "--kind learned --backup-m/--backup-k": (
                ("keys", "scorer", "tau", "backup-m", "backup-k"), (*_LEARNED, "backup-target-fpp")),
            "--kind learned without --backup-m/--backup-k": (("keys", "scorer", "tau"), _LEARNED),
            "--kind example --backup-m/--backup-k": (
                ("backup-m", "backup-k"), (*_EXAMPLE, "backup-target-fpp")),
            "--kind example without --backup-m/--backup-k": ((), _EXAMPLE),
        },
    ),
    "query": (("filter",), lambda args, given: ("with" if given("key") else "without") + " key arguments",
              {"with key arguments": ((), ("queries", "seed")),
               "without key arguments": (("queries",), ("seed",))}),
    "eval": (("filter",), lambda args, given: "--queries" if given("queries") else "without --queries",
             {"--queries": ((), ("dist", "samples", "seed")), "without --queries": (("dist",), ())}),
    "sweep": (("keys", "scorer", "taus", "dist"), lambda args, given: "", {"": ((), ())}),
    "concentration": ((), lambda args, given: "--filter" if given("filter") else "without --filter",
                      {"--filter": (("dist",), ("backup-target-fpp",)),
                       "without --filter": ((), ("keys", "dist"))}),
    "repro-example": ((), lambda args, given: "", {"": ((), ())}),
}  # fmt: skip


def _check_options(args, declared: dict) -> None:
    """Raise on an option ``_OPTIONS`` rules out, else clear the unread ones (``declared``: defaults)."""

    def given(name: str) -> bool:
        dest = name.replace("-", "_")
        return getattr(args, dest) != declared[dest]

    def need(names, where: str) -> None:
        for name in names:
            if not given(name):
                raise ParameterError(f"{where} needs --{name}")

    always, choose_mode, modes = _OPTIONS[args.command]
    need(always, args.command)
    mode = choose_mode(args, given)
    needs, unread = modes[mode]
    where = f"{args.command} {mode}".rstrip()
    for name in unread:
        if given(name):
            raise ParameterError(f"--{name} does not apply to {where}")
        setattr(args, name.replace("-", "_"), None)  # so ``config`` does not echo it
    need(needs, where)


def _cmd_build(args) -> int:
    if args.kind == "standard":
        keys = load_keys_text(args.keys)
        if not keys.size:
            raise ParameterError("key set must be nonempty")
        params = (params_for_target(keys.size, args.target_fpp) if args.m is None
                  else FilterParams(args.m, args.k))
        filt = BloomFilter.from_params(params, derive_seed(args.seed, "standard-filter"))
        filt.insert_many(keys)
        payload = filt.to_bytes()
        summary = {
            "kind": "standard",
            "m": filt.m,
            "k": filt.k,
            "key_count": len(keys),
            "fill_ratio": filt.fill_ratio,
            "out": args.out,
        }
    else:  # learned or example
        backup = (args.backup_target_fpp if args.backup_m is None
                  else FilterParams(args.backup_m, args.backup_k))
        if args.kind == "example":
            example, lbf = worked_example_filter(args.seed, backup, args.tau)
            keys = example.keys
        else:
            keys = load_keys_text(args.keys)
            scorer, seed = _parse_scorer(args.scorer), derive_seed(args.seed, "backup-filter")
            lbf = LearnedBloomFilter.build(keys, scorer, args.tau, backup, seed)
        payload = lbf.to_bytes()
        summary = {
            "kind": args.kind,
            "tau": lbf.tau,
            "key_count": lbf.key_count,
            "backup_keys": lbf.below_threshold_count,
            "backup_m": lbf.backup.m,
            "backup_k": lbf.backup.k,
            "scorer_bits": lbf.scorer.size_bits(),
            "total_bits": lbf.size_bits(),
            "out": args.out,
        }
        if args.summary_dist:
            dist = _parse_dist(args.summary_dist, keys)
            try:
                alpha = float(exact_alpha(lbf.scorer, lbf.tau, dist))
            except OracleUnavailableError:
                drawn = sample(dist, 100_000, derive_seed(args.seed, "summary-alpha"))
                alpha = float((lbf.scorer.score_batch(drawn) >= lbf.tau).mean())
            summary["alpha"] = alpha
            summary["alpha_dist"] = args.summary_dist
    if args.keys_out:
        save_keys_text(args.keys_out, keys)
        summary["keys_out"] = args.keys_out
    summary["config"] = _config_echo(args)
    with open(args.out, "wb") as fh:
        fh.write(payload)
    sys.stdout.write(_render(summary, args.format))
    return EXIT_OK


def _cmd_query(args) -> int:
    filt = _load_filter(args.filter)
    keys = _key_arguments(args.key, "query key") if args.key else load_keys_text(args.queries)
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
    filt = _load_filter(args.filter)
    key_set = load_keys_text(args.keys) if args.keys else as_keys(())  # uint64, as queries are
    if args.queries:
        queries = load_keys_text(args.queries)
        overlap = np.intersect1d(queries, key_set)  # sorted and distinct
        if overlap.size:
            raise WorkloadError(f"{overlap.size} query keys overlap the key set (e.g. {overlap[0]})")
    else:
        dist = _parse_dist(args.dist, key_set)
        queries = sample(dist, args.samples, derive_seed(args.seed, "eval"))
    report = evaluate(filt, queries).to_dict()
    _emit(args, {"schema": "learnedbloom-eval/1", "config": _config_echo(args), **report})
    return EXIT_OK


def _cmd_sweep(args) -> int:
    keys = load_keys_text(args.keys)
    scorer = _parse_scorer(args.scorer)
    taus = [_parse_float(t, "threshold") for t in args.taus.split(",") if t.strip()]
    dist = _parse_dist(args.dist, keys)
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
        dist = _parse_dist(args.dist, key_set)
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
    p.add_argument("key", nargs="*", default=[], help="integer keys to query")
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
        _check_options(args, {action.dest: action.default for action in command._actions})
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
