"""Command-line front end for building filters and running experiments.

Commands: build, query, eval, sweep, concentration, repro-example.  Each option
is declared once, in ``_COMMANDS``; an integer follows the key-file grammar and a
real number one decimal grammar.  A ``--config FILE`` of ``key=value`` lines
(keys are option names without ``--``) gives flags read before the command
line's, which win.  ``_OPTIONS`` says what each mode needs and never reads,
checked before any file opens.  Every command is deterministic given its options
including --seed; reports carry no timestamps.

Exit codes: 0 success, 2 parameter error, 3 I/O error, 4 workload error,
5 training error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
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
    Draws,
    FixedSet,
    QueryDistribution,
    UniformRange,
    _SPACES,
    load_keys_text,
    parse_keys_text,
    read_manifest,
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


# the decimal grammar: ASCII digits, an optional fraction and an optional exponent
_DECIMAL = re.compile(rf"[{_SPACES}]*[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?[{_SPACES}]*")


def _decimal(text: str, label: str) -> float:
    """``text`` as a float if it is a decimal number the float range holds, else a ParameterError."""
    if _DECIMAL.fullmatch(text) is None or not np.isfinite(value := float(text)):
        raise ParameterError(f"bad {label} {text!r}: not a decimal number")
    return value


def _integer(text: str, label: str) -> int:
    """``text`` as an int if it is one line of key text that holds a key (``_key_arguments``)."""
    return int(_key_arguments([text], label)[0])


def _key_arguments(texts: list[str], label: str) -> np.ndarray:
    """``texts`` as a uint64 array: each must be one line of key text that holds a key.

    Every key ``lbf`` reads from its arguments goes through here, so it follows the
    key-file grammar of :func:`parse_keys_text`; a bad one is named after ``label``.
    """
    data = "\n".join(texts).encode("utf-8", "surrogateescape")
    keys, bad = parse_keys_text(data)
    # n lines of key text hold at most n keys, one a line
    if keys.size != len(texts) or data.count(b"\n") != len(texts) - 1:
        # up to the first argument that holds a newline, argument i is line i
        text = next(
            text for i, text in enumerate(texts) if "\n" in text or not text.strip(_SPACES) or i == bad
        )  # fmt: skip
        raise ParameterError(f"{label} {text!r}: not a decimal integer key")
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
            inside_score=_decimal(inside, "interval score"),
            outside_score=_decimal(outside, "interval score"),
        )
    with open(spec, "rb") as fh:
        return scorer_from_text(fh.read())


def _parse_dist(spec: str, exclusion=()) -> QueryDistribution:
    parts = spec.split(":")
    if parts[0] == "uniform" and len(parts) == 3:
        lo, hi = parts[1:]
        # HI may also be 2^64, the one bound past the last key
        past = hi.strip(_SPACES) == str(1 << 64)
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
    "query": (("filter",), lambda args, given: ("with" if args.key else "without") + " key arguments",
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
    """Raise on an option ``_OPTIONS`` rules out, else clear the unread ones (``declared``: its table)."""

    def given(name: str) -> bool:
        return getattr(args, name.replace("-", "_")) != declared[name][1]

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
        summary = {"kind": args.kind, "tau": lbf.tau, **lbf.build_fields(), "out": args.out}
        if args.summary_dist:
            dist = _parse_dist(args.summary_dist, keys)
            try:
                alpha = float(exact_alpha(lbf.scorer, lbf.tau, dist))
            except OracleUnavailableError:
                draws = Draws(dist, 100_000, derive_seed(args.seed, "summary-alpha"))
                alpha = evaluate(lbf, draws).alpha_estimate
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
        queries = Draws(_parse_dist(args.dist, key_set), args.samples, derive_seed(args.seed, "eval"))
    report = evaluate(filt, queries).to_dict()
    _emit(args, {"schema": "learnedbloom-eval/1", "config": _config_echo(args), **report})
    return EXIT_OK


def _cmd_sweep(args) -> int:
    keys = load_keys_text(args.keys)
    scorer = _parse_scorer(args.scorer)
    dist = _parse_dist(args.dist, keys)
    points = threshold_sweep(
        keys,
        scorer,
        _taus(args.taus),
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


def _taus(text: str) -> list[float]:
    """The thresholds of a ``--taus`` grid: its comma-separated items, blank ones skipped."""
    return [_decimal(item, "threshold") for item in text.split(",") if item.strip(_SPACES)]


def _grid(text: str, label: str) -> str:
    """A ``--taus`` grid, checked as it is parsed and kept as text for the report to echo."""
    _taus(text)
    return text


_COMMON = {"seed": (_integer, 0, "top-level seed (default 0)"),
           "out": (str, None, "write output to this file as well"),
           "format": (("json", "csv"), "json", None),
           "config": (str, None, "key=value config file; flags win")}
_BACKUP_TARGET = {"backup-target-fpp": (_decimal, 0.0002, "the backup filter's design rate")}
_SIZE = (_integer, None, None)

# Every option of every command, declared once: per command its function, its help, and
# per option (its name without --) the parser of its value, its default and its help.  A
# parser is _integer (the key grammar), _decimal, _grid, str, or a tuple of choices.
_COMMANDS = {
    "build": (_cmd_build, "build a filter and write it to --out", {
        "kind": (("standard", "learned", "example"), None, None),
        "keys": (str, None, "newline-delimited decimal key file"),
        "target-fpp": (_decimal, None, None), "m": _SIZE, "k": _SIZE,
        "scorer": (str, None, "scorer record file or interval:LO:HI:IN:OUT"),
        "tau": (_decimal, None, None), **_BACKUP_TARGET, "backup-m": _SIZE, "backup-k": _SIZE,
        "keys-out": (str, None, "also write the key set to this file"),
        "summary-dist": (str, None, "also report the query mass above tau on this distribution"),
        **_COMMON, "out": (str, None, "the filter file to write; the summary goes to stdout only")}),
    "query": (_cmd_query, "query a serialized filter", {
        "filter": (str, None, None), "queries": (str, None, "key file to query"), **_COMMON}),
    "eval": (_cmd_eval, "measure a filter's false positive rate", {
        "filter": (str, None, None), "keys": (str, None, "key set file (for disjointness/exclusion)"),
        "dist": (str, None, "uniform:LO:HI or fixed:PATH"),
        "queries": (str, None, "explicit query key file"),
        "samples": (_integer, 100_000, None), **_COMMON}),
    "sweep": (_cmd_sweep, "threshold sweep over a tau grid", {
        "keys": (str, None, None), "scorer": (str, None, None),
        "taus": (_grid, None, "comma-separated thresholds"), "dist": (str, None, None),
        "samples": (_integer, 100_000, None), **_BACKUP_TARGET, **_COMMON}),
    "concentration": (_cmd_concentration, "test-vs-query rate concentration experiment", {
        "filter": (str, None, None), "keys": (str, None, None), "dist": (str, None, None),
        "t-size": (_integer, 10_000, None), "q-size": (_integer, 10_000, None),
        "epsilon": (_decimal, 0.05, None), "trials": (_integer, 100, None),
        **_BACKUP_TARGET, **_COMMON}),
    "repro-example": (_cmd_repro_example, "run the worked-example reproduction report", {
        "samples": (_integer, 1_000_000, None), "restricted-samples": (_integer, 200_000, None),
        **_BACKUP_TARGET, **_COMMON}),
}  # fmt: skip


class _Parsed(argparse.Action):
    """Store an option's value as its table parser (``const``) reads it.  A ParameterError
    from here reaches ``main`` as one ``error:`` line (argparse rewords one from a ``type=``),
    and each occurrence is parsed, so a config value that a flag overrides is still checked."""

    def __call__(self, parser, namespace, text, option_string=None):
        setattr(namespace, self.dest, self.const(text, option_string))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``lbf`` parser, built once from ``_COMMANDS``: nothing changes it."""
    parser = argparse.ArgumentParser(
        prog="lbf",
        description="Build and evaluate Bloom filters and learned Bloom filters.",
        epilog="exit codes: 0 ok, 2 parameter, 3 I/O, 4 workload, 5 training",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name, (parse, default, option_help) in options.items():
            how = ({"choices": parse} if isinstance(parse, tuple) else {} if parse is str
                   else {"action": _Parsed, "const": parse})  # fmt: skip
            p.add_argument(f"--{name}", default=default, help=option_help, **how)
        if command == "query":
            p.add_argument("key", nargs="*", default=[], help="integer keys to query")
        p.set_defaults(func=func)
    return parser


def _config_flags(options: dict, path: str) -> list[str]:
    """The ``key=value`` lines of ``path`` as ``--key=value`` flags of a command with table
    ``options``: a key is an option name without ``--``.  Parsed ahead of the command
    line's own flags, the values are read like them, and a flag on the command line wins.
    """
    flags = []
    for key, value in read_manifest(path).items():
        if key not in options or key == "config":
            raise ParameterError(f"config key {key!r} in {path} names no option of this command")
        choices = options[key][0]
        if isinstance(choices, tuple) and value not in choices:
            raise ParameterError(f"config key {key!r} in {path} must be one of {choices}")
        flags.append(f"--{key}={value}")
    return flags


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        options = _COMMANDS[args.command][2]
        if args.config:
            # lbf itself takes no option with a value, so the command is argv's first match
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_flags(options, args.config), *argv[at:]])
        _check_options(args, options)
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
    except MemoryError as exc:  # an allocation the address-space limit refused
        print(f"error: ran out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_PARAMETER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
