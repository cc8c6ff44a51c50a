#!/usr/bin/env python3
"""Train a logistic scorer on the worked-example keys and sweep its threshold.

Shows the size/accuracy trade-off a threshold choice makes: as tau rises,
fewer queries clear the pre-filter (alpha falls) but more keys miss it and
the backup filter grows.  The sweep is ``lbf sweep --format csv`` over the
example keys and the trained scorer's record.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from learnedbloom import cli
from learnedbloom.errors import ParameterError, TrainingError
from learnedbloom.hashing import derive_seed
from learnedbloom.repro import worked_example_filter
from learnedbloom.scorers import TrainingSet, scorer_to_text, train_logistic
from learnedbloom.workloads import sample, save_keys_text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # numbers are read in lbf's grammars as they are parsed, so a bad one fails before training
    integer = {"action": cli._Parsed, "const": cli._integer}
    decimal = {"action": cli._Parsed, "const": cli._decimal}
    parser.add_argument("--seed", default=7, **integer)
    parser.add_argument("--epochs", default=300, **integer)
    parser.add_argument("--learning-rate", default=0.5, **decimal)
    parser.add_argument("--negatives", default=2000, **integer)
    parser.add_argument("--samples", default=200_000, **integer)
    parser.add_argument("--backup-target-fpp", default=0.001, **decimal)
    parser.add_argument("--taus", default="0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    example, _ = worked_example_filter(args.seed, args.backup_target_fpp)
    dist = example.full_range_queries()
    negatives = sample(dist, args.negatives, derive_seed(args.seed, "train-negatives"))
    data = TrainingSet(positives=example.keys, negatives=negatives)
    scorer = train_logistic(
        data,
        f"int-centered:{example.universe_size}",
        epochs=args.epochs,
        learning_rate=args.learning_rate,
    )

    with tempfile.TemporaryDirectory() as tmp:
        keys, record = Path(tmp, "keys.txt"), Path(tmp, "scorer.json")
        save_keys_text(keys, example.keys)
        record.write_text(scorer_to_text(scorer), encoding="utf-8")
        return cli.main(
            ["sweep", "--keys", str(keys), "--scorer", str(record), "--taus", args.taus,
             "--dist", f"uniform:0:{example.universe_size}", "--samples", str(args.samples),
             "--backup-target-fpp", str(args.backup_target_fpp), "--seed", str(args.seed),
             "--format", "csv", *(["--out", args.out] if args.out else [])]
        )  # fmt: skip


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ParameterError as exc:  # a bad option: one line and exit 2, as in ``lbf``
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(cli.EXIT_PARAMETER)
    except TrainingError as exc:  # training failed: one line and exit 5, as in ``lbf``
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(cli.EXIT_TRAINING)
