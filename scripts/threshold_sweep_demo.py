#!/usr/bin/env python3
"""Train a logistic scorer on the worked-example keys and sweep its threshold.

Shows the size/accuracy trade-off a threshold choice makes: as tau rises,
fewer queries clear the pre-filter (alpha falls) but more keys miss it and
the backup filter grows.
"""

import argparse
import contextlib
import csv
import sys
from dataclasses import astuple, fields

from learnedbloom.evaluation import SweepPoint, threshold_sweep
from learnedbloom.hashing import derive_seed
from learnedbloom.scorers import TrainingSet, train_logistic
from learnedbloom.workloads import hot_range_example, sample


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=300)
    parser.add_argument("--learning-rate", type=float, default=0.5)
    parser.add_argument("--negatives", type=int, default=2000)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--backup-target-fpp", type=float, default=0.001)
    parser.add_argument("--taus", default="0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    example, _, _ = hot_range_example(derive_seed(args.seed, "dataset"))
    dist = example.full_range_queries()
    negatives = sample(dist, args.negatives, derive_seed(args.seed, "train-negatives"))
    data = TrainingSet(positives=example.keys, negatives=negatives)
    scorer = train_logistic(
        data,
        f"int-centered:{example.universe_size}",
        epochs=args.epochs,
        learning_rate=args.learning_rate,
    )

    taus = [float(t) for t in args.taus.split(",") if t.strip()]
    points = threshold_sweep(
        example.keys, scorer, taus, dist,
        samples=args.samples,
        backup_target_fpp=args.backup_target_fpp,
        rng_seed=derive_seed(args.seed, "sweep"),
    )

    sink = contextlib.nullcontext(sys.stdout)
    if args.out:
        sink = open(args.out, "w", newline="", encoding="utf-8")
    with sink as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([f.name for f in fields(SweepPoint)])
        writer.writerows(map(astuple, points))


if __name__ == "__main__":
    main()
