"""Smoke tests for the scripts under ``scripts/``."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "options, error",
    [(["--taus", "0,0.5,1"], None), (["--taus", "0,,0.5,1"], None),
     (["--taus", "0,x"], "error: bad threshold 'x': not a decimal number\n"),
     (["--taus", ","], "error: tau grid must be nonempty\n"),
     (["--taus", "0,0.5,1", "--negatives", "0"], "error: sample count must be >= 1\n"),
     (["--learning-rate", "inf"], "error: bad --learning-rate 'inf': not a decimal number\n"),
     (["--seed", "٥"], "error: --seed '٥': not a decimal integer key\n"),
     (["--negatives", "1_0"], "error: --negatives '1_0': not a decimal integer key\n"),
     (["--seed", "-1"], "error: --seed '-1': not a decimal integer key\n"),
     (["--backup-target-fpp", "+0.5"], "error: bad --backup-target-fpp '+0.5': not a decimal number\n")],
    ids=["grid", "grid_with_empty_item", "item_not_a_number", "no_items", "no_negatives",
         "infinite_learning_rate", "arabic_indic_seed", "underscore_negatives", "negative_seed",
         "signed_rate"],
)  # fmt: skip
def test_threshold_sweep_demo_writes_one_row_per_tau(options, error):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "threshold_sweep_demo.py"),
         "--epochs", "5", "--samples", "2000", "--negatives", "200", *options],
        capture_output=True, text=True, env=env, timeout=120,
    )  # fmt: skip
    if error is not None:  # one line and exit 2, as in ``lbf sweep``
        assert (done.returncode, done.stdout, done.stderr) == (2, "", error)
        return
    assert done.returncode == 0, done.stderr
    rows = list(csv.reader(io.StringIO(done.stdout)))
    assert rows[0] == ["tau", "alpha_estimate", "backup_keys", "total_bits", "model_fpr"]
    assert [float(row[0]) for row in rows[1:]] == [0.0, 0.5, 1.0]
    alphas = [float(row[1]) for row in rows[1:]]
    assert all(b <= a for a, b in zip(alphas, alphas[1:]))
