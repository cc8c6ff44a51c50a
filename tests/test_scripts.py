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
    "taus, error",
    [("0,0.5,1", None), ("0,,0.5,1", None),
     ("0,x", "error: bad threshold 'x': could not convert string to float: 'x'\n"),
     (",", "error: tau grid must be nonempty\n")],
    ids=["grid", "grid_with_empty_item", "item_not_a_number", "no_items"],
)  # fmt: skip
def test_threshold_sweep_demo_writes_one_row_per_tau(taus, error):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "threshold_sweep_demo.py"),
         "--epochs", "5", "--samples", "2000", "--negatives", "200", "--taus", taus],
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
