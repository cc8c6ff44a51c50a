"""Self-tests of the benchmark: metric names, BENCHMARK.json, smoke runs, failure accounting.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
The smoke runs use about 1% of the full input sizes and take a few seconds each.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from bench_metrics import END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE = ["--seconds", "1", "--scale", "0.01"]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )  # fmt: skip


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    """One reduced-size run of every workload, timed and traced."""
    return {
        (workload, trace): _result(_run("--workload", workload, "--seed", "7", "--trace", str(trace), *SMOKE))
        for workload in WORKLOAD_NAMES
        for trace in (0, 1)
    }


def test_metric_names_and_units_are_well_formed():
    for name, unit, better in (*END_TO_END, *PER_LAYER):
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
        assert better in ("higher", "lower"), name
    names = [name for name, _, _ in (*END_TO_END, *PER_LAYER)]
    assert len(names) == len(set(names))


def test_benchmark_json_names_what_the_code_reports():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for path in spec["paths"]:
        assert (ROOT / path).is_dir()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_emits_every_metric_and_is_correct(smoke, workload, trace):
    result = smoke[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_traced_counts_repeat_exactly(smoke):
    for workload in ("learned-scorers", "experiment-cli"):
        again = _result(_run("--workload", workload, "--seed", "7", "--trace", "1", *SMOKE))
        first = smoke[(workload, 1)]["metrics"]
        for name in EXACT_COUNTS:
            assert again["metrics"][name]["value"] == first[name]["value"], (workload, name)
    assert smoke[("experiment-cli", 1)]["metrics"]["evaluation.exact_alpha.support"]["value"] > 0
    assert smoke[("learned-scorers", 1)]["metrics"]["learned.to_backup"]["value"] > 0


def _stub_filters():
    import learnedbloom as lb
    import numpy as np

    class DropsAMember(lb.BloomFilter):
        """Denies the first key of every batch (a member in standard-bulk's batches)."""

        def contains_many(self, keys):
            answers = super().contains_many(keys)
            answers[0] = False
            return answers

    class ScalarDisagrees(lb.BloomFilter):
        """Says yes on the scalar path to every odd key, which the batch path mostly denies."""

        def contains(self, key):
            hit = super().contains(key)
            return hit or bool(np.uint64(key) % np.uint64(2))

    return DropsAMember, ScalarDisagrees


@pytest.mark.parametrize("stub", (0, 1), ids=("false-negative", "scalar-disagrees"))
def test_a_wrong_answer_makes_failed_op_frac_nonzero(stub):
    import run
    from bench_env import HostProbe
    from bench_workloads import Clock, Ledger, StandardBulk

    workload = StandardBulk(seed=3, scale=0.005, filter_class=_stub_filters()[stub])
    ledger = Ledger()
    workload.setup(ledger)
    assert run._round(workload, ledger, Clock(HostProbe())) is not None
    assert ledger.attempted > 0
    assert ledger.failed / ledger.attempted > 0
    assert ledger.failures


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "standard-bulk", "--seed", "1", "--trace", "0", *SMOKE, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
