"""CLI commands, exit codes, config-file precedence, output determinism."""

import argparse
import ast
import contextlib
import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from learnedbloom import cli
from learnedbloom.bloom import BloomFilter, FilterParams
from learnedbloom.cli import (
    EXIT_IO,
    EXIT_PARAMETER,
    EXIT_WORKLOAD,
    _render,
    main,
)
from learnedbloom.hashing import derive_seed
from learnedbloom.learned import LearnedBloomFilter
from learnedbloom.repro import worked_example_filter
from learnedbloom.scorers import IntervalScorer, LogisticScorer, scorer_to_text
from learnedbloom.workloads import SUPPORT_LIMIT, sample, save_keys_text, uniform_queries

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def key_file(tmp_path):
    rng = np.random.default_rng(5)
    keys = sorted(set(rng.integers(0, 10**6, size=1500).tolist()))[:1000]
    path = tmp_path / "keys.txt"
    save_keys_text(path, keys)
    return path, keys


def _learned_filter_with_part(index: int, part: bytes) -> bytes:
    """A serialized learned filter whose length-prefixed part ``index`` is ``part``."""
    blob = LearnedBloomFilter.build(
        [5, 1500], IntervalScorer(((1000, 2000),), 0.5, 0.0), 0.4, FilterParams(64, 2), seed=0
    ).to_bytes()
    parts, offset = [], 0
    while offset < len(blob):
        (length,) = struct.unpack_from("<Q", blob, offset)
        parts.append(blob[offset + 8 : offset + 8 + length])
        offset += 8 + length
    parts[index] = part
    return b"".join(struct.pack("<Q", len(p)) + p for p in parts)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


class TestBuild:
    def test_standard_filter_round_trips_bit_exact(self, tmp_path, key_file, capsys):
        path, keys = key_file
        out = tmp_path / "std.bloom"
        code, stdout = run(
            capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "0.01", "--seed", "3", "--out", out,
        )
        assert code == 0
        summary = json.loads(stdout)
        assert (summary["m"], summary["k"]) == (9586, 7)
        blob = out.read_bytes()
        filt = BloomFilter.from_bytes(blob)
        assert filt.to_bytes() == blob
        assert all(filt.contains(k) for k in keys[:50])

    def test_example_build_reports_500_backup_keys(self, tmp_path, capsys):
        out = tmp_path / "ex.lbf"
        code, stdout = run(capsys, "build", "--kind", "example", "--seed", "7", "--out", out)
        assert code == 0
        summary = json.loads(stdout)
        assert summary["backup_keys"] == 500
        assert summary["key_count"] == 1000
        lbf = LearnedBloomFilter.from_bytes(out.read_bytes())
        assert lbf.below_threshold_count == 500

    @pytest.mark.parametrize(
        "options, tau, backup",
        [([], None, 0.0002), (["--tau", "0.3"], 0.3, 0.0002),
         (["--backup-m", "4096", "--backup-k", "3"], None, FilterParams(4096, 3)),
         (["--tau", "0.6", "--backup-target-fpp", "0.01"], 0.6, 0.01)],
        ids=["defaults", "tau", "backup_pair", "tau_and_backup_rate"],
    )
    def test_example_build_writes_the_worked_example_filter(
        self, tmp_path, capsys, options, tau, backup
    ):
        out = tmp_path / "ex.lbf"
        code, _ = run(capsys, "build", "--kind", "example", "--seed", "7", *options, "--out", out)
        assert code == 0
        assert out.read_bytes() == worked_example_filter(7, backup, tau)[1].to_bytes()

    def test_keys_out_exports_the_dataset(self, tmp_path, capsys):
        out = tmp_path / "ex.lbf"
        kpath = tmp_path / "exkeys.txt"
        code, stdout = run(
            capsys, "build", "--kind", "example", "--seed", "7", "--out", out,
            "--keys-out", kpath,
        )
        assert code == 0
        from learnedbloom.workloads import load_keys_text

        keys = load_keys_text(kpath)
        assert len(keys) == 1000
        lbf = LearnedBloomFilter.from_bytes(out.read_bytes())
        assert all(lbf.contains(k) for k in keys[:20])

    def test_summary_dist_reports_alpha(self, tmp_path, capsys):
        out = tmp_path / "ex.lbf"
        code, stdout = run(
            capsys, "build", "--kind", "example", "--seed", "7", "--out", out,
            "--summary-dist", "uniform:0:1000000",
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["alpha"] == pytest.approx(501 / 999000, abs=1e-15)
        assert summary["alpha_dist"] == "uniform:0:1000000"

    def test_summary_dist_is_exact_when_the_exclusion_brings_the_support_to_the_limit(
        self, tmp_path, capsys
    ):
        span = SUPPORT_LIMIT + 1000  # above the limit; the example's 1000 keys are excluded
        code, stdout = run(
            capsys, "build", "--kind", "example", "--seed", "7", "--out", tmp_path / "ex.lbf",
            "--summary-dist", f"uniform:0:{span}",
        )
        assert code == 0
        assert json.loads(stdout)["alpha"] == 501 / SUPPORT_LIMIT  # sampling reads k / 100,000

    def test_summary_dist_over_the_whole_universe_is_exact(self, tmp_path, capsys):
        code, stdout = run(
            capsys, "build", "--kind", "example", "--seed", "7", "--out", tmp_path / "ex.lbf",
            "--summary-dist", f"uniform:0:{2**64}",
        )
        assert code == 0
        assert json.loads(stdout)["alpha"] == 501 / (2**64 - 1000)

    def test_summary_dist_past_the_limit_samples_a_logistic_scorer(self, tmp_path, key_file, capsys):
        path, keys = key_file
        scorer = LogisticScorer((-8.0,), 4.0, f"int-norm:{2 * SUPPORT_LIMIT}")  # 0.5 at 10^7
        (tmp_path / "scorer.json").write_text(scorer_to_text(scorer))
        code, stdout = run(
            capsys, "build", "--kind", "learned", "--keys", path, "--out", tmp_path / "f.lbf",
            "--scorer", tmp_path / "scorer.json", "--tau", "0.5", "--seed", "3",
            "--summary-dist", f"uniform:0:{2 * SUPPORT_LIMIT}",
        )
        assert code == 0
        dist = uniform_queries(0, 2 * SUPPORT_LIMIT, keys)
        drawn = sample(dist, 100_000, derive_seed(3, "summary-alpha"))
        assert json.loads(stdout)["alpha"] == float((scorer.score_batch(drawn) >= 0.5).mean())

    def test_learned_build_with_inline_scorer(self, tmp_path, key_file, capsys):
        path, keys = key_file
        out = tmp_path / "f.lbf"
        code, stdout = run(
            capsys, "build", "--kind", "learned", "--keys", path,
            "--scorer", "interval:1000:2000:0.5:0.0", "--tau", "0.4",
            "--backup-target-fpp", "0.001", "--seed", "1", "--out", out,
        )
        assert code == 0
        summary = json.loads(stdout)
        in_hot = sum(1 for k in keys if 1000 <= k <= 2000)
        assert summary["backup_keys"] == len(keys) - in_hot

    def test_summary_echoes_the_configuration(self, tmp_path, key_file, capsys):
        path, _ = key_file
        code, stdout = run(
            capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "0.01", "--seed", "3", "--out", tmp_path / "std.bloom",
        )
        assert code == 0
        config = json.loads(stdout)["config"]
        assert (config["kind"], config["seed"], config["target_fpp"]) == ("standard", 3, 0.01)

    def test_missing_key_file_is_an_io_error(self, tmp_path, capsys):
        code, _ = run(
            capsys, "build", "--kind", "standard", "--keys", tmp_path / "nope.txt",
            "--target-fpp", "0.01", "--out", tmp_path / "x.bloom",
        )
        assert code == EXIT_IO

    def test_bad_target_is_a_parameter_error(self, tmp_path, key_file, capsys):
        path, _ = key_file
        code, _ = run(
            capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "1.0", "--out", tmp_path / "x.bloom",
        )
        assert code == EXIT_PARAMETER

    @pytest.mark.parametrize(
        "kind",
        [
            ["--kind", "standard", "--target-fpp", "0.01"],
            ["--kind", "standard", "--m", "100", "--k", "3"],
            ["--kind", "learned", "--scorer", "interval:1000:2000:0.5:0.0", "--tau", "0.4"],
            ["--kind", "learned", "--scorer", "interval:1000:2000:0.5:0.0", "--tau", "0.4",
             "--backup-m", "100", "--backup-k", "3"],
        ],
        ids=["standard-target-fpp", "standard-m-k", "learned-backup-target-fpp", "learned-backup-m-k"],
    )
    def test_empty_key_file_is_one_error_line(self, tmp_path, kind, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        code = main([str(a) for a in ["build", *kind, "--keys", empty, "--out", tmp_path / "f.out"]])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err == "error: key set must be nonempty\n"
        assert not (tmp_path / "f.out").exists()

    @pytest.mark.parametrize(
        "lone, message",
        [  # a never-read option is named ahead of a missing one: here the rate a pair would not read
         ("--m", "--target-fpp does not apply to build --kind standard --m/--k"),
         ("--k", "--target-fpp does not apply to build --kind standard --m/--k"),
         ("--backup-m", "build --kind learned --backup-m/--backup-k needs --backup-k"),
         ("--backup-k", "build --kind learned --backup-m/--backup-k needs --backup-m")],
    )  # fmt: skip
    def test_half_a_sizing_pair_is_one_error_line(self, tmp_path, key_file, capsys, lone, message):
        path, _ = key_file
        kind = ["--kind", "standard", "--target-fpp", "0.01"] if lone in ("--m", "--k") else [
            "--kind", "learned", "--scorer", "interval:1000:2000:0.5:0.0", "--tau", "0.4"]
        code = main([str(a) for a in ["build", *kind, "--keys", path,
                                      lone, "100", "--out", tmp_path / "f.out"]])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err == f"error: {message}\n"
        assert not (tmp_path / "f.out").exists()

    @pytest.mark.parametrize("kind", ["standard", "learned", "example"])
    @pytest.mark.parametrize("half", [0, 1])
    def test_half_a_sizing_pair_alone_names_its_partner(self, tmp_path, key_file, capsys, kind, half):
        path, _ = key_file
        pre = "" if kind == "standard" else "backup-"
        pair = [f"--{pre}m", f"--{pre}k"]
        reads = {
            "standard": ["--keys", path],
            "learned": ["--keys", path, "--scorer", "interval:1000:2000:0.5:0.0", "--tau", "0.4"],
            "example": [],
        }[kind]
        code = main([str(a) for a in ["build", "--kind", kind, *reads, pair[half], "100",
                                      "--out", tmp_path / "f.out"]])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err == f"error: build --kind {kind} {'/'.join(pair)} needs {pair[1 - half]}\n"
        assert not (tmp_path / "f.out").exists()

    @pytest.mark.parametrize("kind", ["learned", "example"])
    def test_a_backup_sized_by_its_pair_echoes_no_backup_rate(self, tmp_path, key_file, capsys, kind):
        path, _ = key_file
        reads = ["--keys", path, "--scorer", "interval:1000:2000:0.5:0.0", "--tau", "0.4"]
        code, stdout = run(capsys, "build", "--kind", kind, *(reads if kind == "learned" else []),
                           "--backup-m", "100", "--backup-k", "3", "--out", tmp_path / "f.lbf")
        assert code == 0
        summary = json.loads(stdout)
        assert (summary["backup_m"], summary["backup_k"]) == (100, 3)
        assert "backup_target_fpp" not in summary["config"]

    @pytest.mark.parametrize(
        "kind, sizing",
        [
            ("learned", ["--m", "5000", "--k", "3"]),
            ("example", ["--m", "5000", "--k", "3"]),
            ("standard", ["--backup-m", "5000", "--backup-k", "3"]),
            ("standard", ["--m", "100", "--k", "2", "--target-fpp", "0.5"]),
            ("standard", ["--tau", "0.3", "--target-fpp", "0.01"]),
            ("standard", ["--scorer", "interval:1000:2000:0.5:0.0", "--target-fpp", "0.01"]),
            ("standard", ["--summary-dist", "uniform:0:1000000", "--target-fpp", "0.01"]),
            ("example", ["--keys", "never-read.txt"]),
            ("example", ["--scorer", "interval:1000:2000:0.5:0.0"]),
            ("example", ["--target-fpp", "0.01"]),
            ("learned", ["--target-fpp", "0.01"]),
            ("learned", ["--backup-target-fpp", "0.01", "--backup-m", "100", "--backup-k", "3"]),
            ("example", ["--backup-target-fpp", "0.01", "--backup-m", "100", "--backup-k", "3"]),
        ],
    )
    def test_sizing_the_build_would_ignore_is_one_error_line(
        self, tmp_path, key_file, capsys, kind, sizing
    ):
        path, _ = key_file
        reads = {  # what each kind does read, so that only ``sizing`` is out of place
            "standard": ["--keys", path],
            "learned": ["--keys", path, "--scorer", "interval:1000:2000:0.5:0.0", "--tau", "0.4"],
            "example": [],
        }[kind]
        code = main([str(a) for a in ["build", "--kind", kind, *reads, *sizing,
                                      "--out", tmp_path / "f.out"]])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sizing[0] in err
        assert not (tmp_path / "f.out").exists()

    def test_unallocatable_filter_is_one_error_line(self, tmp_path, key_file, capsys):
        path, _ = key_file
        code = main([str(a) for a in ["build", "--kind", "standard", "--keys", path,
                                      "--m", 2**62, "--k", "3", "--out", tmp_path / "f.out"]])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "f.out").exists()

    def test_unallocatable_insert_scratch_is_one_error_line(
        self, tmp_path, key_file, capsys, monkeypatch
    ):
        # numpy refusing insert_many's m-byte unpacked copy, without allocating it
        def refuse(*args, **kwargs):
            raise MemoryError("unable to allocate")

        monkeypatch.setattr(np, "unpackbits", refuse)
        path, _ = key_file
        code = main([str(a) for a in ["build", "--kind", "standard", "--keys", path,
                                      "--m", "4096", "--k", "1", "--out", tmp_path / "f.out"]])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "f.out").exists()


@pytest.mark.parametrize(
    "case, option",
    [
        ("eval_queries_with_dist", "--dist"),
        ("concentration_example_with_keys", "--keys"),
        ("concentration_example_with_dist", "--dist"),
        ("concentration_example_with_dist_in_config", "--dist"),
        ("build_standard_with_backup_target", "--backup-target-fpp"),
        ("eval_queries_with_samples", "--samples"),
        ("eval_queries_with_samples_in_config", "--samples"),
        ("eval_queries_with_seed", "--seed"),
        ("concentration_filter_with_backup_target", "--backup-target-fpp"),
        ("query_keys_with_seed", "--seed"),
        ("query_queries_with_seed", "--seed"),
    ],
)
def test_option_the_mode_never_reads_is_one_error_line(tmp_path, key_file, capsys, case, option):
    path, _ = key_file
    filt = tmp_path / "std.bloom"
    run(capsys, "build", "--kind", "standard", "--keys", path,
        "--target-fpp", "0.01", "--seed", "3", "--out", filt)
    queries = tmp_path / "queries.txt"
    save_keys_text(queries, [10**7, 10**7 + 1])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dist=uniform:0:1000000\n")
    samples_cfg = tmp_path / "samples.cfg"
    samples_cfg.write_text("samples=7\n")
    out = tmp_path / "report.json"
    small = ["--trials", "1", "--t-size", "100", "--q-size", "100"]
    argv = {
        "eval_queries_with_dist": ["eval", "--filter", filt, "--queries", queries,
                                   "--dist", "uniform:0:1000000"],
        "concentration_example_with_keys": ["concentration", *small, "--keys", path],
        "concentration_example_with_dist": ["concentration", *small,
                                            "--dist", "uniform:0:1000000"],
        "concentration_example_with_dist_in_config": ["concentration", *small, "--config", cfg],
        "build_standard_with_backup_target": ["build", "--kind", "standard", "--keys", path,
                                              "--target-fpp", "0.01", "--backup-target-fpp", "0.3"],
        "eval_queries_with_samples": ["eval", "--filter", filt, "--queries", queries,
                                      "--samples", "7"],
        "eval_queries_with_samples_in_config": ["eval", "--filter", filt, "--queries", queries,
                                                "--config", samples_cfg],
        "eval_queries_with_seed": ["eval", "--filter", filt, "--queries", queries, "--seed", "5"],
        "concentration_filter_with_backup_target": ["concentration", *small, "--filter", filt,
                                                    "--dist", "uniform:0:1000000",
                                                    "--backup-target-fpp", "0.3"],
        "query_keys_with_seed": ["query", "--filter", filt, "--seed", "5", "1", "3"],
        "query_queries_with_seed": ["query", "--filter", filt, "--queries", queries,
                                    "--seed", "5"],
    }[case]
    code = main([str(a) for a in [*argv, "--out", out]])
    captured = capsys.readouterr()
    assert code == EXIT_PARAMETER
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert option in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "--keys", "KEYS", "--target-fpp", "0.01", "--out", "OUT"], "build needs --kind"),
        (["build", "--kind", "standard", "--keys", "KEYS", "--target-fpp", "0.01"],
         "build needs --out"),
        (["build", "--kind", "standard", "--target-fpp", "0.01", "--out", "OUT"],
         "build --kind standard without --m/--k needs --keys"),
        (["build", "--kind", "learned", "--keys", "KEYS", "--tau", "0.4", "--out", "OUT"],
         "build --kind learned without --backup-m/--backup-k needs --scorer"),
        (["build", "--kind", "learned", "--keys", "KEYS", "--scorer", "SCORER", "--out", "OUT"],
         "build --kind learned without --backup-m/--backup-k needs --tau"),
        (["build", "--kind", "standard", "--keys", "KEYS", "--out", "OUT"],
         "build --kind standard without --m/--k needs --target-fpp"),
        (["query", "--queries", "KEYS"], "query needs --filter"),
        (["query", "--filter", "FILTER"], "query without key arguments needs --queries"),
        (["eval", "--keys", "KEYS", "--dist", "fixed:KEYS"], "eval needs --filter"),
        (["eval", "--filter", "FILTER", "--keys", "KEYS"], "eval without --queries needs --dist"),
        (["sweep", "--scorer", "SCORER", "--taus", "0.5", "--dist", "fixed:KEYS"],
         "sweep needs --keys"),
        (["sweep", "--keys", "KEYS", "--taus", "0.5", "--dist", "fixed:KEYS"], "sweep needs --scorer"),
        (["sweep", "--keys", "KEYS", "--scorer", "SCORER", "--dist", "fixed:KEYS"],
         "sweep needs --taus"),
        (["sweep", "--keys", "KEYS", "--scorer", "SCORER", "--taus", "0.5"], "sweep needs --dist"),
        (["concentration", "--filter", "FILTER", "--keys", "KEYS"],
         "concentration --filter needs --dist"),
    ],
    ids=["build_kind", "build_out", "build_keys", "build_scorer", "build_tau", "build_target_fpp",
         "query_filter", "query_queries", "eval_filter", "eval_dist", "sweep_keys", "sweep_scorer",
         "sweep_taus", "sweep_dist", "concentration_filter_dist"],
)
def test_a_missing_option_is_named_before_any_file_is_opened(tmp_path, capsys, argv, message):
    # every file named is missing: reading one first would exit 3 (I/O), not 2
    names = {"KEYS": tmp_path / "no-keys.txt", "FILTER": tmp_path / "no.lbf",
             "SCORER": tmp_path / "no-scorer.json", "OUT": tmp_path / "f.out"}
    argv = [str(names[a]) if a in names else a.replace("KEYS", str(names["KEYS"])) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_PARAMETER
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["build", "--kind", "standard", "--keys", "KEYS", "--target-fpp", "0.01",
          "--out", "OUT"], ["--backup-target-fpp", "2e-4"]),
        (["eval", "--filter", "FILTER", "--queries", "QUERIES"], ["--samples", "100000"]),
        (["eval", "--filter", "FILTER", "--queries", "QUERIES"], ["--seed", "0"]),
        (["concentration", "--trials", "1", "--t-size", "100", "--q-size", "100",
          "--filter", "FILTER", "--dist", "uniform:0:1000000"], ["--backup-target-fpp", "0.0002"]),
        (["query", "--filter", "FILTER", "1", "3"], ["--seed", "0"]),
    ],
    ids=["build_standard", "eval_queries", "eval_queries_seed", "concentration_filter", "query_keys"],
)
def test_an_unread_option_at_its_default_is_accepted_and_has_no_effect(
    tmp_path, key_file, capsys, argv, unread
):
    path, _ = key_file
    filt = tmp_path / "std.bloom"
    run(capsys, "build", "--kind", "standard", "--keys", path,
        "--target-fpp", "0.01", "--seed", "3", "--out", filt)
    queries = tmp_path / "queries.txt"
    save_keys_text(queries, [10**7, 10**7 + 1])
    names = {"KEYS": path, "FILTER": filt, "QUERIES": queries, "OUT": tmp_path / "new.bloom"}
    argv = [names.get(a, a) for a in argv]
    code, plain = run(capsys, *argv)
    assert code == 0
    code, given = run(capsys, *argv, *unread)
    assert code == 0
    assert given == plain
    if argv[0] != "query":
        assert unread[0][2:].replace("-", "_") not in json.loads(given)["config"]


_BAD_RATE_COMMANDS = {
    "build_example": ["build", "--kind", "example", "--out", "OUT"],
    "build_learned": ["build", "--kind", "learned", "--keys", "KEYS", "--scorer",
                      "interval:1000:2000:0.5:0.0", "--tau", "0.4", "--out", "OUT"],
    "concentration": ["concentration", "--trials", "1", "--t-size", "100", "--q-size", "100"],
    "sweep": ["sweep", "--keys", "KEYS", "--scorer", "interval:0:10:0.5:0.0", "--taus", "0.5",
              "--dist", "uniform:0:1000000"],
}
_BAD_RATES = {
    "0": "backup_target_fpp 0.0 must lie in (0, 1)",
    "1.5": "backup_target_fpp 1.5 must lie in (0, 1)",
    "nan": "bad --backup-target-fpp 'nan': not a decimal number",  # refused by the grammar
    "1e-310": "backup_target_fpp 1e-310 is too small: 1/backup_target_fpp overflows",
}


@pytest.mark.parametrize(
    "argv, message",
    [
        *[(argv, "sample count must be >= 1") for argv in [
            ["eval", "--filter", "STANDARD", "--dist", "uniform:0:1000000", "--samples", "0"],
            ["eval", "--filter", "LEARNED", "--dist", "uniform:0:1000000", "--samples", "0"],
            [*_BAD_RATE_COMMANDS["sweep"], "--samples", "0"],
            ["repro-example", "--samples", "0"],
            [*_BAD_RATE_COMMANDS["concentration"], "--t-size", "0"],
            [*_BAD_RATE_COMMANDS["concentration"], "--q-size", "0"],
        ]],
        *[([*argv, "--backup-target-fpp", rate], message)
          for argv in _BAD_RATE_COMMANDS.values() for rate, message in _BAD_RATES.items()],
    ],
    ids=["eval_standard_samples", "eval_learned_samples", "sweep_samples", "repro_samples",
         "concentration_t_size", "concentration_q_size",
         *[f"{name}_rate_{rate}" for name in _BAD_RATE_COMMANDS for rate in _BAD_RATES]],
)
def test_a_bad_sample_count_or_backup_rate_gives_one_message_in_every_command(
    tmp_path, key_file, capsys, argv, message
):
    path, _ = key_file
    names = {"KEYS": path, "STANDARD": tmp_path / "std.bloom", "LEARNED": tmp_path / "ex.lbf",
             "OUT": tmp_path / "f.out"}
    run(capsys, "build", "--kind", "standard", "--keys", path,
        "--target-fpp", "0.01", "--out", names["STANDARD"])
    run(capsys, "build", "--kind", "example", "--out", names["LEARNED"])
    code = main([str(names.get(a, a)) for a in argv])
    assert code == EXIT_PARAMETER
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not names["OUT"].exists()


class TestQuery:
    def test_queries_file_and_key_arguments_together_are_one_error_line(
        self, tmp_path, key_file, capsys
    ):
        path, keys = key_file
        out = tmp_path / "std.bloom"
        run(capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "0.01", "--seed", "3", "--out", out)
        qpath = tmp_path / "queries.txt"
        save_keys_text(qpath, keys[:2])
        code = main(["query", "--filter", str(out), "--queries", str(qpath), "5"])
        captured = capsys.readouterr()
        assert code == EXIT_PARAMETER
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--queries" in captured.err

    def test_queries_inserted_and_fresh_keys(self, tmp_path, key_file, capsys):
        path, keys = key_file
        out = tmp_path / "std.bloom"
        run(capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "0.01", "--seed", "3", "--out", out)
        code, stdout = run(capsys, "query", "--filter", out, str(keys[0]), "999999999999")
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results[str(keys[0])] is True

    @pytest.mark.parametrize("bad_key", [-1, 2**64])
    def test_out_of_range_key_file_names_the_file_and_line(
        self, tmp_path, key_file, capsys, bad_key
    ):
        path, _ = key_file
        out = tmp_path / "std.bloom"
        run(capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "0.01", "--seed", "3", "--out", out)
        qpath = tmp_path / "queries.txt"
        qpath.write_text(f"5\n{bad_key}\n")
        code = main(["query", "--filter", str(out), "--queries", str(qpath)])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err == f"error: {qpath}: line 2: not a decimal integer key\n"

    def test_query_learned_filter_file(self, tmp_path, capsys):
        out = tmp_path / "ex.lbf"
        run(capsys, "build", "--kind", "example", "--seed", "7", "--out", out)
        code, stdout = run(capsys, "query", "--filter", out, "1500")
        assert code == 0
        assert json.loads(stdout)["results"]["1500"] is True  # hot-range score 0.5 >= 0.4

    @pytest.mark.parametrize(
        "text", ["1_000", "+5", "-0", "\uff10", "-1", str(2**64), "", " ", "5\n6", "5\n", "1 2"],
        ids=["underscore", "plus", "minus_zero", "fullwidth_zero", "negative", "2**64", "empty",
             "blank", "two_lines", "newline", "two_keys"],
    )
    def test_key_argument_outside_the_key_file_grammar_is_one_error_line(
        self, tmp_path, capsys, text
    ):
        filt = tmp_path / "std.bloom"
        filt.write_bytes(BloomFilter.from_params(FilterParams(64, 2), 0).to_bytes())
        code = main(["query", "--filter", str(filt), "--", "3", text, "4"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_PARAMETER, "")
        assert captured.err == f"error: query key {text!r}: not a decimal integer key\n"

    @pytest.mark.parametrize(
        "texts, bad",
        [(["x", "5\n6"], "x"), (["5\n6", "x"], "5\n6"), (["5", "", "1 2"], ""),
         (["5", "1 2", "\n"], "1 2")],
        ids=["bad_then_newline", "newline_then_bad", "blank_then_bad", "bad_then_newline_only"],
    )
    def test_the_first_bad_key_argument_is_named(self, tmp_path, capsys, texts, bad):
        filt = tmp_path / "std.bloom"
        filt.write_bytes(BloomFilter.from_params(FilterParams(64, 2), 0).to_bytes())
        code = main(["query", "--filter", str(filt), "--", *texts])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_PARAMETER, "")
        assert captured.err == f"error: query key {bad!r}: not a decimal integer key\n"

    def test_key_arguments_read_as_key_file_lines(self, tmp_path, capsys):
        filt = tmp_path / "std.bloom"
        filt.write_bytes(BloomFilter.from_params(FilterParams(64, 2), 0).to_bytes())
        code, stdout = run(capsys, "query", "--filter", filt, " 7", "7\r", "\t00000000000000000042 ")
        assert code == 0
        assert list(json.loads(stdout)["results"]) == ["42", "7"]


_BAD_BOUNDS = ["1_000", "+5", "-0", "\u0665", "0x10", "", str(2**64 + 1)]


class TestKeyGrammar:
    """Every key ``lbf`` reads from an argument, a distribution or interval bound included,
    follows the key-file grammar; a uniform range's HI may also be 2^64."""

    @pytest.fixture()
    def files(self, tmp_path, key_file):
        filt = tmp_path / "std.bloom"
        filt.write_bytes(BloomFilter.from_params(FilterParams(64, 2), 0).to_bytes())
        return {"keys": key_file[0], "filter": filt, "out": tmp_path / "out"}

    @staticmethod
    def _argv(command: str, spec: str, files: dict) -> list:
        return {
            "eval": ["eval", "--filter", files["filter"], "--dist", spec, "--samples", "10"],
            "sweep": ["sweep", "--keys", files["keys"], "--scorer", "interval:0:10:0.5:0.0",
                      "--taus", "0.5", "--dist", spec, "--samples", "10"],
            "build_summary": ["build", "--kind", "example", "--summary-dist", spec],
            "build_scorer": ["build", "--kind", "learned", "--keys", files["keys"],
                             "--scorer", spec, "--tau", "0.4"],
        }[command] + ["--out", files["out"]]

    @pytest.mark.parametrize("bound", _BAD_BOUNDS,
                             ids=["underscore", "plus", "minus_zero", "arabic_indic_five", "hex",
                                  "empty", "2**64+1"])  # fmt: skip
    @pytest.mark.parametrize(
        "command, spec, label",
        [("eval", "uniform:{}:2000", "uniform"), ("eval", "uniform:0:{}", "uniform"),
         ("sweep", "uniform:{}:2000", "uniform"), ("sweep", "uniform:0:{}", "uniform"),
         ("build_summary", "uniform:{}:2000", "uniform"), ("build_summary", "uniform:0:{}", "uniform"),
         ("build_scorer", "interval:{}:2000:0.5:0.0", "interval"),
         ("build_scorer", "interval:0:{}:0.5:0.0", "interval")],
        ids=["eval_lo", "eval_hi", "sweep_lo", "sweep_hi", "summary_dist_lo", "summary_dist_hi",
             "interval_lo", "interval_hi"],
    )  # fmt: skip
    def test_a_bound_outside_the_grammar_is_one_error_line_naming_it(
        self, files, capsys, bound, command, spec, label
    ):
        code = main([str(a) for a in self._argv(command, spec.format(bound), files)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_PARAMETER, "")
        assert captured.err == f"error: {label} bound {bound!r}: not a decimal integer key\n"
        assert not files["out"].exists()

    def test_a_uniform_range_may_end_at_2_to_the_64_and_start_nowhere_past_it(self, files, capsys):
        code, _ = run(capsys, *self._argv("eval", f"uniform:0:{2**64}", files))
        assert code == 0
        files["out"].unlink()
        code = main([str(a) for a in self._argv("eval", f"uniform:{2**64}:{2**64}", files)])
        assert code == EXIT_PARAMETER
        assert capsys.readouterr().err == f"error: uniform bound '{2**64}': not a decimal integer key\n"
        assert not files["out"].exists()

    @pytest.mark.parametrize("command", ["eval", "sweep", "concentration"])
    def test_a_fixed_spec_draws_only_the_keys_of_its_file(self, tmp_path, files, capsys, command):
        fixed = tmp_path / "fixed.txt"
        save_keys_text(fixed, [3, 5, 7])  # inside interval:0:10, and held by the filter
        held = BloomFilter.from_params(FilterParams(1024, 3), 0)
        held.insert_many([3, 5, 7])
        files["filter"].write_bytes(held.to_bytes())
        spec = f"fixed:{fixed}"
        argv = {
            "eval": ["eval", "--filter", files["filter"], "--dist", spec, "--samples", "50"],
            "sweep": self._argv("sweep", spec, files)[:-2],
            "concentration": ["concentration", "--filter", files["filter"], "--dist", spec,
                              "--t-size", "20", "--q-size", "20", "--trials", "2"],
        }[command]
        code, stdout = run(capsys, *argv)
        report = json.loads(stdout)
        assert code == 0 and report["config"]["dist"] == spec
        # every draw is one of the file's keys, which the filter holds and the scorer passes
        got = {"eval": lambda: report["empirical_fpr"],
               "sweep": lambda: report["points"][0]["alpha_estimate"],
               "concentration": lambda: 1.0 - report["exceed_fraction"]}[command]()
        assert got == 1.0

    @pytest.mark.parametrize(
        "command, padded, plain",
        [("eval", "uniform: 7:2000", "uniform:7:2000"), ("eval", "uniform:7:2000\t", "uniform:7:2000"),
         ("sweep", "uniform: 7:2000", "uniform:7:2000"),
         ("build_scorer", "interval: 7:20 :0.5:0.0", "interval:7:20:0.5:0.0")],
        ids=["eval_lo", "eval_hi", "sweep_lo", "interval"],
    )  # fmt: skip
    def test_a_bound_with_spaces_around_it_is_the_bare_key(self, files, capsys, command, padded, plain):
        reports = []
        for spec in (padded, plain):
            code, stdout = run(capsys, *self._argv(command, spec, files))
            assert code == 0
            report = json.loads(stdout)
            report["config"].pop("dist" if command != "build_scorer" else "scorer")
            # a report file echoes the spec too; a filter file does not
            reports.append((report, files["out"].read_bytes() if command == "build_scorer" else None))
        assert reports[0] == reports[1]


_INTEGER_OPTIONS = [(command, name) for command, (_, _, options) in cli._COMMANDS.items()
                    for name, (parse, _, _) in options.items() if parse is cli._integer]
_DECIMAL_OPTIONS = [(command, name) for command, (_, _, options) in cli._COMMANDS.items()
                    for name, (parse, _, _) in options.items() if parse is cli._decimal]
# U+00A0 is Unicode whitespace, but no space-like byte of the key grammar
_BAD_INTEGERS = {"arabic_indic_five": "٥", "underscore": "1_0", "plus": "+3", "minus": "-3",
                 "hex": "0x10", "empty": "", "no_break_space": "7\u00a0"}
_BAD_DECIMALS = {"inf": "inf", "nan": "nan", "underscore": "0_1", "plus": "+0.5", "minus": "-0.5",
                 "arabic_indic_zero": "٠.5", "bare_exponent": "1e", "past_the_float_range": "1e999",
                 "no_break_space": "0.5\u00a0"}


class TestNumberGrammar:
    """Every integer option follows the key grammar and every real one the decimal grammar,
    as a flag and as a config line, in every command that declares it."""

    @staticmethod
    def _argv(tmp_path, command: str, name: str, value: str, how: str) -> list[str]:
        if how == "flag":
            return [command, f"--{name}", value, "--out", str(tmp_path / "out")]
        (tmp_path / "run.cfg").write_text(f"{name}={value}\n", encoding="utf-8")
        return [command, "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out")]

    def _refused(self, tmp_path, capsys, *argv) -> str:
        code = main(self._argv(tmp_path, *argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_PARAMETER, "")
        assert not (tmp_path / "out").exists()
        return captured.err

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("value", _BAD_INTEGERS.values(), ids=_BAD_INTEGERS)
    @pytest.mark.parametrize("command, name", _INTEGER_OPTIONS,
                             ids=[f"{command}_{name}" for command, name in _INTEGER_OPTIONS])
    def test_an_integer_outside_the_key_grammar_is_one_error_line(
        self, tmp_path, capsys, command, name, value, how
    ):
        err = self._refused(tmp_path, capsys, command, name, value, how)
        assert err == f"error: --{name} {value!r}: not a decimal integer key\n"

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("value", _BAD_DECIMALS.values(), ids=_BAD_DECIMALS)
    @pytest.mark.parametrize("command, name", _DECIMAL_OPTIONS,
                             ids=[f"{command}_{name}" for command, name in _DECIMAL_OPTIONS])
    def test_a_real_outside_the_decimal_grammar_is_one_error_line(
        self, tmp_path, capsys, command, name, value, how
    ):
        err = self._refused(tmp_path, capsys, command, name, value, how)
        assert err == f"error: bad --{name} {value!r}: not a decimal number\n"

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("value", _BAD_DECIMALS.values(), ids=_BAD_DECIMALS)
    def test_a_tau_grid_item_outside_the_grammar_exits_2_before_any_file_opens(
        self, tmp_path, capsys, value, how
    ):
        # no key, scorer or filter file exists: the grid is refused as it is parsed
        argv = ["sweep", "--keys", tmp_path / "none.txt", "--scorer", tmp_path / "none.json",
                "--dist", "uniform:0:1000", *self._argv(tmp_path, "sweep", "taus", f"0.5,{value}", how)[1:]]
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_PARAMETER, "")
        assert captured.err == f"error: bad threshold {value!r}: not a decimal number\n"

    @pytest.mark.parametrize("value", _BAD_DECIMALS.values(), ids=_BAD_DECIMALS)
    def test_an_inline_interval_score_outside_the_grammar_is_one_error_line(
        self, tmp_path, key_file, capsys, value
    ):
        out = tmp_path / "f.lbf"
        code = main(["build", "--kind", "learned", "--keys", str(key_file[0]), "--scorer",
                     f"interval:0:10:{value}:0.0", "--tau", "0.4", "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_PARAMETER, "")
        assert captured.err == f"error: bad interval score {value!r}: not a decimal number\n"
        assert not out.exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_every_key_and_padded_numbers_are_accepted(self, tmp_path, capsys, how):
        argv = ["concentration", "--t-size", "100", "--q-size", "100"]
        values = {"seed": str(2**64 - 1), "trials": " 2", "epsilon": "\t25e-2 "}
        if how == "flag":
            argv += [part for name, value in values.items() for part in (f"--{name}", value)]
        else:
            (tmp_path / "run.cfg").write_text("".join(f"{k}={v}\n" for k, v in values.items()))
            argv += ["--config", str(tmp_path / "run.cfg")]
        code, stdout = run(capsys, *argv)
        assert code == 0
        config = json.loads(stdout)["config"]
        assert (config["seed"], config["trials"], config["epsilon"]) == (2**64 - 1, 2, 0.25)

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_a_subnormal_rate_reaches_its_range_check(self, tmp_path, capsys, how):
        err = self._refused(tmp_path, capsys, "repro-example", "backup-target-fpp", "1e-310", how)
        assert err == "error: backup_target_fpp 1e-310 is too small: 1/backup_target_fpp overflows\n"


@pytest.mark.parametrize("command", list(cli._OPTIONS))
def test_the_mode_rules_name_only_declared_options(command):
    declared = cli._COMMANDS[command][2]
    always, choose_mode, modes = cli._OPTIONS[command]
    named = {*always, *(name for rule in modes.values() for names in rule for name in names)}
    if command == "build":
        named |= {*cli._STANDARD, *cli._LEARNED, *cli._EXAMPLE}
    assert sorted(named - set(declared)) == []

    def given(name: str) -> bool:  # the options a mode choice reads, each given or none
        assert name in declared
        return everything

    for kind in declared["kind"][0] if "kind" in declared else [None]:
        for key, everything in [([], False), ([5], True)]:
            assert choose_mode(argparse.Namespace(kind=kind, key=key), given) in modes


def test_running_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    # an allocation the address-space limit refuses only after numpy's up-front check passed
    filt = tmp_path / "ex.lbf"
    run(capsys, "build", "--kind", "example", "--out", filt)
    argv = ["eval", "--filter", str(filt), "--dist", "uniform:0:1000", "--out", str(tmp_path / "r")]
    for error, line in [(MemoryError("Unable to allocate 1.12 GiB"), "Unable to allocate 1.12 GiB"),
                        (MemoryError(), "an allocation failed")]:
        def evaluate(*_, error=error):
            raise error

        monkeypatch.setattr(cli, "evaluate", evaluate)
        assert main(argv) == EXIT_PARAMETER
        assert capsys.readouterr() == ("", f"error: ran out of memory: {line}\n")
        assert not (tmp_path / "r").exists()


_EDGE_KEYS = [0, 9, 10, 100, 2**64 - 1]


@pytest.fixture(scope="module")
def small_filter():
    filt = BloomFilter.from_params(FilterParams(2048, 3), 1)
    filt.insert_many([*_EDGE_KEYS[::2], *range(0, 300, 3)])
    return filt


@settings(max_examples=200, deadline=None)
@given(
    keys=st.lists(
        st.one_of(st.sampled_from(_EDGE_KEYS), st.integers(0, 300), st.integers(0, 2**64 - 1)),
        max_size=40,
    ),
    name=st.text(st.sampled_from(list(',"\\\né \u00ff\u4e2dab.')), min_size=1, max_size=10),
    fmt=st.sampled_from(["json", "csv"]),
    from_file=st.booleans(),
)
def test_query_report_is_the_dict_report(tmp_path_factory, small_filter, keys, name, fmt, from_file):
    # the reference is the report as a dict of str(key) -> answer, rendered by json.dumps or _flatten
    directory = tmp_path_factory.mktemp("query")
    filt, report = directory / f"f{name}", directory / "report"
    filt.write_bytes(small_filter.to_bytes())
    argv = ["query", "--filter", str(filt), "--format", fmt, "--out", str(report)]
    if from_file or not keys:
        save_keys_text(directory / "queries.txt", keys)
        argv += ["--queries", str(directory / "queries.txt")]
    else:
        argv += ["--", *map(str, keys)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    answers = small_filter.contains_many(np.array(keys, np.uint64)).tolist()
    expected = _render({"filter": str(filt), "results": dict(zip(map(str, keys), answers))}, fmt)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == expected
    assert report.read_bytes() == expected.encode("utf-8")


def test_a_query_report_passes_no_dict_to_json_dumps(tmp_path, capsys, monkeypatch, small_filter):
    filt, queries = tmp_path / "std.bloom", tmp_path / "queries.txt"
    filt.write_bytes(small_filter.to_bytes())
    save_keys_text(queries, range(50))
    real_dumps, dumped = json.dumps, []

    def dumps(obj, **kwargs):
        dumped.append(type(obj))
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", dumps)
    for fmt in ("json", "csv"):
        assert run(capsys, "query", "--filter", filt, "--format", fmt, "--queries", queries)[0] == 0
        assert run(capsys, "query", "--filter", filt, "--format", fmt, "5", "7")[0] == 0
    assert dict not in dumped


class TestEval:
    def test_eval_standard_filter(self, tmp_path, key_file, capsys):
        path, _ = key_file
        out = tmp_path / "std.bloom"
        run(capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "0.01", "--seed", "3", "--out", out)
        code, stdout = run(
            capsys, "eval", "--filter", out, "--keys", path,
            "--dist", "uniform:0:1000000", "--samples", "20000", "--seed", "4",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert 0.0 <= payload["empirical_fpr"] <= 0.05
        assert payload["sample_count"] == 20000

    def test_eval_learned_filter_reports_model_fields(self, tmp_path, capsys):
        out = tmp_path / "ex.lbf"
        run(capsys, "build", "--kind", "example", "--seed", "7", "--out", out)
        code, stdout = run(
            capsys, "eval", "--filter", out, "--dist", "uniform:0:1000000",
            "--samples", "20000", "--seed", "4",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert "alpha_estimate" in payload and "model_fpr" in payload

    def test_byte_ngram_record_of_200k_buckets_evaluates_100k_samples(self, tmp_path, capsys):
        # a dense n x D feature matrix here would be 100k x 200k floats: 149 GiB
        scorer = LogisticScorer((0.0,) * 200_000, 0.0, "byte-ngram:200000")
        out = tmp_path / "wide.lbf"
        lbf = LearnedBloomFilter.build([5, 1500], scorer, 0.6, FilterParams(64, 2), seed=0)
        out.write_bytes(lbf.to_bytes())
        code, stdout = run(
            capsys, "eval", "--filter", out, "--dist", "uniform:0:1000000",
            "--samples", "100000", "--seed", "4",
        )
        assert code == 0
        assert json.loads(stdout)["sample_count"] == 100000

    @pytest.mark.parametrize(
        "scorer",
        [
            LogisticScorer((1e308,), 1e308, "int-norm:1"),  # overflows in the product
            LogisticScorer((1.7e308,) * 4, 1.7e308, "byte-ngram:4"),  # overflows at + bias
        ],
        ids=["int-norm", "byte-ngram"],
    )
    def test_a_logit_past_the_float_range_saturates_silently(self, tmp_path, scorer):
        out = tmp_path / "huge.lbf"
        lbf = LearnedBloomFilter.build([5, 1500], scorer, 0.6, FilterParams(64, 2), seed=0)
        out.write_bytes(lbf.to_bytes())
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "learnedbloom", "eval", "--filter", str(out),
             "--dist", f"uniform:0:{2**64}", "--samples", "2000", "--seed", "4"],
            capture_output=True, text=True, env=env, timeout=120,
        )  # fmt: skip
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["alpha_estimate"] == 1.0
        keys = sample(uniform_queries(0, 2**64), 2000, rng_seed=4).tolist() + [0, 2**63, 2**64 - 1]
        assert [scorer.score(k) for k in keys] == scorer.score_batch(keys).tolist()

    def test_overlapping_explicit_queries_rejected(self, tmp_path, key_file, capsys):
        path, keys = key_file
        out = tmp_path / "std.bloom"
        run(capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "0.01", "--seed", "3", "--out", out)
        qpath = tmp_path / "queries.txt"
        save_keys_text(qpath, [keys[0], 10**6 + 5])
        code, _ = run(capsys, "eval", "--filter", out, "--keys", path, "--queries", qpath)
        assert code == EXIT_WORKLOAD

    def test_eval_output_is_deterministic(self, tmp_path, capsys):
        out = tmp_path / "ex.lbf"
        run(capsys, "build", "--kind", "example", "--seed", "7", "--out", out)
        args = ("eval", "--filter", out, "--dist", "uniform:0:1000000",
                "--samples", "20000", "--seed", "4")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_overlap_message_counts_distinct_keys_and_names_the_smallest(
        self, tmp_path, key_file, capsys
    ):
        path, keys = key_file
        out = tmp_path / "std.bloom"
        run(capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "0.01", "--seed", "3", "--out", out)
        qpath = tmp_path / "queries.txt"
        save_keys_text(qpath, [keys[5], keys[2], keys[5], 10**6 + 5])
        code = main(["eval", "--filter", str(out), "--keys", str(path), "--queries", str(qpath)])
        err = capsys.readouterr().err
        assert code == EXIT_WORKLOAD
        assert err == f"error: 2 query keys overlap the key set (e.g. {keys[2]})\n"

    @pytest.mark.parametrize("mode", ["queries", "dist"])
    @pytest.mark.parametrize("bad_key", [-1, 2**64])
    def test_out_of_range_key_file_is_one_error_line(
        self, tmp_path, key_file, capsys, mode, bad_key
    ):
        path, _ = key_file
        out = tmp_path / "std.bloom"
        run(capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "0.01", "--seed", "3", "--out", out)
        bad_keys = tmp_path / "bad-keys.txt"
        bad_keys.write_text(f"5\n{bad_key}\n")
        qpath = tmp_path / "queries.txt"
        save_keys_text(qpath, [10**7, 10**7 + 1])
        where = ["--queries", qpath] if mode == "queries" else ["--dist", "uniform:0:1000000"]
        code = main([str(a) for a in ["eval", "--filter", out, "--keys", bad_keys, *where]])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err == f"error: {bad_keys}: line 2: not a decimal integer key\n"

    def test_queries_without_a_key_set_keep_64_bit_keys_apart(self, tmp_path, key_file, capsys):
        # two keys that float64 rounds to the same value must not count as overlapping
        path, _ = key_file
        out = tmp_path / "std.bloom"
        run(capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "0.01", "--seed", "3", "--out", out)
        qpath = tmp_path / "queries.txt"
        save_keys_text(qpath, [2**53, 2**53 + 1])
        code, stdout = run(capsys, "eval", "--filter", out, "--queries", qpath)
        assert code == 0
        assert json.loads(stdout)["sample_count"] == 2

    def test_disjoint_explicit_queries_accepted(self, tmp_path, key_file, capsys):
        path, keys = key_file
        out = tmp_path / "std.bloom"
        run(capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "0.01", "--seed", "3", "--out", out)
        qpath = tmp_path / "queries.txt"
        save_keys_text(qpath, [k + 10**7 for k in keys[:100]])
        code, stdout = run(capsys, "eval", "--filter", out, "--keys", path, "--queries", qpath)
        assert code == 0
        report = json.loads(stdout)
        assert report["sample_count"] == 100
        assert "seed" not in report["config"]  # a query file draws nothing

    @staticmethod
    def _build(capsys, kind, keys_path, out):
        """Build a standard or a learned filter of the keys in ``keys_path`` at ``out``."""
        sizing = {"standard": ["--target-fpp", "0.01"],
                  "learned": ["--scorer", "interval:0:300000:0.9:0.1", "--tau", "0.5"]}[kind]
        code, _ = run(capsys, "build", "--kind", kind, "--keys", keys_path, *sizing,
                      "--seed", "3", "--out", out)
        assert code == 0

    @pytest.mark.parametrize("source", ["dist", "queries"])
    @pytest.mark.parametrize("kind", ["standard", "learned"])
    def test_every_filter_and_query_source_gives_one_report_shape(
        self, tmp_path, key_file, capsys, kind, source
    ):
        path, keys = key_file
        out = tmp_path / "filter"
        self._build(capsys, kind, path, out)
        qpath = tmp_path / "queries.txt"
        save_keys_text(qpath, [k + 10**6 for k in keys[:100]] + [5 * 10**6 + 1, 10**7])
        where = {"dist": ["--dist", "uniform:0:1000000", "--samples", "2000", "--seed", "4"],
                 "queries": ["--queries", qpath]}[source]
        code, stdout = run(capsys, "eval", "--filter", out, "--keys", path, *where)
        assert code == 0
        report = json.loads(stdout)
        assert set(report) == {"schema", "config", "empirical_fpr", "sample_count",
                               "alpha_estimate", "backup_fpr_estimate", "model_fpr",
                               "binomial_std_err"}
        assert ("seed" in report["config"]) is (source == "dist")  # only a sample draws
        assert report["sample_count"] == (2000 if source == "dist" else 102)
        if kind == "standard":
            filt = BloomFilter.from_bytes(out.read_bytes())
            assert report["alpha_estimate"] == 0.0
            assert report["model_fpr"] == report["backup_fpr_estimate"] == filt.fill_ratio**filt.k
        else:
            backup = LearnedBloomFilter.from_bytes(out.read_bytes()).backup
            assert report["backup_fpr_estimate"] == backup.fill_ratio**backup.k

    @pytest.mark.parametrize("text", ["", "\n \n\t\n"], ids=["empty", "blank_lines"])
    @pytest.mark.parametrize("kind", ["standard", "learned"])
    def test_a_query_file_without_keys_is_one_error_line(
        self, tmp_path, key_file, capsys, kind, text
    ):
        path, _ = key_file
        out = tmp_path / "filter"
        self._build(capsys, kind, path, out)
        qpath = tmp_path / "queries.txt"
        qpath.write_text(text)
        code = main(["eval", "--filter", str(out), "--queries", str(qpath)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            EXIT_PARAMETER, "", "error: query list must be nonempty\n"
        )


class TestSweep:
    def test_grid_alpha_column(self, tmp_path, capsys):
        ex_out = tmp_path / "ex.lbf"
        kpath = tmp_path / "exkeys.txt"
        # sweep over the worked-example keys themselves
        run(capsys, "build", "--kind", "example", "--seed", "7", "--out", ex_out, "--keys-out", kpath)
        code, stdout = run(
            capsys, "sweep", "--keys", kpath, "--scorer", "interval:1000:2000:0.5:0.0",
            "--taus", "0,0.5,1.0", "--dist", "uniform:0:1000000",
            "--samples", "200000", "--seed", "1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(stdout)))
        assert [float(r["tau"]) for r in rows] == [0.0, 0.5, 1.0]
        alphas = [float(r["alpha_estimate"]) for r in rows]
        assert alphas[0] == 1.0
        assert alphas[1] == pytest.approx(501 / 999000, abs=3 * (5.1e-4 / 200000) ** 0.5)
        assert alphas[2] == 0.0
        assert [int(r["backup_keys"]) for r in rows] == [0, 500, 1000]

    def test_report_echoes_the_configuration(self, tmp_path, key_file, capsys):
        path, _ = key_file
        code, stdout = run(
            capsys, "sweep", "--keys", path, "--scorer", "interval:0:10:0.5:0.0",
            "--taus", "0.5", "--dist", "uniform:0:1000000", "--samples", "1000", "--seed", "6",
        )
        assert code == 0
        config = json.loads(stdout)["config"]
        assert (config["dist"], config["samples"], config["seed"]) == ("uniform:0:1000000", 1000, 6)
        assert config["backup_target_fpp"] == 0.0002

    def test_single_tau_single_row(self, tmp_path, key_file, capsys):
        path, _ = key_file
        code, stdout = run(
            capsys, "sweep", "--keys", path, "--scorer", "interval:0:10:0.5:0.0",
            "--taus", "0.5", "--dist", "uniform:0:1000000", "--samples", "1000",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(stdout)))
        assert len(rows) == 1

    def test_empty_grid_is_a_parameter_error(self, tmp_path, key_file, capsys):
        path, _ = key_file
        code, _ = run(
            capsys, "sweep", "--keys", path, "--scorer", "interval:0:10:0.5:0.0",
            "--taus", "", "--dist", "uniform:0:1000000",
        )
        assert code == EXIT_PARAMETER


class TestConcentration:
    def test_prints_the_closed_form_bound(self, capsys):
        code, stdout = run(
            capsys, "concentration", "--t-size", "10000", "--q-size", "10000",
            "--epsilon", "0.05", "--trials", "2", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["theorem_bound"] == pytest.approx(0.007721816544910837, rel=1e-12)

    def test_filter_over_the_whole_universe_without_keys(self, tmp_path, key_file, capsys):
        path, _ = key_file
        filt = tmp_path / "std.bloom"
        run(capsys, "build", "--kind", "standard", "--keys", path,
            "--target-fpp", "0.01", "--seed", "3", "--out", filt)
        code, _ = run(
            capsys, "concentration", "--trials", "1", "--t-size", "100", "--q-size", "100",
            "--filter", filt, "--dist", f"uniform:0:{2**64}",
        )
        assert code == 0


def test_build_help_names_out_as_the_filter_file(capsys):
    assert main(["build", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--out OUT the filter file to write; the summary goes to stdout only" in text


class TestReproExample:
    def test_flags_unreproduced_figures(self, capsys):
        code, stdout = run(
            capsys, "repro-example", "--seed", "7",
            "--samples", "20000", "--restricted-samples", "10000",
        )
        assert code == 0
        report = json.loads(stdout)
        figures = report["reference_figures"]
        assert figures["above_threshold_rate_full_range"]["reproduced"] is False
        assert figures["above_threshold_rate_full_range"]["derived"]["fraction"] == "167/333000"
        assert figures["backup_stored_keys"]["reproduced"] is True
        assert figures["extra_bits_per_stored_element"]["reproduced"] is True

    def test_each_range_sections_error_is_taken_at_its_own_model_rate(self, capsys):
        code, stdout = run(capsys, "repro-example", "--seed", "7", "--samples", "20000")
        assert code == 0
        report = json.loads(stdout)
        for name in ("full_range", "restricted_range"):
            section = report[name]
            p, n = section["model_fpr"], section["sample_count"]
            assert section["binomial_std_err"] == math.sqrt(p * (1.0 - p) / n), name

    def test_the_build_section_is_the_build_summary_and_the_hot_range_count(self, tmp_path, capsys):
        _, stdout = run(capsys, "build", "--kind", "example", "--seed", "7", "--out", tmp_path / "ex")
        summary = json.loads(stdout)
        _, stdout = run(capsys, "repro-example", "--seed", "7", "--samples", "1000",
                        "--restricted-samples", "1000")
        build = json.loads(stdout)["build"]
        assert build.pop("keys_in_hot_range") == 500
        assert build == {name: summary[name] for name in build}
        assert set(summary) - set(build) == {"kind", "tau", "out", "config"}

    @pytest.mark.parametrize("rate", ["0.5", "0.9"])
    def test_a_backup_rate_the_comparison_cannot_double_is_refused(self, rate, capsys):
        assert main(["repro-example", "--backup-target-fpp", rate]) == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert f"backup_target_fpp {rate} must lie in (0, 0.5)" in err
        assert "twice that rate" in err

    def test_the_restricted_range_is_fixed(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["repro-example", "--restricted-hi", "5", "--out", str(out)]) == EXIT_PARAMETER
        assert "unrecognized arguments: --restricted-hi 5" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_given_seed(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["repro-example", "--seed", "11", "--samples", "20000",
                "--restricted-samples", "10000"]
        code_a, out_a = run(capsys, *args, "--out", a)
        code_b, out_b = run(capsys, *args, "--out", b)
        assert code_a == code_b == 0
        assert a.read_bytes() == b.read_bytes()
        assert out_a == out_b


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, key_file, capsys):
        path, _ = key_file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target-fpp=0.01\nseed=3\n")
        out = tmp_path / "std.bloom"
        code, stdout = run(
            capsys, "build", "--kind", "standard", "--keys", path,
            "--config", cfg, "--out", out,
        )
        assert code == 0
        assert json.loads(stdout)["m"] == 9586
        # a flag overrides the same key in the config
        out2 = tmp_path / "std2.bloom"
        code, stdout = run(
            capsys, "build", "--kind", "standard", "--keys", path,
            "--config", cfg, "--target-fpp", "0.1", "--out", out2,
        )
        assert code == 0
        assert json.loads(stdout)["m"] < 9586

    def test_flags_and_config_write_identical_eval_reports(self, tmp_path, capsys):
        out = tmp_path / "ex.lbf"
        run(capsys, "build", "--kind", "example", "--seed", "7", "--out", out)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("samples=5000\nseed=4\ndist=uniform:0:1000000\n")
        _, by_flags = run(capsys, "eval", "--filter", out, "--samples", "5000", "--seed", "4",
                          "--dist", "uniform:0:1000000")
        code, by_config = run(capsys, "eval", "--filter", out, "--config", cfg)
        assert code == 0
        assert by_config == by_flags
        config = json.loads(by_config)["config"]
        assert (config["samples"], config["seed"], config["dist"]) == (5000, 4, "uniform:0:1000000")

    def test_concentration_report_echoes_defaults_typed(self, capsys):
        code, stdout = run(capsys, "concentration", "--trials", "2", "--t-size", "1000")
        assert code == 0
        config = json.loads(stdout)["config"]
        assert config["t_size"] == 1000 and config["q_size"] == 10_000
        assert config["seed"] == 0 and config["epsilon"] == 0.05
        assert config["backup_target_fpp"] == 0.0002

    def test_unknown_config_key_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "ex.lbf"
        run(capsys, "build", "--kind", "example", "--seed", "7", "--out", out)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("sampels=5000\n")
        code = main(["eval", "--filter", str(out), "--dist", "uniform:0:1000000",
                     "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'sampels'" in err

    @pytest.mark.parametrize("line", ["format=xml", "key=5", "config=other.cfg"])
    def test_config_key_that_is_no_settable_option_is_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = main(["query", "--filter", str(tmp_path / "f"), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_config_line_loses_only_the_key_grammars_spaces(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        argv = ["concentration", "--trials", "1", "--t-size", "10", "--q-size", "10", "--config", cfg]
        cfg.write_text("\n \t\n \tseed=7\f\v\n\n", encoding="utf-8")  # blank lines are skipped
        code, stdout = run(capsys, *argv)
        assert code == 0 and json.loads(stdout)["config"]["seed"] == 7
        # U+00A0 is Unicode whitespace, but no space-like byte of the key grammar
        cfg.write_text("\u00a0seed=7\n", encoding="utf-8")
        assert main([str(a) for a in argv]) == EXIT_PARAMETER
        assert capsys.readouterr() == (
            "", f"error: config key '\\xa0seed' in {cfg} names no option of this command\n"
        )

    @pytest.mark.parametrize(
        "config", ["format=csv\nseed=5\n", "seed=5\nsamples=x\n", "seed=5\nsampels=3\n"],
        ids=["csv_and_seed", "mistyped_value", "unknown_key"],
    )
    def test_a_config_call_leaves_nothing_behind_for_the_next_call(self, tmp_path, capsys, config):
        filt = tmp_path / "ex.lbf"
        run(capsys, "build", "--kind", "example", "--seed", "7", "--out", filt)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        plain = ["eval", "--filter", str(filt), "--dist", "uniform:0:1000000"]

        def call(argv):
            code = main(argv)
            return code, *capsys.readouterr()

        alone = call(plain)
        with_config = call([*plain, "--config", str(cfg)])
        # both orders: a plain call after a config call, and a config call after a plain one
        assert call(plain) == alone
        assert call([*plain, "--config", str(cfg)]) == with_config
        assert alone[0] == 0 and json.loads(alone[1])["config"]["seed"] == 0
        if config.startswith("format"):
            assert with_config[0] == 0 and "config.seed,5\n" in with_config[1]
        else:
            assert with_config[0] == EXIT_PARAMETER and with_config[1] == ""

    def test_config_format_and_out_are_honoured(self, tmp_path, capsys):
        out = tmp_path / "ex.lbf"
        run(capsys, "build", "--kind", "example", "--seed", "7", "--out", out)
        report = tmp_path / "report.csv"
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"format=csv\nout={report}\nsamples=2000\n")
        code, stdout = run(capsys, "eval", "--filter", out, "--dist", "uniform:0:1000000",
                           "--config", cfg)
        assert code == 0
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0] == ["key", "value"]
        assert ["config.samples", "2000"] in rows
        assert report.read_text() == stdout

    def test_mistyped_config_value_exits_2_without_traceback(self, tmp_path, capsys):
        out = tmp_path / "ex.lbf"
        run(capsys, "build", "--kind", "example", "--seed", "7", "--out", out)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("samples=x\n")
        code = main(["eval", "--filter", str(out), "--dist", "uniform:0:1000000",
                     "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert "Traceback" not in err
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == 1 and "--samples" in error_lines[0]
        # checked like a flag even where a flag overrides it
        code = main(["eval", "--filter", str(out), "--dist", "uniform:0:1000000",
                     "--config", str(cfg), "--samples", "2000"])
        assert code == EXIT_PARAMETER and "--samples" in capsys.readouterr().err

    def test_csv_format_flattens_report(self, capsys):
        code, stdout = run(
            capsys, "repro-example", "--seed", "7", "--samples", "20000",
            "--restricted-samples", "10000", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0] == ["key", "value"]
        keys = {row[0] for row in rows[1:]}
        assert "build.backup_keys" in keys


class TestExitCodes:
    def test_unknown_command_is_parameter_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_PARAMETER

    def test_missing_required_option(self, capsys):
        assert main(["build"]) == EXIT_PARAMETER

    def test_header_k_above_the_bound_is_parameter_error(self, tmp_path, capsys, monkeypatch):
        def no_probe(*_):
            raise AssertionError("a filter with an out-of-bound k was probed")

        monkeypatch.setattr(BloomFilter, "contains", no_probe)
        monkeypatch.setattr(BloomFilter, "contains_many", no_probe)
        bad = tmp_path / "bad.bloom"
        bad.write_bytes(struct.pack("<4sQIQQ", b"LBF1", 8, 1 << 31, 0, 0) + b"\x00")
        code = main(["query", "--filter", str(bad), "5"])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_filter_format_error_is_parameter_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bloom"
        bad.write_bytes(b"LBF1 but not really a filter")
        code, _ = run(capsys, "query", "--filter", bad, "5")
        assert code == EXIT_PARAMETER

    @pytest.mark.parametrize(
        "case",
        ["key_file_line", "summary_dist_bounds", "tau_grid", "interval_bounds",
         "interval_bound_below_the_key_range", "interval_bound_above_the_key_range", "tiny_target",
         "scorer_part_not_utf8", "scorer_part_nested_json", "meta_part_nested_json",
         "scorer_file_not_utf8", "config_file_not_utf8", "meta_count_overflows",
         "tau_part_overflows", "scorer_part_bound_overflows", "scorer_part_score_overflows",
         "scorer_file_score_overflows", "meta_count_is_a_string", "meta_count_is_a_bool",
         "meta_count_is_a_float", "meta_count_is_negative", "scorer_part_intervals_an_object",
         "scorer_part_intervals_a_string", "scorer_part_weights_a_string", "interval_field_count",
         "unknown_dist_spec", "learned_filter_trailing_bytes", "tau_part_above_one"],
    )
    def test_parse_failure_is_one_error_line(self, tmp_path, key_file, capsys, case):
        path, _ = key_file
        bad_keys = tmp_path / "bad.txt"
        bad_keys.write_text("12\nx3\n")
        out = tmp_path / "f.out"
        nested = b"[" * 100_000 + b"]" * 100_000
        huge_score = (b'{"inside_score": "0x1p99999", "intervals": [[1000, 2000]], '
                      b'"kind": "interval", "outside_score": "0x0.0p+0"}')
        bad = tmp_path / "bad"
        bad.write_bytes({
            "scorer_part_not_utf8": _learned_filter_with_part(0, b"\xff{}"),
            "scorer_part_nested_json": _learned_filter_with_part(0, nested),
            "meta_part_nested_json": _learned_filter_with_part(3, nested),
            "scorer_file_not_utf8": b'{"kind": "interval\xff"}',
            "config_file_not_utf8": b"samples=\xff\n",
            "meta_count_overflows": _learned_filter_with_part(
                3, b'{"below_threshold_count": 1, "inserted_after_build": 0, "key_count": 1e400}'),
            "tau_part_overflows": _learned_filter_with_part(1, b"0x1p99999"),
            "scorer_part_bound_overflows": _learned_filter_with_part(
                0, b'{"inside_score": "0x1p-1", "intervals": [[1000, 1e400]], '
                   b'"kind": "interval", "outside_score": "0x0.0p+0"}'),
            "scorer_part_score_overflows": _learned_filter_with_part(0, huge_score),
            "scorer_file_score_overflows": huge_score,
            "meta_count_is_a_string": _learned_filter_with_part(
                3, b'{"below_threshold_count": "1", "inserted_after_build": 0, "key_count": 2}'),
            "meta_count_is_a_bool": _learned_filter_with_part(
                3, b'{"below_threshold_count": 1, "inserted_after_build": true, "key_count": 2}'),
            "meta_count_is_a_float": _learned_filter_with_part(
                3, b'{"below_threshold_count": 1, "inserted_after_build": 0, "key_count": 7.9}'),
            "meta_count_is_negative": _learned_filter_with_part(
                3, b'{"below_threshold_count": 1, "inserted_after_build": 0, "key_count": -2}'),
            "scorer_part_intervals_an_object": _learned_filter_with_part(
                0, b'{"inside_score": "0x1p-1", "intervals": {}, '
                   b'"kind": "interval", "outside_score": "0x0.0p+0"}'),
            "scorer_part_intervals_a_string": _learned_filter_with_part(
                0, b'{"inside_score": "0x1p-1", "intervals": "", '
                   b'"kind": "interval", "outside_score": "0x0.0p+0"}'),
            "scorer_part_weights_a_string": _learned_filter_with_part(
                0, b'{"bias": "0x0.0p+0", "feature_map": "int-norm:10", "kind": "logistic", '
                   b'"weights": "1"}'),
            "learned_filter_trailing_bytes": _learned_filter_with_part(1, b"0x1.999999999999ap-2")
            + b"\x00",
            "tau_part_above_one": _learned_filter_with_part(1, b"0x1.8p+0"),
            "unknown_dist_spec": BloomFilter.from_params(FilterParams(64, 2), 0).to_bytes(),
        }.get(case, b""))
        argv = {
            "key_file_line": ["build", "--kind", "standard", "--keys", bad_keys,
                              "--target-fpp", "0.01", "--out", out],
            "summary_dist_bounds": ["build", "--kind", "example", "--out", out,
                                    "--summary-dist", "uniform:a:b"],
            "tau_grid": ["sweep", "--keys", path, "--scorer", "interval:0:10:0.5:0.0",
                         "--taus", "0.1,x", "--dist", "uniform:0:1000000"],
            "interval_bounds": ["build", "--kind", "learned", "--keys", path, "--scorer",
                                "interval:1.5:2000:0.5:0.0", "--tau", "0.4", "--out", out],
            "interval_bound_below_the_key_range": [
                "build", "--kind", "learned", "--keys", path, "--scorer",
                "interval:-5:10:0.5:0.0", "--tau", "0.4", "--out", out],
            "interval_bound_above_the_key_range": [
                "build", "--kind", "learned", "--keys", path, "--scorer",
                f"interval:0:{2**64}:0.5:0.0", "--tau", "0.4", "--out", out],
            "tiny_target": ["build", "--kind", "standard", "--keys", path,
                            "--target-fpp", "1e-310", "--out", out],
            "interval_field_count": ["build", "--kind", "learned", "--keys", path, "--scorer",
                                     "interval:0:10:0.5", "--tau", "0.4", "--out", out],
            "unknown_dist_spec": ["eval", "--filter", bad, "--dist", "normal:0:1", "--out", out],
            "scorer_part_not_utf8": ["query", "--filter", bad, "5"],
            "scorer_part_nested_json": ["query", "--filter", bad, "5"],
            "meta_part_nested_json": ["query", "--filter", bad, "5"],
            "scorer_file_not_utf8": ["build", "--kind", "learned", "--keys", path,
                                     "--scorer", bad, "--tau", "0.4", "--out", out],
            "config_file_not_utf8": ["eval", "--filter", out, "--config", bad],
            "meta_count_overflows": ["query", "--filter", bad, "5"],
            "tau_part_overflows": ["query", "--filter", bad, "5"],
            "scorer_part_bound_overflows": ["query", "--filter", bad, "5"],
            "scorer_part_score_overflows": ["query", "--filter", bad, "5"],
            "scorer_file_score_overflows": ["build", "--kind", "learned", "--keys", path,
                                            "--scorer", bad, "--tau", "0.4", "--out", out],
            **{case: ["query", "--filter", bad, "5"] for case in (
                "meta_count_is_a_string", "meta_count_is_a_bool", "meta_count_is_a_float",
                "meta_count_is_negative", "scorer_part_intervals_an_object",
                "scorer_part_intervals_a_string", "scorer_part_weights_a_string",
                "learned_filter_trailing_bytes", "tau_part_above_one")},
        }[case]
        code = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        if case == "key_file_line":
            assert "line 2" in err
        if case.startswith("interval_bound_"):  # a bound follows the key grammar
            bound = "-5" if case.endswith("below_the_key_range") else str(2**64)
            assert err == f"error: interval bound '{bound}': not a decimal integer key\n"
        messages = {
            "interval_field_count": "inline interval scorer must be interval:LO:HI:INSIDE:OUTSIDE",
            "unknown_dist_spec": "unknown distribution spec 'normal:0:1' (use uniform:LO:HI or fixed:PATH)",
            "learned_filter_trailing_bytes": "trailing bytes after learned filter record",
            "tau_part_above_one": "malformed learned filter record: threshold tau must lie in [0, 1]",
        }
        if case in messages:
            assert err == f"error: {messages[case]}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--filter", "FILTER", "--dist", "uniform:0:1000000", "--samples", 10**13],
            ["concentration", "--trials", "1", "--t-size", 10**13],
            ["concentration", "--trials", "1", "--q-size", 10**13],
            ["repro-example", "--samples", 10**13],
        ],
        ids=["eval_samples", "concentration_t_size", "concentration_q_size", "repro_samples"],
    )
    def test_unallocatable_sample_count_is_one_error_line(self, tmp_path, capsys, argv):
        # numpy refuses an 80 TB sample array at once, so this allocates nothing
        filt = tmp_path / "ex.lbf"
        run(capsys, "build", "--kind", "example", "--seed", "7", "--out", filt)
        out = tmp_path / "report.json"
        code = main([str(filt if a == "FILTER" else a) for a in [*argv, "--out", out]])
        err = capsys.readouterr().err
        assert code == EXIT_PARAMETER
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(10**13) in err
        assert not out.exists()


def test_every_raise_names_an_error_main_maps_to_an_exit_code():
    # cli.main turns these into exit codes 2, 4 and 5; any other exception is a traceback
    mapped = {"ParameterError", "FilterFormatError", "WorkloadError", "OracleUnavailableError",
              "TrainingError"}
    strays = []
    for source in sorted((ROOT / "src" / "learnedbloom").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:  # a bare re-raise keeps its type
                continue
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(raised, ast.Name) and raised.id in mapped):
                strays.append(f"{source.name}:{node.lineno}: {ast.unparse(node)}")
    assert strays == []


# numpy API that numpy 1.24, the declared floor, lacks
_NUMPY_2_ONLY = {
    "strings", "unique_values", "unique_counts", "unique_inverse", "unique_all", "bitwise_count",
    "concat", "astype", "isdtype", "cumulative_sum", "cumulative_prod", "permute_dims",
    "matrix_transpose", "vecdot", "matvec", "vecmat", "unstack", "trapezoid", "long", "ulong",
    "acos", "acosh", "asin", "asinh", "atan", "atanh", "atan2", "pow", "bitwise_invert",
    "bitwise_left_shift", "bitwise_right_shift",
}


def test_the_package_names_no_numpy_2_only_api():
    found = []
    for source in sorted((ROOT / "src" / "learnedbloom").glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        aliases = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "numpy"}  # fmt: skip
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):  # fmt: skip
                names = [node.attr]
            else:
                continue
            found += [f"{source.name}:{node.lineno}: {n}" for n in names if n in _NUMPY_2_ONLY]
    assert found == []


def test_every_imported_name_is_used_by_its_module():
    # the project runs no linter; __init__.py imports to re-export, and the __future__ import is a mode
    unused = []
    for source in sorted((ROOT / "src" / "learnedbloom").glob("*.py")):
        if source.name == "__init__.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in used:
                        unused.append(f"{source.name}:{node.lineno}: {name}")
    assert unused == []


def test_every_private_module_level_definition_is_named_elsewhere_in_the_package():
    # a single-underscore function, class or assignment at module level that nothing names is dead
    trees = {source.name: ast.parse(source.read_text(encoding="utf-8"))
             for source in sorted((ROOT / "src" / "learnedbloom").glob("*.py"))}  # fmt: skip
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{module}:{node.lineno}: {name}" for name in defined
                     if name.startswith("_") and not name.startswith("__") and name not in named]
    assert dead == []


def test_every_public_module_level_function_is_named_outside_its_own_module():
    # by another module of the package, a test or a script; else it is a helper under a
    # public name, or dead
    named = {}
    for source in sorted([*(ROOT / "src" / "learnedbloom").glob("*.py"),
                          *(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        named[source] = (tree, {
            *(node.id for node in ast.walk(tree) if isinstance(node, ast.Name)),
            *(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)),
            *(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names),
        })  # fmt: skip
    unnamed = [
        f"{module.name}:{node.lineno}: {node.name}"
        for module, (tree, _) in named.items() if module.parent.name == "learnedbloom"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and not any(node.name in names for other, (_, names) in named.items() if other != module)
    ]  # fmt: skip
    assert unnamed == []
