"""Fixed-seed CLI outputs keep their bytes: SHA-256 pins over a small run of `lbf`.

Every command runs in process through ``cli.main`` in a scratch directory,
with relative paths, so the paths the reports echo do not depend on where
the test runs.  Only standard and interval-scorer filters take part, so no
pinned byte depends on the platform's floating-point ``exp``.  A change
that alters one of these outputs on purpose updates its pin and says why.
Every JSON output is strict JSON: it holds no NaN or Infinity.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from learnedbloom import workloads
from learnedbloom.bloom import BloomFilter
from learnedbloom.cli import main
from learnedbloom.scorers import LogisticScorer, scorer_to_text
from learnedbloom.workloads import save_keys_text

COMMANDS = {
    "build_standard": ["build", "--kind", "standard", "--keys", "keys.txt",
                       "--target-fpp", "0.01", "--seed", "3", "--out", "standard.bloom"],
    "build_example": ["build", "--kind", "example", "--seed", "7",
                      "--summary-dist", "uniform:0:1000000", "--keys-out", "example-keys.txt",
                      "--out", "example.lbf"],
    "build_learned": ["build", "--kind", "learned", "--keys", "keys.txt",
                      "--scorer", "interval:0:300000:0.9:0.1", "--tau", "0.5",
                      "--backup-target-fpp", "0.001", "--seed", "1", "--out", "learned.lbf"],
    "query_standard": ["query", "--filter", "standard.bloom", "--queries", "queries.txt"],
    "query_example": ["query", "--filter", "example.lbf", "1500", "5", "999999"],
    "eval_standard": ["eval", "--filter", "standard.bloom", "--keys", "keys.txt",
                      "--dist", "uniform:0:1000000", "--samples", "20000", "--seed", "4"],
    "eval_example": ["eval", "--filter", "example.lbf", "--keys", "example-keys.txt",
                     "--dist", "uniform:0:100000", "--samples", "20000", "--seed", "4"],
    # 20,000 draws over fewer than 5,000 eligible keys, at least twice as many: each key
    # answered once, into a table that the draws read
    "eval_standard_table": ["eval", "--filter", "standard.bloom", "--keys", "keys.txt",
                            "--dist", "uniform:0:5000", "--samples", "20000", "--seed", "4"],
    "eval_example_table": ["eval", "--filter", "example.lbf", "--keys", "example-keys.txt",
                           "--dist", "uniform:0:5000", "--samples", "20000", "--seed", "4"],
    "sweep_json": ["sweep", "--keys", "example-keys.txt", "--scorer", "interval:1000:2000:0.5:0.0",
                   "--taus", "0,0.25,0.5,1", "--dist", "uniform:0:1000000",
                   "--samples", "20000", "--seed", "1"],
    "sweep_csv": ["sweep", "--keys", "example-keys.txt", "--scorer", "interval:1000:2000:0.5:0.0",
                  "--taus", "0,0.25,0.5,1", "--dist", "uniform:0:1000000",
                  "--samples", "20000", "--seed", "1", "--format", "csv"],
    # 999,000 eligible keys, at most SUPPORT_LIMIT: each answered once, into a table
    # that 3 x 2,000 draws read
    "concentration": ["concentration", "--t-size", "1000", "--q-size", "1000",
                      "--trials", "3", "--seed", "2"],
    # the same table, read by 50 x 20,000 draws
    "concentration_table": ["concentration", "--t-size", "10000", "--q-size", "10000",
                            "--trials", "50", "--epsilon", "0.0003", "--seed", "5"],
    # 2^64 eligible keys (no --keys excludes any), past SUPPORT_LIMIT: every set sampled
    "concentration_sampled": ["concentration", "--filter", "standard.bloom",
                              "--dist", f"uniform:0:{2**64}", "--t-size", "1000",
                              "--q-size", "1000", "--trials", "3", "--seed", "2"],
    "repro_json": ["repro-example", "--seed", "7", "--samples", "20000",
                   "--restricted-samples", "10000"],
    "repro_csv": ["repro-example", "--seed", "7", "--samples", "20000",
                  "--restricted-samples", "10000", "--format", "csv"],
}
FILES = ("standard.bloom", "example.lbf", "example-keys.txt", "learned.lbf")

EXPECTED = {
    "build_standard": "f7fb63f0f11bcf0cb7848091355fe97e9f5b4316cef137a07a1c6005301b38b7",
    "build_example": "bc845de00864630aed121445e008e1cbba28f752916028db79cdbeded92e0fd4",
    "build_learned": "df7fabd54ebadcb3bcd623989a6248995322731f2bd29daa9cf199258e4a0f9c",
    "query_standard": "41485d414affb63d5e04f039f09abd4d9a2b3590809d97bfcfa33b5ec21b5808",
    "query_example": "c6de042868171c2b4ab2e58d8ec8e64e49ba536bc3ac2af87b97309189df77c5",
    "eval_standard": "c466c480fa792b2163b5ae21bd69db22f4ee2df05644f9f30151b8ff69b25aa2",
    "eval_example": "e3c8a364de98e90a737548eead723b0bc166d1ee8f9f1c4a24a20ed78731cce4",
    "eval_standard_table": "f5cfc9d5a6755c3004eb407c135c9539e22b7110b2b5825cd22fd0922daccc4d",
    "eval_example_table": "9d06b3c034df980b2ebdd4e03e942137f5390084ad619650005b455ffe54c6da",
    "sweep_json": "05b9a076fa0ec920fa4d601af6d30b6262c8cec32d6f792bb6b540ff2422efd7",
    "sweep_csv": "97233646bd599b44e21efded7c386c3e4d49331177974d97e7a696fb2ee8d9ba",
    "concentration": "d237564f7610b594a8c7dca055bff7a229c2491d2cf2fb96d4c18ca0dc4d7de8",
    "concentration_table": "f94c99e1e941812e33f00ca8e178324b69caaf55f9ef04b14c12075e657fddd9",
    "concentration_sampled": "1502eda645f72e5f998fa108ae4fb1804a2db8b585ca052432f270d4ef075df4",
    "repro_json": "e1c880650b7520fb940e878063d577bebde2e26a0a0b65ec31c144dc6eed0904",
    "repro_csv": "d11a82dd99dad2d4b76be1bfa981b54f7c77810d89490144a8924b5280f7c3a0",
    "standard.bloom": "c01be39856e9570dc416886c59803137bbefc36e201e10b0a8f6a079b29e915a",
    "example.lbf": "f2f4f3a967abf412818bfa80bad0643caa884868b865a5c18579ab72a383f960",
    "example-keys.txt": "bc3b8f710571815c8bb74cdd092a941b4c8224f1b1096dc8931cd978380c6d62",
    "learned.lbf": "7ceee4aa4a325bfdd1d637f88de381b02e62696af39a5d94ec09d8509352f92c",
}


def _stdout(commands: dict, work, patch) -> dict:
    """Name -> the stdout bytes of each command, run in order in ``work``."""
    got = {}
    patch.chdir(work)
    for name, argv in commands.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, name
        got[name] = out.getvalue().encode("utf-8")
    return got


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The scratch directory the commands run in, with their key files."""
    work = tmp_path_factory.mktemp("fixed-seed")
    rng = np.random.default_rng(20)
    keys = np.unique(rng.integers(0, 1_000_000, size=2_000)).tolist()
    save_keys_text(work / "keys.txt", keys)
    save_keys_text(work / "queries.txt", keys[:50] + [k + 1 for k in keys[:50]])
    return work


@pytest.fixture(scope="module")
def outputs(work):
    """Name -> bytes: the stdout of each command in order, then each file the builds wrote."""
    with pytest.MonkeyPatch.context() as mp:
        got = _stdout(COMMANDS, work, mp)
    for name in FILES:
        got[name] = (work / name).read_bytes()
    return got


@pytest.mark.parametrize("name", [*COMMANDS, *FILES])
def test_output_bytes_are_pinned(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == EXPECTED[name]


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def strict_json(text):
    """``text`` parsed as JSON, with NaN, Infinity and -Infinity refused."""
    return json.loads(text, parse_constant=_refuse)


@pytest.mark.parametrize("name", [name for name, argv in COMMANDS.items() if "csv" not in argv])
def test_json_outputs_are_strict(outputs, name):
    strict_json(outputs[name])


def test_a_repro_run_with_no_full_range_false_positive_has_no_ratio(capsys):
    code = main(["repro-example", "--samples", "100", "--restricted-samples", "100", "--seed", "1"])
    report = strict_json(capsys.readouterr().out)
    assert code == 0 and report["full_range"]["empirical_fpr"] == 0.0
    assert report["distribution_shift"]["learned_fpr_ratio"] is None
    jump = report["reference_figures"]["composite_rate_restricted_range"]
    assert jump["qualitative_jump_confirmed"] is False


# Every pinned run draws at most 20,000 keys, within one 2^16-draw block.  At a block of
# 997 draws the sampled ones cross block edges: eval on both sides of its table rule, the
# sweep, concentration on both sides of SUPPORT_LIMIT, repro, and a build whose summary
# alpha, past the limit under a logistic scorer, is sampled.
_SAMPLED = ["eval_standard", "eval_example", "eval_example_table", "sweep_json", "concentration",
            "concentration_sampled", "repro_json"]
_SUMMARY_SAMPLED = ["build", "--kind", "learned", "--keys", "keys.txt", "--scorer", "logistic.json",
                    "--tau", "0.5", "--seed", "3", "--summary-dist", f"uniform:0:{2 * 10**7}",
                    "--out", "logistic.lbf"]


def test_sampled_reports_do_not_depend_on_the_draw_block(work, outputs):
    scorer = LogisticScorer((-8.0,), 4.0, "int-norm:20000000")  # 0.5 at 10^7
    (work / "logistic.json").write_text(scorer_to_text(scorer), encoding="utf-8")
    commands = {**{name: COMMANDS[name] for name in _SAMPLED}, "summary": _SUMMARY_SAMPLED}
    with pytest.MonkeyPatch.context() as mp:
        summary = _stdout({"summary": _SUMMARY_SAMPLED}, work, mp)["summary"]
        mp.setattr(workloads, "BLOCK", 997)
        small = _stdout(commands, work, mp)
    assert small == {**{name: outputs[name] for name in _SAMPLED}, "summary": summary}
    assert 0 < json.loads(summary)["alpha"] < 1  # sampled: 100,000 draws over 101 blocks



def _answer_nothing(self, keys):
    raise AssertionError("a filter answered a draw")


def test_a_sampled_summary_alpha_answers_no_filter(work):
    # the alpha needs only the scores of the draws; the backup never answers one
    scorer = LogisticScorer((-8.0,), 4.0, "int-norm:20000000")
    (work / "logistic.json").write_text(scorer_to_text(scorer), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        summary = _stdout({"summary": _SUMMARY_SAMPLED}, work, mp)["summary"]
        mp.setattr(BloomFilter, "contains_many", _answer_nothing)
        assert _stdout({"summary": _SUMMARY_SAMPLED}, work, mp)["summary"] == summary
    assert 0 < json.loads(summary)["alpha"] < 1
