"""Fixed-seed CLI outputs keep their bytes: SHA-256 pins over a small run of `lbf`.

Every command runs in process through ``cli.main`` in a scratch directory,
with relative paths, so the paths the reports echo do not depend on where
the test runs.  Only standard and interval-scorer filters take part, so no
pinned byte depends on the platform's floating-point ``exp``.  A change
that alters one of these outputs on purpose updates its pin and says why.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from learnedbloom.cli import main
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
    "sweep_json": ["sweep", "--keys", "example-keys.txt", "--scorer", "interval:1000:2000:0.5:0.0",
                   "--taus", "0,0.25,0.5,1", "--dist", "uniform:0:1000000",
                   "--samples", "20000", "--seed", "1"],
    "sweep_csv": ["sweep", "--keys", "example-keys.txt", "--scorer", "interval:1000:2000:0.5:0.0",
                  "--taus", "0,0.25,0.5,1", "--dist", "uniform:0:1000000",
                  "--samples", "20000", "--seed", "1", "--format", "csv"],
    "concentration": ["concentration", "--t-size", "1000", "--q-size", "1000",
                      "--trials", "3", "--seed", "2"],
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
    "eval_standard": "29073f2e57c8a0ac4811771385137aa7173b4ba4de11ac5668a1365198c393d0",
    "eval_example": "38c6d9625521f0b060c6584698c8890c45136784bf45811c29269264045c8e4e",
    "sweep_json": "05b9a076fa0ec920fa4d601af6d30b6262c8cec32d6f792bb6b540ff2422efd7",
    "sweep_csv": "97233646bd599b44e21efded7c386c3e4d49331177974d97e7a696fb2ee8d9ba",
    "concentration": "d237564f7610b594a8c7dca055bff7a229c2491d2cf2fb96d4c18ca0dc4d7de8",
    "repro_json": "54768398546d283615ede4b560f455c96583c5764fdb2ccc330cb9e7875c5420",
    "repro_csv": "5d45fa39f8175175fbd92b931d1c87a2ff3ca8ed2f62862539852d3c5b14504d",
    "standard.bloom": "c01be39856e9570dc416886c59803137bbefc36e201e10b0a8f6a079b29e915a",
    "example.lbf": "f2f4f3a967abf412818bfa80bad0643caa884868b865a5c18579ab72a383f960",
    "example-keys.txt": "bc3b8f710571815c8bb74cdd092a941b4c8224f1b1096dc8931cd978380c6d62",
    "learned.lbf": "7ceee4aa4a325bfdd1d637f88de381b02e62696af39a5d94ec09d8509352f92c",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Name -> bytes: the stdout of each command in order, then each file the builds wrote."""
    work = tmp_path_factory.mktemp("fixed-seed")
    rng = np.random.default_rng(20)
    keys = np.unique(rng.integers(0, 1_000_000, size=2_000)).tolist()
    save_keys_text(work / "keys.txt", keys)
    save_keys_text(work / "queries.txt", keys[:50] + [k + 1 for k in keys[:50]])
    got = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        for name, argv in COMMANDS.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert code == 0, name
            got[name] = out.getvalue().encode("utf-8")
    for name in FILES:
        got[name] = (work / name).read_bytes()
    return got


@pytest.mark.parametrize("name", [*COMMANDS, *FILES])
def test_output_bytes_are_pinned(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == EXPECTED[name]
