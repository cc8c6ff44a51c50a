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
    "build_standard": "325e37249a4597433574058b61d2f94787cfd692f6afcf79e15d6287322187f4",
    "build_example": "bc845de00864630aed121445e008e1cbba28f752916028db79cdbeded92e0fd4",
    "build_learned": "df7fabd54ebadcb3bcd623989a6248995322731f2bd29daa9cf199258e4a0f9c",
    "query_standard": "41485d414affb63d5e04f039f09abd4d9a2b3590809d97bfcfa33b5ec21b5808",
    "query_example": "c6de042868171c2b4ab2e58d8ec8e64e49ba536bc3ac2af87b97309189df77c5",
    "eval_standard": "8982cc8f01dda68efbb20adfd7d6a9d7a24245869d7521037c5d87c8a55c6746",
    "eval_example": "c048f25852fc51a5f8233c2a25c3527d0ba0276ffc1d8d680ab5da0af39445d1",
    "sweep_json": "d6109de0f32689a06b3ae73891d96f621ebea36d8585c9c2fea09865d0dc2dc3",
    "sweep_csv": "166e6e78a702a044fb1699bdfb0c780ca7d41841802a33ad478ab4213b644dbb",
    "concentration": "d237564f7610b594a8c7dca055bff7a229c2491d2cf2fb96d4c18ca0dc4d7de8",
    "repro_json": "502b20b2eb974734a6c6086678d1cc5e56a098785f63d77156dd184f476475bb",
    "repro_csv": "c1a8423acab4363a9bb88879f2c19e2ca0c8c8ed3e81a8a1a87df873e051ce0e",
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
