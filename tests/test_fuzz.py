"""Byte-mutated filter, key, scorer and config files, and key arguments, through the ``lbf``
commands that read them: no mutant escapes.

A filter, key, scorer or config file, or a key argument, is untrusted input.  Whatever
its bytes, ``lbf`` must exit 0, 2, 3, 4 or 5, never with a traceback, and must neither
hang nor exhaust memory.  This guards what the scan of ``raise`` statements cannot
see: numpy errors, ``ZeroDivisionError`` and ``MemoryError``.  Every mutant runs in
one child process that caps its own address space, under a timeout, with its working
directory beside the seed files; so does a fixed run that asks for more draws than one
command may make.

Run as a script, ``python tests/test_fuzz.py DIR`` mutates the seed files in
DIR and prints a JSON summary of the runs.
"""

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import traceback
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from learnedbloom.cli import main
from learnedbloom.learned import _LEN
from learnedbloom.scorers import IntervalScorer, LogisticScorer, scorer_to_text
from learnedbloom.workloads import save_keys_text

ROOT = Path(__file__).resolve().parent.parent
SEED = 20180416
MUTANTS_PER_FILE = 60
ADDRESS_SPACE = 3 << 30  # the child's cap: a mutant asking for more fails, not the host
EXIT_CODES = {0, 2, 3, 4, 5}
KEY_ARGUMENTS = b"0 15000 18446744073709551615"  # split at spaces into lbf query's key arguments
EVAL_CONFIG = "dist=uniform:0:300000\nsamples=200\nseed=3\nformat=csv\n"
CONCENTRATION_CONFIG = "trials=20\nt-size=50\nq-size=50\nepsilon=0.2\n"
# bytes that keep a config value near a number: digits, signs, exponents, the letters of
# nan and inf, and the UTF-8 bytes of an Arabic-Indic five
_CONFIG_BYTES = b"0123456789_+-.eEnaif\xd9\xa5"
SCORERS = {
    "intervals": IntervalScorer([(10_000 * i, 10_000 * i + 999) for i in range(24)], 0.5, 0.0),
    "int-norm": LogisticScorer((3.0,), -1.5, "int-norm:1000000"),
    "byte-ngram": LogisticScorer(
        tuple(np.random.default_rng(3).normal(size=16)), 0.1, "byte-ngram:16"
    ),
}
# bytes that keep a scorer record near valid JSON: digits, signs, exponents, brackets, literals
_JSON_BYTES = b'0123456789-+.eE"[]{},: tfnaulrsx'
# values that keep a scorer record valid JSON but put a wrong type or range where it is read
_JSON_VALUES = [-1, 0, 7.9, 2**64, 2**64 - 1, 10**400, float("inf"), float("nan"), True, None,
                "x", "0x1p-1", "-0x1p+0", "0x1p99999", "byte-ngram:0", "int-norm:-1", [], {},
                [1], [[1]], [[5, 1]], [[0, 1], [0, 1]], [[0, 2**64 - 1]]]


def _mutate(rng: random.Random, data: bytes, alphabet: bytes | None = None) -> bytes:
    """``data`` with one byte flipped, its tail cut off, or 1-8 bytes inserted; a new byte
    is drawn from ``alphabet``, or is any byte."""
    at = rng.randrange(len(data))
    new = bytes(rng.choice(alphabet or range(256)) for _ in range(rng.randint(1, 8)))
    kind = rng.choice(["flip", "flip", "truncate", "insert"])
    if kind == "flip":
        return data[:at] + new[:1] + data[at + 1 :]
    if kind == "truncate":
        return data[:at]
    return data[:at] + new + data[at:]


def _mutate_a_setting(rng: random.Random, data: bytes) -> bytes:
    """The config file ``data`` with the value of one line, the text after ``=``, mutated
    over ``_CONFIG_BYTES``; the key names stay, so the mutant reaches the value grammars."""
    lines = data.split(b"\n")
    at = rng.choice([i for i, line in enumerate(lines) if b"=" in line])
    key, value = lines[at].split(b"=", 1)
    lines[at] = key + b"=" + _mutate(rng, value, _CONFIG_BYTES)
    return b"\n".join(lines)


def _replace_a_value(rng: random.Random, record: bytes) -> bytes:
    """The JSON ``record`` with one value, at any depth, replaced by one of ``_JSON_VALUES``."""
    tree = json.loads(record)
    node = tree
    while True:
        at = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        if node[at] and isinstance(node[at], (dict, list)) and rng.random() < 0.7:
            node = node[at]
            continue
        node[at] = rng.choice(_JSON_VALUES)
        return json.dumps(tree).encode("utf-8")


def _mutate_scorer_record(rng: random.Random, data: bytes, change) -> bytes:
    """A learned filter whose scorer record is ``change(rng, record)``, framed with its length."""
    (length,) = _LEN.unpack_from(data)
    record = change(rng, data[_LEN.size : _LEN.size + length])
    return _LEN.pack(len(record)) + record + data[_LEN.size + length :]


def _run(argv: list[str]) -> tuple[int | None, str | None]:
    """(exit code, None) of ``lbf argv``, or (None, the traceback) of an escaped exception."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv), None
        except Exception:  # anything that escapes main is the finding; MemoryError included
            return None, traceback.format_exc()


def _runs(seeds: Path, name: str, mutant: str, key_arguments: list[str]) -> list[list[str]]:
    """The ``lbf`` commands a mutant of seed file ``name`` goes through; a key file's mutant
    goes with mutated ``key_arguments``."""
    keys = str(seeds / "keys.txt")
    if name.endswith(".txt"):
        return [["query", "--filter", str(seeds / "std.bloom"), "--queries", mutant],
                ["query", "--filter", str(seeds / "std.bloom"), "--", *key_arguments],
                ["eval", "--filter", str(seeds / "intervals.lbf"), "--keys", keys,
                 "--dist", f"fixed:{mutant}", "--samples", "200"]]
    if name.endswith(".cfg"):
        command = name.removesuffix(".cfg")  # eval or concentration
        return [[command, "--filter", str(seeds / "intervals.lbf"), "--keys", keys,
                 *(["--dist", "uniform:0:300000"] if command == "concentration" else []),
                 "--config", mutant]]
    if name.endswith(".json"):
        return [["build", "--kind", "learned", "--keys", keys, "--scorer", mutant, "--tau", "0.4",
                 "--out", str(seeds / "built.lbf")],
                ["sweep", "--keys", keys, "--scorer", mutant, "--taus", "0.2,0.6",
                 "--dist", "uniform:0:300000", "--samples", "200"]]
    return [["query", "--filter", mutant, "0", "15000", str(2**64 - 1)],
            ["eval", "--filter", mutant, "--keys", keys,
             "--dist", "uniform:0:300000", "--samples", "200"],
            ["concentration", "--filter", mutant, "--keys", keys, "--dist", "uniform:0:300000",
             "--trials", "2", "--t-size", "50", "--q-size", "50"]]


def fuzz(directory: str) -> dict:
    """Mutate every seed file in ``directory``; run each mutant through the commands that read it."""
    warnings.filterwarnings("error", category=RuntimeWarning, module="learnedbloom")
    rng = random.Random(SEED)
    argument_rng = random.Random(SEED + 1)  # its own stream, so the file mutants stay as they were
    # likewise, one per config file
    config_rngs = {"eval.cfg": random.Random(SEED + 2), "concentration.cfg": random.Random(SEED + 3)}
    seeds = Path(directory)
    mutant = str(seeds / "mutant")
    codes, escaped = Counter(), []
    suffixes = (".lbf", ".bloom", ".txt", ".json", ".cfg")
    for name in sorted(p.name for p in seeds.iterdir() if p.suffix in suffixes):
        data = (seeds / name).read_bytes()
        for i in range(MUTANTS_PER_FILE):
            # a third of the scorer records, framed or bare, keep a byte alphabet near JSON
            # and a third keep valid JSON with one value replaced
            change = [None, lambda r, b: _mutate(r, b, _JSON_BYTES), _replace_a_value][i % 3]
            if name.endswith(".cfg"):
                blob = _mutate_a_setting(config_rngs[name], data)
            elif name.endswith(".lbf") and change:
                blob = _mutate_scorer_record(rng, data, change)
            elif name.endswith(".json") and change:
                blob = change(rng, data)
            else:
                blob = _mutate(rng, data, b"0123456789\n -x" if name.endswith(".txt") else None)
            Path(mutant).write_bytes(blob)
            key_arguments = []
            if name.endswith(".txt"):
                mutated = _mutate(argument_rng, KEY_ARGUMENTS, b"0123456789\n -x+_\xef\xbc\x90")
                key_arguments = mutated.decode("utf-8", "surrogateescape").split(" ")
            for argv in _runs(seeds, name, mutant, key_arguments):
                code, trace = _run(argv)
                codes[str(code)] += 1
                if trace is not None or code not in EXIT_CODES:
                    escaped.append({"file": name, "mutant": i, "argv": argv[0],
                                    "code": code, "trace": trace, "bytes": blob.hex()})
    fixed = {}
    for label, argv in _fixed_runs(seeds).items():
        fixed[label], trace = _run(argv)
        if trace is not None:
            escaped.append({"fixed": label, "trace": trace})
    return {"codes": dict(codes), "escaped": escaped, "fixed": fixed}


def _fixed_runs(seeds: Path) -> dict[str, list[str]]:
    """Unmutated runs that ask for more than a command may: 200M draws against the worked
    example's keys are twice ``DRAW_LIMIT``, refused by the draw check before any draw."""
    example = seeds / "example"
    return {"eval_200M_samples": ["eval", "--filter", str(example / "ex.lbf"),
                                  "--keys", str(example / "keys.txt"),
                                  "--dist", "uniform:0:1000000", "--samples", "200000000"]}


def _write_seed_files(directory: Path) -> None:
    """keys.txt, a standard filter of those keys, one learned filter per scorer in SCORERS,
    an eval and a concentration config file, and the worked example's filter and keys for
    the fixed runs."""
    keys = np.random.default_rng(SEED).choice(300_000, size=300, replace=False)
    save_keys_text(directory / "keys.txt", keys.tolist())
    (directory / "eval.cfg").write_text(EVAL_CONFIG, encoding="utf-8")
    (directory / "concentration.cfg").write_text(CONCENTRATION_CONFIG, encoding="utf-8")
    example = directory / "example"  # no seed file: a directory has no suffix
    example.mkdir()
    assert main(["build", "--kind", "example", "--out", str(example / "ex.lbf"),
                 "--keys-out", str(example / "keys.txt")]) == 0
    built = [["--kind", "standard", "--target-fpp", "0.01", "--out", directory / "std.bloom"]]
    for name, scorer in SCORERS.items():
        (directory / f"{name}.json").write_text(scorer_to_text(scorer), encoding="utf-8")
        built.append(["--kind", "learned", "--scorer", directory / f"{name}.json", "--tau", "0.4",
                      "--out", directory / f"{name}.lbf"])
    for argv in built:
        assert main(["build", "--keys", str(directory / "keys.txt"), *map(str, argv)]) == 0


def test_mutated_filter_and_key_files_exit_with_a_code_and_no_traceback(tmp_path, capsys):
    _write_seed_files(tmp_path)
    capsys.readouterr()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # run in tmp_path, so no mutated path can write into the checkout
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(tmp_path)], capture_output=True,
        text=True, env=env, cwd=tmp_path, timeout=300,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout)
    assert summary["escaped"] == []
    assert set(summary["codes"]) <= {str(code) for code in EXIT_CODES}
    # keys.txt: query with key file and key arguments, and eval; 4 filters: query, eval and
    # concentration; 3 scorers: build, sweep; eval.cfg: eval; concentration.cfg: concentration
    assert sum(summary["codes"].values()) == (3 + 4 * 3 + 3 * 2 + 1 + 1) * MUTANTS_PER_FILE
    assert {"0", "2"} <= set(summary["codes"])  # mutants both load and fail to
    assert summary["fixed"] == {"eval_200M_samples": 2}  # over the draw limit: one error line


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    print(json.dumps(fuzz(sys.argv[1])))
