"""The three benchmark workloads, each a closed loop driven by one caller.

A workload makes all of its inputs with numpy from the workload seed in
``setup``; the library receives only arrays, Python ints and key files.
``run_pass`` times one pass of the workload's calls.  ``check`` then
checks its outputs, untimed, into the ``Ledger``: members must answer
true, ``contains_many`` must agree with ``contains`` on a fixed-size
subsample, CLI commands must exit 0, and every output must hash to the
same SHA-256 as its first run.

Why these three: ``standard-bulk`` spends nearly all its time in
``hashing`` and ``bloom`` on a bit array larger than L2; ``learned-scorers``
spends it in ``scorers`` and ``learned``, with a small backup filter; and
``experiment-cli`` spends it in ``workloads`` sampling, ``evaluation``,
``repro`` and the CLI's parsing and (de)serialisation on filters small
enough to stay in cache.  Each later optimisation has one workload that
exercises its layer and one that bypasses it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import learnedbloom as lb
from learnedbloom import cli


@dataclass
class Round:
    """One pass: samples per operation family, the pass wall time and its host probe time.

    A sample is (keys, seconds, probe seconds) for one timed call or loop; the
    probe time is the host probe's time around that call (see ``bench_env``).
    """

    build: list[tuple[int, float, float]]
    query: list[tuple[int, float, float]]
    scalar: list[tuple[int, float, float]]
    pass_s: float
    probe_s: float


class Clock:
    """Times a pass's calls and probes the host's speed between them, outside the timings."""

    def __init__(self, probe):
        self.probe = probe
        self.last = probe.seconds()

    def start(self) -> None:
        self.began, self.spent, self.probes = perf_counter(), self.probe.spent, [self.last]

    def run(self, keys: int, call, *args):
        """``call(*args)``, timed; returns its result and the sample for ``keys`` keys."""
        start = perf_counter()
        result = call(*args)
        seconds = perf_counter() - start
        now = self.probe.seconds()
        sample = (keys, seconds, (self.last + now) / 2)
        self.last = now
        self.probes.append(now)
        return result, sample

    def stop(self) -> tuple[float, float]:
        """The pass's wall time less the probing in it, and its mean probe time."""
        wall = perf_counter() - self.began - (self.probe.spent - self.spent)
        return wall, sum(self.probes) / len(self.probes)


class Ledger:
    """Operations attempted and failed, with the SHA-256 of every checked output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def op(self, label: str, problems=(), count: int = 1, failed: int | None = None) -> None:
        """Record ``count`` operations under ``label``; any problem fails them (or ``failed`` of them)."""
        self.attempted += count
        problems = [p for p in problems if p]
        bad = (count if problems else 0) if failed is None else failed
        self.failed += bad
        if bad and len(self.failures) < 50:
            self.failures.append(f"{label}: {'; '.join(problems) or f'{bad} failed'}")

    def same_output(self, label: str, data: bytes) -> str:
        """Problem text when ``data`` hashes differently from the first output under ``label``."""
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(label, digest)
        return "" if digest == first else f"output differs from its first run ({digest[:12]})"


def _scalar_problems(scalar, expected, members) -> int:
    """Scalar answers that disagree with the batch answers or deny a member."""
    got = np.fromiter(scalar, dtype=bool, count=len(scalar))
    return int(np.count_nonzero((got != expected) | (members & ~got)))


def _spread(n: int, k: int) -> np.ndarray:
    """k evenly spaced indices into range(n)."""
    return np.linspace(0, n - 1, num=min(k, n)).astype(np.int64)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    # Sort-based: numpy 2's hash-based np.unique is several times slower on 1M uint64 keys.
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _isin_sorted(values: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    pos = np.minimum(np.searchsorted(sorted_keys, values), sorted_keys.size - 1)
    return sorted_keys[pos] == values


def _distinct(rng: np.random.Generator, lo: int, hi: int, n: int) -> np.ndarray:
    """n distinct uniform keys in [lo, hi), in random order."""
    keys = _sorted_unique(rng.integers(lo, hi, size=n + n // 8 + 16, dtype=np.uint64))
    while keys.size < n:
        extra = rng.integers(lo, hi, size=n, dtype=np.uint64)
        keys = _sorted_unique(np.concatenate([keys, extra]))
    return rng.permutation(keys)[:n]


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


class Workload:
    """One workload; ``scale`` multiplies its input sizes (the self-tests run at 0.01)."""

    name = ""
    # Filter whose bytes per key ``filter_mem_bytes_per_key`` reports, and whose fill ratio
    # the traced run reports; set by each pass.
    filt = None

    def __init__(self, seed: int, scale: float = 1.0, workdir: Path | None = None):
        self.seed = int(seed)
        self.workdir = workdir
        self.rng = np.random.default_rng(self.seed)

    def setup(self, ledger: Ledger) -> None:
        """Make the inputs and everything built once per process."""

    def train(self) -> None:
        """Set-up work the traced run replays (scorer training)."""

    def run_pass(self, clock: Clock, span) -> tuple[Round, dict]:
        """Time one pass of the workload's calls; returns the timings and the raw outputs."""
        raise NotImplementedError

    def check(self, ledger: Ledger, outputs: dict) -> None:
        """Check one pass's outputs, untimed and untraced, recording every operation."""
        raise NotImplementedError

    def filter_mem_bytes_per_key(self) -> float:
        raise NotImplementedError

    def fill_ratio(self) -> float:
        backup = getattr(self.filt, "backup", self.filt)
        return backup.fill_ratio

    def record(self) -> dict:
        """Sizes, seeds and filter bytes for the result record."""
        return {}

    def close(self) -> None:
        pass


def _retained_bytes(build) -> int:
    """Bytes that ``build()``'s result still holds once built, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        built = build()  # noqa: F841 (kept alive while measured)
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


class StandardBulk(Workload):
    """1M random 64-bit keys in a standard filter at 1%: bulk insert, bulk and scalar queries.

    ``hashing`` and ``bloom`` do almost all the work.  The byte-per-bit array
    (about 9.6 MB) is larger than L2, so the probe arithmetic and the bit
    gather both show.
    """

    name = "standard-bulk"
    target_fpp = 0.01

    def __init__(self, seed, scale=1.0, workdir=None, filter_class=None):
        super().__init__(seed, scale, workdir)
        self.filter_class = filter_class or lb.BloomFilter
        self.n_keys = _scaled(1_000_000, scale, 2_000)
        self.scalar_per_batch = _scaled(2_000, min(scale * 10, 1.0), 200)

    def setup(self, ledger):
        rng = self.rng
        self.keys = _distinct(rng, 0, 1 << 64, self.n_keys)
        self.params = lb.params_for_target(self.n_keys, self.target_fpp)
        self.filter_seed = int(rng.integers(0, 1 << 63))
        # Two batches of n keys: each half members (together every key once) and
        # half fresh random keys, which are non-members with probability 1 - n/2^64.
        half = self.n_keys // 2
        self.batches, self.scalar = [], []
        for part in (self.keys[:half], self.keys[half:]):
            others = rng.integers(0, 1 << 64, size=self.n_keys - part.size, dtype=np.uint64)
            batch = np.concatenate([part, others])
            idx = _spread(batch.size, self.scalar_per_batch)
            self.batches.append((batch, part.size))
            self.scalar.append((idx, [int(k) for k in batch[idx]], idx < part.size))

    def run_pass(self, clock, span):
        clock.start()
        filt = self.filter_class.from_params(self.params, self.filter_seed)
        _, build = clock.run(self.n_keys, filt.insert_many, self.keys)
        answers, query, scalar_answers, scalar = [], [], [], []
        for (batch, _), (_, keys, _) in zip(self.batches, self.scalar):
            got, sample = clock.run(batch.size, filt.contains_many, batch)
            answers.append(got)
            query.append(sample)
            got, sample = clock.run(len(keys), lambda: [filt.contains(k) for k in keys])
            scalar_answers.append(got)
            scalar.append(sample)
        pass_s, probe_s = clock.stop()
        self.filt = filt
        timings = Round([build], query, scalar, pass_s, probe_s)
        return timings, {"filter": filt, "answers": answers, "scalar": scalar_answers}

    def check(self, ledger, outputs):
        answers, scalar_answers = outputs["answers"], outputs["scalar"]
        data = outputs["filter"].to_bytes()
        ledger.op("bloom.insert_many", [ledger.same_output("bloom.insert_many", data)])
        for i, ((batch, members), got) in enumerate(zip(self.batches, answers)):
            fn = members - int(np.count_nonzero(got[:members]))
            fpr = float(np.mean(got[members:])) if batch.size > members else 0.0
            ledger.op(
                f"bloom.contains_many[{i}]",
                [
                    f"{fn} false negatives" if fn else "",
                    f"false positive rate {fpr:.4f} above 3x target" if fpr > 3 * self.target_fpp else "",
                    ledger.same_output(f"bloom.contains_many[{i}]", np.packbits(got).tobytes()),
                ],
            )
            idx, keys, is_member = self.scalar[i]
            bad = _scalar_problems(scalar_answers[i], got[idx], is_member)
            ledger.op(f"bloom.contains[{i}]", count=len(keys), failed=bad)

    def filter_mem_bytes_per_key(self):
        def build():
            filt = self.filter_class.from_params(self.params, self.filter_seed)
            filt.insert_many(self.keys)
            return filt

        held = _retained_bytes(build)
        return held / self.n_keys

    def record(self):
        return {
            "keys": self.n_keys,
            "target_fpp": self.target_fpp,
            "m": self.params.m,
            "k": self.params.k,
            "contains_many_batches": len(self.batches),
            "contains_many_batch_keys": int(self.batches[0][0].size),
            "scalar_keys_per_batch": len(self.scalar[0][1]),
        }


class LearnedScorers(Workload):
    """Logistic scorers on keys clustered near the top of a 10^12 universe.

    ``scorers`` and ``learned`` do the work: ``score_batch`` dominates
    ``contains_many`` and the per-key loop dominates ``LearnedBloomFilter.build``.
    The backup filter holds a tenth of the keys, so bloom probes are a minor share.
    """

    name = "learned-scorers"
    universe = 10**12
    backup_share = 0.1
    backup_fpp = 0.01

    def __init__(self, seed, scale=1.0, workdir=None):
        super().__init__(seed, scale, workdir)
        self.n_keys = _scaled(1_000_000, scale, 2_000)
        self.n_queries = _scaled(1_000_000, scale, 2_000)
        self.n_train = _scaled(10_000, min(scale * 10, 1.0), 500)
        self.n_ngram_keys = _scaled(10_000, scale, 500)
        self.n_ngram_queries = _scaled(50_000, scale, 1_000)
        self.n_scalar = _scaled(4_000, min(scale * 10, 1.0), 400)

    def setup(self, ledger):
        rng = self.rng
        lo = int(self.universe * 0.9)
        self.keys = _distinct(rng, lo, self.universe, self.n_keys)
        negatives = rng.integers(0, self.universe, size=self.n_train, dtype=np.uint64)
        negatives = negatives[~_isin_sorted(negatives, np.sort(self.keys))]
        self.training = lb.TrainingSet(
            [int(k) for k in self.keys[: self.n_train]], [int(k) for k in negatives]
        )
        self.queries = rng.integers(0, self.universe, size=self.n_queries, dtype=np.uint64)
        self.ngram_queries = rng.integers(0, self.universe, size=self.n_ngram_queries, dtype=np.uint64)
        self.scalar_idx = _spread(self.n_queries, self.n_scalar)
        keys = [int(k) for k in self.queries[self.scalar_idx]]
        # Three timed loops a pass, one after each batch call, so that the
        # samples spread over the pass instead of one short stretch of it.
        step = -(-len(keys) // 3)
        self.scalar_chunks = [keys[i : i + step] for i in range(0, len(keys), step)]
        self.member_check = self.keys[:: max(1, self.n_keys // 100_000)]
        self.filter_seed = int(rng.integers(0, 1 << 63))
        self.train()
        self.tau, self.backup_params = self._threshold(
            self.centered, self.keys[:100_000], self.n_keys
        )
        ngram_keys = self.keys[: self.n_ngram_keys]
        tau, params = self._threshold(self.ngram, ngram_keys, ngram_keys.size)
        self.ngram_filter = lb.LearnedBloomFilter.build(
            ngram_keys, self.ngram, tau, params, self.filter_seed ^ 1
        )
        missed = int(np.count_nonzero(~self.ngram_filter.contains_many(ngram_keys)))
        ledger.op("learned.build[byte-ngram]", [f"{missed} false negatives" if missed else ""])

    def train(self):
        self.centered = lb.train_logistic(
            self.training, f"int-centered:{self.universe}", epochs=100, learning_rate=0.01
        )
        self.ngram = lb.train_logistic(self.training, "byte-ngram:16", epochs=30, learning_rate=0.01)

    def _threshold(self, scorer, sample_keys, n_keys):
        """tau at the key-score quantile that sends about a tenth of the keys to the backup."""
        tau = float(np.quantile(scorer.score_batch(sample_keys), self.backup_share))
        expected_below = max(1, int(round(self.backup_share * n_keys)))
        return tau, lb.params_for_target(expected_below, self.backup_fpp)

    def run_pass(self, clock, span):
        clock.start()
        lbf, build = clock.run(
            self.n_keys,
            lb.LearnedBloomFilter.build,
            self.keys, self.centered, self.tau, self.backup_params, self.filter_seed,
        )  # fmt: skip
        scalar, scalar_samples = [], []

        def scalar_loop(chunk):
            got, sample = clock.run(len(chunk), lambda: [lbf.contains(k) for k in chunk])
            scalar.extend(got)
            scalar_samples.append(sample)

        scalar_loop(self.scalar_chunks[0])
        answers, centered = clock.run(self.n_queries, lbf.contains_many, self.queries)
        scalar_loop(self.scalar_chunks[1])
        ngram_answers, ngram = clock.run(
            self.n_ngram_queries, self.ngram_filter.contains_many, self.ngram_queries
        )
        scalar_loop(self.scalar_chunks[2])
        pass_s, probe_s = clock.stop()
        self.filt = lbf
        # The two batches form one sample: their rates differ thirtyfold, so a
        # median over them separately would report one or the other.
        query = (centered[0] + ngram[0], centered[1] + ngram[1], (centered[2] + ngram[2]) / 2)
        timings = Round([build], [query], scalar_samples, pass_s, probe_s)
        return timings, {
            "filter": lbf,
            "answers": answers,
            "ngram_answers": ngram_answers,
            "scalar": scalar,
        }

    def check(self, ledger, outputs):
        lbf, answers, scalar = outputs["filter"], outputs["answers"], outputs["scalar"]
        missed = int(np.count_nonzero(~lbf.contains_many(self.member_check)))
        ledger.op(
            "learned.build",
            [
                f"{missed} false negatives" if missed else "",
                "" if lbf.key_count == self.n_keys else f"key_count {lbf.key_count}",
                ledger.same_output("learned.build", lbf.to_bytes()),
            ],
        )
        for label, got in (
            ("learned.contains_many[int-centered]", answers),
            ("learned.contains_many[byte-ngram]", outputs["ngram_answers"]),
        ):
            ledger.op(label, [ledger.same_output(label, np.packbits(got).tobytes())])
        bad = _scalar_problems(scalar, answers[self.scalar_idx], np.zeros(len(scalar), bool))
        ledger.op("learned.contains", count=len(scalar), failed=bad)

    def filter_mem_bytes_per_key(self):
        held = _retained_bytes(
            lambda: lb.LearnedBloomFilter.build(
                self.keys, self.centered, self.tau, self.backup_params, self.filter_seed
            )
        )
        return held / self.n_keys

    def record(self):
        lbf = self.filt
        return {
            "keys": self.n_keys,
            "universe": self.universe,
            "key_range": [int(self.universe * 0.9), self.universe],
            "training_keys": len(self.training),
            "tau": self.tau,
            "backup_keys": lbf.below_threshold_count if lbf else None,
            "backup_m": self.backup_params.m,
            "contains_many_queries": self.n_queries,
            "byte_ngram_queries": self.n_ngram_queries,
            "byte_ngram_filter_keys": self.n_ngram_keys,
            "scalar_queries": self.n_scalar,
        }


class ExperimentCli(Workload):
    """A fixed sequence of ``lbf`` commands run in process through ``cli.main``.

    ``workloads.sample`` with exclusion rejection, ``evaluation``, ``repro``,
    key-file parsing and filter (de)serialisation do the work.  The filters
    are small, so the bloom working set stays in cache.
    """

    name = "experiment-cli"

    def __init__(self, seed, scale=1.0, workdir=None):
        super().__init__(seed, scale, workdir)
        self.n_keys = _scaled(200_000, scale, 2_000)
        self.universe = 5 * self.n_keys  # keys cover a fifth of it, so sampling rejects draws
        self.n_queries = _scaled(20_000, scale, 200)
        self.samples = _scaled(100_000, scale, 1_000)
        self.example_samples = _scaled(200_000, scale, 1_000)
        self.trials = _scaled(200, scale, 2)
        self.repro_samples = (_scaled(1_000_000, scale, 2_000), _scaled(200_000, scale, 1_000))

    def setup(self, ledger):
        rng = self.rng
        self.workdir.mkdir(parents=True, exist_ok=True)
        keys = rng.choice(self.universe, size=self.n_keys, replace=False).astype(np.uint64)
        is_key = np.zeros(self.universe, dtype=bool)
        is_key[keys] = True
        others = np.flatnonzero(~is_key).astype(np.uint64)
        half = self.n_queries // 2
        queries = np.concatenate(
            [rng.choice(keys, size=half, replace=False), rng.choice(others, size=self.n_queries - half, replace=False)]
        )
        self.queries = rng.permutation(queries)
        self.query_members = is_key[self.queries]
        path = self.path
        _write_keys(path("keys.txt"), keys)
        _write_keys(path("queries.txt"), self.queries)
        s = str(self.seed)
        cheap = (
            ("build_standard", ["build", "--kind", "standard", "--keys", path("keys.txt"),
                                "--target-fpp", "0.01", "--out", path("standard.lbf"),
                                "--seed", s]),
            ("query", ["query", "--filter", path("standard.lbf"), "--queries", path("queries.txt")]),
            ("eval_standard", ["eval", "--filter", path("standard.lbf"), "--keys", path("keys.txt"),
                               "--dist", f"uniform:0:{self.universe}",
                               "--samples", str(self.samples), "--seed", s]),
            ("build_example", ["build", "--kind", "example", "--summary-dist", "uniform:0:10000000",
                               "--out", path("example.lbf"), "--keys-out", path("example-keys.txt"),
                               "--seed", s]),
            ("eval_example", ["eval", "--filter", path("example.lbf"),
                              "--keys", path("example-keys.txt"), "--dist", "uniform:0:100000",
                              "--samples", str(self.example_samples), "--seed", s]),
        )  # fmt: skip
        concentration = ("concentration", ["concentration", "--trials", str(self.trials), "--seed", s])
        repro = ("repro_example", ["repro-example", "--samples", str(self.repro_samples[0]),
                                   "--restricted-samples", str(self.repro_samples[1]), "--seed", s])  # fmt: skip
        # The five quick commands run three times a pass, between the two slow
        # ones, so their rates get as many samples as the others and the
        # samples spread over the pass rather than over one short stretch of it.
        self.sequence = (*cheap, concentration, *cheap, repro, *cheap)

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def run_pass(self, clock, span):
        outputs, samples = {}, {}
        clock.start()
        for step, argv in self.sequence:
            keys = {"build_standard": self.n_keys, "query": self.n_queries}.get(step, 0)
            result, sample = clock.run(keys, self._command, span, step, argv)
            outputs.setdefault(step, []).append(result)
            samples.setdefault(step, []).append(sample)
        pass_s, probe_s = clock.stop()
        # One query sample is an eval of each filter: the two commands that sample
        # and answer queries in bulk.
        query = [
            (self.samples + self.example_samples, a[1] + b[1], (a[2] + b[2]) / 2)
            for a, b in zip(samples["eval_standard"], samples["eval_example"])
        ]
        timings = Round(samples["build_standard"], query, samples["query"], pass_s, probe_s)
        return timings, outputs

    @staticmethod
    def _command(span, step, argv):
        out, err = io.StringIO(), io.StringIO()
        with span(f"cli.{step}"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, ledger, outputs):
        for step, runs in outputs.items():
            for code, text, err in runs:
                problems = [
                    f"exit {code}: {err.strip()[:200]}" if code != 0 else "",
                    ledger.same_output(f"cli.{step}", text.encode("utf-8")),
                ]
                if step == "query" and code == 0:
                    problems.append(self._check_query(text))
                ledger.op(f"cli.{step}", problems)
        for name in ("standard.lbf", "example.lbf"):
            data = Path(self.path(name)).read_bytes()
            ledger.op(f"file.{name}", [ledger.same_output(f"file.{name}", data)])
        self.filt = lb.BloomFilter.from_bytes(Path(self.path("standard.lbf")).read_bytes())

    def _check_query(self, text: str) -> str:
        """The scalar answers the CLI printed must match contains_many and include every member."""
        results = json.loads(text)["results"]
        got = np.array([results[str(int(k))] for k in self.queries], dtype=bool)
        filt = lb.BloomFilter.from_bytes(Path(self.path("standard.lbf")).read_bytes())
        bad = int(np.count_nonzero((got != filt.contains_many(self.queries)) | (self.query_members & ~got)))
        return f"{bad} scalar answers disagree with contains_many or deny a member" if bad else ""

    def filter_mem_bytes_per_key(self):
        data = Path(self.path("standard.lbf")).read_bytes()
        held = _retained_bytes(lambda: lb.BloomFilter.from_bytes(data))
        return held / self.n_keys

    def record(self):
        return {
            "keys": self.n_keys,
            "key_universe": self.universe,
            "query_keys": self.n_queries,
            "eval_samples": [self.samples, self.example_samples],
            "concentration_trials": self.trials,
            "repro_samples": list(self.repro_samples),
            "standard_m": self.filt.m if self.filt else None,
            "commands": {step: ["lbf", *argv] for step, argv in self.sequence},
            "sequence": [step for step, _ in self.sequence],
        }

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _write_keys(path: str, keys) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(f"{k}\n" for k in np.asarray(keys).tolist()))


WORKLOADS = {w.name: w for w in (StandardBulk, LearnedScorers, ExperimentCli)}
