"""Benchmark of the learnedbloom library: one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload standard-bulk --seed 1 --seconds 20 --trace 0

Workloads are ``standard-bulk``, ``learned-scorers`` and ``experiment-cli``
(see ``bench_workloads.py`` and ``README.md``).  With ``--trace 0`` the run
starts three worker processes one after another.  Each imports the
library from ``src/``, makes its inputs from the seed, sets up, runs one
untimed warm-up pass and then timed passes for a third of ``--seconds``.
Only one process runs at a time and it issues the next call only when the
previous one has returned: a closed loop with one caller.  The end-to-end
metrics are medians over all timed samples, each time scaled by a host
speed probe timed next to it (``bench_env.py``), and ``setup_s`` is the
median over the workers of the time from starting the interpreter to the
first timed call.  With ``--trace 1`` one worker alternates untimed and traced
passes and reports the per-layer metrics (``bench_trace.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give each metric with its unit and sample count, and a JSON record of
the machine, sizes, seeds and the SHA-256 of every output; that record and
the traced run's spans are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from bench_env import PROBE_NOMINAL_S, HostProbe, machine_record, pinned_env
from bench_metrics import END_TO_END, EXACT_COUNTS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Relative to the checkout root, the workers' working directory, so that paths the
# CLI echoes into its reports are the same in every checkout.
WORK_DIR = Path(".perfbench_work")

WORKLOAD_NAMES = ("standard-bulk", "learned-scorers", "experiment-cli")
WORKERS = 3  # set-ups per timed run; setup_s is their median
MIN_ROUNDS = 2  # timed passes per worker, even past the time budget
DEADLINE_S = 170  # the whole run, workers included, ends before this


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (tests)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--filter-mem", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- worker -------------------------------------------------------------------


def _no_span(name):
    return contextlib.nullcontext()


def _round(workload, ledger, clock, span=_no_span):
    """One pass and its checks; an exception fails the pass and yields None."""
    try:
        timings, outputs = workload.run_pass(clock, span)
        workload.check(ledger, outputs)
    except Exception as exc:  # a failed operation is a measurement, not a crash
        ledger.op(f"{workload.name}.pass", [f"{type(exc).__name__}: {exc}"])
        return None
    return timings


def _passes(seconds):
    """Loop for ``seconds``, at least MIN_ROUNDS times; skip a pass expected to end well past it."""
    start, count, last = time.perf_counter(), 0, 0.0
    while count < MIN_ROUNDS or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        yield count
        count += 1
        last = time.perf_counter() - began


def _timed(workload, ledger, clock, seconds, filter_mem):
    import resource

    rounds = []
    for _ in _passes(seconds):
        timings = _round(workload, ledger, clock)
        if timings is not None:
            rounds.append(asdict(timings))
    report = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if filter_mem:  # deterministic, and slow under tracemalloc: one worker measures it
        report["filter_mem_bytes_per_key"] = workload.filter_mem_bytes_per_key()
    return report


def _traced(workload, ledger, clock, seconds, spans_path):
    """Alternate untraced passes with traced replays; per-layer metrics from the replays."""
    from bench_trace import Tracer, layer_metrics

    timed = {name for name, unit, _ in PER_LAYER if unit in ("s", "ms", "us", "us/key")}
    tracer = Tracer()
    plain, traced, layers = [], [], []
    for _ in _passes(seconds):
        timings = _round(workload, ledger, clock)
        if timings is None:
            break
        tracer.reset()
        tracer.install()
        try:
            workload.train()
            replay, outputs = workload.run_pass(clock, tracer.span)
        finally:
            tracer.uninstall()
        workload.check(ledger, outputs)
        plain.append(timings.pass_s * PROBE_NOMINAL_S / timings.probe_s)
        scale = PROBE_NOMINAL_S / replay.probe_s
        traced.append(replay.pass_s * scale)
        layer = layer_metrics(tracer, workload.fill_ratio())
        layers.append({k: v * scale if k in timed else v for k, v in layer.items()})
        if len(layers) == 1:
            tracer.dump(spans_path)
    drift = [n for n in EXACT_COUNTS if any(layer[n] != layers[0][n] for layer in layers)]
    ledger.op("trace.counts", [f"counts differ between replays: {drift}" if drift else ""])
    metrics = {
        name: layers[0][name] if name in EXACT_COUNTS else statistics.median(l[name] for l in layers)
        for name in layers[0]
    }
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return {"metrics": metrics, "traced_passes": len(traced)}


def worker(args) -> int:
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import numpy as np

    import learnedbloom
    from bench_workloads import WORKLOADS, Clock, Ledger

    if not Path(learnedbloom.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported learnedbloom from {learnedbloom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    probe = HostProbe()
    setup_probes = [probe.seconds(3)]
    workload = WORKLOADS[args.workload](args.seed, args.scale, WORK_DIR / args.workload)
    ledger = Ledger()
    try:
        workload.setup(ledger)
        setup_probes.append(probe.seconds(3))
        clock = Clock(probe)
        _round(workload, ledger, clock)  # warm-up pass, untimed; its outputs are the reference
        setup_probes.append(probe.seconds(3))
        report = {
            "ready": time.monotonic(),
            "setup_probe_s": statistics.mean(setup_probes),
            "setup_probing_s": probe.spent,
        }
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            report.update(_traced(workload, ledger, clock, args.seconds, spans))
            report["spans_file"] = str(spans.relative_to(ROOT))
        else:
            report.update(_timed(workload, ledger, clock, args.seconds, args.filter_mem))
        report.update(
            machine={**machine_record(), "numpy": np.__version__},
            sizes=workload.record(),
            attempted=ledger.attempted,
            failed=ledger.failed,
            failures=ledger.failures,
            sha256=ledger.digests,
        )
    finally:
        workload.close()
    print(json.dumps(report))
    return 0


# -- driver -------------------------------------------------------------------


def _quartiles(values) -> dict:
    """Sample count, quartiles and, past ten samples, the values with ten samples beyond them."""
    values = sorted(values)
    n = len(values)
    if n < 2:
        return {"n": n, **({"q1": values[0], "median": values[0], "q3": values[0]} if n else {})}
    q1, median, q3 = statistics.quantiles(values, n=4)
    summary = {"n": n, "q1": q1, "median": statistics.median(values), "q3": q3}
    if n > 10:
        summary["tails"] = {"pct": 100 * (n - 10) / n, "low": values[10], "high": values[-11]}
    return summary


def _samples(reports, spawned, adjust: bool) -> dict:
    """Per end-to-end metric, its samples across workers and passes.

    With ``adjust``, every time is scaled by PROBE_NOMINAL_S over the host
    probe's time next to it (see ``bench_env``).
    """
    rounds = [r for report in reports for r in report["rounds"]]

    def scale(probe_s):
        return PROBE_NOMINAL_S / probe_s if adjust else 1.0

    def rates(kind):
        return [keys / (secs * scale(p)) for r in rounds for keys, secs, p in r[kind]]

    return {
        "setup_s": [
            (report["ready"] - start - report["setup_probing_s"]) * scale(report["setup_probe_s"])
            for report, start in zip(reports, spawned)
        ],
        "build_keys_per_s": rates("build"),
        "query_keys_per_s": rates("query"),
        "scalar_query_keys_per_s": rates("scalar"),
        "report_s": [r["pass_s"] * scale(r["probe_s"]) for r in rounds],
        "peak_rss_mb": [report["peak_rss_mb"] for report in reports],
        "filter_mem_bytes_per_key": [
            report["filter_mem_bytes_per_key"] for report in reports if "filter_mem_bytes_per_key" in report
        ],
    }


def _cross_worker_problems(reports) -> list[str]:
    """Every worker gets the same inputs, so every output must hash the same."""
    first = reports[0]["sha256"]
    return [
        f"{label}: worker {i} output differs from worker 0"
        for i, report in enumerate(reports[1:], start=1)
        for label, digest in report["sha256"].items()
        if first.get(label) != digest
    ]


def _cache_fit(machine, held_bytes) -> dict:
    """Whether the bytes the built filter holds (its working set) exceed L2 and the LLC."""
    l2, llc = machine.get("l2_bytes"), machine.get("llc_bytes")
    return {
        "filter_held_bytes": held_bytes,
        "l2_bytes": l2,
        "llc_bytes": llc,
        "exceeds_l2": bool(l2 and held_bytes > l2),
        "exceeds_llc": bool(llc and held_bytes > llc),
    }


def drive(args) -> int:
    if not (SRC / "learnedbloom" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}/learnedbloom", file=sys.stderr)
        return 2
    env = pinned_env(SRC)
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    n_workers = 1 if args.trace else WORKERS
    reports, spawns = [], []
    for index in range(n_workers):
        command = [
            sys.executable, str(HERE / "run.py"), "--worker",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / n_workers), "--trace", str(args.trace),
            "--scale", repr(args.scale), *(["--filter-mem"] if index == n_workers - 1 else []),
        ]  # fmt: skip
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, deadline - spawned),
            )  # fmt: skip
        except subprocess.TimeoutExpired:
            print("perfbench: worker ran past the deadline", file=sys.stderr)
            return 1
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr[-4000:])
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        spawns.append(spawned)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    if len(reports) > 1:
        attempted += sum(len(r["sha256"]) for r in reports[1:])
        mismatches = _cross_worker_problems(reports)
        failed += len(mismatches)
        failures += mismatches

    if args.trace:
        specs = PER_LAYER
        values = reports[0]["metrics"]
        summary = {"traced_passes": reports[0]["traced_passes"]}
    else:
        specs = END_TO_END
        stats = {k: _quartiles(v) for k, v in _samples(reports, spawns, adjust=True).items()}
        if any(stats[name]["n"] == 0 for name, _, _ in specs):
            print("perfbench: no pass completed", file=sys.stderr)
            return 1
        raw = _samples(reports, spawns, adjust=False)
        probes = [r["probe_s"] for report in reports for r in report["rounds"]]  # per pass
        values = {name: s["median"] for name, s in stats.items()}
        summary = {
            "samples": stats,
            "raw_median": {name: statistics.median(v) for name, v in raw.items()},
            "probe_s": _quartiles(probes),
            "probe_nominal_s": PROBE_NOMINAL_S,
        }

    for name, unit, _ in specs:
        count = f"median of {summary['samples'][name]['n']}" if not args.trace else (
            f"median of {summary['traced_passes']} traced passes"
        )
        print(f"{name:40s} {values[name]:>16.6g} {unit:8s} {count}")
    failed_frac = failed / attempted if attempted else 1.0
    print(f"{'failed_op_frac':40s} {failed_frac:>16.6g} {'ratio':8s} {failed} of {attempted} ops")

    first = reports[0]
    record = {
        "schema": "perfbench-record/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": n_workers,
        "loop": "closed, one caller, one thread",
        "machine": first["machine"],
        "sizes": first["sizes"],
        "cache_fit": None if args.trace else _cache_fit(
            first["machine"], values["filter_mem_bytes_per_key"] * first["sizes"]["keys"]
        ),
        **summary,
        "failed_op_frac": failed_frac,
        "failures": failures[:50],
        "sha256": first["sha256"],
        "spans_file": first.get("spans_file"),
    }
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    return worker(args) if args.worker else drive(args)


if __name__ == "__main__":
    sys.exit(main())
