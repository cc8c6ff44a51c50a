"""Spans around the library's public calls, recorded from outside the library.

The traced run installs a :class:`Tracer`, which rebinds the public
functions and methods listed in :data:`TRACED` to thin wrappers.  A wrapper
records a span (name, start, end, parent) in memory around each call and,
for some calls, adds to counters computed from the call's arguments and
return value.  Nothing in ``learnedbloom`` is edited: the wrappers replace
attributes of the already imported modules and classes, and ``uninstall``
puts the originals back.  Spans nest, so a call made inside another traced
call (``hash_pair_batch`` inside ``BloomFilter.contains_many``, or
``sample`` inside ``evaluate`` inside a CLI command) becomes its child, and
a span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from bench_metrics import CLI_STEPS, SCORER_FAMILIES
from learnedbloom import bloom, evaluation, hashing, learned, repro, scorers, workloads


def _size(keys) -> int:
    return len(keys) if hasattr(keys, "__len__") else int(np.size(keys))


def _score_family(scorer) -> str:
    if isinstance(scorer, scorers.LogisticScorer):
        return scorer.feature_map.partition(":")[0].replace("-", "_")
    return type(scorer).__name__.removesuffix("Scorer").lower()


class Tracer:
    """In-memory span recorder with counters, installed by rebinding public callables."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.maxima: dict = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()

    # -- installation --------------------------------------------------------

    def _wrap(self, func, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.parent_name()
            label = name(args) if callable(name) else name
            index = tracer._enter(label)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(index)
            if hook is not None:
                hook(tracer, parent, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def wrap_function(self, module, attr: str, name: str, hook=None) -> None:
        """Rebind ``module.attr`` in every ``learnedbloom`` module that holds the same object."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "learnedbloom" and getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def wrap_method(self, cls, attr: str, name, hook=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, name, hook))
        else:
            replacement = self._wrap(raw, name, hook)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def install(self) -> "Tracer":
        for kind, owner, attr, name, hook in TRACED:
            if kind == "function":
                self.wrap_function(owner, attr, name, hook)
            else:
                self.wrap_method(owner, attr, name, hook)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total seconds, total self seconds, and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            calls[name] += 1
        return total, self_time, calls

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "schema": "perfbench-spans/1",
                    "names": names,
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "spans": [[ids[n], round(a, 7), round(b, 7), p] for n, a, b, p in self.spans],
                },
                fh,
            )


# -- counters computed from public arguments and return values --------------


def _count_hashed(tracer, parent, args, kwargs, result):
    tracer.counts["hashing.hash_pair_batch.keys"] += _size(result[0])


def _count_probes(tracer, parent, args, kwargs, result):
    """n*k probes per batch, and the n*k*8 bytes of its uint64 probe matrix (computed)."""
    filt, keys = args[0], args[1]
    probes = _size(keys) * filt.k
    tracer.counts["bloom.probes"] += probes
    key = "bloom.probe_temp_bytes_computed"
    tracer.maxima[key] = max(tracer.maxima[key], probes * 8)


def _count_backup_queries(tracer, parent, args, kwargs, result):
    _count_probes(tracer, parent, args, kwargs, result)
    if parent == "learned.contains_many":
        tracer.counts["learned.to_backup"] += _size(args[1])
        tracer.counts["learned.backup_hits"] += int(np.count_nonzero(result))


def _count_scored(tracer, parent, args, kwargs, result):
    tracer.counts[f"scorers.score_batch.{_score_family(args[0])}.keys"] += _size(result)


def _count_learned_queries(tracer, parent, args, kwargs, result):
    tracer.counts["learned.queries"] += _size(result)


def _count_sampled(tracer, parent, args, kwargs, result):
    tracer.counts["workloads.sample.keys"] += _size(result)


def _count_support(tracer, parent, args, kwargs, result):
    dist = args[2] if len(args) > 2 else kwargs["dist"]
    source = dist.source
    parts = source.components if isinstance(source, workloads.Mixture) else (source,)
    tracer.counts["evaluation.exact_alpha.support"] += sum(part.size for part in parts)


def _count_trials(tracer, parent, args, kwargs, result):
    tracer.counts["evaluation.concentration.trials"] += result.trials
    tracer.counts["evaluation.concentration.queries"] += result.trials * (
        result.t_size + result.q_size
    )


def _score_batch_name(args) -> str:
    return f"scorers.score_batch.{_score_family(args[0])}"


# (kind, owner, attribute, span name or name function, counter hook)
TRACED = (
    ("function", hashing, "hash_pair_batch", "hashing.hash_pair_batch", _count_hashed),
    ("method", bloom.BloomFilter, "insert_many", "bloom.insert_many", _count_probes),
    (
        "method",
        bloom.BloomFilter,
        "contains_many",
        "bloom.contains_many",
        _count_backup_queries,
    ),
    ("method", bloom.BloomFilter, "contains", "bloom.contains", None),
    ("method", bloom.BloomFilter, "to_bytes", "bloom.to_bytes", None),
    ("method", bloom.BloomFilter, "from_bytes", "bloom.from_bytes", None),
    ("method", scorers.IntervalScorer, "score_batch", _score_batch_name, _count_scored),
    ("method", scorers.LogisticScorer, "score_batch", _score_batch_name, _count_scored),
    ("function", scorers, "train_logistic", "scorers.train_logistic", None),
    ("method", learned.LearnedBloomFilter, "build", "learned.build", None),
    (
        "method",
        learned.LearnedBloomFilter,
        "contains_many",
        "learned.contains_many",
        _count_learned_queries,
    ),
    ("function", workloads, "sample", "workloads.sample", _count_sampled),
    ("function", workloads, "load_keys_text", "workloads.load_keys_text", None),
    ("function", evaluation, "exact_alpha", "evaluation.exact_alpha", _count_support),
    ("function", evaluation, "evaluate", "evaluation.evaluate", None),
    (
        "function",
        evaluation,
        "concentration_experiment",
        "evaluation.concentration",
        _count_trials,
    ),
    ("function", repro, "build_report", "repro.build_report", None),
)


# -- per-layer metrics --------------------------------------------------------


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer, fill_ratio: float) -> dict:
    """Reduce one traced pass to the per-layer metrics (all but ``trace.overhead_frac``)."""
    total, self_time, calls = tracer.totals()
    counts = tracer.counts
    sent, hits = counts["learned.to_backup"], counts["learned.backup_hits"]
    values = {
        "hashing.hash_pair_batch.s": total["hashing.hash_pair_batch"],
        "hashing.hash_pair_batch.keys": counts["hashing.hash_pair_batch.keys"],
        "bloom.insert_many.s": total["bloom.insert_many"],
        "bloom.contains_many.s": total["bloom.contains_many"],
        "bloom.contains_many.self_s": self_time["bloom.contains_many"],
        "bloom.contains.us": _ratio(total["bloom.contains"], calls["bloom.contains"], 1e6),
        "bloom.probes": counts["bloom.probes"],
        "bloom.probe_temp_bytes_computed": tracer.maxima["bloom.probe_temp_bytes_computed"],
        "bloom.fill_ratio": fill_ratio,
        "bloom.to_bytes.s": total["bloom.to_bytes"],
        "bloom.from_bytes.s": total["bloom.from_bytes"],
        "scorers.train_logistic.s": total["scorers.train_logistic"],
        "learned.build.s": total["learned.build"],
        "learned.contains_many.s": total["learned.contains_many"],
        "learned.contains_many.self_s": self_time["learned.contains_many"],
        "learned.above_tau": counts["learned.queries"] - sent,
        "learned.to_backup": sent,
        "learned.backup_hits": hits,
        "learned.backup_hit_ratio": _ratio(hits, sent),
        "workloads.sample.s": total["workloads.sample"],
        "workloads.sample.keys": counts["workloads.sample.keys"],
        "workloads.load_keys_text.s": total["workloads.load_keys_text"],
        "evaluation.exact_alpha.s": total["evaluation.exact_alpha"],
        "evaluation.exact_alpha.support": counts["evaluation.exact_alpha.support"],
        "evaluation.evaluate.s": total["evaluation.evaluate"],
        "evaluation.concentration.trial_ms": _ratio(
            total["evaluation.concentration"], counts["evaluation.concentration.trials"], 1e3
        ),
        "evaluation.concentration.queries": counts["evaluation.concentration.queries"],
        "repro.build_report.s": total["repro.build_report"],
        "cli.self_s": sum(self_time[f"cli.{step}"] for step in CLI_STEPS),
    }
    for family in SCORER_FAMILIES:
        values[f"scorers.score_batch.{family}.us_per_key"] = _ratio(
            total[f"scorers.score_batch.{family}"],
            counts[f"scorers.score_batch.{family}.keys"],
            1e6,
        )
    for step in CLI_STEPS:
        values[f"cli.{step}.s"] = total[f"cli.{step}"]
    return values
