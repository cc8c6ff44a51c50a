"""The machine record written next to every benchmark result.

Reads only what the operating system exposes to an unprivileged process:
the CPU count and affinity, ``/proc/cpuinfo`` for the CPU model, and the
cache sizes under ``/sys/devices/system/cpu/cpu0/cache``.  Missing files
give ``None`` rather than an error, so the record works on any Linux.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

# Thread pools of numpy's BLAS/OpenMP back ends, pinned to one thread in the
# benchmark's own environment so the numbers measure the program and not the
# scheduler.  The library is single-threaded numpy code; none of these should
# matter, and pinning makes sure of it.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def pinned_env(src_dir: Path) -> dict:
    """The environment for a benchmark worker: one BLAS thread, the checkout's ``src`` first."""
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + old if old else "")
    return env


def _size_bytes(text: str) -> int | None:
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    try:
        if text and text[-1] in scale:
            return int(text[:-1]) * scale[text[-1]]
        return int(text)
    except ValueError:
        return None


def cache_sizes() -> dict:
    """Per-core L2 and last-level cache sizes in bytes, as the kernel reports them."""
    levels = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind in ("Unified", "Data"):
            levels[level] = size
    return {
        "l2_bytes": levels.get(2),
        "llc_bytes": levels[max(levels)] if levels else None,
    }


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record() -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        **cache_sizes(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


# -- host speed probe ---------------------------------------------------------
#
# On a shared host the speed of a core drifts by tens of percent over
# seconds to minutes, as other tenants come and go; a probe on this kind of
# host, timed next to the workload, moves with it (its time and the
# workload's correlate closely).  The benchmark therefore times this fixed
# kernel, which never calls the library, before and after every pass, and
# reports each timing scaled by PROBE_NOMINAL_S / probe time: the time the
# pass would have taken on a host running the probe in PROBE_NOMINAL_S.  A
# change to the library cannot move the probe, so it moves the adjusted
# figures exactly as it moves the raw ones.  Raw medians are kept in the
# record.  The kernel mixes an interpreted loop with numpy arithmetic, a
# gather from a table larger than L2 and a sort, like the library's paths.

PROBE_NOMINAL_S = 0.008  # about the probe's median time where the benchmark was defined


class HostProbe:
    """A fixed CPU and memory kernel whose wall time tracks the host's current speed."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20180202)
        self._np = np
        self._keys = rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64)
        self._table = rng.integers(0, 2, size=4 << 20, dtype=np.uint8)
        self.spent = 0.0  # seconds spent probing, to subtract from set-up time

    def seconds(self, repeats: int = 1) -> float:
        """The median of ``repeats`` timings of the kernel."""
        start = time.perf_counter()
        times = sorted(self._once() for _ in range(repeats))
        self.spent += time.perf_counter() - start
        return times[len(times) // 2]

    def _once(self) -> float:
        np = self._np
        start = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += (i * 2654435761) & 0xFFFF
        z = self._keys * np.uint64(0x9E3779B97F4A7C15)
        z ^= z >> np.uint64(31)
        total += int(self._table[(z % np.uint64(self._table.size)).astype(np.int64)].sum())
        total += int(np.sort(z)[0] & 1)
        return time.perf_counter() - start
