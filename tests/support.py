"""Helpers shared by several test modules: a reference gradient, subprocess runs and
numpy's SIMD dispatch levels."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from learnedbloom.scorers import FeatureMap, TrainingSet, _loss_and_residual

ROOT = Path(__file__).resolve().parent.parent


def log_loss_gradient(
    weights: np.ndarray, bias: float, fm: FeatureMap, data: TrainingSet
) -> tuple[np.ndarray, float]:
    """Analytic gradient of the clamped cross-entropy at (weights, bias): the one the
    trainer steps along, from the same logit pass."""
    codes = fm.encode(np.concatenate([data.positives, data.negatives]))
    w = np.asarray(weights, dtype=np.float64)
    _, residual = _loss_and_residual(fm, codes, data.positives.size, w, bias)
    return fm.gradient(codes, residual), float(residual.sum())


def run_python(code: str, *args: str, **env: str) -> str:
    """The stdout of ``code`` run by this Python with the package and the tests importable,
    ``args`` as its ``sys.argv[1:]`` and ``env`` added to the environment; it must succeed."""
    full = dict(os.environ, **env)
    paths = [str(ROOT / "src"), str(ROOT / "tests"), full.get("PYTHONPATH")]
    full["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=full, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# numpy's dispatch targets by x86-64 level: numpy 2.4 names them X86_V3 and X86_V4,
# older releases by feature (AVX2, AVX512F, AVX512_SKX, ...)
_LEVEL_3 = {"X86_V3", "AVX", "F16C", "FMA3", "AVX2"}


def dispatch_off(level: int) -> str:
    """An ``NPY_DISABLE_CPU_FEATURES`` value that turns off numpy's dispatch targets from
    x86-64 level ``level`` (4: AVX-512, 3: AVX2 as well) up, among those this CPU enables;
    empty when there are none.  A name numpy does not dispatch on is ignored with only an
    ``ImportWarning``, so the names come from its own list."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    names = [
        name for name in umath.__cpu_dispatch__
        if umath.__cpu_features__.get(name)
        and (name == "X86_V4" or name.startswith("AVX512") or (level <= 3 and name in _LEVEL_3))
    ]  # fmt: skip
    return " ".join(names)
