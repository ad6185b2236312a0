"""Optional numba acceleration for the hot inner loops.

The brute-force labeling scans and the kernel row sums are plain-loop
functions written against numpy arrays. When numba is importable and the
environment variable ``COXCUT_NO_NUMBA`` is not set, they are compiled with
``@njit``; otherwise the same functions run uncompiled (correct, much
slower on large instances). ``benchmarks/accel_bench.py`` measures the gap.
"""

import os


def _env_disabled() -> bool:
    return os.environ.get("COXCUT_NO_NUMBA", "").strip().lower() in {"1", "true", "yes", "on"}


try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env flag instead
    numba = None
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and not _env_disabled()


def accelerate(fn):
    """Return ``njit(cache=True)(fn)`` on the numba path, ``fn`` unchanged otherwise."""
    if USE_NUMBA:
        return numba.njit(cache=True)(fn)
    return fn
