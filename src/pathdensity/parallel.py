"""Deterministic worker-pool helpers.

Work is split into fixed chunks independent of the pool size, and results are
reassembled by chunk index, so outputs are identical for any worker count.
Loading this module (every entry point does) sets OpenBLAS to one thread, as
it rounds a product differently when it splits it over its own threads.
"""

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np  # noqa: F401  (loads the OpenBLAS that _pin_blas finds)

WORKERS_ENV = "PATHDENSITY_WORKERS"
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")


def _pin_blas() -> bool:
    """Set each loaded OpenBLAS (found by file name in /proc/self/maps) to one
    thread through the thread setters it exports; False if none does."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {ln.split(maxsplit=5)[5].strip() for ln in f if "openblas" in ln}
        dlls = [ctypes.CDLL(lib) for lib in sorted(libs)]
    except OSError:
        return False
    setters = [getattr(dll, s) for dll in dlls for s in _BLAS_SETTERS if hasattr(dll, s)]
    for setter in setters:
        setter(1)
    return bool(setters)


BLAS_PINNED = _pin_blas()


def worker_count(explicit: int | None = None) -> int:
    """`explicit` when given, else PATHDENSITY_WORKERS, else one per usable CPU
    if BLAS is pinned (else 1: its threads would compete). The variable must
    hold an integer of at least 1; anything else is a ValueError."""
    if explicit is not None:
        return max(1, int(explicit))
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return len(os.sched_getaffinity(0)) if BLAS_PINNED else 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{WORKERS_ENV} must be an integer of at least 1, "
                         f"not {raw!r}")
    return n


def map_indexed(fn, items, workers: int | None = None) -> list:
    """Apply fn to each item; results ordered like the input regardless of pool."""
    n = worker_count(workers)
    items = list(items)
    if n == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fn, items))


def beside(side, main, workers: int | None = None) -> tuple:
    """(side(), main()): side on a pool thread while main runs on the calling
    thread, or the two in turn with one worker. An exception from either
    propagates (side's when both raise, as in turn)."""
    if worker_count(workers) == 1:
        return side(), main()
    with ThreadPoolExecutor(max_workers=1) as ex:
        fut = ex.submit(side)
        try:
            m = main()
        finally:
            s = fut.result()
    return s, m
