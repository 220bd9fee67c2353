"""Deterministic worker-pool helpers.

Work is split into fixed chunks independent of the pool size, and results are
reassembled by chunk index, so outputs are identical for any worker count.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

WORKERS_ENV = "PATHDENSITY_WORKERS"


def worker_count(explicit: int | None = None) -> int:
    """`explicit` when given, else PATHDENSITY_WORKERS, else one per usable
    CPU. Either must be an integer of at least 1; anything else is a
    ValueError."""
    if explicit is not None:
        if isinstance(explicit, bool) or not (
                isinstance(explicit, (int, np.integer)) and explicit >= 1):
            raise ValueError(f"workers must be an integer of at least 1, "
                             f"not {explicit!r}")
        return int(explicit)
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return len(os.sched_getaffinity(0))
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{WORKERS_ENV} must be an integer of at least 1, "
                         f"not {raw!r}")
    return n


def map_indexed(fn, items, workers: int | None = None) -> list:
    """Apply fn to each item; results ordered like the input regardless of
    pool. The first failing item's exception (in input order) propagates."""
    n = worker_count(workers)
    items = list(items)
    if n == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fn, items))

