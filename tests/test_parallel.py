"""Output bytes under any BLAS thread count, the default worker count, and
`map_indexed`."""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pathdensity import parallel
from pathdensity.cli import main
from pathdensity.parallel import map_indexed, worker_count

ROOT = Path(__file__).resolve().parent.parent


def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    # an input large enough that OpenBLAS splits the weight blocks' products
    # over its threads when it may
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "pentagon", "--n", "2000", "--seed", "1",
                 "--out", str(sim)]) == 0
    digests = {}
    for threads in ("1", "2"):
        out = tmp_path / f"blas-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "pathdensity", "estimate", "--points",
             str(sim / "points.csv"), "--grid", "40", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests[threads] = [hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in ("paths.csv", "field.csv")]
    assert digests["1"] == digests["2"]


def test_default_workers_are_one_per_usable_cpu(monkeypatch):
    monkeypatch.delenv(parallel.WORKERS_ENV, raising=False)
    assert worker_count() == len(os.sched_getaffinity(0))
    # the variable and an explicit count still win
    monkeypatch.setenv(parallel.WORKERS_ENV, "3")
    assert worker_count() == 3
    assert worker_count(5) == 5


@pytest.mark.parametrize("explicit", [0, -1, 2.5, True])
def test_explicit_worker_count_must_be_an_integer_of_at_least_1(explicit):
    with pytest.raises(ValueError, match="integer of at least 1"):
        worker_count(explicit)


@pytest.mark.parametrize("workers", [1, 2])
def test_map_indexed_returns_results_in_input_order(workers):
    # later items finish first, and the results still come back in order
    def task(k):
        time.sleep(0.01 * (3 - k))
        return k * k

    assert map_indexed(task, range(4), workers) == [0, 1, 4, 9]


@pytest.mark.parametrize("workers", [1, 2])
def test_map_indexed_raises_the_first_failing_items_exception(workers):
    started = []

    def task(k):
        started.append(k)
        if k == 0:
            raise KeyError("first")
        if k == 1:
            raise ValueError("second")
        return k

    with pytest.raises(KeyError, match="first"):
        map_indexed(task, range(3), workers)
    # in turn, no item after the failing one starts
    if workers == 1:
        assert started == [0]


def test_map_indexed_raises_a_later_items_exception():
    def task(k):
        if k == 1:
            raise ValueError("later")
        return k

    with pytest.raises(ValueError, match="later"):
        map_indexed(task, range(2), 2)
