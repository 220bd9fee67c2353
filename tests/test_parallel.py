"""Output bytes under any BLAS thread count, the default worker count, and
`beside`."""

import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from pathdensity import parallel
from pathdensity.cli import main
from pathdensity.parallel import beside, worker_count

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


@pytest.mark.parametrize("workers", [1, 2])
def test_beside_returns_both_results_with_main_on_the_calling_thread(workers):
    caller = threading.get_ident()
    side, main_ = beside(lambda: "side", lambda: threading.get_ident(), workers)
    assert (side, main_) == ("side", caller)


@pytest.mark.parametrize("workers", [1, 2])
def test_beside_reraises_the_side_exception(workers):
    def side():
        raise KeyError("side")

    ran = []
    with pytest.raises(KeyError, match="side"):
        beside(side, lambda: ran.append(1), workers)
    # in turn, main never starts; beside it, main finishes first
    assert ran == ([] if workers == 1 else [1])


def test_beside_reraises_the_main_exception():
    def main_():
        raise ValueError("main")

    with pytest.raises(ValueError, match="main"):
        beside(lambda: None, main_, 2)
