"""Regenerate the reference figures in README.md.

    python3 perfbench/reference.py

Runs run.py on every workload once untraced for each of the seeds 1 to 10
and once traced with seed 1, each run measuring BENCHMARK.json's
run_seconds, then prints the machine, each end-to-end metric's median and
quartiles over the seeds with its spread (IQR / median), the per-layer
medians, and the peak memory of `estimate` on one estimate-field input with
one and with two workers. Takes about 25 minutes.
"""

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import run

SEEDS = range(1, 11)
SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def machine() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {np.__version__}, scipy {scipy.__version__}, BLAS {blas}")


def bench(workload, seed, trace):
    """One run of run.py: its result and its wall time in seconds."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    return (json.loads(out.stdout.strip().splitlines()[-1]),
            time.perf_counter() - t0)


def worker_memory() -> str:
    """Peak RSS of one estimate-field operation with 1 and with 2 workers."""
    work = run.ROOT / ".perfbench" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        r = run.Run("estimate-field", 1, work)
        r.setup()
        out = {}
        for w in (1, 2):
            args = r.op_args(0, work / f"out-{w}", workers=w)
            wall, peak, _ = run.spawn(run.cli(*args), work / "op.log")
            out[w] = f"{w} worker(s): {wall:.2f} s, {peak:.0f} MB"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return ", ".join(out.values())


def main():
    print(f"machine: {machine()}")
    print(f"seeds {SEEDS[0]}-{SEEDS[-1]}, --seconds {SECONDS}\n")
    for w in run.WORKLOADS:
        runs, walls = [], []
        for s in SEEDS:
            result, wall = bench(w, s, 0)
            runs.append(result)
            walls.append(wall)
            print(f"{w} seed {s}: {result['attempted']} operations in "
                  f"{wall:.0f} s, "
                  + ", ".join(f"{k} {m['value']:.4g}"
                              for k, m in result["metrics"].items()),
                  flush=True)
        traced, traced_wall = bench(w, SEEDS[0], 1)
        ops = sum(r["attempted"] for r in runs)
        fails = sum(r["failed"] for r in runs)
        ok = all(r["correct"] for r in runs + [traced])
        print(f"## {w}: {len(runs)} runs, {ops} operations, {fails} failed, "
              f"correct={ok}; a run takes {min(walls):.0f} to "
              f"{max(walls):.0f} s, the traced run {traced_wall:.0f} s")
        print("| metric | median | q1 | q3 | spread |")
        print("| --- | --- | --- | --- | --- |")
        for name, m in runs[0]["metrics"].items():
            v = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"| {name} ({m['unit']}) | {med:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {(q3 - q1) / med:.3f} |")
        print(f"\ntraced run, seed {SEEDS[0]}:")
        for name, m in traced["metrics"].items():
            print(f"- {name}: {m['value']:.4g} {m['unit']}")
        print()
    print(f"estimate-field input 0, seed 1: {worker_memory()}")


if __name__ == "__main__":
    main()
