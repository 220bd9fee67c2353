"""End-to-end benchmark of the pathdensity CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from `src/` of the checkout that holds this
directory. Set-up draws the workload's inputs with `pathdensity simulate`;
then whole rounds of CLI operations run as child processes, one at a time,
until S seconds have passed. Every output is checked apart from the package
(see checks.py). The last line printed is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json. With
--trace 1 each operation runs once untraced and once under tracer.py, and the
metrics are the per-layer ones, plus the tracing overhead.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 170

# Pentagon vertices drawn by `simulate --model pentagon --seed k` for k = 1, 2,
# 3, rounded to three decimals. Every run uses the same three shapes so that
# runs differ only in the drawn points and Monte-Carlo paths: the cost of an
# operation depends strongly on the shape, and a shape drawn from the run's
# seed would make the run-to-run spread much wider than the metric bounds.
PENTAGONS = (
    ((0.312, 0.423), (0.550, 0.028), (0.828, 0.409), (0.512, 0.950),
     (0.144, 0.949)),
    ((0.262, 0.298), (0.188, 0.055), (0.814, 0.092), (0.600, 0.729),
     (0.275, 0.657)),
    ((0.086, 0.237), (0.479, 0.160), (0.735, 0.114), (0.801, 0.582),
     (0.094, 0.433)),
)
SIGMA = 0.03

ESTIMATE_OUTPUTS = ("paths.csv", "field.csv", "levelset.csv", "figure.svg",
                    "estimate.json")
ORACLE_OUTPUTS = ("oracle_field.csv", "critical_points.csv")

# background: weight of the uniform component; n: points per input; draws:
# inputs drawn per shape. One estimate operation's cost moves by up to a
# quarter between draws of the same shape, as its mean-shift step count does,
# so the estimate workloads draw each shape twice to steady the run's median.
# run_checks: the Hausdorff bound and the --workers 1 rerun (see run_checks).
WORKLOADS = {
    "estimate-field": dict(command="estimate", background=0.0, n=300,
                           draws=2, args=["--grid", "84", "--workers", "2"],
                           ascent_paths=0, run_checks=True),
    "estimate-trace": dict(command="estimate", background=0.5, n=1600,
                           draws=2, args=["--grid", "12", "--workers", "1"],
                           ascent_paths=100, run_checks=False),
    "oracle-pentagon": dict(command="oracle", background=0.0, n=400,
                            draws=1, args=["--n-mc", "1000", "--grid", "100"],
                            run_checks=False),
}


def model_doc(vertices, background: float) -> dict:
    """A saved-model document: one arcsine-weighted filament per side."""
    ring = np.asarray(vertices + vertices[:1], dtype=float)
    lengths = np.hypot(*np.diff(ring, axis=0).T)
    weights = (1.0 - background) * lengths / lengths.sum()
    return {
        "version": 1, "box": [0.0, 1.0, 0.0, 1.0],
        "background_weight": background, "clusters": [],
        "filaments": [
            {"vertices": ring[i:i + 2].tolist(), "sigma": SIGMA,
             "weight": float(w),
             "length_density": {"kind": "beta", "a": 0.5, "b": 0.5}}
            for i, w in enumerate(weights)],
    }


def spawn(argv, log: Path):
    """Run a child to completion; (wall seconds, peak RSS in MB, exit code)."""
    argv = [str(a) for a in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                 env=env, cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, child.returncode


def cli(*args):
    return [sys.executable, "-m", "pathdensity", *args]


class Run:
    """One benchmark run: inputs, operations, checks and the tallies."""

    def __init__(self, name: str, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.spec = WORKLOADS[name]
        self.inputs, self.setup_s = [], []
        self.attempted = self.failed = 0
        self.run_failures = []
        self.verdicts = {}      # (input, output digest) -> (failures, hausdorff)
        self.hausdorff = []     # per operation, estimate-* only
        self.last_out = {}      # input -> output directory of its last op

    def setup(self):
        for k in range(len(PENTAGONS) * self.spec["draws"]):
            spec = self.work / f"model-spec-{k}.json"
            shape = PENTAGONS[k % len(PENTAGONS)]
            spec.write_text(json.dumps(model_doc(shape,
                                                 self.spec["background"])))
            inp = self.work / f"input-{k}"
            log = self.work / f"setup-{k}.log"
            wall, _, rc = spawn(cli("simulate", "--model-json", spec,
                                    "--n", self.spec["n"],
                                    "--seed", 1000 * self.seed + k,
                                    "--out", inp), log)
            if rc != 0:
                raise RuntimeError(f"simulate exited {rc}:\n"
                                   f"{log.read_text()[-2000:]}")
            self.setup_s.append(wall)
            self.inputs.append(inp)

    def op_args(self, k: int, out: Path, workers=None):
        inp = self.inputs[k]
        args = list(self.spec["args"])
        if workers is not None:
            args[args.index("--workers") + 1] = str(workers)
        if self.spec["command"] == "estimate":
            return ["estimate", "--points", inp / "points.csv",
                    "--out", out, *args]
        return ["oracle", "--model-json", inp / "model.json",
                "--seed", 1000 * self.seed + k, "--out", out, *args]

    def outputs(self):
        return (ESTIMATE_OUTPUTS if self.spec["command"] == "estimate"
                else ORACLE_OUTPUTS)

    def operation(self, k: int, traced: bool):
        """Run one operation on input k, check its outputs, and return
        (wall seconds, peak RSS MB, trace or None)."""
        tag = "traced" if traced else "plain"
        out = self.work / f"out-{k}-{tag}"
        args = self.op_args(k, out)
        spans = self.work / f"spans-{k}.json"
        argv = ([sys.executable, HERE / "tracer.py", spans, *args]
                if traced else cli(*args))
        log = self.work / f"op-{k}.log"
        wall, rss, rc = spawn(argv, log)
        if rc != 0:
            print(f"operation on input {k} exited {rc}:\n"
                  f"{log.read_text()[-2000:]}", file=sys.stderr)
        self.attempted += 1
        ok = rc == 0 and self.check(k, out)
        self.failed += not ok
        self.last_out[k] = out
        trace = json.loads(spans.read_text()) if traced and ok else None
        return wall, rss, trace

    def check(self, k: int, out: Path) -> bool:
        """Per-operation output checks, skipped when the bytes match an
        output of the same input that was already checked."""
        key = (k, checks.digest(out, self.outputs()))
        if key not in self.verdicts:
            if self.spec["command"] == "estimate":
                self.verdicts[key] = checks.check_estimate(
                    out, self.inputs[k] / "points.csv", node_seed=self.seed,
                    ascent_paths=self.spec["ascent_paths"])
            else:
                self.verdicts[key] = (checks.check_oracle(
                    out, self.inputs[k] / "model.json"), None)
        bad, hausdorff = self.verdicts[key]
        for msg in bad:
            print(f"check failed on input {k}: {msg}", file=sys.stderr)
        if hausdorff is not None:
            self.hausdorff.append(hausdorff)
        return not bad

    def run_checks(self):
        """Checks over the whole run; a failure makes the run incorrect."""
        if self.spec["run_checks"]:
            self.run_failures += checks.check_hausdorff(self.hausdorff, SIGMA)
            k = self.seed % len(self.inputs)
            out = self.work / f"out-{k}-workers-1"
            _, _, rc = spawn(cli(*self.op_args(k, out, 1)),
                             self.work / "rerun.log")
            self.run_failures += ([f"--workers 1 rerun exited {rc}"] if rc else
                                  checks.check_identical(
                                      self.last_out[k], out, self.outputs()))
        for msg in self.run_failures:
            print(f"run check failed: {msg}", file=sys.stderr)


def covered(spans) -> float:
    """Length of the union of the spans' time intervals."""
    total, end = 0.0, -np.inf
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["end"] > end:
            total += s["end"] - max(s["start"], end)
            end = s["end"]
    return total


def layer_metrics(trace) -> dict:
    """Per-layer numbers of one traced operation. Times are span durations
    with children included, except field_self_s (span minus children)."""
    spans = trace["spans"]
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def dur(*names):
        return sum(s["end"] - s["start"] for n in names for s in by.get(n, []))

    def count(name, key):
        return sum(s["counts"][key] for s in by.get(name, []))

    def self_time(name):
        kids = {}
        for s in spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append(s)
        return sum(s["end"] - s["start"] - covered(kids.get(s["id"], []))
                   for s in by.get(name, []))

    evals = ("model.value", "model.gradient", "model.hessian")
    pairs = count("geometry.segment_distances", "pairs")
    pair_time = covered(by.get("geometry.segment_distances", []))
    return {
        "cli.import_s": trace["import_s"],
        "cli.read_points_s": dur("cli.read_points_csv"),
        "cli.write_s": dur("cli.write"),
        "cli.write_bytes": count("cli.write", "bytes"),
        "figure.svg_s": dur("figure.svg"),
        "figure.svg_bytes": count("figure.svg", "bytes"),
        "flow.kde_flow_config_s": dur("flow.kde_flow_config"),
        "flow.mean_shift_s": dur("flow.mean_shift_paths"),
        "flow.mean_shift_steps": count("flow.mean_shift_paths", "steps"),
        "flow.paths_not_converged": count("flow.mean_shift_paths",
                                          "not_converged"),
        "kernels.kde_points": count("kernels.kde", "points"),
        "path_density.ensemble_s": dur("path_density.PathEnsemble"),
        "path_density.segments": count("path_density.PathEnsemble",
                                       "segments"),
        "path_density.field_s": dur("path_density.path_density_field"),
        "geometry.distance_pairs": pairs,
        "geometry.distance_pairs_per_s": pairs / pair_time if pairs else 0.0,
        "levelset.threshold_s": dur("levelset.quantile_threshold",
                                    "levelset.level_set"),
        "flow.critical_points_s": dur("flow.find_critical_points"),
        "flow.critical_points_found": count("flow.find_critical_points",
                                            "found"),
        "oracle.trace_s": dur("oracle.sample_and_trace"),
        "oracle.trace_segments": count("oracle.sample_and_trace", "segments"),
        "oracle.hit_counts_s": dur("oracle.path_hit_counts"),
        "oracle.field_self_s": self_time("oracle.oracle_field"),
        "model.eval_s": dur(*evals),
        "model.calls": sum(len(by.get(n, [])) for n in evals),
        "model.value_points": count("model.value", "points"),
        "model.gradient_points": count("model.gradient", "points"),
        "model.hessian_points": count("model.hessian", "points"),
    }


def measure(run: Run, seconds: float, traced: bool) -> dict:
    """Whole rounds (every input once, or once plain and once traced) until
    `seconds` have passed; returns the metric values."""
    walls, rss, overheads, layers = [], [], [], []
    t0 = time.perf_counter()
    while True:
        for k in range(len(run.inputs)):
            wall, peak, _ = run.operation(k, traced=False)
            walls.append(wall)
            rss.append(peak)
            if traced:
                traced_wall, _, trace = run.operation(k, traced=True)
                overheads.append(traced_wall - wall)
                if trace is not None:
                    layers.append(layer_metrics(trace))
        if time.perf_counter() - t0 >= seconds:
            break
    run.run_checks()
    if not traced:
        return {"setup_s": statistics.median(run.setup_s),
                "op_s": statistics.median(walls),
                "peak_rss_mb": statistics.median(rss)}
    out = {name: statistics.median(d[name] for d in layers)
           for name in (layers[0] if layers else {})}
    out["trace.overhead_s"] = statistics.median(overheads)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pathdensity" / "cli.py").is_file():
        print(f"error: no pathdensity sources under {SRC}; perfbench/ must "
              "sit in a checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in
             bench["per_layer" if args.trace else "end_to_end"]}

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        run.setup()
        values = measure(run, args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = set(units) - set(values)
    if missing:
        print(f"error: no value for {sorted(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.run_failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
