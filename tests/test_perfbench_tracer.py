"""The benchmark's tracer wraps package functions by name: it must start and
trace the CLI without any of those names missing.

Reads perfbench/tracer.py and runs it as a subprocess; it edits nothing
there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pathdensity.cli import main
from pathdensity.model import FilamentModel
from pathdensity.oracle import sample_and_trace

ROOT = Path(__file__).resolve().parent.parent


def traced(tmp_path, *cli_args):
    """Run the tracer on one CLI command; return its spans."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans),
         *map(str, cli_args)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())["spans"]


@pytest.fixture(scope="module")
def sims(tmp_path_factory):
    out = tmp_path_factory.mktemp("sims")
    assert main(["simulate", "--model", "pentagon", "--n", "60", "--seed", "1",
                 "--out", str(out / "pentagon")]) == 0
    assert main(["simulate", "--model", "two-gaussian", "--n", "10", "--seed",
                 "1", "--out", str(out / "tg")]) == 0
    return out


@pytest.mark.parametrize("tracer", ["meanshift", "flow"])
def test_tracer_runs_estimate(sims, tmp_path, tracer):
    spans = traced(tmp_path, "estimate", "--points",
                   sims / "pentagon" / "points.csv", "--out", tmp_path / "o",
                   "--grid", "12", "--tracer", tracer)
    names = {s["name"] for s in spans}
    tracing = {"meanshift": "flow.mean_shift_paths",
               "flow": "flow.kde_flow_config"}[tracer]
    assert {tracing, "path_density.path_density_field"} <= names


def test_tracer_runs_oracle(sims, tmp_path):
    spans = traced(tmp_path, "oracle", "--model-json", sims / "tg" / "model.json",
                   "--n-mc", "50", "--grid", "8", "--seed", "1",
                   "--out", tmp_path / "o")
    assert {"oracle.sample_and_trace", "oracle.path_hit_counts"} <= {
        s["name"] for s in spans}
    # the traced segment count is the ensemble's, from the same draws
    model = FilamentModel.load(sims / "tg" / "model.json")
    segs = sample_and_trace(model, 50, np.random.default_rng(1))
    [trace] = [s for s in spans if s["name"] == "oracle.sample_and_trace"]
    assert trace["counts"]["segments"] == segs.offsets[-1]
