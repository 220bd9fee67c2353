"""The benchmark's own output checks, run on small `estimate` outputs.

Loads perfbench/checks.py by path and edits nothing there. Its checks
recompute each output apart from the package: the `step` column of every
path in paths.csv runs 0..k, field.csv is the path density of the paths in
paths.csv, the level set and its level match the field, every path starts at
its data point, and the KDE never drops along a path.
"""

import importlib.util
from pathlib import Path

import pytest

from pathdensity.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    # simulate writes model.json beside points.csv, as check_estimate reads it
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--model", "pentagon", "--n", "200", "--seed", "4",
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("tracer", ["meanshift", "flow"])
def test_estimate_passes_the_bench_checks(checks, sim, tmp_path, tracer):
    assert main(["estimate", "--points", str(sim / "points.csv"), "--out",
                 str(tmp_path), "--grid", "30", "--tracer", tracer]) == 0
    failures, _ = checks.check_estimate(tmp_path, sim / "points.csv",
                                        node_seed=1, ascent_paths=200)
    assert failures == []
