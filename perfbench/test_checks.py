"""Negative controls: each output check accepts a genuine CLI output and
rejects the same output with one deliberate corruption.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import shutil

import numpy as np
import pytest

import checks
import run

SIGMA = run.SIGMA
NODE_SEED = 5


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A small genuine `estimate` and `oracle` output on pentagon shape 0."""
    root = tmp_path_factory.mktemp("outputs")
    spec = root / "spec.json"
    spec.write_text(json.dumps(run.model_doc(run.PENTAGONS[0], 0.0)))
    commands = {
        "simulate": ["simulate", "--model-json", spec, "--n", 150,
                     "--seed", 1, "--out", root / "input"],
        "estimate": ["estimate", "--points", root / "input" / "points.csv",
                     "--grid", 30, "--workers", 1, "--out", root / "estimate"],
        "oracle": ["oracle", "--model-json", root / "input" / "model.json",
                   "--seed", 1, "--n-mc", 300, "--grid", 40,
                   "--out", root / "oracle"],
    }
    for name, args in commands.items():
        _, _, rc = run.spawn(run.cli(*args), root / f"{name}.log")
        assert rc == 0, (root / f"{name}.log").read_text()
    return root


def corrupt(outputs, tmp_path, sub, name, edit):
    """Copy an output directory and rewrite one file's lines with edit."""
    dst = tmp_path / sub
    shutil.copytree(outputs / sub, dst)
    path = dst / name
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    return dst


def estimate_failures(outputs, out_dir):
    bad, _ = checks.check_estimate(out_dir, outputs / "input" / "points.csv",
                                   NODE_SEED, ascent_paths=1000)
    return bad


def oracle_failures(outputs, out_dir):
    return checks.check_oracle(out_dir, outputs / "input" / "model.json")


def test_genuine_outputs_pass(outputs):
    assert estimate_failures(outputs, outputs / "estimate") == []
    assert oracle_failures(outputs, outputs / "oracle") == []


def test_field_check_rejects_one_changed_value(outputs, tmp_path):
    grid = checks.Grid(outputs / "estimate" / "field.csv")
    line = 3 + int(checks.sample_nodes(grid, 24, NODE_SEED)[0])

    def edit(lines):
        x, y, v = lines[line].strip().split(",")
        lines[line] = f"{x},{y},{float(v) * (1 + 1e-6)!r}\n"
        return lines

    out = corrupt(outputs, tmp_path, "estimate", "field.csv", edit)
    assert any(m.startswith("field at node")
               for m in estimate_failures(outputs, out))


def test_levelset_check_rejects_one_dropped_row(outputs, tmp_path):
    out = corrupt(outputs, tmp_path, "estimate", "levelset.csv",
                  lambda lines: lines[:-1])
    assert any(m.startswith("level set has")
               for m in estimate_failures(outputs, out))


def test_level_check_rejects_a_shifted_level(outputs, tmp_path):
    def edit(lines):
        doc = json.loads("".join(lines))
        doc["level"] *= 1 + 1e-9
        return [json.dumps(doc)]

    out = corrupt(outputs, tmp_path, "estimate", "estimate.json", edit)
    assert any(m.startswith("level ") and "quantile" in m
               for m in estimate_failures(outputs, out))


def test_start_and_ascent_checks_reject_one_reversed_path(outputs, tmp_path):
    paths = checks.read_paths(outputs / "estimate" / "paths.csv")
    pid = max(range(len(paths)), key=lambda i: len(paths[i]))

    def edit(lines):
        rows = [i for i, s in enumerate(lines) if s.startswith(f"{pid},")]
        xy = [lines[i].strip().split(",", 2)[2] for i in rows]
        for i, tail in zip(rows, reversed(xy)):
            lines[i] = ",".join(lines[i].split(",", 2)[:2] + [tail]) + "\n"
        return lines

    out = corrupt(outputs, tmp_path, "estimate", "paths.csv", edit)
    bad = estimate_failures(outputs, out)
    assert any("do not start at their data point" in m for m in bad)
    assert any(m.startswith(f"KDE drops along path {pid}") for m in bad)


def test_hausdorff_check_rejects_a_far_levelset_node(outputs):
    model = json.loads((outputs / "input" / "model.json").read_text())
    lines = [np.asarray(f["vertices"]) for f in model["filaments"]]
    rows = checks.read_levelset(outputs / "estimate" / "levelset.csv")
    d = checks.levelset_hausdorff(rows, lines)
    assert checks.check_hausdorff([d], SIGMA) == []
    far = np.vstack([rows, [[0, 0, 0.0, 0.0]]])
    d_far = checks.levelset_hausdorff(far, lines)
    assert checks.check_hausdorff([d, d_far, d_far], SIGMA) != []


def test_identity_check_rejects_one_changed_byte(outputs, tmp_path):
    out = corrupt(outputs, tmp_path, "estimate", "figure.svg",
                  lambda lines: [lines[0].replace("1.0", "1.1")] + lines[1:])
    assert checks.check_identical(outputs / "estimate", out,
                                  run.ESTIMATE_OUTPUTS) == [
        "figure.svg differs between worker counts"]


def edit_critical_point(kind, change):
    """Edit the first critical point of the given kind with change(fields)."""
    def edit(lines):
        for i, s in enumerate(lines[1:], start=1):
            fields = s.strip().split(",")
            if fields[2] == kind:
                new = change(fields)
                lines[i] = "" if new is None else ",".join(new) + "\n"
                return lines
        raise AssertionError(f"no {kind} in critical_points.csv")
    return edit


def test_gradient_check_rejects_one_moved_critical_point(outputs, tmp_path):
    def move(f):
        return [repr(float(f[0]) + 0.01 * SIGMA)] + f[1:]

    out = corrupt(outputs, tmp_path, "oracle", "critical_points.csv",
                  edit_critical_point("maximum", move))
    assert any(m.startswith("gradient") for m in oracle_failures(outputs, out))


def test_kind_check_rejects_a_relabelled_critical_point(outputs, tmp_path):
    out = corrupt(outputs, tmp_path, "oracle", "critical_points.csv",
                  edit_critical_point("minimum",
                                      lambda f: f[:2] + ["maximum"] + f[3:]))
    bad = oracle_failures(outputs, out)
    assert any(m.startswith("maximum at") and "eigenvalues" in m for m in bad)


def test_index_sum_check_rejects_a_dropped_saddle(outputs, tmp_path):
    out = corrupt(outputs, tmp_path, "oracle", "critical_points.csv",
                  edit_critical_point("saddle", lambda f: None))
    assert any(m.startswith("maxima - saddles + minima = 2")
               for m in oracle_failures(outputs, out))


def oracle_field_with(outputs, tmp_path, node, value):
    """The oracle field with one node (nearest to `node`) set to value."""
    grid = checks.Grid(outputs / "oracle" / "oracle_field.csv")
    k = int(np.argmin(np.hypot(*(grid.nodes - node).T)))

    def edit(lines):
        x, y, _ = lines[3 + k].split(",")
        lines[3 + k] = f"{x},{y},{value!r}\n"
        return lines

    return corrupt(outputs, tmp_path, "oracle", "oracle_field.csv", edit)


def test_oracle_field_check_rejects_a_negative_value(outputs, tmp_path):
    out = oracle_field_with(outputs, tmp_path, (0.5, 0.5), -1.0)
    assert "oracle field has negative or non-finite values" in \
        oracle_failures(outputs, out)


def test_oracle_field_check_rejects_mass_far_from_filaments(outputs, tmp_path):
    out = oracle_field_with(outputs, tmp_path, (0.0, 0.0), 0.5)
    assert any(m.endswith("beyond 6 sigma hold a nonzero value")
               for m in oracle_failures(outputs, out))


def test_oracle_field_check_rejects_a_top_node_off_the_filaments(
        outputs, tmp_path):
    # 2 sigma inside the first side, far from every corner
    a, b = np.asarray(run.PENTAGONS[0][:2])
    mid = (a + b) / 2
    normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
    centre = np.mean(run.PENTAGONS[0], axis=0)
    inward = normal if normal @ (centre - mid) > 0 else -normal
    out = oracle_field_with(outputs, tmp_path, mid + 2 * SIGMA * inward, 1e6)
    assert any(m.startswith("a top-3% node lies")
               for m in oracle_failures(outputs, out))
