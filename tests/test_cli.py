import dataclasses
import functools
import json
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdensity.cli import DataError, main, read_points_csv
from pathdensity.flow import mean_shift_paths
from pathdensity.path_density import SIMPLIFY_TOLERANCE


def run(*argv):
    return main(list(argv))


def read(path):
    return Path(path).read_bytes()


@pytest.fixture()
def pentagon_points(tmp_path):
    out = tmp_path / "sim"
    assert run("simulate", "--model", "pentagon", "--n", "120", "--seed", "3",
               "--out", str(out)) == 0
    return out


# -- simulate -----------------------------------------------------------------

def test_simulate_row_counts(tmp_path):
    out = tmp_path / "a"
    assert run("simulate", "--model", "pentagon", "--n", "500", "--seed", "1",
               "--out", str(out)) == 0
    assert len((out / "points.csv").read_text().splitlines()) == 501
    out2 = tmp_path / "b"
    assert run("simulate", "--model", "pentagon-bg", "--n", "500", "--seed", "1",
               "--out", str(out2)) == 0
    assert len((out2 / "points.csv").read_text().splitlines()) == 1001


def test_simulate_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run("simulate", "--model", "two-gaussian", "--n", "200",
                   "--seed", "42", "--out", str(out)) == 0
    assert read(a / "points.csv") == read(b / "points.csv")
    assert read(a / "model.json") == read(b / "model.json")


def test_simulate_meta_names_only_the_model_seed_and_n(tmp_path, monkeypatch):
    src = tmp_path / "src"
    assert run("simulate", "--model", "two-gaussian", "--n", "10", "--seed", "1",
               "--out", str(src)) == 0
    meta = json.loads(read(src / "model.json"))["meta"]
    assert meta == {"builtin": "two-gaussian", "seed": 1, "n": 10}
    # the same model file by relative and absolute path: equal bytes
    monkeypatch.chdir(tmp_path)
    for name, path in (("rel", "src/model.json"), ("abs", str(src / "model.json"))):
        assert run("simulate", "--model-json", path, "--n", "12", "--seed", "2",
                   "--out", name) == 0
    assert read(tmp_path / "rel" / "model.json") == read(tmp_path / "abs" / "model.json")
    assert json.loads(read(tmp_path / "rel" / "model.json"))["meta"]["builtin"] == "custom"


def test_simulate_pentagon_with_a_long_straight_side_exits_0(tmp_path):
    # seed 26's fifth side was refused as self-intersecting, with a traceback
    assert run("simulate", "--model", "pentagon", "--seed", "26", "--n", "100",
               "--out", str(tmp_path)) == 0
    assert len((tmp_path / "points.csv").read_text().splitlines()) == 101


def test_simulate_unknown_model_exits_2(tmp_path):
    assert run("simulate", "--model", "hexagon", "--seed", "1",
               "--out", str(tmp_path)) == 2


def test_simulate_requires_seed(tmp_path):
    assert run("simulate", "--model", "pentagon", "--out", str(tmp_path)) == 2


def test_simulate_from_custom_model_json(tmp_path):
    src = tmp_path / "src"
    assert run("simulate", "--model", "two-gaussian", "--n", "10", "--seed", "1",
               "--out", str(src)) == 0
    out = tmp_path / "custom"
    assert run("simulate", "--model-json", str(src / "model.json"), "--n", "37",
               "--seed", "2", "--out", str(out)) == 0
    assert len((out / "points.csv").read_text().splitlines()) == 38
    # builtin name and custom file are mutually exclusive
    assert run("simulate", "--model", "pentagon", "--model-json",
               str(src / "model.json"), "--seed", "3", "--out", str(out)) == 2


def test_arcsine_model_runs_leave_scipy_unimported(tmp_path):
    # importing scipy.special costs about 0.3 s and 18 MB of peak RSS (2-vCPU
    # x86-64); the arcsine weight's quantile has a closed form, so simulate
    # and oracle on an arcsine or builtin model need none of scipy
    import pathdensity

    model = tmp_path / "model.json"
    model.write_text(json.dumps({"version": 1, "box": [-1, 2, -1, 1],
                                 "filaments": [_FILAMENT]}))
    runs = [["simulate", "--model-json", str(model), "--n", "50"],
            ["oracle", "--model-json", str(model), "--n-mc", "50",
             "--grid", "20"],
            ["simulate", "--model", "pentagon", "--n", "50"]]
    runs = [a + ["--seed", "1", "--out", str(tmp_path / f"o{i}")]
            for i, a in enumerate(runs)]
    code = ("import sys; from pathdensity.cli import main; "
            f"rcs = [main(a) for a in {runs!r}]; "
            "print(rcs, 'scipy' in sys.modules)")
    env = {**os.environ,
           "PYTHONPATH": str(Path(pathdensity.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] False"
    # any other beta shape still goes through scipy's quantile
    other = tmp_path / "other.json"
    other.write_text(json.dumps({
        "version": 1, "box": [-1, 2, -1, 1],
        "filaments": [_FILAMENT | {"length_density":
                                   {"kind": "beta", "a": 0.7, "b": 1.9}}]}))
    out = tmp_path / "other"
    assert run("simulate", "--model-json", str(other), "--n", "37",
               "--seed", "2", "--out", str(out)) == 0
    assert len((out / "points.csv").read_text().splitlines()) == 38


# -- estimate -----------------------------------------------------------------

def test_estimate_outputs_parse(pentagon_points, tmp_path):
    out = tmp_path / "est"
    assert run("estimate", "--points", str(pentagon_points / "points.csv"),
               "--out", str(out), "--grid", "40") == 0
    for name in ("paths.csv", "field.csv", "levelset.csv", "figure.svg",
                 "estimate.json"):
        assert (out / name).exists(), name
    # paths.csv parses and covers every input point
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "path_id,step,x,y"
    ids = {int(l.split(",")[0]) for l in lines[1:]}
    assert ids == set(range(120))
    # field.csv header carries the grid shape
    head = (out / "field.csv").read_text().splitlines()
    assert head[0].startswith("# nx=40")
    assert head[2] == "x,y,value"
    # figure is well-formed xml with no external references
    svg = (out / "figure.svg").read_text()
    ET.fromstring(svg)
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
    meta = json.loads((out / "estimate.json").read_text())
    assert meta["quantile"] == 0.9


def test_estimate_quantile_flag(pentagon_points, tmp_path):
    out = tmp_path / "q"
    assert run("estimate", "--points", str(pentagon_points / "points.csv"),
               "--out", str(out), "--grid", "30", "--quantile", "0.75") == 0
    meta = json.loads((out / "estimate.json").read_text())
    assert meta["quantile"] == 0.75
    # the written level equals the data-point quantile of the written field
    from pathdensity.cli import read_points_csv
    from pathdensity.grids import GridField, GridSpec
    from pathdensity.levelset import quantile_threshold

    grid = GridSpec.from_bounds(meta["bounds"], meta["grid"])
    rows = (out / "field.csv").read_text().splitlines()[3:]
    values = np.array([float(r.split(",")[2]) for r in rows]).reshape(grid.nx,
                                                                      grid.ny)
    cloud = read_points_csv(pentagon_points / "points.csv")
    lam = quantile_threshold(GridField(grid, values), cloud, 0.75)
    assert lam == pytest.approx(meta["level"], rel=1e-12)


def _panel_polylines(svg_text, panel_index):
    """The point strings of each polyline in one panel of the figure."""
    root = ET.fromstring(svg_text)
    ns = {"s": "http://www.w3.org/2000/svg"}
    groups = root.findall("s:g", ns)
    return [pl.attrib["points"].split(" ")
            for pl in groups[panel_index].findall("s:polyline", ns)]


def _panel_polyline_starts(svg_text, panel_index):
    return [points[0] for points in _panel_polylines(svg_text, panel_index)]


def test_estimate_trim_flag_changes_panel_c(pentagon_points, tmp_path):
    out0 = tmp_path / "t0"
    out3 = tmp_path / "t3"
    for out, trim in ((out0, "0"), (out3, "3")):
        assert run("estimate", "--points", str(pentagon_points / "points.csv"),
                   "--out", str(out), "--grid", "30", "--trim", trim) == 0
    svg0 = (out0 / "figure.svg").read_text()
    svg3 = (out3 / "figure.svg").read_text()
    # panel B (all paths) identical; panel C starts differ when trimmed
    assert _panel_polyline_starts(svg0, 1) == _panel_polyline_starts(svg3, 1)
    b_starts = _panel_polyline_starts(svg3, 1)
    c_starts = _panel_polyline_starts(svg3, 2)
    assert b_starts != c_starts
    assert _panel_polyline_starts(svg0, 2) == _panel_polyline_starts(svg0, 1)


def test_trim_counts_iterates_of_the_simplified_paths(pentagon_points, tmp_path):
    # --trim 3 drops the first 3 iterates: panel C starts each path at its
    # first kept vertex at or after iterate 3
    out = tmp_path / "t3"
    assert run("estimate", "--points", str(pentagon_points / "points.csv"),
               "--out", str(out), "--grid", "30", "--trim", "3") == 0
    meta = json.loads((out / "estimate.json").read_text())
    cloud = read_points_csv(pentagon_points / "points.csv")
    paths = mean_shift_paths(cloud, meta["h"], cloud.points).simplified(
        SIMPLIFY_TOLERANCE * meta["nu"])
    rows = (out / "paths.csv").read_text().splitlines()[1:]
    assert len(rows) == len(paths.vertices)
    svg = (out / "figure.svg").read_text()
    whole = iter(_panel_polylines(svg, 1))
    expected, moved = [], 0
    for path in paths:
        iterate = path.times  # the iterate number of each kept vertex
        if len(iterate) < 2:
            continue
        line = next(whole)
        assert len(line) == len(iterate)
        k = min(np.searchsorted(iterate, 3), len(iterate) - 1)
        moved += iterate[k] != 3
        if len(iterate) - k >= 2:
            expected.append(line[k:])
    assert moved > 0  # some paths kept no vertex at iterate 3
    assert _panel_polylines(svg, 2) == expected


def test_trim_past_every_path_leaves_panel_c_empty(pentagon_points, tmp_path):
    # each path keeps only its last vertex, too few for a polyline
    out = tmp_path / "t"
    assert run("estimate", "--points", str(pentagon_points / "points.csv"),
               "--out", str(out), "--grid", "30", "--trim", "100000") == 0
    svg = (out / "figure.svg").read_text()
    assert _panel_polylines(svg, 1)
    assert _panel_polylines(svg, 2) == []


def test_estimate_malformed_csv_exits_3_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0.1,0.2\n0.3\n0.5,0.6\n")
    assert run("estimate", "--points", str(bad), "--out", str(tmp_path)) == 3
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("rows, flags, code", [
    ("0.1,0.2\nnan,0.5\n0.3,0.9\n", [], 3),
    ("0.4,0.4\n0.4,0.4\n0.4,0.4\n", [], 3),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--quantile", "1.5"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--grid", "1"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--trim", "-1"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--trim", "abc"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--bounds", "0,1,a,1"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--bounds", "0,1,0,0.6"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--h", "nan"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--h", "inf"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--nu", "nan"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--nu", "inf"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--c-h", "nan"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--c-h", "-1"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--c-nu", "0"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--bounds=-inf,inf,-1,2"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--workers", "0"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--workers", "-3"], 2),
    ("0.1,0.2\n0.5,0.5\n0.3,0.9\n", ["--tracer", "bogus"], 2),
    # spread 0.008: the default rule's bandwidth underflows to 0
    ("0.001,0.002\n0.005,0.005\n0.003,0.009\n", ["--c-h", "5e-324"], 2),
    ("0.001,0.002\n0.005,0.005\n0.003,0.009\n", ["--c-nu", "5e-324"], 2),
], ids=["nan-row", "coincident", "quantile", "grid", "negative-trim",
        "text-trim", "bounds",
        "bounds-exclude-data", "h-nan", "h-inf", "nu-nan", "nu-inf", "c-h-nan",
        "c-h-negative", "c-nu-zero", "bounds-infinite", "workers-0",
        "workers-negative", "tracer", "c-h-underflow", "c-nu-underflow"])
def test_estimate_bad_input_exit_codes(tmp_path, capsys, rows, flags, code):
    pts = tmp_path / "points.csv"
    pts.write_text("x,y\n" + rows)
    assert run("estimate", "--points", str(pts), "--out", str(tmp_path / "o"),
               *flags) == code
    assert capsys.readouterr().err.startswith("error: ")


def test_given_bandwidths_leave_the_constants_unused(tmp_path):
    pts = tmp_path / "points.csv"
    pts.write_text("x,y\n0.001,0.002\n0.005,0.005\n0.003,0.009\n")
    assert run("estimate", "--points", str(pts), "--out", str(tmp_path / "o"),
               "--grid", "10", "--h", "0.01", "--nu", "0.01",
               "--c-h", "5e-324", "--c-nu", "5e-324") == 0


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_invalid_workers_variable_exits_2(tmp_path, capsys, monkeypatch, value):
    pts = tmp_path / "points.csv"
    pts.write_text("x,y\n0.1,0.2\n0.5,0.5\n0.3,0.9\n")
    monkeypatch.setenv("PATHDENSITY_WORKERS", value)
    assert run("estimate", "--points", str(pts), "--out",
               str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: PATHDENSITY_WORKERS") and repr(value) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["oracle", "--n-mc", "30", "--grid", "8", "--seed", "1"],
    ["converge", "--n", "20,40", "--reps", "1", "--probes", "4",
     "--oracle-n-mc", "30", "--seed", "1"]], ids=["oracle", "converge"])
def test_invalid_workers_variable_exits_2_without_workers_flag(
        tmp_path, capsys, monkeypatch, two_gaussian_json, command):
    # oracle and converge read the variable too, for the critical-point
    # search beside the trace
    monkeypatch.setenv("PATHDENSITY_WORKERS", "abc")
    assert run(*command, "--model-json", str(two_gaussian_json),
               "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: PATHDENSITY_WORKERS")
    assert not (tmp_path / "o").exists()


def test_estimate_bounds_excluding_data_names_the_count(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    pts.write_text("x,y\n0.1,0.2\n0.5,0.5\n0.3,0.9\n0.7,0.95\n")
    assert run("estimate", "--points", str(pts), "--out", str(tmp_path / "o"),
               "--bounds", "0,1,0,0.6") == 2
    err = capsys.readouterr().err
    assert err == "error: --bounds exclude 2 of 4 data points\n"
    assert not (tmp_path / "o" / "field.csv").exists()


def test_non_utf8_points_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "points.csv"
    bad.write_bytes(b"\xff\xfex\x00,\x00y\x00\n\x000.1,0.2\n")
    assert run("estimate", "--points", str(bad), "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text")
    assert len(err.splitlines()) == 1


def test_points_file_with_a_byte_order_mark_gives_the_same_outputs(
        pentagon_points, tmp_path):
    # spreadsheet exports often start with a UTF-8 BOM and end lines in CRLF
    crlf = (pentagon_points / "points.csv").read_bytes().replace(b"\n", b"\r\n")
    (tmp_path / "plain.csv").write_bytes(crlf)
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + crlf)
    for name in ("plain", "bom"):
        assert run("estimate", "--points", str(tmp_path / f"{name}.csv"),
                   "--grid", "16", "--out", str(tmp_path / name)) == 0
    for f in ("paths.csv", "field.csv", "levelset.csv", "figure.svg",
              "estimate.json"):
        assert read(tmp_path / "bom" / f) == read(tmp_path / "plain" / f)


@pytest.mark.parametrize("argv, name", [
    (["estimate", "--points"], "nope.csv"),
    (["estimate", "--points"], "."),
    (["oracle", "--seed", "1", "--model-json"], "nope.json"),
    (["oracle", "--seed", "1", "--model-json"], "."),
], ids=["points-missing", "points-directory", "model-missing",
        "model-directory"])
def test_unreadable_input_path_exits_2(tmp_path, capsys, argv, name):
    path = tmp_path / name
    assert run(*argv, str(path), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


_NUMBER = st.one_of(st.floats(), st.integers().map(float)).map(repr)
_LINE = st.one_of(
    st.text(max_size=12),
    st.just("x,y"), st.just("# comment"), st.just(""),
    st.tuples(_NUMBER, _NUMBER).map(",".join),
    st.tuples(_NUMBER, _NUMBER, st.sampled_from([",", ", ", ",,", ";"]))
    .map(lambda t: t[2].join(t[:2])),
)
_FILE = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.lists(_LINE, max_size=8), st.sampled_from(["\n", "\r\n", "\r"]))
    .map(lambda t: t[1].join(t[0]).encode("utf-8")),
)


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "points.csv"


@settings(max_examples=300, deadline=None)
@given(content=_FILE)
def test_read_points_csv_returns_a_finite_cloud_or_data_error(scratch_csv, content):
    scratch_csv.write_bytes(content)
    try:
        cloud = read_points_csv(scratch_csv)
    except DataError as e:
        assert str(e).startswith(f"{scratch_csv}: ")
        return
    assert cloud.points.ndim == 2 and cloud.points.shape[1] == 2
    assert cloud.n >= 2 and np.all(np.isfinite(cloud.points))


@pytest.mark.parametrize("argv, code", [
    (["estimate", "--bounds", "0,1,0,0.6"], 2),
    (["estimate", "--grid", "1"], 2),
    (["estimate", "--tracer", "bogus"], 2),
    (["oracle", "--grid", "1"], 2),
    (["oracle", "--bounds", "0,0,0,1"], 2),
    (["simulate", "--model", "bogus", "--seed", "1"], 2),
    (["simulate", "--model-json", "WEIGHTS", "--seed", "1"], 3),
], ids=["estimate-bounds", "estimate-grid", "estimate-tracer", "oracle-grid",
        "oracle-bounds", "simulate-model", "simulate-model-json"])
def test_refused_run_leaves_no_out_directory(two_gaussian_json, tmp_path, argv,
                                             code):
    pts = tmp_path / "points.csv"
    pts.write_text("x,y\n0.1,0.2\n0.5,0.5\n0.3,0.9\n")
    bad_model = tmp_path / "model.json"
    bad_model.write_text(INVALID_MODELS["weights"])
    argv = [str(bad_model) if a == "WEIGHTS" else a for a in argv]
    inputs = {"estimate": ["--points", str(pts)],
              "oracle": ["--model-json", str(two_gaussian_json), "--seed", "1"],
              "simulate": []}[argv[0]]
    assert run(*argv, *inputs, "--out", str(tmp_path / "o")) == code
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "1"],
    ["estimate", "--points", "POINTS"],
    ["oracle", "--seed", "1", "--model-json", "MODEL"],
    ["converge", "--seed", "1", "--model-json", "MODEL"],
], ids=["simulate", "estimate", "oracle", "converge"])
def test_out_naming_a_file_exits_2(two_gaussian_json, tmp_path, capsys, argv):
    pts = tmp_path / "points.csv"
    pts.write_text("x,y\n0.1,0.2\n0.5,0.5\n0.3,0.9\n")
    names = {"POINTS": str(pts), "MODEL": str(two_gaussian_json)}
    out = tmp_path / "o"
    out.write_text("kept")
    assert run(*(names.get(a, a) for a in argv), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and len(err.splitlines()) == 1
    assert out.read_text() == "kept"


def test_mean_shift_underflow_exits_4(pentagon_points, tmp_path, capsys,
                                     monkeypatch):
    import pathdensity.cli as cli
    from pathdensity.flow import MeanShiftUnderflowError

    def underflow(*args, **kwargs):
        raise MeanShiftUnderflowError("all kernel weights underflowed")

    monkeypatch.setattr(cli, "mean_shift_paths", underflow)
    assert run("estimate", "--points", str(pentagon_points / "points.csv"),
               "--out", str(tmp_path / "o"), "--grid", "8") == 4
    assert "underflowed" in capsys.readouterr().err


def test_bandwidth_below_coordinate_resolution_exits_0(flag_inputs, tmp_path):
    # a point's distance to itself is exactly 0, so a data start keeps its
    # own kernel weight however small h is, and each ends on its own mode
    out = tmp_path / "o"
    assert run("estimate", "--points", str(flag_inputs / "points.csv"),
               "--h", "1e-12", "--nu", "0.05", "--grid", "8",
               "--out", str(out)) == 0
    data = np.loadtxt(flag_inputs / "points.csv", delimiter=",", skiprows=1)
    rows = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1)
    last = np.flatnonzero(np.diff(rows[:, 0], append=np.inf))
    np.testing.assert_allclose(rows[last, 2:], data, rtol=0, atol=1e-15)
    # a mean that rounds to a neighbouring float stops within 4 ulps of the
    # coordinates instead of stepping to and fro until max_steps
    assert np.bincount(rows[:, 0].astype(int)).max() <= 3


@pytest.mark.parametrize("max_steps", [2, None], ids=["cut", "golden"])
def test_estimate_counts_paths_that_did_not_converge(tmp_path, capsys,
                                                    monkeypatch, max_steps):
    # the input of the golden mean-shift run, on which every path converges
    import pathdensity.cli as cli

    if max_steps is not None:
        monkeypatch.setattr(cli, "mean_shift_paths", functools.partial(
            cli.mean_shift_paths, max_steps=max_steps))
    sim = tmp_path / "sim"
    assert run("simulate", "--model", "pentagon", "--n", "150", "--seed", "7",
               "--out", str(sim)) == 0
    capsys.readouterr()
    assert run("estimate", "--points", str(sim / "points.csv"), "--grid", "32",
               "--out", str(tmp_path / "o")) == 0
    warned = re.findall(r"warning: (\d+) of 150 paths did not converge",
                        capsys.readouterr().err)
    if max_steps is None:
        assert warned == []
    else:
        assert len(warned) == 1 and int(warned[0]) > 0


@pytest.mark.parametrize("outlier", [True, False], ids=["outlier", "golden"])
def test_estimate_flags_a_far_outlier_that_sets_the_bandwidths(tmp_path, capsys,
                                                               outlier):
    if outlier:  # one point sets the spread, and so h and nu
        rng = np.random.default_rng(0)
        points = np.vstack([rng.random((300, 2)), [[1e6, 1e6]]])
        csv = tmp_path / "points.csv"
        np.savetxt(csv, points, delimiter=",", header="x,y", comments="")
    else:  # the input of the golden estimate runs
        assert run("simulate", "--model", "pentagon", "--n", "150", "--seed", "7",
                   "--out", str(tmp_path / "sim")) == 0
        csv = tmp_path / "sim" / "points.csv"
    capsys.readouterr()
    assert run("estimate", "--points", str(csv), "--grid", "40",
               "--out", str(tmp_path / "o")) == 0
    warned = [s for s in capsys.readouterr().err.splitlines()
              if s.startswith("warning:")]
    if outlier:
        assert len(warned) == 1 and "far outliers" in warned[0]
    else:
        assert warned == []


def test_oracle_counts_paths_that_did_not_converge(two_gaussian_json, tmp_path,
                                                   capsys, monkeypatch):
    import pathdensity.oracle as oracle

    flow_config = oracle.model_flow_config
    monkeypatch.setattr(oracle, "model_flow_config", lambda model: dataclasses.replace(
        flow_config(model), max_steps=2))
    assert run("oracle", "--model-json", str(two_gaussian_json), "--n-mc", "40",
               "--grid", "8", "--seed", "1", "--out", str(tmp_path / "o")) == 0
    assert re.search(r"warning: [1-9]\d* of 40 paths did not converge",
                     capsys.readouterr().err)


def test_converge_counts_truth_paths_that_did_not_converge(tmp_path, capsys,
                                                           monkeypatch):
    import pathdensity.oracle as oracle

    flow_config = oracle.model_flow_config
    monkeypatch.setattr(oracle, "model_flow_config", lambda model: dataclasses.replace(
        flow_config(model), max_steps=2))
    out = tmp_path / "c"
    assert run("converge", "--model", "two-gaussian", "--n", "20,40", "--reps", "1",
               "--probes", "4", "--oracle-n-mc", "30", "--seed", "1",
               "--out", str(out)) == 0
    assert re.search(r"warning: [1-9]\d* of 30 paths did not converge",
                     capsys.readouterr().err)
    # the count stays out of the golden-hashed summary
    assert set(json.loads(read(out / "rate_summary.json"))["meta"]) == {
        "seed", "oracle_n_mc", "oracle_r1", "c_h", "c_nu", "exclusion_factor"}


def test_estimate_deterministic_across_worker_counts(pentagon_points, tmp_path,
                                                     monkeypatch):
    outs = []
    for tag, workers in (("w1", "1"), ("w8", "8")):
        out = tmp_path / tag
        monkeypatch.setenv("PATHDENSITY_WORKERS", workers)
        assert run("estimate", "--points", str(pentagon_points / "points.csv"),
                   "--out", str(out), "--grid", "40") == 0
        outs.append(out)
    for name in ("paths.csv", "field.csv", "levelset.csv", "figure.svg"):
        assert read(outs[0] / name) == read(outs[1] / name), name


def test_estimate_flow_tracer_runs(pentagon_points, tmp_path):
    out = tmp_path / "flow"
    assert run("estimate", "--points", str(pentagon_points / "points.csv"),
               "--out", str(out), "--grid", "24", "--tracer", "flow") == 0
    assert (out / "field.csv").exists()


# -- flags of simulate, oracle and converge ----------------------------------

@pytest.fixture(scope="module")
def two_gaussian_json(tmp_path_factory):
    out = tmp_path_factory.mktemp("tg")
    assert run("simulate", "--model", "two-gaussian", "--n", "10", "--seed", "1",
               "--out", str(out)) == 0
    return out / "model.json"


FAST_CONVERGE = ["--oracle-n-mc", "200", "--probes", "4"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "0"],
    ["oracle", "--grid", "1"],
    ["oracle", "--bounds", "0,0,0,1"],
    ["oracle", "--n-mc", "0"],
    ["oracle", "--r1", "-0.1"],
    ["converge", "--n", "100,200", "--oracle-n-mc", "200", "--probes", "1"],
    ["converge", "--n", "10,x", *FAST_CONVERGE],
    ["converge", "--n", "1,50", *FAST_CONVERGE],
    ["converge", "--n", "50", "--reps", "2", *FAST_CONVERGE],
    ["converge", "--n", "50,100", "--reps", "0", *FAST_CONVERGE],
    ["converge", "--n", "50,100", "--reps", "1", "--oracle-n-mc", "0",
     "--probes", "4"],
    ["converge", "--n", "50,100", "--reps", "1", "--oracle-r1", "0",
     *FAST_CONVERGE],
    ["oracle", "--bounds=-inf,inf,-3,3"],
    ["oracle", "--r1", "inf"],
    ["oracle", "--r1", "1e300"],
    ["converge", "--n", "50,100", "--reps", "1", "--oracle-r1", "inf",
     *FAST_CONVERGE],
    ["converge", "--n", "50,100", "--reps", "1", "--oracle-r1", "1e300",
     *FAST_CONVERGE],
], ids=["simulate-n", "oracle-grid", "oracle-bounds", "oracle-n-mc",
        "oracle-r1", "converge-probes", "converge-n-text", "converge-n-1",
        "converge-one-size", "converge-reps", "converge-oracle-n-mc",
        "converge-oracle-r1", "oracle-bounds-infinite", "oracle-r1-inf",
        "oracle-r1-huge", "converge-oracle-r1-inf",
        "converge-oracle-r1-huge"])
def test_bad_flag_exit_codes(two_gaussian_json, tmp_path, capsys, argv):
    assert run(*argv, "--model-json", str(two_gaussian_json), "--seed", "1",
               "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: ")


_CLUSTER = {"center": [0.0, 0.0], "sigma": 0.5, "weight": 1.0}
INVALID_MODELS = {
    "not-json": "{ not json",
    "no-box": json.dumps({"version": 1, "clusters": [_CLUSTER]}),
    "infinite-box": json.dumps({"version": 1, "box": [-np.inf, np.inf, -2, 2],
                                "clusters": [_CLUSTER]}),
    "weights": json.dumps({"version": 1, "box": [-2, 2, -2, 2],
                           "background_weight": 0.5,
                           "clusters": [{**_CLUSTER, "weight": 0.2}]}),
    "self-intersecting": json.dumps({
        "version": 1, "box": [-1, 2, -1, 2],
        "filaments": [{"vertices": [[0, 0], [1, 1], [1, 0], [0, 1]],
                       "sigma": 0.05, "weight": 1.0}]}),
    # a list or number where the model needs an object
    "top-level-list": "[]",
    "top-level-number": "3",
    "filament-list": json.dumps({"version": 1, "box": [-1, 2, -1, 1],
                                 "filaments": [[1, 2]]}),
}
# one parameter of a one-filament or one-cluster model made non-finite,
# non-positive or of the wrong length (json writes nan and inf as NaN and
# Infinity)
_FILAMENT = {"vertices": [[0.0, 0.0], [1.0, 0.0]], "sigma": 0.05, "weight": 1.0,
             "length_density": {"kind": "beta", "a": 0.5, "b": 0.5}}
for _kind, _filament, _cluster in [
        ("filament-sigma-nan", {"sigma": np.nan}, None),
        ("filament-sigma-inf", {"sigma": np.inf}, None),
        ("filament-vertex-nan", {"vertices": [[0.0, 0.0], [1.0, np.nan]]}, None),
        ("beta-a-negative", {"length_density": {"kind": "beta", "a": -1.0}}, None),
        ("beta-a-zero", {"length_density": {"kind": "beta", "a": 0.0}}, None),
        ("beta-b-inf", {"length_density": {"kind": "beta", "b": np.inf}}, None),
        ("cluster-sigma-nan", None, {"sigma": np.nan}),
        ("cluster-center-nan", None, {"center": [np.nan, 0.0]}),
        ("cluster-center-3d", None, {"center": [0.0, 0.0, 0.0]}),
        ("cluster-weight-nan", None, {"weight": np.nan})]:
    INVALID_MODELS[_kind] = json.dumps(
        {"version": 1, "box": [-1, 2, -1, 1]}
        | ({"filaments": [_FILAMENT | _filament]} if _filament is not None
           else {"clusters": [_CLUSTER | _cluster]}))


@pytest.mark.parametrize("kind", sorted(INVALID_MODELS))
@pytest.mark.parametrize("argv", [
    ["oracle"],
    ["converge", "--n", "50,100", "--reps", "1", *FAST_CONVERGE],
    ["simulate", "--n", "10"],
], ids=["oracle", "converge", "simulate"])
def test_invalid_model_file_exits_3(tmp_path, capsys, argv, kind):
    bad = tmp_path / "model.json"
    bad.write_text(INVALID_MODELS[kind])
    assert run(*argv, "--model-json", str(bad), "--seed", "1",
               "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["oracle"],
    ["converge", "--n", "50,100", "--reps", "1", *FAST_CONVERGE],
], ids=["oracle", "converge"])
def test_model_with_nothing_to_trace_exits_3(tmp_path, capsys, argv):
    # background only: no filament or cluster sets the tracing scale, nor
    # does a cluster of weight 0, which is not in the density
    bg = tmp_path / "model.json"
    for clusters in ([], [{**_CLUSTER, "weight": 0.0}]):
        bg.write_text(json.dumps({"version": 1, "box": [0, 1, 0, 1],
                                  "background_weight": 1.0, "clusters": clusters}))
        assert run(*argv, "--model-json", str(bg), "--seed", "1",
                   "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bg) in err
        assert not (tmp_path / "o").exists()


def test_zero_weight_component_leaves_oracle_outputs_unchanged(pentagon_points,
                                                               tmp_path):
    # a wide cluster of weight 0 must not set the step, r1 or bounds pad
    doc = json.loads((pentagon_points / "model.json").read_text())
    doc["clusters"] = [{"center": [0.5, 0.5], "sigma": 1.0, "weight": 0.0}]
    padded = tmp_path / "padded.json"
    padded.write_text(json.dumps(doc))
    for model, out in ((pentagon_points / "model.json", "plain"),
                       (padded, "padded")):
        assert run("oracle", "--model-json", str(model), "--n-mc", "100",
                   "--grid", "16", "--seed", "1", "--out", str(tmp_path / out)) == 0
    for name in ("oracle_field.csv", "critical_points.csv"):
        assert read(tmp_path / "plain" / name) == read(tmp_path / "padded" / name)


# -- oracle -------------------------------------------------------------------

def test_oracle_requires_model(tmp_path):
    assert run("oracle", "--out", str(tmp_path), "--seed", "1") == 2


def test_oracle_smoke(tmp_path):
    sim = tmp_path / "sim"
    assert run("simulate", "--model", "two-gaussian", "--n", "50", "--seed", "2",
               "--out", str(sim)) == 0
    out = tmp_path / "oracle"
    assert run("oracle", "--model-json", str(sim / "model.json"),
               "--out", str(out), "--grid", "24", "--n-mc", "800",
               "--seed", "7") == 0
    assert (out / "oracle_field.csv").exists()
    kinds = [l.split(",")[2] for l in
             (out / "critical_points.csv").read_text().splitlines()[1:]]
    assert kinds.count("maximum") == 2
    assert kinds.count("saddle") == 1


def test_oracle_default_r1_is_bounded_by_the_grid(two_gaussian_json, tmp_path,
                                                  capsys, monkeypatch):
    # the default r1 (sigma / 3 = 0.167 here) against a grid of side 0.01:
    # its stencil would hold about 1.8e8 nodes, so counting must never start
    def refuse(*args, **kwargs):
        raise AssertionError("path_hit_counts reached")

    monkeypatch.setattr("pathdensity.oracle.path_hit_counts", refuse)
    assert run("oracle", "--model-json", str(two_gaussian_json), "--seed", "1",
               "--bounds", "0,0.01,0,0.01", "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the default --r1 ")
    assert not (tmp_path / "o").exists()


# -- converge -----------------------------------------------------------------

def test_converge_row_count_and_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run("converge", "--model", "two-gaussian", "--n", "100,200",
                   "--reps", "2", "--seed", "7", "--out", str(out),
                   "--probes", "8", "--oracle-n-mc", "2000") == 0
        outs.append(out)
    rows = (outs[0] / "rate_table.csv").read_text().splitlines()
    assert rows[0] == "n,replicate,sup_error"
    assert len(rows) == 1 + 2 * 2
    assert read(outs[0] / "rate_table.csv") == read(outs[1] / "rate_table.csv")
    summary = json.loads((outs[0] / "rate_summary.json").read_text())
    assert np.isfinite(summary["slope"])


# -- config file --------------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"model": "two-gaussian", "n": 77, "seed": 5,
                               "out": str(tmp_path / "sim")}))
    assert run("--config", str(cfg), "simulate") == 0
    pts = (tmp_path / "sim" / "points.csv").read_text().splitlines()
    assert len(pts) == 78


def test_config_numbers_give_the_bytes_of_the_flags(flag_inputs, tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"grid": 12, "quantile": 0.85, "h": 0.1}))
    points = str(flag_inputs / "points.csv")
    assert run("--config", str(cfg), "estimate", "--points", points,
               "--out", str(tmp_path / "a")) == 0
    assert run("estimate", "--points", points, "--grid", "12", "--quantile",
               "0.85", "--h", "0.1", "--out", str(tmp_path / "b")) == 0
    for name in ("field.csv", "levelset.csv", "estimate.json"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name), name


@pytest.mark.parametrize("command, config", [
    ("simulate", {"seed": 1.5}),
    ("simulate", {"seed": True}),
    ("estimate", {"quantile": None}),
    ("estimate", {"grid": 12.7}),
    ("oracle", {"n_mc": 5.5, "seed": 1}),
    ("oracle", {"r1": {"value": 0.1}, "seed": 1}),
    ("converge", {"n": 200, "seed": 1}),
    ("converge", {"probes": [8, 8], "seed": 1}),
])
def test_config_value_of_the_wrong_type_exits_2(flag_inputs, two_gaussian_json,
                                                tmp_path, capsys, command,
                                                config):
    # every value reaches its flag as the string the command line would give
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(config))
    inputs = {"simulate": [], "converge": [],
              "estimate": ["--points", str(flag_inputs / "points.csv")],
              "oracle": ["--model-json", str(two_gaussian_json)]}[command]
    try:
        code = main(["--config", str(cfg), command, *inputs,
                     "--out", str(tmp_path / "o")])
    except SystemExit as e:  # argparse refusing a converted value
        code = e.code
    assert code == 2
    assert not (tmp_path / "o").exists()
    key = next(iter(config))
    err = capsys.readouterr().err
    assert f"'{key}'" in err or f"--{key.replace('_', '-')}" in err


@pytest.mark.parametrize("argv, message", [
    (["converge", "--model", "pentagon", "--seed", "1", "--out", "{out}"],
     "converge needs --model two-gaussian or --model-json"),
    (["--config", "{missing}", "simulate", "--seed", "1", "--out", "{out}"],
     "cannot read config: "),
    (["--config", "{listed}", "simulate", "--seed", "1", "--out", "{out}"],
     "config must be a JSON object"),
    (["estimate", "--points", "{points}", "--out", "{out}", "--config"],
     "--config needs a file name"),
], ids=["converge-model", "config-missing", "config-list", "config-no-name"])
def test_documented_usage_errors_exit_2(flag_inputs, tmp_path, capsys, argv,
                                        message):
    names = {"points": flag_inputs / "points.csv", "out": tmp_path / "o",
             "missing": tmp_path / "missing.json", "listed": tmp_path / "list.json"}
    names["listed"].write_text("[]")
    assert run(*(a.format(**names) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_config_rejects_keys_no_flag_uses(two_gaussian_json, tmp_path, capsys):
    # a model file is not a config file: none of its keys is a flag
    assert run("--config", str(two_gaussian_json), "simulate", "--seed", "1",
               "--out", str(tmp_path / "sim")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "background_weight" in err
    assert not (tmp_path / "sim").exists()


# -- exit codes under arbitrary flag values ------------------------------------
# Every flag is drawn from values that break naive checks (nan, +-inf, 0,
# negative, tiny, huge) as well as ordinary ones. Sizes stay tiny so that no
# draw makes a run allocate in proportion to a drawn value.

_FLOAT = st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -1.0,
                          5e-324, 1e-300, 1e300, 0.05, 0.3, 2.0])
_BOUNDS = st.sampled_from(["0,1,0,1", "-3,3,-3,3", "0,0,0,1", "-inf,inf,-1,2",
                           "nan,1,0,1", "-1e308,1e308,0,1"])


def _flags(**draws):
    """Optional flags: `--name=value` for every draw that is not None."""
    return st.fixed_dictionaries({k: st.none() | v for k, v in draws.items()}).map(
        lambda d: [f"--{k.replace('_', '-')}={v}" for k, v in d.items()
                   if v is not None])


_COMMANDS = {
    "simulate": st.tuples(
        st.just(["simulate", "--n=30"]),
        _flags(model=st.sampled_from(["pentagon", "pentagon-bg", "two-gaussian",
                                      "bogus"]),
               n=st.integers(-2, 60), seed=st.integers(-2, 5))),
    "estimate": st.tuples(
        st.just(["estimate", "--grid=12"]),
        _flags(h=_FLOAT, nu=_FLOAT, c_h=_FLOAT, c_nu=_FLOAT, quantile=_FLOAT,
               grid=st.integers(-2, 16), bounds=_BOUNDS,
               trim=st.integers(-2, 4).map(str) | st.just("auto"),
               tracer=st.sampled_from(["meanshift", "flow", "bogus"]),
               workers=st.integers(-3, 3))),
    "oracle": st.tuples(
        st.just(["oracle", "--grid=10", "--n-mc=30", "--seed=1"]),
        _flags(grid=st.integers(-2, 16), n_mc=st.integers(-2, 50), r1=_FLOAT,
               bounds=_BOUNDS, seed=st.integers(-2, 5))),
    "converge": st.tuples(
        st.just(["converge", "--n=20,40", "--reps=1", "--probes=4",
                 "--oracle-n-mc=30", "--seed=1"]),
        _flags(n=st.sampled_from(["2,3", "20,40", "60", "0,5", "x"]),
               reps=st.integers(-1, 2), probes=st.integers(-1, 6),
               oracle_n_mc=st.integers(-2, 50), oracle_r1=_FLOAT,
               seed=st.integers(-2, 5))),
}


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("flags")
    assert run("simulate", "--model", "pentagon", "--n", "60", "--seed", "2",
               "--out", str(out)) == 0
    return out


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_any_flag_values_give_a_documented_exit_code(flag_inputs,
                                                     two_gaussian_json, command):
    inputs = {"simulate": [], "converge": [],
              "estimate": ["--points", str(flag_inputs / "points.csv")],
              "oracle": ["--model-json", str(two_gaussian_json)]}[command]
    out = flag_inputs / "o"

    @settings(max_examples=50, deadline=None)
    @given(argv=_COMMANDS[command])
    def check(argv):
        base, flags = argv
        shutil.rmtree(out, ignore_errors=True)
        code = main([*base, *inputs, *flags, "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code in (2, 3):
            assert not out.exists()

    check()
