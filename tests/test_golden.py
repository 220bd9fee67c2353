"""Golden sha256 digests of CLI outputs for fixed seeds.

These pin the output bytes of `estimate` (mean shift and RK4 flow tracer),
`oracle` and `converge` at small sizes, so that a refactor which should not change results
is checked byte for byte. The digests are tied to the numpy, scipy and
OpenBLAS builds they were computed with (numpy 2.4.6, scipy 1.17.1, OpenBLAS
0.3.31 as bundled with numpy, Python 3.11.7, x86-64): another build may round
differently and move them. A change that alters output bytes on purpose
updates the digests here and gives the reason in CHANGES.md.
"""

import hashlib

import pytest

from pathdensity.cli import main

ESTIMATE_FILES = ("paths.csv", "field.csv", "levelset.csv", "figure.svg")

GOLDEN = {
    "estimate-meanshift": {
        "paths.csv":
            "1554bcf82e46998b72fe16cee3bf3c20812bd2beea4dd9d3b1e074d296cae984",
        "field.csv":
            "ec1a21453d2055c84848312ec3705c41e71cc782c7f2de3b6862440ca9ff6dbb",
        "levelset.csv":
            "0ffef3133244b585194d384aa3ddf77473af79411357771dffb809071eb5b728",
        "figure.svg":
            "30897929fdf6a1b163a49cafe7c4a44b9af164d48819dfc4f6e6cb00be4c2edc",
    },
    "estimate-flow": {
        "paths.csv":
            "e45c886f1a44a18dd7b304f3dcb7d51e96a5b4a7bec83a3859a59b2ed2b22e50",
        "field.csv":
            "b0bbfb5a48c974c92cab51dba39afad162796b647497b37c22ecceb6c7846236",
        "levelset.csv":
            "0ffef3133244b585194d384aa3ddf77473af79411357771dffb809071eb5b728",
        "figure.svg":
            "6c1a2cd6cb5b0c27f17da7b2c68e947a9d92a9799da69f474a508038ecaaacdb",
    },
    "oracle": {
        "oracle_field.csv":
            "af4e8baac489280327fde01900049c6fd48cd71824bb970206c5f3a0feb42fc8",
        "critical_points.csv":
            "621daef8844c126fd77ca55071a318951372c98f9df9e2e7ef0a953cb8fc2af3",
    },
    "converge": {
        "rate_table.csv":
            "efc3ba0d0bbfbe635ec8421eb07ef0158b3888196104ac9a38d22a40a153f7ef",
        "rate_summary.json":
            "6a7d11ea1b90cf621a8e63dabcbf2ab38b74488aad8be817ad2308dad76b028f",
    },
}


def digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


@pytest.fixture(scope="module")
def pentagon_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("pentagon")
    assert main(["simulate", "--model", "pentagon", "--n", "150", "--seed", "7",
                 "--out", str(out)]) == 0
    return out / "points.csv"


@pytest.mark.parametrize("tracer", ["meanshift", "flow"])
def test_estimate_digests(pentagon_csv, tmp_path, tracer):
    assert main(["estimate", "--points", str(pentagon_csv), "--out",
                 str(tmp_path), "--grid", "32", "--tracer", tracer]) == 0
    assert digests(tmp_path, ESTIMATE_FILES) == GOLDEN[f"estimate-{tracer}"]


def test_oracle_digests(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "two-gaussian", "--n", "10", "--seed",
                 "5", "--out", str(sim)]) == 0
    out = tmp_path / "oracle"
    assert main(["oracle", "--model-json", str(sim / "model.json"), "--out",
                 str(out), "--n-mc", "400", "--grid", "32", "--seed", "3"]) == 0
    assert digests(out, GOLDEN["oracle"]) == GOLDEN["oracle"]


def test_converge_digests(tmp_path):
    # mean shift, the ensemble, the point estimator and path_hit_counts
    assert main(["converge", "--model", "two-gaussian", "--n", "60,120",
                 "--reps", "2", "--probes", "10", "--oracle-n-mc", "400",
                 "--oracle-r1", "0.05", "--seed", "3", "--out",
                 str(tmp_path)]) == 0
    assert digests(tmp_path, GOLDEN["converge"]) == GOLDEN["converge"]
