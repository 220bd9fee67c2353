"""Golden sha256 digests of CLI outputs for fixed seeds.

These pin the output bytes of `estimate` (mean shift and RK4 flow tracer),
`oracle` and `converge` at small sizes, so that a refactor which should not change results
is checked byte for byte. The digests are tied to the numpy, scipy and
OpenBLAS builds they were computed with (numpy 2.4.6, scipy 1.17.1, OpenBLAS
0.3.31 as bundled with numpy, Python 3.11.7, x86-64) and hold for any worker
count and any OPENBLAS_NUM_THREADS: work is split into fixed chunks, and the
Gaussian weight sums are taken in fixed-shape row tiles whose rounding does
not depend on the batch or on the BLAS's threads. Another build may round
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
            "6527591c9733b53c484eb0c7990d3d01f4d737822d1a31b77dec82d7499a2f3e",
        "field.csv":
            "506ccf6edeb15d226dcfaa0346c0b32d96822f1590f885751955a197f7e712a8",
        "levelset.csv":
            "0ffef3133244b585194d384aa3ddf77473af79411357771dffb809071eb5b728",
        "figure.svg":
            "e9834ae732793bac29ad093c138301dfe275786bae76dc3d06e5f58b0c231a38",
    },
    "estimate-flow": {
        "paths.csv":
            "61c3d67d36cada776489e224373792a3ccfe22a11bcb7e5104b510fcefafd417",
        "field.csv":
            "a9b186e89649be8f8494132fbbf82cc4d30ca574196c71b85569e53bec3f09a5",
        "levelset.csv":
            "0ffef3133244b585194d384aa3ddf77473af79411357771dffb809071eb5b728",
        "figure.svg":
            "ca99c808d0f515b8eefdc8fe762b2b4e6b504318e342b5ce1b8ee7c5d413174e",
    },
    "oracle": {
        "oracle_field.csv":
            "af4e8baac489280327fde01900049c6fd48cd71824bb970206c5f3a0feb42fc8",
        "critical_points.csv":
            "a576effbc5bb240c27a2ca2e0a446da4d5e5582457ca238aa17261a475a6cf8c",
    },
    # a beta-weighted pentagon: filaments, not just clusters, on the oracle path
    "oracle-pentagon": {
        "oracle_field.csv":
            "884f2ada23afa5445bb3205afb3f610ddf485cd9977b2134fae041e01c2032ce",
        "critical_points.csv":
            "3775c2bfbf63ec5a3c29f768bc05cbdf042b4a959ddf869117af99c539475ae9",
    },
    "converge": {
        "rate_table.csv":
            "5ad80019ce031bea2175d1575e5c831ecfba971f5b7eaaa24e8d7415ecbdbd6c",
        "rate_summary.json":
            "da4293e67cd6f5bc42be81c91003edaf8fe74c8bb56e8dea3537985f13ae13ac",
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


def oracle_digests(tmp_path, model, n, sim_seed, n_mc, grid):
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", model, "--n", n, "--seed", sim_seed,
                 "--out", str(sim)]) == 0
    out = tmp_path / "oracle"
    assert main(["oracle", "--model-json", str(sim / "model.json"), "--out",
                 str(out), "--n-mc", n_mc, "--grid", grid, "--seed", "3"]) == 0
    return digests(out, GOLDEN["oracle"])


def test_oracle_digests(tmp_path):
    assert oracle_digests(tmp_path, "two-gaussian", "10", "5", "400",
                          "32") == GOLDEN["oracle"]


def test_oracle_pentagon_digests(tmp_path):
    assert oracle_digests(tmp_path, "pentagon", "60", "1", "200",
                          "40") == GOLDEN["oracle-pentagon"]


def test_converge_digests(tmp_path):
    # mean shift, the ensemble, the point estimator and path_hit_counts
    assert main(["converge", "--model", "two-gaussian", "--n", "60,120",
                 "--reps", "2", "--probes", "10", "--oracle-n-mc", "400",
                 "--oracle-r1", "0.05", "--seed", "3", "--out",
                 str(tmp_path)]) == 0
    assert digests(tmp_path, GOLDEN["converge"]) == GOLDEN["converge"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_oracle_and_converge_digests_for_worker_counts(tmp_path, monkeypatch,
                                                       workers):
    # the critical-point search runs beside the trace, and converge's runs
    # are spread over the workers; neither may move a byte
    monkeypatch.setenv("PATHDENSITY_WORKERS", workers)
    assert oracle_digests(tmp_path, "pentagon", "60", "1", "200",
                          "40") == GOLDEN["oracle-pentagon"]
    test_converge_digests(tmp_path / "converge")
