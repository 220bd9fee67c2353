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
            "697cab41827472a82077476ed03341568992aae1227b83652c7eb9535eb16f7d",
        "field.csv":
            "6f7b5292d2270cee2bfb4103a1ddf7942b5007b580688e78f74bb65ccabac0a7",
        "levelset.csv":
            "0ffef3133244b585194d384aa3ddf77473af79411357771dffb809071eb5b728",
        "figure.svg":
            "30897929fdf6a1b163a49cafe7c4a44b9af164d48819dfc4f6e6cb00be4c2edc",
    },
    "estimate-flow": {
        "paths.csv":
            "25ad1398aa9f16fc3cd9d7bcbdd4ad02b8d56a64aaeaf35bce89f5ba5e3d054d",
        "field.csv":
            "2d1147984c9fe410778c6ea8d71f87f227716cb1aff7aef48b7e1d013e92ffaa",
        "levelset.csv":
            "0ffef3133244b585194d384aa3ddf77473af79411357771dffb809071eb5b728",
        "figure.svg":
            "d9624a4499e053b8c2ee55e49deb86882cb2421d7ddce364f3626ec71b7c266e",
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
            "0b1454f3a70b058ac4fb894032255d23b0281c38ac9bd37bd386d14383616227",
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
