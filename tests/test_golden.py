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
            "f552bb5a8f2741278d6b4a51db8a53ea11db30161a2745331ac6dc52c4c79220",
        "field.csv":
            "8c1eeec143f2d680744ad8605953134fb7482fdd3a69af4ba47b4d307abad47b",
        "levelset.csv":
            "0ffef3133244b585194d384aa3ddf77473af79411357771dffb809071eb5b728",
        "figure.svg":
            "30897929fdf6a1b163a49cafe7c4a44b9af164d48819dfc4f6e6cb00be4c2edc",
    },
    "estimate-flow": {
        "paths.csv":
            "14e885c8898eb2bcaf8150adf5f7471a8ecbe44c32df530e8f112173cb52729e",
        "field.csv":
            "434350a24cc37e1d6cdd1b9d64b3cccbf7ae9a9837995ee43b7672a3a9466350",
        "levelset.csv":
            "0ffef3133244b585194d384aa3ddf77473af79411357771dffb809071eb5b728",
        "figure.svg":
            "d9624a4499e053b8c2ee55e49deb86882cb2421d7ddce364f3626ec71b7c266e",
    },
    "oracle": {
        "oracle_field.csv":
            "af4e8baac489280327fde01900049c6fd48cd71824bb970206c5f3a0feb42fc8",
        "critical_points.csv":
            "621daef8844c126fd77ca55071a318951372c98f9df9e2e7ef0a953cb8fc2af3",
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
