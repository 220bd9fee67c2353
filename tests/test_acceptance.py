"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS line (a failed assert reports through pytest instead).

Criterion 4d checks the saddle four-sum identity in its limit form,
p(s) = lim_{eps -> 0} sum_i p(s + eps u_i), with u_i the four closest-approach
directions at the two-gaussian saddle s = (0, 0). That model carries no
concentrated flux through s: the ball measure there scales like r^2, so
p(s) = 0, while the four-sum is O(eps). A ratio p(s) / four-sum at one eps is
therefore ~0 at every scale (measured: -0.10 at eps = 0.025) and says nothing
about the identity. Instead the four-sum is measured at eps = 0.025, 0.05,
0.1 (0.011, 0.022, 0.047 on the fixture batch), fitted as a line in eps and
extrapolated to eps = 0; the intercept matches p(s) = -0.001 within a
bootstrap standard error of about 0.005.
"""

import json
import time

import numpy as np
import pytest

from pathdensity.cli import main as cli_main
from pathdensity.flow import (FlowConfig, find_critical_points,
                              mean_shift_paths, trace_ascent_paths)
from pathdensity.grids import GridSpec
from pathdensity.kernels import (KernelDensityField, PointCloud, kde_density,
                                 kde_gradient)
from pathdensity.levelset import (containment_check, directed_hausdorff,
                                  hausdorff_distance, level_set,
                                  quantile_threshold)
from pathdensity.model import (FilamentModel, cluster_model,
                               random_pentagon_model, two_gaussian_model)
from pathdensity.oracle import (convergence_experiment, default_r1,
                                model_flow_config, oracle_field,
                                point_density_estimate, sample_and_trace)
from pathdensity.path_density import (default_bandwidths,
                                      estimate_path_density,
                                      path_density_field)

from conftest import (QuadraticPeakField, fd_gradient, fd_hessian,
                      saddle_four_sum)

TG_SIGMA = 0.5
# tangent directions at the saddle scale with the Hessian eigenvalues:
# |y| / |x| = sqrt(lambda_unstable / lambda_stable) = sqrt(3) for this model
_ANG = np.arctan(np.sqrt(3.0))
FOUR_SUM_DIRECTIONS = np.array(
    [[np.cos(_ANG), np.sin(_ANG)], [np.cos(_ANG), -np.sin(_ANG)],
     [-np.cos(_ANG), np.sin(_ANG)], [-np.cos(_ANG), -np.sin(_ANG)]])
FOUR_SUM_EPS = 0.05 * TG_SIGMA * np.array([1.0, 2.0, 4.0])
FOUR_SUM_POINTS = np.concatenate([e * FOUR_SUM_DIRECTIONS for e in FOUR_SUM_EPS])
FOUR_SUM_R1 = 0.008
LINEARITY_PROBES = np.array([[0.5, 0.0], [-0.5, 0.0], [0.5, 0.3],
                             [-0.4, -0.3], [0.3, 0.45]])
LINEARITY_R0 = 0.02


def report(num, name, elapsed, budget):
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.1f}s >= {budget}s"
    print(f"ACCEPTANCE {num} ({name}): PASS in {elapsed:.1f}s (budget {budget:.0f}s)")


@pytest.fixture(scope="module")
def tg_model():
    return two_gaussian_model()  # means (+-1, 0), sigma 0.5


@pytest.fixture(scope="module")
def tg_batch(tg_model):
    """4e5 true-field paths, step-refined near every ball query they serve."""
    centers = [(0.0, 0.0)] + [tuple(q) for q in FOUR_SUM_POINTS] \
        + [tuple(p) for p in LINEARITY_PROBES]
    radii = [FOUR_SUM_R1] * (1 + len(FOUR_SUM_POINTS)) \
        + [LINEARITY_R0] * len(LINEARITY_PROBES)
    return sample_and_trace(tg_model, 400_000, np.random.default_rng(101),
                            refine_disks=(centers, radii))


@pytest.fixture(scope="module")
def pentagon():
    model, cloud = random_pentagon_model(np.random.default_rng(1), n=500)
    return model, cloud


@pytest.fixture(scope="module")
def pentagon_critical(pentagon):
    model, _ = pentagon
    return find_critical_points(model, model.box,
                                model_flow_config(model).grad_tolerance,
                                seeds_per_axis=24)


@pytest.fixture(scope="module")
def pentagon_segs(pentagon):
    model, _ = pentagon
    return sample_and_trace(model, 10_000, np.random.default_rng(7))


# -- 1. quadratic-flow exactness ----------------------------------------------

def test_criterion_1_quadratic_flow():
    t0 = time.time()
    field = QuadraticPeakField()
    rng = np.random.default_rng(42)
    r = 10.0 * np.sqrt(rng.random(50))
    ang = 2 * np.pi * rng.random(50)
    starts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    cfg = FlowConfig(step_scale=0.5, grad_tolerance=1e-7,
                     min_displacement=1e-12, max_time_step=0.1)
    paths = trace_ascent_paths(field, starts, cfg)
    worst_end = max(np.hypot(*p.vertices[-1]) for p in paths)
    worst_vertex = max(
        np.max(np.hypot(*(p.vertices - p.vertices[:1]
                          * np.exp(-p.times)[:, None]).T))
        for p in paths)
    assert worst_end < 1e-6
    assert worst_vertex < 1e-5
    report(1, "quadratic flow exactness", time.time() - t0, 1.0)


# -- 2. derivative oracles ----------------------------------------------------

def test_criterion_2_derivative_oracles(pentagon):
    t0 = time.time()
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.standard_normal((60, 2)))
    h = 0.45
    step = 1e-5 * h
    for x in rng.uniform(-1.5, 1.5, (100, 2)):
        g = kde_gradient(cloud, h, x)
        fd = fd_gradient(lambda p: kde_density(cloud, h, p), x, step)
        assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(g)
        H = KernelDensityField(cloud, h).derivatives(x, 2)[2]
        fdH = fd_hessian(lambda p: kde_gradient(cloud, h, p), x, step)
        assert np.linalg.norm(H - fdH) <= 1e-5 * np.linalg.norm(H)

    model, _ = pentagon
    step = 1e-5 * model.max_sigma
    for x in rng.uniform(0.15, 0.85, (100, 2)):
        g = model.gradient(x)
        fd = fd_gradient(lambda p: model.value(p), x, step)
        assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(g)
        H = model.hessian(x)
        fdH = fd_hessian(lambda p: model.gradient(p), x, step)
        assert np.linalg.norm(H - fdH) <= 1e-5 * np.linalg.norm(H)
    report(2, "derivative oracles", time.time() - t0, 5.0)


# -- 3. density normalization -------------------------------------------------

def test_criterion_3_density_normalization(pentagon):
    t0 = time.time()
    model, cloud = pentagon
    h = default_bandwidths(cloud.n, cloud.spread).h
    lo = cloud.points.min() - 8 * h
    hi = cloud.points.max() + 8 * h
    xs = np.linspace(lo, hi, 240)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vals = kde_density(cloud, h,
                       np.column_stack([gx.ravel(), gy.ravel()])).reshape(240, 240)
    kde_total = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
    assert abs(kde_total - 1.0) < 1e-3

    sig = model.max_sigma
    xs = np.linspace(-8 * sig, 1 + 8 * sig, 200)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vals = model.value(np.column_stack([gx.ravel(), gy.ravel()])).reshape(200, 200)
    model_total = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
    assert abs(model_total - 1.0) < 1e-3
    report(3, "density normalization", time.time() - t0, 30.0)


# -- 4. path density at critical structures -----------------------------------

def test_criterion_4a_exterior_probe(tg_batch):
    t0 = time.time()
    est = point_density_estimate(tg_batch, (2.5, 1.8), 0.02)
    assert abs(est.value) <= 3 * est.std_error + 1e-9
    report("4a", "path density ~ 0 at exterior probe", time.time() - t0, 600.0)


def test_criterion_4b_constructed_minimum():
    t0 = time.time()
    centers = [(0.0, 1.0), (-0.866, -0.5), (0.866, -0.5)]
    model = cluster_model(centers, 0.5, (-3, 3, -3, 3))
    crit = find_critical_points(model, model.box, 1e-10)
    minimum = next(c for c in crit if c.kind == "minimum")
    segs = sample_and_trace(model, 100_000, np.random.default_rng(13),
                            refine_disks=([minimum.location], [0.02]))
    est = point_density_estimate(segs, minimum.location, 0.02)
    assert abs(est.value) <= 3 * est.std_error + 1e-9
    report("4b", "path density ~ 0 at a local minimum", time.time() - t0, 600.0)


def test_criterion_4c_ray_monotone(tg_model):
    t0 = time.time()
    probes = [(0.25, 0.0), (0.5, 0.0), (0.75, 0.0)]  # approaching the mode at (1,0)
    seq = np.random.SeedSequence(606)
    vals = np.empty((20, 3))
    for rep, child in enumerate(seq.spawn(20)):
        segs = sample_and_trace(tg_model, 20_000, np.random.default_rng(child))
        for j, p in enumerate(probes):
            vals[rep, j] = point_density_estimate(segs, p, 0.02).value
    med = np.median(vals, axis=0)
    print(f"  ray medians toward mode: {med.round(4)}")
    assert med[0] < med[1] < med[2]
    report("4c", "path density grows along a ray to the mode",
           time.time() - t0, 600.0)


def test_criterion_4d_saddle_four_sum(tg_batch):
    """p(s) = lim_{eps -> 0} sum_i p(s + eps u_i) at the saddle s = (0, 0).

    The limit is taken by fitting the four-sum as a line in eps over
    eps = 0.05 sigma x (1, 2, 4); its intercept must match p(s) within 3
    bootstrap standard errors, and the slope must be positive so that the
    fit resolves eps. (A ratio p(s) / four-sum at one eps is ~0 here: see
    the module docstring.)
    """
    t0 = time.time()
    check = saddle_four_sum(tg_batch, (0.0, 0.0), FOUR_SUM_DIRECTIONS,
                            FOUR_SUM_EPS, FOUR_SUM_R1, np.random.default_rng(23))
    # ball-fraction scaling at the saddle, for the record
    md = tg_batch.distances((0.0, 0.0))[0]
    scaling = {r: round(float((md <= r).mean() / r), 5)
               for r in (0.0125, 0.025, 0.05)}
    print(f"  p(saddle) = {check.at_saddle:.5f}")
    for e, total in zip(check.eps, check.four_sums):
        print(f"  four-sum at eps {e:.4f} = {total:.5f}")
    print(f"  fit four-sum = {check.beta[0]:.5f} + {check.beta[1]:.4f} eps; "
          f"p(saddle) - intercept = {check.gap:.5f} (bootstrap se {check.se:.5f})")
    print(f"  pi(B(0,r))/r scaling: {scaling} (linear in r: p(saddle) = 0)")
    assert check.holds, (f"slope {check.beta[1]:.4f}, gap {check.gap:.5f}, "
                         f"3 se {3 * check.se:.5f}")
    report("4d", "saddle four-sum identity as eps -> 0", time.time() - t0, 600.0)


# -- 5. path measure linear in the radius --------------------------------------

def test_criterion_5_measure_linearity(tg_batch):
    t0 = time.time()
    radii = np.array([0.5, 1.0, 2.0]) * LINEARITY_R0
    X = np.column_stack([np.ones(3), radii])
    rng = np.random.default_rng(17)
    n = tg_batch.n_paths
    for p in LINEARITY_PROBES:
        md = tg_batch.distances(p)[0]
        hits = md[:, None] <= radii[None, :]
        f = hits.mean(axis=0)
        w = 1.0 / np.maximum(f * (1 - f) / n, 1e-18)
        A = X.T @ (w[:, None] * X)
        beta = np.linalg.solve(A, X.T @ (w * f))
        boots = np.empty(200)
        for b in range(200):
            fb = hits[rng.integers(0, n, n)].mean(axis=0)
            boots[b] = np.linalg.solve(A, X.T @ (w * fb))[0]
        se = float(boots.std(ddof=1))
        assert abs(beta[0]) <= 3 * se, f"probe {p}: intercept {beta[0]:.2e} se {se:.2e}"
    report(5, "path measure linear in radius", time.time() - t0, 300.0)


# -- 6. estimator convergence trend --------------------------------------------

def test_criterion_6_convergence_trend(tg_model):
    t0 = time.time()
    probe = GridSpec(-2.5, 2.5, -2.0, 2.0, 20, 20)
    table = convergence_experiment(tg_model, [200, 800, 3200], 10, probe,
                                   seed=2024, oracle_n_mc=100_000,
                                   oracle_r1=0.02)
    med = table.median_by_n()
    med_err = table.median_error_by_n()
    print(f"  median sup-error: {med}   slope {table.slope:.3f} "
          f"+- {table.slope_stderr:.3f}")
    print(f"  median of median-over-probes error: {med_err}")
    assert med[200] > med[800] > med[3200]
    assert med_err[200] > med_err[800] > med_err[3200]
    assert -0.5 <= table.slope <= -0.05
    report(6, "estimator error decreasing in n", time.time() - t0, 1200.0)


# -- 7. level-set containment on the oracle field ------------------------------

def test_criterion_7_containment(pentagon, pentagon_critical, pentagon_segs):
    t0 = time.time()
    model, cloud = pentagon
    maxima = [c.location for c in pentagon_critical if c.kind == "maximum"]
    saddles = [c.location for c in pentagon_critical if c.kind == "saddle"]
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 200, 200)
    fld = oracle_field(pentagon_segs, grid, default_r1(model))
    lam = quantile_threshold(fld, cloud, 0.9)
    ls = level_set(fld, lam)
    eps = 2 * np.hypot(grid.dx, grid.dy)
    nu = default_bandwidths(cloud.n, cloud.spread).nu
    rep = containment_check(grid.mask_points(ls), model.anchor_points(),
                            sigma=model.max_sigma, level=lam, eps=eps,
                            maxima=maxima, saddles=saddles, nu=nu)
    print(f"  level {lam:.3f}, radius {rep.base_radius:.4f} + eps {eps:.4f}, "
          f"{rep.n_strict} cells, fraction {rep.fraction_strict:.4f}")
    assert ls.any()
    assert rep.fraction_strict >= 0.99
    report(7, "level set hugs the true filaments", time.time() - t0, 600.0)


# -- 8. end-to-end pentagon reproduction ---------------------------------------

def test_criterion_8_end_to_end(tmp_path):
    t0 = time.time()
    dists = []
    for seed in (1, 2, 3, 4, 5):
        out = tmp_path / f"seed{seed}"
        assert cli_main(["simulate", "--model", "pentagon", "--n", "500",
                         "--seed", str(seed), "--out", str(out)]) == 0
        assert cli_main(["estimate", "--points", str(out / "points.csv"),
                         "--out", str(out), "--quantile", "0.9"]) == 0
        model = FilamentModel.load(out / "model.json")
        meta = json.loads((out / "estimate.json").read_text())
        grid = GridSpec.from_bounds(meta["bounds"], meta["grid"])
        mask = np.zeros((grid.nx, grid.ny), dtype=bool)
        for line in (out / "levelset.csv").read_text().splitlines()[1:]:
            i, j, _x, _y = line.split(",")
            mask[int(i), int(j)] = True
        edges = np.concatenate([f.vertices for f in model.filaments])
        dists.append(directed_hausdorff(grid.mask_points(mask), edges))
    med = float(np.median(dists))
    print(f"  directed level-set -> edges distances: "
          f"{[round(d, 4) for d in dists]}, median {med:.4f}")
    assert med <= 0.12  # 4 sigma
    report(8, "pentagon end-to-end reproduction", time.time() - t0, 300.0)


# -- 9. level-set distance trend ------------------------------------------------

def test_criterion_9_levelset_distance_trend(pentagon, pentagon_segs):
    t0 = time.time()
    model, ref_cloud = pentagon
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 64, 64)
    ofld = oracle_field(pentagon_segs, grid, default_r1(model))
    q = 0.85
    lam_true = quantile_threshold(ofld, ref_cloud, q)
    true_set = grid.mask_points(level_set(ofld, lam_true))
    seeds = np.random.SeedSequence(55).spawn(15)
    k = 0
    medians = {}
    for n in (500, 2000, 8000):
        ds = []
        for _rep in range(5):
            rng = np.random.default_rng(seeds[k])
            k += 1
            cloud = model.sample(n, rng)
            bw = default_bandwidths(cloud.n, cloud.spread)
            paths = mean_shift_paths(cloud, bw.h, cloud.points,
                                     min_displacement=1e-3 * bw.h)
            fld = path_density_field(paths, bw.nu, grid)
            est_set = level_set(fld, quantile_threshold(fld, cloud, q))
            ds.append(hausdorff_distance(true_set, grid.mask_points(est_set)))
        medians[n] = float(np.median(ds))
    print(f"  median mask distances: {medians}")
    assert medians[500] >= medians[2000] >= medians[8000]
    report(9, "level-set distance nonincreasing in n", time.time() - t0, 1200.0)


# -- 10. determinism -------------------------------------------------------------

def _files_equal(a, b, names):
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_criterion_10_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    # simulate: same seed twice
    for tag in ("a", "b"):
        assert cli_main(["simulate", "--model", "pentagon", "--n", "200",
                         "--seed", "4", "--out", str(tmp_path / f"sim_{tag}")]) == 0
    _files_equal(tmp_path / "sim_a", tmp_path / "sim_b",
                 ["points.csv", "model.json"])

    # estimate: worker count 1 vs 8 must not change a byte
    for tag, workers in (("w1", "1"), ("w8", "8")):
        monkeypatch.setenv("PATHDENSITY_WORKERS", workers)
        assert cli_main(["estimate", "--points",
                         str(tmp_path / "sim_a" / "points.csv"),
                         "--out", str(tmp_path / f"est_{tag}"),
                         "--grid", "64"]) == 0
    monkeypatch.delenv("PATHDENSITY_WORKERS")
    _files_equal(tmp_path / "est_w1", tmp_path / "est_w8",
                 ["paths.csv", "field.csv", "levelset.csv", "figure.svg"])

    # oracle and converge: same seed twice
    assert cli_main(["simulate", "--model", "two-gaussian", "--n", "100",
                     "--seed", "6", "--out", str(tmp_path / "tg")]) == 0
    for tag in ("a", "b"):
        assert cli_main(["oracle", "--model-json", str(tmp_path / "tg" / "model.json"),
                         "--out", str(tmp_path / f"or_{tag}"), "--grid", "40",
                         "--n-mc", "1500", "--seed", "9"]) == 0
        assert cli_main(["converge", "--model", "two-gaussian", "--n", "100,200",
                         "--reps", "2", "--probes", "8", "--oracle-n-mc", "2000",
                         "--seed", "3", "--out", str(tmp_path / f"cv_{tag}")]) == 0
    _files_equal(tmp_path / "or_a", tmp_path / "or_b",
                 ["oracle_field.csv", "critical_points.csv"])
    _files_equal(tmp_path / "cv_a", tmp_path / "cv_b",
                 ["rate_table.csv", "rate_summary.json"])
    report(10, "determinism across reruns and worker counts",
           time.time() - t0, 300.0)
