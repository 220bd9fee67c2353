import json
import warnings

import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from pathdensity.flow import find_critical_points
from pathdensity.geometry import polyline_self_intersects
from pathdensity.model import (Filament, FilamentModel, cluster_model,
                               random_pentagon_model, two_gaussian_model)
from pathdensity.oracle import default_r1, model_flow_config

from conftest import convex_hull_contains, fd_gradient, fd_hessian


def unit_filament(weight="uniform", sigma=0.05):
    return Filament.from_endpoints([0.0, 0.0], [1.0, 0.0], sigma, weight=weight)


def filament_only_model(f):
    return FilamentModel([f], [1.0], [], [], 0.0, (-0.5, 1.5, -0.5, 0.5))


# -- filament geometry --------------------------------------------------------

def test_arclength_matches_vertex_distances():
    f = unit_filament()
    steps = np.hypot(*np.diff(f.vertices, axis=0).T)
    np.testing.assert_allclose(np.diff(f.arclength), steps, rtol=1e-6)
    assert f.length == pytest.approx(1.0)


def test_self_intersecting_filament_rejected():
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Filament(bowtie, sigma=0.05)


def test_long_straight_filament_is_not_refused():
    # pentagon seed 26's fifth side: rounding leaves the densified vertices
    # off the line, and two segments of it far apart had orientations of
    # +-1.4e-20, which passed for a crossing
    a = [0.06760775819232612, 0.7128582038821137]
    b = [0.4915989176049045, 0.23439952394791652]
    f = Filament.from_endpoints(a, b, 0.03, weight="beta")
    assert len(f.vertices) == 683


def test_weight_density_integrates_to_one():
    # the beta weight is exact by its CDF; check the pdf/ppf pairing instead
    f = unit_filament(weight="beta")
    assert beta_dist.cdf(1.0, f.beta_a, f.beta_b) == 1.0
    for u in (0.2, 0.5, 0.8):
        s = f.weight_ppf(u)
        eps = 1e-6
        dppf = (f.weight_ppf(u + eps) - f.weight_ppf(u - eps)) / (2 * eps)
        pdf = beta_dist.pdf(s / f.length, f.beta_a, f.beta_b) / f.length
        assert dppf == pytest.approx(1.0 / pdf, rel=1e-5)
    # the uniform ppf's slope is 1 / pdf: the density 1 / length
    g = unit_filament(weight="uniform")
    u = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_allclose(np.gradient(g.weight_ppf(u), u), g.length,
                               rtol=1e-12)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.7, 1.9), (2.0, 3.0)])
def test_beta_weight_ppf_equals_scipy_stats(a, b, monkeypatch):
    f = Filament.from_endpoints([0.0, 0.0], [1.0, 0.0], 0.05, weight="beta",
                                beta_a=a, beta_b=b)
    u = np.concatenate([np.random.default_rng(3).random(10_000),
                        [0.0, 1.0, 1.0 - 2.0**-53]])
    if (a, b) == (0.5, 0.5):
        # the arcsine weight's closed form, also on log-uniform tiny u, on u
        # near 1 and on every u the quadrature asks for
        asked, ppf = [], Filament.weight_ppf
        monkeypatch.setattr(Filament, "weight_ppf",
                            lambda self, v: asked.append(v) or ppf(self, v))
        f.quadrature()
        monkeypatch.undo()
        rng = np.random.default_rng(5)
        u = np.concatenate([u, 10.0 ** rng.uniform(-300, -3, 10_000),
                            1.0 - rng.uniform(0.0, 1e-3, 10_000), *asked])
        # outside [0, 1] it gives NaN, as scipy does, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(f.weight_ppf([-0.5, 1.5, np.inf, np.nan])).all()
    np.testing.assert_array_equal(f.weight_ppf(u),
                                  f.length * beta_dist.ppf(u, a, b))


def test_quadrature_node_density_covers_sigma():
    f = unit_filament(weight="beta", sigma=0.05)
    pts, w = f.quadrature()
    assert w.sum() == pytest.approx(1.0, rel=1e-12)
    s = np.hypot(*(np.diff(pts, axis=0)).T)
    # spacing below sigma / (nodes_per_sigma/2) over the central mass
    central = (pts[:-1, 0] > 0.05) & (pts[:-1, 0] < 0.95)
    assert s[central].max() <= f.sigma / 4 + 1e-9


def test_default_quadrature_matches_fine(monkeypatch):
    f = unit_filament(weight="beta", sigma=0.05)
    probes = np.array([[0.5, 0.02], [0.15, -0.03], [0.97, 0.0]])
    default = filament_only_model(f).value(probes)
    monkeypatch.setattr("pathdensity.model._NODES_PER_SIGMA", 32)
    fine = filament_only_model(f).value(probes)
    np.testing.assert_allclose(default, fine, rtol=1e-6)


# -- density ------------------------------------------------------------------

def test_single_cluster_density_is_gaussian():
    m = cluster_model([(0.3, -0.2)], 0.4, (-2, 2, -2, 2))
    x = np.array([0.5, 0.1])
    d2 = ((x - [0.3, -0.2]) ** 2).sum()
    expected = np.exp(-0.5 * d2 / 0.16) / (2 * np.pi * 0.16)
    assert m.value(x) == pytest.approx(expected, rel=1e-14)


def test_zero_weight_components_set_no_scale():
    # a filament and a cluster of weight 0 are not in the density, so they
    # set neither the noise scale nor the anchors the oracle traces by
    box = (-2.0, 2.0, -2.0, 2.0)
    plain = cluster_model([(0.3, -0.2)], 0.1, box)
    padded = FilamentModel([unit_filament(sigma=0.5)], [0.0],
                           [((0.3, -0.2), 0.1), ((-1.0, 1.0), 1.0)], [1.0, 0.0],
                           0.0, box)
    assert padded.max_sigma == plain.max_sigma == 0.1
    np.testing.assert_array_equal(padded.anchor_points(), plain.anchor_points())
    assert model_flow_config(padded) == model_flow_config(plain)
    assert default_r1(padded) == default_r1(plain)
    # nothing of positive weight: no scale and no anchors
    bg = FilamentModel([], [], [((0.0, 0.0), 0.5)], [0.0], 1.0, box)
    assert bg.max_sigma == 0.0 and bg.anchor_points().shape == (0, 2)


def test_background_only_density():
    m = FilamentModel([], [], [], [], 1.0, (0.0, 2.0, 0.0, 1.0))
    assert m.value(np.array([1.0, 0.5])) == pytest.approx(0.5)
    assert m.value(np.array([3.0, 0.5])) == 0.0


def test_straight_filament_matches_monte_carlo():
    f = unit_filament(weight="uniform", sigma=0.05)
    m = filament_only_model(f)
    rng = np.random.default_rng(42)
    s = rng.random(1_000_000)
    for x in (np.array([0.5, 0.02]), np.array([0.9, -0.07]), np.array([0.2, 0.0])):
        vals = np.exp(-0.5 * ((x[0] - s) ** 2 + x[1] ** 2) / f.sigma**2) \
            / (2 * np.pi * f.sigma**2)
        mc = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(m.value(x) - mc) <= 3 * se


def test_density_integrates_to_one_pentagon():
    model, _ = random_pentagon_model(np.random.default_rng(5), n=50)
    sig = model.max_sigma
    xs = np.linspace(-8 * sig, 1 + 8 * sig, 300)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vals = model.value(np.column_stack([gx.ravel(), gy.ravel()])).reshape(300, 300)
    total = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        FilamentModel([], [], [(np.array([0, 0]), 1.0)], [0.7], 0.2, (-1, 1, -1, 1))


# -- derivatives --------------------------------------------------------------

def test_gradient_zero_at_cluster_center():
    m = cluster_model([(0.1, 0.9)], 0.5, (-2, 2, -2, 2))
    np.testing.assert_array_equal(m.gradient(np.array([0.1, 0.9])), [0.0, 0.0])


def test_gradient_zero_at_symmetric_midpoint():
    m = two_gaussian_model()
    np.testing.assert_allclose(m.gradient(np.zeros(2)), [0.0, 0.0], atol=1e-300)


def test_model_derivatives_match_finite_differences():
    model, _ = random_pentagon_model(np.random.default_rng(9), n=50)
    rng = np.random.default_rng(10)
    probes = rng.uniform(0.1, 0.9, (50, 2))
    step = 1e-5 * model.max_sigma
    for x in probes:
        g = model.gradient(x)
        fd = fd_gradient(lambda p: model.value(p), x, step)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(g), 1e-12)
        H = model.hessian(x)
        fdH = fd_hessian(lambda p: model.gradient(p), x, step)
        assert np.linalg.norm(H - fdH) <= 1e-5 * max(np.linalg.norm(H), 1e-12)


def test_gradient_on_box_edge_rejected_with_background():
    m = FilamentModel([], [], [(np.array([0.5, 0.5]), 0.1)], [0.5], 0.5,
                      (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        m.gradient(np.array([0.0, 0.5]))
    m.gradient(np.array([0.3, 0.5]))  # interior point fine


# -- sampling -----------------------------------------------------------------

def test_cluster_sample_mean_near_center():
    m = cluster_model([(0.25, -0.75)], 0.5, (-3, 3, -3, 3))
    cloud = m.sample(100_000, np.random.default_rng(17))
    bound = 4 * 0.5 / np.sqrt(cloud.n)
    assert abs(cloud.points[:, 0].mean() - 0.25) < bound
    assert abs(cloud.points[:, 1].mean() + 0.75) < bound


def test_background_only_sample_in_box():
    m = FilamentModel([], [], [], [], 1.0, (0.0, 2.0, -1.0, 1.0))
    cloud = m.sample(5000, np.random.default_rng(3))
    assert cloud.points[:, 0].min() >= 0.0 and cloud.points[:, 0].max() <= 2.0
    assert cloud.points[:, 1].min() >= -1.0 and cloud.points[:, 1].max() <= 1.0


def test_sampling_deterministic_under_seed():
    m = two_gaussian_model()
    a = m.sample(500, np.random.default_rng(123)).points
    b = m.sample(500, np.random.default_rng(123)).points
    np.testing.assert_array_equal(a, b)


def test_component_frequencies_match_weights():
    m = FilamentModel([], [],
                      [(np.array([-1.0, 0.0]), 0.2), (np.array([1.0, 0.0]), 0.2)],
                      [0.3, 0.5], 0.2, (-3, 3, -3, 3))
    n = 20_000
    cloud = m.sample(n, np.random.default_rng(8))
    # classify by nearest center / background via position
    near_a = np.hypot(cloud.points[:, 0] + 1, cloud.points[:, 1]) < 0.2 * 3
    frac_a = near_a.mean()
    # p(within 3 sigma) ~ 0.9889 for the 2-D gaussian
    expect = 0.3 * 0.9889
    assert abs(frac_a - expect) < 4 * np.sqrt(expect * (1 - expect) / n) + 0.3 * 0.2 * 0.05


# -- pentagon example ---------------------------------------------------------

def test_pentagon_cloud_sizes():
    rng = np.random.default_rng(1)
    model, cloud = random_pentagon_model(rng, n=500)
    assert cloud.n == 500
    rng = np.random.default_rng(1)
    model_bg, cloud_bg = random_pentagon_model(rng, n=500, background=True)
    assert cloud_bg.n == 1000
    assert model_bg.background_weight == pytest.approx(0.5)


def test_pentagon_sigma_and_weights():
    model, _ = random_pentagon_model(np.random.default_rng(2), n=500)
    assert all(f.sigma == 0.03 for f in model.filaments)
    lengths = np.array([f.length for f in model.filaments])
    np.testing.assert_allclose(model.filament_weights,
                               lengths / lengths.sum(), rtol=1e-12)
    assert all(f.weight == "beta" and f.beta_a == 0.5 and f.beta_b == 0.5
               for f in model.filaments)


def test_pentagon_allocation_proportional_within_one():
    from pathdensity.model import _largest_remainder_counts

    rng = np.random.default_rng(33)
    model, _ = random_pentagon_model(rng, n=500)
    lengths = np.array([f.length for f in model.filaments])
    counts = _largest_remainder_counts(500, lengths)
    exact = 500 * lengths / lengths.sum()
    assert counts.sum() == 500
    assert np.all(np.abs(counts - exact) < 1.0)


def test_pentagon_ring_is_simple():
    for seed in range(10):
        model, _ = random_pentagon_model(np.random.default_rng(seed), n=10)
        ring = np.array([f.vertices[0] for f in model.filaments])
        closed = np.vstack([ring, ring[:1]])
        assert not polyline_self_intersects(closed)


@pytest.mark.parametrize("seed", [26, 113, 214, 258, 295, 504])
def test_pentagon_with_a_long_straight_side_builds(seed):
    model, cloud = random_pentagon_model(np.random.default_rng(seed), n=10)
    assert len(model.filaments) == 5 and cloud.n == 10


def test_pentagon_critical_points_inside_hull():
    model, _ = random_pentagon_model(np.random.default_rng(21), n=100)
    crit = find_critical_points(model, model.box, 1e-9, seeds_per_axis=12)
    assert len(crit) >= 1
    locs = np.array([c.location for c in crit])
    assert convex_hull_contains(model.anchor_points(), locs, tol=1e-6).all()


# -- serialization ------------------------------------------------------------

def test_model_json_round_trip(tmp_path):
    model, _ = random_pentagon_model(np.random.default_rng(7), n=20)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_dict()))
    loaded = FilamentModel.load(path)
    x = np.array([0.4, 0.6])
    assert loaded.value(x) == pytest.approx(model.value(x), rel=1e-12)
    assert loaded.background_weight == model.background_weight
    assert len(loaded.filaments) == len(model.filaments)
    doc = json.loads(path.read_text())
    assert doc["filaments"][0]["length_density"]["kind"] == "beta"
