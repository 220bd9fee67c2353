import numpy as np
import pytest

from pathdensity.flow import kde_flow_config, mean_shift_paths
from pathdensity.kernels import (NORMALIZER, KernelDensityField, PointCloud,
                                 gaussian, kde_density, kde_gradient,
                                 kde_hessian)
from pathdensity.model import cluster_model, two_gaussian_model

from conftest import fd_gradient, fd_hessian


# -- profile contract ---------------------------------------------------------

def test_gaussian_at_zero_and_one():
    assert gaussian(0.0) == pytest.approx(1.0)
    assert gaussian(1.0) == pytest.approx(np.exp(-0.5))


def test_profile_nonincreasing_on_fine_grid():
    t = np.linspace(0.0, 8.0, 5001)
    v = gaussian(t)
    assert np.all(np.diff(v) <= 1e-15)
    assert v.max() <= 1.0


def test_profile_derivative_bounded():
    t = np.linspace(0.0, 8.0, 5001)
    v = gaussian(t)
    slopes = np.abs(np.diff(v) / np.diff(t))
    assert slopes.max() <= 1.0  # |K'| peaks at e^-1/2 ~ 0.607 for the gaussian


def test_profile_tail_bound():
    # K(t) <= C t e^-t at the spec's checkpoints (C = 1 suffices)
    for t in (5.0, 10.0, 20.0):
        assert gaussian(t) <= t * np.exp(-t)


def test_normalized_profile_integrates_to_one_on_disk():
    # polar quadrature of c_K K(||u||) over the radius-10 disk
    t = np.linspace(0.0, 10.0, 20001)
    integrand = NORMALIZER * gaussian(t) * 2.0 * np.pi * t
    total = np.trapezoid(integrand, t)
    assert total == pytest.approx(1.0, abs=1e-4)


# -- point cloud --------------------------------------------------------------

def test_cloud_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        PointCloud(np.empty((0, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, np.nan]]))


def test_cloud_spread_is_max_range():
    c = PointCloud(np.array([[0.0, 0.0], [2.0, 0.5]]))
    assert c.spread == pytest.approx(2.0)


# -- density ------------------------------------------------------------------

def test_single_point_peak_value():
    cloud = PointCloud(np.zeros((1, 2)))
    v = kde_density(cloud, 1.0, np.zeros(2))
    assert v == pytest.approx(1.0 / (2.0 * np.pi))


def test_repeated_points_match_single_point():
    single = PointCloud(np.array([[0.3, -0.7]]))
    repeated = PointCloud(np.tile([0.3, -0.7], (7, 1)))
    x = np.array([0.5, 0.1])
    assert kde_density(repeated, 0.8, x) == pytest.approx(
        kde_density(single, 0.8, x), rel=1e-14)


def test_density_integrates_to_one(small_cloud):
    h = 0.5
    lo = small_cloud.points.min() - 8 * h
    hi = small_cloud.points.max() + 8 * h
    xs = np.linspace(lo, hi, 220)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vals = kde_density(small_cloud, h,
                       np.column_stack([gx.ravel(), gy.ravel()])).reshape(220, 220)
    total = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_density_nonnegative_and_vanishing_far_out(small_cloud):
    h = 0.4
    far = np.array([np.max(np.hypot(*small_cloud.points.T)) + 20 * h, 0.0])
    assert kde_density(small_cloud, h, far) < 1e-12
    rng = np.random.default_rng(5)
    pts = rng.uniform(-4, 4, (200, 2))
    assert np.all(kde_density(small_cloud, h, pts) >= 0.0)


def test_bad_bandwidth_rejected(small_cloud):
    with pytest.raises(ValueError):
        kde_density(small_cloud, 0.0, np.zeros(2))


@pytest.mark.parametrize("h", [1e-160, 1e78, np.inf, np.nan])
def test_bandwidth_outside_the_float_range_rejected(small_cloud, h):
    # outside [1e-76, 1e76] h^4 leaves the normal floats: the KDE entry
    # points refuse h instead of failing on an arithmetic exception
    x = np.zeros(2)
    calls = [lambda: kde_density(small_cloud, h, x),
             lambda: kde_gradient(small_cloud, h, x),
             lambda: kde_hessian(small_cloud, h, x),
             lambda: KernelDensityField(small_cloud, h),
             lambda: kde_flow_config(small_cloud, h),
             lambda: mean_shift_paths(small_cloud, h, [x])]
    for call in calls:
        with pytest.raises(ValueError, match="bandwidth h must lie in"):
            call()


# -- gradient and hessian -----------------------------------------------------

def test_gradient_zero_at_symmetric_configurations():
    origin = PointCloud(np.zeros((1, 2)))
    np.testing.assert_array_equal(
        kde_gradient(origin, 1.0, np.zeros(2)), np.zeros(2))
    pair = PointCloud(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    np.testing.assert_array_equal(
        kde_gradient(pair, 1.0, np.zeros(2)), np.zeros(2))


def test_hessian_at_single_point_peak():
    cloud = PointCloud(np.zeros((1, 2)))
    H = kde_hessian(cloud, 1.0, np.zeros(2))
    np.testing.assert_allclose(H, -np.eye(2) / (2.0 * np.pi), rtol=1e-14)


def test_hessian_exactly_symmetric(small_cloud):
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((20, 2))
    H = kde_hessian(small_cloud, 0.6, pts)
    np.testing.assert_array_equal(H[:, 0, 1], H[:, 1, 0])


def test_derivatives_match_finite_differences(small_cloud):
    h = 0.45
    step = 1e-5 * h
    rng = np.random.default_rng(99)
    probes = rng.uniform(-1.5, 1.5, (100, 2))
    for x in probes:
        g = kde_gradient(small_cloud, h, x)
        fd = fd_gradient(lambda p: kde_density(small_cloud, h, p),
                         x, step)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(g), 1e-12)
        H = kde_hessian(small_cloud, h, x)
        fdH = fd_hessian(lambda p: kde_gradient(small_cloud, h, p),
                         x, step)
        assert np.linalg.norm(H - fdH) <= 1e-5 * max(np.linalg.norm(H), 1e-12)


def test_translation_invariance(small_cloud):
    h = 0.5
    shift = np.array([12.25, -3.5])
    shifted = PointCloud(small_cloud.points + shift)
    x = np.array([0.4, 0.2])
    v0 = kde_density(small_cloud, h, x)
    v1 = kde_density(shifted, h, x + shift)
    assert v1 == pytest.approx(v0, rel=1e-12)
    g0 = kde_gradient(small_cloud, h, x)
    g1 = kde_gradient(shifted, h, x + shift)
    np.testing.assert_allclose(g1, g0, rtol=1e-9, atol=1e-14)


def test_derivatives_equal_the_views(small_cloud):
    kde = KernelDensityField(small_cloud, 0.5)
    model = two_gaussian_model()
    views = {
        kde: [lambda x, f=f: f(small_cloud, 0.5, x)
              for f in (kde_density, kde_gradient, kde_hessian)],
        model: [model.value, model.gradient, model.hessian],
    }
    for field, (value, gradient, hessian) in views.items():
        for x in (np.array([0.1, 0.2]), np.array([[0.1, 0.2], [-0.7, 0.4]])):
            v, g, H = field.derivatives(x, 2)
            assert type(v) is type(value(x))
            np.testing.assert_array_equal(v, value(x))
            np.testing.assert_array_equal(g, gradient(x))
            np.testing.assert_array_equal(H, hessian(x))


def test_kde_is_the_equal_weight_cluster_model_at_its_data_points(small_cloud):
    # one Gaussian-mixture evaluator serves both fields; the KDE's row
    # blocks (1,024) are smaller than the model's, so a batch of 1,024 rows
    # is one block in each. The KDE's mixture lives in coordinates centred
    # on kde.center, so the model is built and evaluated there too
    h = 0.4
    kde = KernelDensityField(small_cloud, h)
    c = kde.center
    model = cluster_model(small_cloud.points - c, h, (-5.0, 5.0, -5.0, 5.0))
    rng = np.random.default_rng(11)
    for x in (np.array([0.3, -0.2]), rng.uniform(-3.0, 3.0, (1024, 2))):
        for a, b in zip(kde.derivatives(x, 2), model.derivatives(x - c, 2)):
            np.testing.assert_array_equal(a, b)
