import numpy as np
import pytest

from pathdensity.flow import kde_flow_config, mean_shift_paths
from pathdensity.kernels import (_TILE, NORMALIZER, GaussianMixture,
                                 KernelDensityField, PointCloud, gaussian,
                                 kde_density, kde_gradient)
from pathdensity.model import (FilamentModel, cluster_model, random_pentagon_model,
                               two_gaussian_model)
from pathdensity.parallel import map_indexed

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
             lambda: KernelDensityField(small_cloud, h).derivatives(x, 2)[2],
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
    H = KernelDensityField(cloud, 1.0).derivatives(np.zeros(2), 2)[2]
    np.testing.assert_allclose(H, -np.eye(2) / (2.0 * np.pi), rtol=1e-14)


def test_hessian_exactly_symmetric(small_cloud):
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((20, 2))
    H = KernelDensityField(small_cloud, 0.6).derivatives(pts, 2)[2]
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
        H = KernelDensityField(small_cloud, h).derivatives(x, 2)[2]
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
        kde: [lambda x: kde_density(small_cloud, 0.5, x),
              lambda x: kde_gradient(small_cloud, 0.5, x),
              lambda x: KernelDensityField(small_cloud, 0.5).derivatives(x, 2)[2]],
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
    # one Gaussian-mixture evaluator serves both fields. The KDE's mixture
    # lives in coordinates centred on kde.center, so the model is built and
    # evaluated there too
    h = 0.4
    kde = KernelDensityField(small_cloud, h)
    c = kde.center
    model = cluster_model(small_cloud.points - c, h, (-5.0, 5.0, -5.0, 5.0))
    rng = np.random.default_rng(11)
    for x in (np.array([0.3, -0.2]), rng.uniform(-3.0, 3.0, (1024, 2))):
        for a, b in zip(kde.derivatives(x, 2), model.derivatives(x - c, 2)):
            np.testing.assert_array_equal(a, b)


# -- tiled weight block -------------------------------------------------------

def untiled_weight_sums(mixture, pts, order):
    """GaussianMixture.weight_sums as one expression over the whole block:
    the reference the row tiles must reproduce bit for bit. The weights come
    from direct differences in the mixture's scaled coordinates; the six
    moment sums are taken node by node for at most 16 nodes, else by one
    gemm per 8-row slice of the block padded with zero rows, a height whose
    row bits every tile height shares."""
    p = pts * mixture.scale
    qx, qy = mixture.scaled_nodes
    phi = np.exp(-((p[:, :1] - qx) ** 2 + (p[:, 1:] - qy) ** 2))
    m, n = phi.shape
    if n <= 16:
        sums = sum(phi[:, j:j + 1] * mixture.moments[j] for j in range(n))
    else:
        padded = np.concatenate([phi, np.zeros((-m % 8, n))])
        sums = (padded.reshape(-1, 8, n) @ mixture.moments).reshape(-1, 6)[:m]
    return list(np.reshape(sums, (m, 6)).T[:(1, 3, 6)[order]])


def bench_pentagon_model_doc():
    # the first pentagon of perfbench/run.py: five arcsine-weighted sides
    ring = np.array([(0.312, 0.423), (0.550, 0.028), (0.828, 0.409),
                     (0.512, 0.950), (0.144, 0.949), (0.312, 0.423)])
    lengths = np.hypot(*np.diff(ring, axis=0).T)
    return {"box": [0.0, 1.0, 0.0, 1.0], "filaments": [
        {"vertices": ring[i:i + 2].tolist(), "sigma": 0.03, "weight": float(w),
         "length_density": {"kind": "beta", "a": 0.5, "b": 0.5}}
        for i, w in enumerate(lengths / lengths.sum())]}


def bench_pentagon_mixture():
    (mixture,) = FilamentModel.from_dict(bench_pentagon_model_doc())._mixtures
    return mixture


def random_mixture(n_nodes):
    rng = np.random.default_rng(n_nodes)
    return GaussianMixture(0.3, rng.normal(size=(n_nodes, 2)),
                           rng.dirichlet(np.ones(n_nodes)))


@pytest.mark.parametrize("make, n_nodes", [
    (lambda: two_gaussian_model()._mixtures[0], 2),
    (lambda: random_mixture(150), 150),
    (bench_pentagon_mixture, 1044),
    (lambda: KernelDensityField(PointCloud(
        np.random.default_rng(7).uniform(0.0, 1.0, (1600, 2))), 0.05).mixture,
     1600),
    (lambda: random_mixture(_TILE + 5), _TILE + 5),
], ids=["two-gaussian", "150-nodes", "bench-pentagon", "kde-1600",
        "more-nodes-than-a-tile"])
def test_tiled_weight_sums_equal_the_untiled_block(make, n_nodes):
    mixture = make()
    assert len(mixture.nodes) == n_nodes
    tile = max(8, _TILE // n_nodes // 8 * 8)  # the tile height of a large batch
    # a block of 2,048 rows against 65,541 nodes would take 1 GB
    sizes = {0, 1, tile - 1, tile, tile + 1, 1024, 2048}
    sizes = sorted(m for m in sizes if m * n_nodes <= 2048 * 1600)
    rng = np.random.default_rng(n_nodes + 1)
    lo = mixture.nodes.min(axis=0) - 3 * mixture.sigma
    hi = mixture.nodes.max(axis=0) + 3 * mixture.sigma
    for m in sizes:
        pts = rng.uniform(lo, hi, (m, 2))
        # points on a node (distance exactly 0) and far off (weights underflow)
        pts[:m // 8] = mixture.nodes[rng.integers(0, n_nodes, m // 8)]
        pts[m // 8:m // 4] += 50.0 * (hi - lo)
        for order in (0, 1, 2):
            got = mixture.weight_sums(pts, order)
            want = untiled_weight_sums(mixture, pts, order)
            assert len(got) == len(want) == (1, 3, 6)[order]
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("bufsize", [16, 8192, 65536])
def test_tiled_weight_sums_do_not_depend_on_the_callers_ufunc_buffer(bufsize):
    mixture = bench_pentagon_mixture()
    rng = np.random.default_rng(bufsize)
    pts = rng.uniform(0.0, 1.0, (200, 2))
    pts[:20] = mixture.nodes[rng.integers(0, len(mixture.nodes), 20)]
    with np.errstate():
        np.setbufsize(bufsize)
        got = mixture.weight_sums(pts, 2)
        assert np.getbufsize() == bufsize
    for a, b in zip(got, untiled_weight_sums(mixture, pts, 2)):
        np.testing.assert_array_equal(a, b)


def test_derivatives_leave_the_callers_ufunc_buffer_alone():
    model = FilamentModel.from_dict(bench_pentagon_model_doc())
    pts = np.random.default_rng(3).uniform(0.0, 1.0, (100, 2))
    before = np.getbufsize()

    def call(bufsize):
        # each thread has its own setting: pool threads start at the default
        with np.errstate():
            np.setbufsize(bufsize)
            model.derivatives(pts, 2)
            return np.getbufsize()

    assert call(65536) == 65536
    assert map_indexed(call, [4096, 32768], workers=2) == [4096, 32768]
    assert np.getbufsize() == before


@pytest.mark.parametrize("make", [
    lambda: KernelDensityField(PointCloud(
        np.random.default_rng(7).uniform(0.0, 1.0, (1600, 2))), 0.05),
    lambda: FilamentModel.from_dict(bench_pentagon_model_doc()),
    lambda: random_pentagon_model(np.random.default_rng(1), n=10,
                                  background=True)[0],
    # 16 nodes: the largest mixture whose weights are summed node by node
    lambda: cluster_model(np.random.default_rng(16).uniform(0.2, 0.8, (16, 2)),
                          0.1, (0.0, 1.0, 0.0, 1.0)),
], ids=["kde-1600", "bench-pentagon", "pentagon-background", "16-clusters"])
def test_field_rows_do_not_depend_on_their_batch_or_order(make):
    field = make()
    rng = np.random.default_rng(12)
    # inside each model's box [0, 1]^2, off its edge
    pts = rng.uniform(0.02, 0.98, (100, 2))
    full = field.derivatives(pts, 2)
    for order in (0, 1, 2):
        batch = field.derivatives(pts, order)
        assert len(batch) == order + 1
        for a, b in zip(batch, full):
            np.testing.assert_array_equal(a, b)
        for rows in (1, 2, 3, 7):
            blocks = [field.derivatives(pts[s:s + rows], order)
                      for s in range(0, len(pts), rows)]
            for t, term in enumerate(batch):
                np.testing.assert_array_equal(
                    np.concatenate([b[t] for b in blocks]), term)
