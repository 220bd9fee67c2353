import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdensity import path_density
from pathdensity.geometry import Segments, segment_distances
from pathdensity.grids import GridSpec
from pathdensity.kernels import gaussian
from pathdensity.path_density import (BandwidthPlan, default_bandwidths,
                                      estimate_path_density,
                                      path_density_field)

from conftest import polyline_ensemble


def distance_to_path(x, vertices):
    return polyline_ensemble([vertices]).distances(x)[0, 0]


def degenerate_ensemble(z, n=5):
    return polyline_ensemble([[z]] * n)


# -- distance to a path -------------------------------------------------------

def test_distance_to_single_vertex_path():
    assert distance_to_path([4.0, 6.0], [[1.0, 2.0]]) == pytest.approx(5.0)


def test_distance_zero_on_vertices():
    p = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
    for v in p:
        assert distance_to_path(v, p) == pytest.approx(0.0, abs=1e-15)


def test_distance_perpendicular_foot():
    p = [[0.0, 0.0], [1.0, 0.0]]
    assert distance_to_path([0.5, 1.0], p) == pytest.approx(1.0)


def test_trim_reduces_to_terminal_vertex():
    p = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    ens = polyline_ensemble([p, p, p])
    # per-path trims 0, 1 and beyond the path length keep the last vertex
    np.testing.assert_array_equal(ens.trim_drop(np.array([0, 1, 10])), [0, 1, 2])
    # a scalar trim at the path length also keeps the last vertex
    np.testing.assert_array_equal(ens.trim_drop(3), [2, 2, 2])


# coarse coordinates repeat often, giving zero-length segments and queries
# that sit exactly on a vertex; fine ones give general position
coord = st.one_of(st.integers(-3, 3).map(lambda k: k / 2.0),
                  st.floats(-4.0, 4.0, allow_nan=False))
vertex = st.tuples(coord, coord)


@settings(max_examples=200, deadline=None)
@given(paths=st.lists(st.lists(vertex, min_size=1, max_size=6), min_size=1,
                      max_size=5),
       data=st.data(), block=st.integers(1, 40))
def test_distances_equal_per_path_min_of_segment_distances(paths, data, block):
    # small blocks run both branches of distances: several points against
    # all segments, and one point against slices of the segments
    queries = data.draw(st.lists(st.one_of(vertex, st.sampled_from(sum(paths, []))),
                                 min_size=1, max_size=6))
    pts = np.array(queries, dtype=float)
    expected = np.empty((len(pts), len(paths)))
    for i, p in enumerate(paths):
        v = np.array(p, dtype=float)
        a, b = (v[:-1], v[1:]) if len(v) > 1 else (v, v)
        expected[:, i] = segment_distances(pts[:, None],
                                           Segments.between(a, b)).min(axis=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(path_density, "_PAIR_BLOCK", block)
        got = polyline_ensemble(paths).distances(pts)
    assert np.array_equal(got, expected)


# -- estimator ----------------------------------------------------------------

def test_identical_degenerate_paths():
    z = np.array([0.25, -0.5])
    ens = degenerate_ensemble(z, n=9)
    x = np.array([1.0, 0.5])
    nu = 0.3
    expected = gaussian(np.hypot(*(x - z)) / nu) / nu
    assert estimate_path_density(ens, nu, x) == pytest.approx(
        expected, rel=1e-14)


def test_far_point_tail_bound():
    ens = degenerate_ensemble([0.0, 0.0])
    nu = 0.05
    x = np.array([25.0 * nu, 0.0])
    assert estimate_path_density(ens, nu, x) < 1e-80 / nu


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    paths = [rng.standard_normal((5, 2)).cumsum(axis=0) for _ in range(12)]
    x = np.array([0.3, 0.3])
    a = estimate_path_density(polyline_ensemble(paths), 0.2, x)
    order = rng.permutation(len(paths))
    b = estimate_path_density(polyline_ensemble([paths[i] for i in order]),
                              0.2, x)
    assert b == pytest.approx(a, rel=1e-13)


def test_empty_ensemble_rejected():
    with pytest.raises(ValueError):
        polyline_ensemble([])


def test_nonpositive_nu_rejected():
    with pytest.raises(ValueError):
        estimate_path_density(degenerate_ensemble([0, 0]), 0.0, [0.0, 0.0])


@pytest.mark.parametrize("nu", [np.nan, np.inf])
def test_nonfinite_nu_rejected(nu):
    with pytest.raises(ValueError, match="nu"):
        estimate_path_density(degenerate_ensemble([0, 0]), nu, [0.0, 0.0])


def test_lipschitz_in_query_point():
    rng = np.random.default_rng(3)
    ens = polyline_ensemble([rng.standard_normal((6, 2)).cumsum(axis=0)
                             for _ in range(10)])
    nu = 0.25
    lip = np.exp(-0.5) / nu**2  # max |K'| / nu^2
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        y = x + rng.uniform(-0.1, 0.1, 2)
        dp = abs(estimate_path_density(ens, nu, x)
                 - estimate_path_density(ens, nu, y))
        assert dp <= lip * np.hypot(*(x - y)) + 1e-12


def test_monotone_in_nu_at_far_point():
    ens = degenerate_ensemble([0.0, 0.0])
    x = np.array([3.0, 0.0])
    nus = np.linspace(0.01, 1.0, 25)
    vals = np.array([estimate_path_density(ens, nu, x)
                     for nu in nus])
    # growing in nu throughout; strictly so once above the underflow floor
    assert np.all(np.diff(vals) >= 0)
    pos = vals > 0
    assert pos.sum() >= 15
    assert np.all(np.diff(vals[pos]) > 0)


def test_nonnegative_everywhere():
    rng = np.random.default_rng(12)
    paths = [rng.standard_normal((4, 2)) for _ in range(6)]
    pts = rng.uniform(-3, 3, (100, 2))
    vals = estimate_path_density(polyline_ensemble(paths), 0.3, pts)
    assert np.all(vals >= 0)


# -- raster -------------------------------------------------------------------

def test_field_max_at_node_nearest_shared_point():
    z = [0.301, 0.702]
    ens = degenerate_ensemble(z)
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 21, 21)
    fld = path_density_field(ens, 0.1, grid)
    i, j = np.unravel_index(np.argmax(fld.values), fld.values.shape)
    assert abs(grid.xs()[i] - z[0]) <= grid.dx / 2 + 1e-12
    assert abs(grid.ys()[j] - z[1]) <= grid.dy / 2 + 1e-12


def test_field_nodes_stable_under_refinement():
    rng = np.random.default_rng(2)
    ens = polyline_ensemble([rng.standard_normal((5, 2)).cumsum(axis=0) * 0.2 + 0.5
                             for _ in range(8)])
    coarse = GridSpec(0.0, 1.0, 0.0, 1.0, 11, 11)
    fine = GridSpec(0.0, 1.0, 0.0, 1.0, 21, 21)  # shares every coarse node
    f1 = path_density_field(ens, 0.2, coarse)
    f2 = path_density_field(ens, 0.2, fine)
    np.testing.assert_allclose(f1.values, f2.values[::2, ::2], atol=1e-15)


def test_field_worker_count_does_not_change_values():
    rng = np.random.default_rng(6)
    ens = polyline_ensemble([rng.standard_normal((5, 2)) for _ in range(7)])
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 40, 40)
    f1 = path_density_field(ens, 0.3, grid, workers=1)
    f8 = path_density_field(ens, 0.3, grid, workers=8)
    np.testing.assert_array_equal(f1.values, f8.values)


# -- bandwidth schedule -------------------------------------------------------

def test_bandwidths_match_rate_formula():
    plan = default_bandwidths(1000, 1.0, c_h=1.0, c_nu=1.0)
    assert plan.h == pytest.approx(np.log(1000) ** 0.25 / 1000 ** 0.125, rel=1e-12)
    assert plan.h == pytest.approx(0.6837, abs=2e-4)
    assert plan.nu == pytest.approx(np.log(1000) / 10.0, rel=1e-12)
    assert plan.nu == pytest.approx(0.69078, abs=2e-5)


def test_bandwidths_decreasing_in_n():
    # h = (log n)^(1/4) / n^(1/8) turns decreasing at n > e^2 ~ 7.4,
    # nu = log(n) / n^(1/3) at n > e^3 ~ 20.1
    ns = np.unique(np.geomspace(8, 1_000_000, 200).astype(int))
    hs = [default_bandwidths(n, 1.0).h for n in ns]
    assert np.all(np.diff(hs) < 0)
    ns_nu = ns[ns >= 21]
    nus = [default_bandwidths(n, 1.0).nu for n in ns_nu]
    assert np.all(np.diff(nus) < 0)


def test_bandwidths_scale_with_spread():
    a = default_bandwidths(500, 1.0)
    b = default_bandwidths(500, 3.5)
    assert b.h == pytest.approx(3.5 * a.h, rel=1e-14)
    assert b.nu == pytest.approx(3.5 * a.nu, rel=1e-14)


def test_bandwidths_reject_tiny_samples():
    with pytest.raises(ValueError):
        default_bandwidths(1, 1.0)
    with pytest.raises(ValueError):
        BandwidthPlan(h=0.0, nu=0.1)


@pytest.mark.parametrize("h, nu", [(np.nan, 0.1), (0.1, np.nan),
                                   (np.inf, 0.1), (0.1, np.inf)])
def test_bandwidths_refuse_nan_and_inf(h, nu):
    with pytest.raises(ValueError, match="bandwidths"):
        BandwidthPlan(h=h, nu=nu)
