import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdensity.grids import GridField, GridSpec
from pathdensity.kernels import PointCloud
from pathdensity.levelset import (containment_check,
                                  containment_radius, dilate,
                                  directed_hausdorff, hausdorff_distance,
                                  level_set, quantile_lower_nearest_rank,
                                  quantile_threshold, set_distance_consistency)

GRID = GridSpec(0.0, 1.0, 0.0, 1.0, 21, 21)


def field_from(fn):
    nodes = GRID.nodes()
    return GridField(GRID, fn(nodes).reshape(GRID.nx, GRID.ny))


# -- quantiles ----------------------------------------------------------------

def test_quantile_of_constant_field():
    fld = field_from(lambda p: np.full(len(p), 3.25))
    cloud = PointCloud(np.random.default_rng(0).random((40, 2)))
    for q in (0.1, 0.5, 0.9):
        assert quantile_threshold(fld, cloud, q) == pytest.approx(3.25)


def test_quantile_lower_nearest_rank_convention():
    values = np.arange(1, 101)
    assert quantile_lower_nearest_rank(values, 0.9) == 90
    assert quantile_lower_nearest_rank(values, 0.5) == 50
    assert quantile_lower_nearest_rank(values, 0.999) == 100


def test_quantile_rejects_bad_level():
    fld = field_from(lambda p: p[:, 0])
    cloud = PointCloud(np.array([[0.5, 0.5]]))
    for q in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            quantile_threshold(fld, cloud, q)


# -- level sets ---------------------------------------------------------------

def test_level_set_empty_above_max():
    fld = field_from(lambda p: p[:, 0])
    assert not level_set(fld, 2.0).any()


def test_level_set_full_below_min():
    fld = field_from(lambda p: p[:, 0])
    assert level_set(fld, -1.0).all()


def test_level_set_nesting():
    fld = field_from(lambda p: np.sin(7 * p[:, 0]) + p[:, 1])
    lo = level_set(fld, 0.3)
    hi = level_set(fld, 0.8)
    assert np.all(hi <= lo)


def test_level_set_strict_inequality():
    fld = field_from(lambda p: np.full(len(p), 1.0))
    assert not level_set(fld, 1.0).any()  # ties excluded


def test_level_set_is_a_bool_mask_of_the_grid():
    fld = field_from(lambda p: p[:, 0])
    mask = level_set(fld, 0.5)
    assert mask.dtype == bool and mask.shape == (GRID.nx, GRID.ny)


def test_grid_field_refuses_non_finite_values():
    for bad in (np.nan, np.inf):
        values = np.zeros((GRID.nx, GRID.ny))
        values[3, 4] = bad
        with pytest.raises(ValueError):
            GridField(GRID, values)


def test_mask_points_are_the_selected_nodes():
    m = np.zeros((GRID.nx, GRID.ny), dtype=bool)
    m[3, 4] = m[0, 20] = True
    np.testing.assert_array_equal(
        GRID.mask_points(m), [[0.0, 1.0], [3 * GRID.dx, 4 * GRID.dy]])
    assert GRID.mask_points(np.zeros_like(m)).shape == (0, 2)


def test_mask_points_refuses_a_mask_of_the_wrong_shape():
    with pytest.raises(ValueError):
        GRID.mask_points(np.ones((GRID.nx, GRID.ny + 1), dtype=bool))


# -- dilation -----------------------------------------------------------------

def one_node(i, j):
    m = np.zeros((GRID.nx, GRID.ny), dtype=bool)
    m[i, j] = True
    return m


def test_dilate_zero_radius_is_identity():
    m = one_node(10, 10)
    assert dilate(m, GRID, 0.0) is m


def test_dilate_node_gives_disk():
    # the nodes closer than r = 0.13 (2.6 spacings) to a node: 21 of them
    r = 0.13
    ii, jj = np.indices((GRID.nx, GRID.ny))
    disk = np.hypot((ii - 10) * GRID.dx, (jj - 10) * GRID.dy) < r
    d = dilate(one_node(10, 10), GRID, r)
    np.testing.assert_array_equal(d, disk)
    assert d.sum() == 21


def test_dilate_refuses_nan_and_negative_radius():
    for r in (np.nan, -0.1):
        with pytest.raises(ValueError):
            dilate(one_node(10, 10), GRID, r)


def test_dilate_refuses_a_mask_of_the_wrong_shape():
    with pytest.raises(ValueError):
        dilate(np.ones((GRID.nx - 1, GRID.ny), dtype=bool), GRID, 0.1)


def test_dilate_mask_monotone():
    a = np.zeros((GRID.nx, GRID.ny), dtype=bool)
    a[10, 10] = True
    b = a.copy()
    b[5, 5] = True
    da = dilate(a, GRID, 0.13)
    db = dilate(b, GRID, 0.13)
    assert np.all(da <= db)
    assert da.sum() > 1


def test_dilate_contains_original_mask():
    fld = field_from(lambda p: np.hypot(p[:, 0] - 0.5, p[:, 1] - 0.5))
    s = level_set(fld, 0.3)
    d = dilate(s, GRID, 1.5 * GRID.cell_diagonal)
    assert np.all(d >= s)
    assert d.sum() > s.sum()


# -- hausdorff ----------------------------------------------------------------

def test_hausdorff_identical_sets():
    s = [[0.0, 0.0], [1.0, 1.0]]
    assert hausdorff_distance(s, s) == 0.0


def test_hausdorff_two_points():
    assert hausdorff_distance([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0)


def test_directed_hausdorff_subset_is_zero():
    a = [[0.0, 0.0], [1.0, 0.0]]
    b = [[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]]
    assert directed_hausdorff(a, b) == 0.0
    assert directed_hausdorff(b, a) > 0.0


def test_hausdorff_symmetry_and_triangle_on_masks():
    rng = np.random.default_rng(14)
    masks = []
    for _ in range(3):
        m = rng.random((GRID.nx, GRID.ny)) < 0.15
        m[rng.integers(GRID.nx), rng.integers(GRID.ny)] = True
        masks.append(GRID.mask_points(m))
    a, b, c = masks
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
    dab = hausdorff_distance(a, b)
    dbc = hausdorff_distance(b, c)
    dac = hausdorff_distance(a, c)
    assert dac <= dab + dbc + 1e-12


def test_hausdorff_rejects_empty():
    empty = GRID.mask_points(np.zeros((GRID.nx, GRID.ny), dtype=bool))
    with pytest.raises(ValueError):
        hausdorff_distance(empty, [[0.0, 0.0]])


def test_hausdorff_refuses_points_not_of_shape_m_by_2():
    for bad in (np.zeros((3, 3)), np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            hausdorff_distance(bad, [[0.0, 0.0]])
        with pytest.raises(ValueError):
            directed_hausdorff([[0.0, 0.0]], bad)


# -- containment radius -------------------------------------------------------

def test_containment_radius_closed_form():
    sigma = 0.25
    lam = np.exp(-2.0) / (2 * np.pi * sigma**2)
    assert containment_radius(sigma, lam) == pytest.approx(2 * sigma, rel=1e-12)


def test_containment_radius_shrinks_to_zero_at_peak_level():
    sigma = 0.1
    peak = 1.0 / (2 * np.pi * sigma**2)
    assert containment_radius(sigma, 0.999999 * peak) < 1e-2 * sigma


def test_containment_radius_domain_error():
    sigma = 0.1
    with pytest.raises(ValueError):
        containment_radius(sigma, 1.0 / (2 * np.pi * sigma**2))


def test_containment_radius_refuses_nan():
    for sigma, level in ((np.nan, 1.0), (0.1, np.nan)):
        with pytest.raises(ValueError):
            containment_radius(sigma, level)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.01, 0.9))
def test_containment_radius_decreasing_in_level(lam):
    sigma = 0.3
    peak = 1.0 / (2 * np.pi * sigma**2)
    l1 = lam * peak
    l2 = min((lam + 0.05) * peak, 0.999 * peak)
    assert containment_radius(sigma, l2) < containment_radius(sigma, l1)


# -- containment check --------------------------------------------------------

def test_containment_full_domain_truth():
    fld = field_from(lambda p: p[:, 0] + p[:, 1])
    ls = level_set(fld, 1.0)
    report = containment_check(GRID.mask_points(ls), GRID.nodes(), sigma=0.1,
                               level=1.0,
                               eps=GRID.cell_diagonal)
    assert report.fraction_strict == 1.0
    assert report.fraction_relaxed == 1.0


def test_containment_empty_level_set_vacuous():
    fld = field_from(lambda p: np.zeros(len(p)))
    ls = level_set(fld, 5.0)
    report = containment_check(GRID.mask_points(ls), [[0.5, 0.5]], sigma=0.1,
                               level=5.0, eps=0.01)
    assert report.n_level_cells == 0
    assert report.fraction_strict == 1.0
    assert report.notes.get("empty_level_set")


def test_containment_reports_saddle_relaxation():
    # cells near the saddle get the larger radius; here the level is low
    # enough that the 4x level still has a radius
    fld = field_from(lambda p: np.hypot(p[:, 0] - 0.5, p[:, 1] - 0.5) < 0.3)
    ls = level_set(fld, 0.5)
    sigma = 0.2
    lam = 0.1 / (2 * np.pi * sigma**2)
    report = containment_check(GRID.mask_points(ls), [[0.5, 0.5]], sigma=sigma,
                               level=lam, eps=0.05,
                               maxima=[[0.5, 0.5]], saddles=[[0.2, 0.5]],
                               nu=0.08)
    assert report.saddle_radius is not None
    assert report.saddle_radius < report.base_radius
    assert report.n_strict <= report.n_relaxed


def test_containment_refuses_nan_eps_and_nu():
    cells = GRID.mask_points(one_node(10, 10))
    for eps, nu in ((np.nan, 0.0), (0.01, np.nan), (-0.01, 0.0)):
        with pytest.raises(ValueError):
            containment_check(cells, [[0.5, 0.5]], sigma=0.1, level=1.0,
                              eps=eps, maxima=[[0.5, 0.5]], nu=nu)


def test_containment_refuses_points_not_of_shape_m_by_2():
    good = [[0.5, 0.5]]
    for cells, truth in ((np.zeros((3, 3)), good), (good, np.zeros((3, 3)))):
        with pytest.raises(ValueError):
            containment_check(cells, truth, sigma=0.1, level=1.0, eps=0.01)


# -- set distance -------------------------------------------------------------

def test_set_distance_identical_masks():
    m = np.zeros((GRID.nx, GRID.ny), dtype=bool)
    m[4:7, 4:7] = True
    a = GRID.mask_points(m)
    b = GRID.mask_points(m.copy())
    assert set_distance_consistency(a, b) == 0.0


def test_set_distance_empty_estimate_sentinel():
    m = np.zeros((GRID.nx, GRID.ny), dtype=bool)
    m[4, 4] = True
    a = GRID.mask_points(m)
    empty = GRID.mask_points(np.zeros_like(m))
    assert math.isinf(set_distance_consistency(a, empty))
