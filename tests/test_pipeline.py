"""Mid-scale integration runs that cross module boundaries."""

import numpy as np

from pathdensity.flow import mean_shift_paths
from pathdensity.grids import GridSpec
from pathdensity.levelset import level_set, quantile_threshold
from pathdensity.model import random_pentagon_model
from pathdensity.path_density import default_bandwidths, path_density_field


def test_pentagon_level_set_is_sparse_and_near_structure():
    model, cloud = random_pentagon_model(np.random.default_rng(3), n=300)
    bw = default_bandwidths(cloud.n, cloud.spread)
    paths = mean_shift_paths(cloud, bw.h, cloud.points,
                             min_displacement=1e-3 * bw.h)
    grid = GridSpec.from_bounds(cloud.bounds(margin=0.05), 60)
    fld = path_density_field(paths, bw.nu, grid)
    lam = quantile_threshold(fld, cloud, 0.9)
    mask = level_set(fld, lam)
    assert mask.any()
    frac = mask.mean()
    assert frac < 0.30
    # the selected cells stay close to where paths actually went
    edges = np.concatenate([f.vertices for f in model.filaments])
    from pathdensity.levelset import directed_hausdorff

    d = directed_hausdorff(grid.mask_points(mask), edges)
    assert d < 0.25


def test_paths_have_distinct_consecutive_vertices():
    model, cloud = random_pentagon_model(np.random.default_rng(8), n=120)
    bw = default_bandwidths(cloud.n, cloud.spread)
    paths = mean_shift_paths(cloud, bw.h, cloud.points)
    for p in paths:
        steps = np.hypot(*np.diff(p.vertices, axis=0).T)
        assert np.all(steps > 0)
