"""Level sets of a raster field, dilations, Hausdorff distances, and the
containment report that checks detected high-density cells against the truth.
A level set is an (nx, ny) bool node mask (`GridSpec.mask_points` gives its
node coordinates); every other set is an (m, 2) array of points."""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_points
from .grids import GridField, GridSpec
from .kernels import PointCloud


def quantile_lower_nearest_rank(values, q: float) -> float:
    """Empirical quantile, lower nearest-rank convention."""
    if not (0.0 < q < 1.0):
        raise ValueError("quantile level must lie strictly between 0 and 1")
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if len(v) == 0:
        raise ValueError("no values to take a quantile of")
    k = int(math.ceil(q * len(v)))
    return float(v[max(k - 1, 0)])


def quantile_threshold(fld: GridField, at: PointCloud, q: float) -> float:
    """Level at the empirical q-quantile of the field sampled at data points."""
    return quantile_lower_nearest_rank(fld.interpolate(at.points), q)


def level_set(fld: GridField, level: float) -> np.ndarray:
    """Nodes where the field strictly exceeds the level, an (nx, ny) bool mask."""
    return fld.values > level


def dilate(mask, grid: GridSpec, r: float) -> np.ndarray:
    """Nodes closer than r to a node of the mask (r = 0 returns the mask)."""
    if not r >= 0:
        raise ValueError("dilation radius must be nonnegative")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (grid.nx, grid.ny):
        raise ValueError("mask shape does not match the grid")
    if r == 0.0 or not mask.any():
        return mask
    from scipy.ndimage import distance_transform_edt

    return distance_transform_edt(~mask, sampling=(grid.dx, grid.dy)) < r


def directed_hausdorff(a, b) -> float:
    """sup over the points of a of the distance to the nearest point of b."""
    from scipy.spatial import cKDTree

    a, b = as_points(a), as_points(b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("Hausdorff distance needs nonempty sets")
    d, _ = cKDTree(b).query(a)
    return float(d.max())


def hausdorff_distance(a, b) -> float:
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def containment_radius(sigma: float, level: float) -> float:
    """The dilation radius sigma * sqrt(2 log(1 / (2 pi sigma^2 level)));
    only defined while 2 pi sigma^2 level < 1."""
    if not (sigma > 0 and level > 0):
        raise ValueError("sigma and level must be positive")
    arg = 2.0 * np.pi * sigma * sigma * level
    if arg >= 1.0:
        raise ValueError("level too high: containment radius undefined")
    return float(sigma * np.sqrt(2.0 * np.log(1.0 / arg)))


@dataclass
class ContainmentReport:
    """How much of a level set sits inside the dilated truth.

    fraction_strict removes cells near maxima and saddles and tests against
    the base radius; fraction_relaxed keeps saddle-adjacent cells but allows
    them the radius computed at four times the level (vacuously passing when
    that radius is undefined)."""

    level: float
    base_radius: float
    saddle_radius: float | None
    n_level_cells: int
    n_strict: int
    fraction_strict: float
    n_relaxed: int
    fraction_relaxed: float
    notes: dict = field(default_factory=dict)


def containment_check(cells, truth, sigma: float, level: float, eps: float,
                      maxima=None, saddles=None,
                      nu: float = 0.0) -> ContainmentReport:
    """Check that high-density cells hug the truth set, both point arrays.

    Cells within nu of a maximum are always removed (the density diverges
    there). Strict variant: saddle-adjacent cells removed too, the rest must
    lie within base_radius + eps of the truth. Relaxed variant: saddle cells
    stay but are tested against the radius at 4x the level.
    """
    base_r = containment_radius(sigma, level)
    try:
        saddle_r = containment_radius(sigma, 4.0 * level)
    except ValueError:
        saddle_r = None
    if not (0 <= eps < math.inf and 0 <= nu < math.inf):
        raise ValueError("eps and nu must be finite and nonnegative")
    cells, truth = as_points(cells), as_points(truth)
    if len(truth) == 0:
        raise ValueError("distance to an empty truth set is undefined")

    n_cells = len(cells)
    if n_cells == 0:
        return ContainmentReport(level=level, base_radius=base_r,
                                 saddle_radius=saddle_r, n_level_cells=0,
                                 n_strict=0, fraction_strict=1.0,
                                 n_relaxed=0, fraction_relaxed=1.0,
                                 notes={"empty_level_set": True})

    from scipy.spatial import cKDTree

    def near(points, centers):
        if centers is None or len(centers) == 0:
            return np.zeros(len(points), dtype=bool)
        centers = np.asarray(centers, dtype=float).reshape(-1, 2)
        d, _ = cKDTree(centers).query(points)
        return d <= nu

    near_max = near(cells, maxima)
    near_sad = near(cells, saddles)
    d_truth, _ = cKDTree(truth).query(cells)

    keep = ~near_max
    strict = keep & ~near_sad
    ok_strict = d_truth[strict] < base_r + eps
    frac_strict = float(ok_strict.mean()) if strict.any() else 1.0

    ok_relaxed = np.zeros(int(keep.sum()), dtype=bool)
    sub_d = d_truth[keep]
    sub_sad = near_sad[keep]
    ok_relaxed[~sub_sad] = sub_d[~sub_sad] < base_r + eps
    if saddle_r is None:
        ok_relaxed[sub_sad] = True  # saddle bound vacuous at this level
    else:
        ok_relaxed[sub_sad] = sub_d[sub_sad] < saddle_r + eps
    frac_relaxed = float(ok_relaxed.mean()) if keep.any() else 1.0

    return ContainmentReport(
        level=level, base_radius=base_r, saddle_radius=saddle_r,
        n_level_cells=n_cells, n_strict=int(strict.sum()),
        fraction_strict=frac_strict, n_relaxed=int(keep.sum()),
        fraction_relaxed=frac_relaxed,
        notes={"saddle_bound_vacuous": saddle_r is None},
    )


def set_distance_consistency(true_set, est_set) -> float:
    """Hausdorff distance between the truth and estimate point sets; an empty
    set reports an infinite sentinel rather than raising."""
    true_set, est_set = as_points(true_set), as_points(est_set)
    if len(est_set) == 0 or len(true_set) == 0:
        return math.inf
    return hausdorff_distance(true_set, est_set)
