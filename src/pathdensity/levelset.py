"""Level sets of a raster field, Hausdorff distances, and the containment
report that checks detected high-density cells against the truth.
A level set is an (nx, ny) bool node mask (`GridSpec.mask_points` gives its
node coordinates); every other set is an (m, 2) array of points."""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_points
from .grids import GridField
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


def directed_hausdorff(a, b) -> float:
    """sup over the points of a of the distance to the nearest point of b."""
    from scipy.spatial import cKDTree

    a, b = as_points(a), as_points(b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("Hausdorff distance needs nonempty sets")
    d, _ = cKDTree(b).query(a)
    return float(d.max())


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two point sets; infinite when either set
    is empty."""
    a, b = as_points(a), as_points(b)
    if len(a) == 0 or len(b) == 0:
        return math.inf
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def containment_radius(sigma: float, level: float) -> float:
    """The dilation radius sigma * sqrt(2 log(1 / (2 pi sigma^2 level)));
    only defined while 0 < 2 pi sigma^2 level < 1."""
    if not (sigma > 0 and level > 0):
        raise ValueError("sigma and level must be positive")
    arg = 2.0 * np.pi * sigma * sigma * level
    if arg >= 1.0:
        raise ValueError("level too high: containment radius undefined")
    r = float(sigma * np.sqrt(2.0 * np.log(1.0 / arg))) if arg > 0 else math.inf
    if not r < math.inf:
        raise ValueError(f"2 pi sigma^2 level = {arg!r}: radius not finite")
    return r


@dataclass
class ContainmentReport:
    """How much of a level set lies near the truth: of the n_level_cells
    cells, the n_strict away from maxima and saddles are tested against
    base_radius, and fraction_strict of them pass."""

    level: float
    base_radius: float
    n_level_cells: int
    n_strict: int
    fraction_strict: float


def containment_check(cells, truth, sigma: float, level: float, eps: float,
                      maxima=None, saddles=None,
                      nu: float = 0.0) -> ContainmentReport:
    """Check that high-density cells hug the truth set; cells, truth, maxima
    and saddles are point arrays.

    Cells within nu of a maximum or a saddle are removed (the density
    diverges at a maximum); each remaining cell must lie within
    base_radius + eps of the truth.
    """
    base_r = containment_radius(sigma, level)
    if not (0 <= eps < math.inf and 0 <= nu < math.inf):
        raise ValueError("eps and nu must be finite and nonnegative")
    cells, truth = as_points(cells), as_points(truth)
    if len(truth) == 0:
        raise ValueError("distance to an empty truth set is undefined")

    from scipy.spatial import cKDTree

    strict = np.ones(len(cells), dtype=bool)
    for centers in (maxima, saddles):
        if centers is not None and len(centers):
            strict &= cKDTree(as_points(centers)).query(cells)[0] > nu
    d_truth, _ = cKDTree(truth).query(cells[strict])
    ok = d_truth < base_r + eps
    return ContainmentReport(
        level=level, base_radius=base_r, n_level_cells=len(cells),
        n_strict=int(strict.sum()),
        fraction_strict=float(ok.mean()) if len(ok) else 1.0)
