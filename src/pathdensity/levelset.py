"""Level sets of a raster field, dilations, Hausdorff distances, and the
containment report that checks detected high-density cells against the truth."""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_points
from .grids import GridField, GridSpec
from .kernels import PointCloud


class PlanarSet:
    """A subset of the plane: either sample points (optionally dilated by a
    symbolic radius) or a boolean node mask on a grid."""

    def __init__(self, points=None, mask=None, grid: GridSpec | None = None,
                 radius: float = 0.0):
        if (points is None) == (mask is None):
            raise ValueError("provide exactly one of points / mask")
        if mask is not None and grid is None:
            raise ValueError("a mask needs its grid")
        self.points = None if points is None else as_points(points)
        self.mask = None if mask is None else np.asarray(mask, dtype=bool)
        self.grid = grid
        self.radius = float(radius)
        if self.mask is not None and self.mask.shape != (grid.nx, grid.ny):
            raise ValueError("mask shape does not match the grid")

    @classmethod
    def from_points(cls, points, radius: float = 0.0) -> "PlanarSet":
        return cls(points=points, radius=radius)

    @classmethod
    def from_mask(cls, mask, grid: GridSpec) -> "PlanarSet":
        return cls(mask=mask, grid=grid)

    @property
    def is_mask(self) -> bool:
        return self.mask is not None

    @property
    def is_empty(self) -> bool:
        if self.is_mask:
            return not bool(self.mask.any())
        return len(self.points) == 0

    def member_points(self) -> np.ndarray:
        """Core sample points (mask nodes or the stored points)."""
        if self.is_mask:
            ii, jj = np.nonzero(self.mask)
            return np.column_stack([self.grid.xmin + ii * self.grid.dx,
                                    self.grid.ymin + jj * self.grid.dy])
        return self.points

    def distance_to(self, query) -> np.ndarray:
        """Distance from query points to the (dilated) set; 0 inside."""
        from scipy.spatial import cKDTree

        pts = self.member_points()
        if len(pts) == 0:
            raise ValueError("distance to an empty set is undefined")
        tree = cKDTree(pts)
        d, _ = tree.query(as_points(query))
        return np.maximum(d - self.radius, 0.0)

    def contains(self, query) -> np.ndarray:
        return self.distance_to(query) <= 0.0 if self.radius > 0 else \
            self.distance_to(query) == 0.0


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


def level_set(fld: GridField, level: float) -> PlanarSet:
    """Nodes where the field strictly exceeds the level (saturated nodes count)."""
    mask = fld.values > level
    if fld.saturated is not None:
        mask = mask | fld.saturated
    return PlanarSet.from_mask(mask, fld.spec)


def dilate(s: PlanarSet, r: float) -> PlanarSet:
    """All points within distance < r of the set (r = 0 returns the set)."""
    if r < 0:
        raise ValueError("dilation radius must be nonnegative")
    if r == 0.0:
        return s
    if s.is_mask:
        if not s.mask.any():
            return s
        from scipy.ndimage import distance_transform_edt

        dist = distance_transform_edt(~s.mask, sampling=(s.grid.dx, s.grid.dy))
        return PlanarSet.from_mask(dist < r, s.grid)
    return PlanarSet.from_points(s.points, radius=s.radius + r)


def directed_hausdorff(a: PlanarSet, b: PlanarSet) -> float:
    """sup over a of the distance to b (on the core point samples)."""
    from scipy.spatial import cKDTree

    pa = a.member_points()
    pb = b.member_points()
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("Hausdorff distance needs nonempty sets")
    d, _ = cKDTree(pb).query(pa)
    return float(d.max())


def hausdorff_distance(a: PlanarSet, b: PlanarSet) -> float:
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def containment_radius(sigma: float, level: float) -> float:
    """The dilation radius sigma * sqrt(2 log(1 / (2 pi sigma^2 level)));
    only defined while 2 pi sigma^2 level < 1."""
    if sigma <= 0 or level <= 0:
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


def containment_check(level_cells: PlanarSet, truth: PlanarSet, sigma: float,
                      level: float, eps: float, maxima=None, saddles=None,
                      nu: float = 0.0) -> ContainmentReport:
    """Check that high-density cells hug the truth set.

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

    cells = level_cells.member_points()
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
    d_truth = truth.distance_to(cells)

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


def set_distance_consistency(true_set: PlanarSet, est_set: PlanarSet) -> float:
    """Hausdorff distance between truth and estimate masks; an empty estimate
    reports an infinite sentinel rather than raising."""
    if est_set.is_empty or true_set.is_empty:
        return math.inf
    return hausdorff_distance(true_set, est_set)
