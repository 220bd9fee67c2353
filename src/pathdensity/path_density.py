"""Path density: distance from a query point to each traced path, kernel-smoothed.

The estimate at x is the mean over paths of K(d_i / nu) / nu, where d_i is the
exact distance from x to the i-th path polyline and K the raw kernel profile
(no planar normalizer: this smooths a distance, not a density on the plane).
"""

from dataclasses import dataclass

import numpy as np

from .flow import AscentPath
from .geometry import as_points, segment_distances
from .grids import GridField, GridSpec
from .kernels import KernelSpec
from .parallel import map_indexed


@dataclass(frozen=True)
class BandwidthPlan:
    """The two smoothing scales: h for the KDE, nu for path distances."""

    h: float
    nu: float
    source: str = "user"

    def __post_init__(self):
        if self.h <= 0 or self.nu <= 0:
            raise ValueError("bandwidths must be positive")


def default_bandwidths(n: int, spread: float, c_h: float = 0.125,
                       c_nu: float = 0.125) -> BandwidthPlan:
    """Rate-optimal schedule: h ~ (log n)^(1/4) / n^(1/8), nu ~ log(n) / n^(1/3),
    both scaled by the data spread."""
    if n < 2:
        raise ValueError("need at least 2 points to set bandwidths")
    if spread <= 0:
        raise ValueError("spread must be positive")
    ln = np.log(n)
    h = c_h * spread * ln**0.25 / n**0.125
    nu = c_nu * spread * ln / n ** (1.0 / 3.0)
    return BandwidthPlan(h=float(h), nu=float(nu),
                         source=f"rate-optimal(c_h={c_h}, c_nu={c_nu})")


def trimmed_vertices(path: AscentPath, trim: int) -> np.ndarray:
    """Vertices after dropping the first `trim`; never fewer than the last one."""
    if trim <= 0:
        return path.vertices
    if trim >= len(path.vertices):
        return path.vertices[-1:]
    return path.vertices[trim:]


def distance_to_path(x, path: AscentPath, trim: int = 0) -> float:
    """Exact minimum distance from x to the (trimmed) path polyline."""
    d = PathEnsemble([path], trim).distances(x)[:, 0]
    return float(d[0]) if np.ndim(x) == 1 else d


_PAIR_BLOCK = 4_000_000


class PathEnsemble:
    """A bundle of traced paths, one per data point, with a shared trim."""

    def __init__(self, paths: list[AscentPath], trim: int = 0):
        if not paths:
            raise ValueError("ensemble needs at least one path")
        self.paths = list(paths)
        self.trim = int(trim)
        self._build_segments()

    def _build_segments(self):
        # consecutive vertices of each path; a single-vertex path keeps one
        # zero-length segment so that every path has at least one
        verts = [trimmed_vertices(p, self.trim) for p in self.paths]
        counts = np.array([len(v) for v in verts])
        flat = np.concatenate(verts)
        ends = np.cumsum(counts)
        single = counts == 1
        keep_a = np.ones(len(flat), dtype=bool)
        keep_a[ends - 1] = single
        keep_b = np.ones(len(flat), dtype=bool)
        keep_b[ends - counts] = single
        self.seg_a = flat[keep_a]
        self.seg_b = flat[keep_b]
        self.offsets = np.concatenate([[0], np.cumsum(np.maximum(counts - 1, 1))])

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def distances(self, points) -> np.ndarray:
        """Per-path min distance for each point: shape (m, n_paths).

        Works in blocks of about 4e6 point-segment pairs: several points
        against all segments, or one point against a slice of segments when
        the ensemble alone has more.
        """
        pts = as_points(points)[:, None]
        n_seg = len(self.seg_a)
        rows = max(1, _PAIR_BLOCK // n_seg)
        cols = _PAIR_BLOCK // rows
        out = np.empty((len(pts), self.n_paths))
        for s in range(0, len(pts), rows):
            parts = [segment_distances(pts[s:s + rows], self.seg_a[c:c + cols],
                                       self.seg_b[c:c + cols])
                     for c in range(0, n_seg, cols)]
            d = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            out[s:s + rows] = np.minimum.reduceat(d, self.offsets[:-1], axis=1)
        return out


def estimate_path_density(ensemble: PathEnsemble, kernel: KernelSpec,
                          nu: float, x):
    """Mean over paths of K(distance / nu) / nu at the query point(s)."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    d = ensemble.distances(x)
    vals = kernel.raw(d / nu).mean(axis=1) / nu
    return float(vals[0]) if np.ndim(x) == 1 else vals


def path_density_field(ensemble: PathEnsemble, kernel: KernelSpec, nu: float,
                       grid: GridSpec, workers: int | None = None) -> GridField:
    """The path-density estimate rasterized over every grid node."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    nodes = grid.nodes()
    chunk = 1024  # fixed: output must not depend on the worker count
    blocks = [nodes[s:s + chunk] for s in range(0, len(nodes), chunk)]

    def job(block):
        d = ensemble.distances(block)
        return kernel.raw(d / nu).mean(axis=1) / nu

    parts = map_indexed(job, blocks, workers=workers)
    values = np.concatenate(parts).reshape(grid.nx, grid.ny)
    return GridField(spec=grid, values=values)
