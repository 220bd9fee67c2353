"""Path density: distance from a query point to each traced path, kernel-smoothed.

The estimate at x is the mean over paths of K(d_i / nu) / nu, where d_i is the
exact distance from x to the i-th path polyline and K the raw kernel profile
(no planar normalizer: this smooths a distance, not a density on the plane).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Segments, as_points, segment_distances
from .grids import GridField, GridSpec
from .kernels import gaussian
from .parallel import map_indexed


@dataclass(frozen=True)
class BandwidthPlan:
    """The two smoothing scales: h for the KDE, nu for path distances."""

    h: float
    nu: float

    def __post_init__(self):
        if not (0 < self.h < np.inf and 0 < self.nu < np.inf):
            raise ValueError("bandwidths must be positive and finite")


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
    return BandwidthPlan(h=float(h), nu=float(nu))


@dataclass(frozen=True)
class AscentPath:
    """One path of a PathEnsemble; vertices and times are views of its arrays.

    times holds the accumulated flow time per vertex (iteration index for
    mean-shift paths). trim_hint is the first vertex whose field value has
    gained a configured fraction of the path's total value gain.
    """

    vertices: np.ndarray
    times: np.ndarray
    converged: bool
    trim_hint: int

    @property
    def step_count(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> np.ndarray:
        return self.vertices[0]

    @property
    def end(self) -> np.ndarray:
        return self.vertices[-1]


_PAIR_BLOCK = 65_536  # pairs; four (m, s) float temporaries fit a 2 MB L2 cache


class PathEnsemble:
    """A bundle of traced paths in flat arrays, one path per start point.

    Path i owns rows vertex_offsets[i]:vertex_offsets[i + 1] of `vertices`
    and `times`, and entry i of `converged` (stopped on a tolerance test)
    and `trim_hint`. Its segments are entries offsets[i]:offsets[i + 1] of
    seg_a, the row in `vertices` where each segment starts; a segment ends
    at the next vertex, or at its start when the path has a single vertex.
    """

    def __init__(self, vertices, vertex_offsets, times, converged, trim_hint):
        if len(vertex_offsets) < 2:
            raise ValueError("ensemble needs at least one path")
        self.vertices = vertices
        self.vertex_offsets = vertex_offsets
        self.times = times
        self.converged = converged
        self.trim_hint = trim_hint
        counts = np.diff(vertex_offsets)
        starts = np.ones(len(vertices), dtype=bool)
        starts[vertex_offsets[1:] - 1] = counts == 1
        self.seg_a = np.flatnonzero(starts)
        self.offsets = np.concatenate([[0], np.cumsum(np.maximum(counts - 1, 1))])

    @property
    def n_paths(self) -> int:
        return len(self.vertex_offsets) - 1

    def __getitem__(self, i) -> AscentPath:
        i = range(self.n_paths)[i]
        lo, hi = self.vertex_offsets[i], self.vertex_offsets[i + 1]
        return AscentPath(self.vertices[lo:hi], self.times[lo:hi],
                          bool(self.converged[i]), int(self.trim_hint[i]))

    def trim_drop(self, trims) -> np.ndarray:
        """How many leading vertices each path drops when trimmed by trims[i]
        (a scalar trims every path alike): each path keeps at least its last
        vertex."""
        return np.clip(trims, 0, np.diff(self.vertex_offsets) - 1)

    def segment_block(self, lo: int, hi: int) -> tuple[Segments, np.ndarray]:
        """Segments lo:hi, gathered from `vertices`, and the path of each."""
        first = np.searchsorted(self.offsets, lo, "right") - 1
        end = np.searchsorted(self.offsets, hi)  # one past the last path
        path = np.repeat(np.arange(first, end),
                         np.diff(np.clip(self.offsets[first:end + 1], lo, hi)))
        a = self.seg_a[lo:hi]
        b = np.minimum(a + 1, self.vertex_offsets[path + 1] - 1)
        return Segments.between(self.vertices[a], self.vertices[b]), path

    @cached_property
    def segments(self) -> Segments:
        """All segments and their projection constants, gathered once."""
        n_seg = len(self.seg_a)
        out = np.empty((len(Segments._fields), n_seg))
        # a block at a time, so that no temporary spans all segments
        for lo in range(0, n_seg, _PAIR_BLOCK):
            out[:, lo:lo + _PAIR_BLOCK] = self.segment_block(lo, min(lo + _PAIR_BLOCK, n_seg))[0]
        return Segments(*out)

    def distances(self, points) -> np.ndarray:
        """Per-path min distance for each point: shape (m, n_paths).

        Takes the per-path min of squared distances in blocks of about 6.5e4
        point-segment pairs (several points against all segments, or one
        point against a slice of segments when the ensemble alone has more),
        so that each temporary stays in cache, then one sqrt per (point,
        path). The blocks share one workspace, allocated once per call.
        """
        pts = as_points(points)[:, None]
        segs = self.segments
        n_seg = len(self.seg_a)
        rows = max(1, _PAIR_BLOCK // n_seg)
        cols = min(_PAIR_BLOCK // rows, n_seg)
        d2 = np.empty((min(rows, len(pts)), n_seg))
        work = np.empty((3, d2.shape[0] * cols))
        out = np.empty((len(pts), self.n_paths))
        for s in range(0, len(pts), rows):
            p = pts[s:s + rows]
            for c in range(0, n_seg, cols):
                d = d2[:len(p), c:c + cols]
                segment_distances(p, segs.part(slice(c, c + cols)), squared=True,
                                  out=d, work=[w[:d.size].reshape(d.shape)
                                               for w in work])
            out[s:s + rows] = np.minimum.reduceat(d2[:len(p)], self.offsets[:-1],
                                                  axis=1)
        return np.sqrt(out, out=out)


def estimate_path_density(ensemble: PathEnsemble, nu: float, x):
    """Mean over paths of K(distance / nu) / nu at the query point(s)."""
    if not 0 < nu < np.inf:
        raise ValueError("nu must be positive and finite")
    d = ensemble.distances(x)
    vals = gaussian(d / nu).mean(axis=1) / nu
    return float(vals[0]) if np.ndim(x) == 1 else vals


def path_density_field(ensemble: PathEnsemble, nu: float, grid: GridSpec,
                       workers: int | None = None) -> GridField:
    """The path-density estimate rasterized over every grid node."""
    nodes = grid.nodes()
    chunk = 256  # fixed: output must not depend on the worker count
    blocks = [nodes[s:s + chunk] for s in range(0, len(nodes), chunk)]
    parts = map_indexed(lambda b: estimate_path_density(ensemble, nu, b),
                        blocks, workers=workers)
    values = np.concatenate(parts).reshape(grid.nx, grid.ny)
    return GridField(spec=grid, values=values)
