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


# the default constants of the bandwidth schedule (--c-h and --c-nu)
C_H, C_NU = 0.125, 0.125


def default_bandwidths(n: int, spread: float, c_h: float = C_H,
                       c_nu: float = C_NU) -> BandwidthPlan:
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


# Douglas-Peucker tolerance of the paths that estimate and converge raster,
# in units of nu: the path density moves by at most 6.1e-4 of its peak 1 / nu
SIMPLIFY_TOLERANCE = 1e-3

_PAIR_BLOCK = 65_536  # pairs; four (m, s) float temporaries fit a 2 MB L2 cache


class PathEnsemble:
    """A bundle of traced paths in flat arrays, one path per start point.

    Path i owns rows vertex_offsets[i]:vertex_offsets[i + 1] of `vertices`
    and `times`, and entry i of `converged` (stopped on a tolerance test)
    and `trim_hint`. Its segments are entries offsets[i]:offsets[i + 1] of
    seg_a, the row in `vertices` where each segment starts; a segment ends
    at the next vertex, or at its start when the path has a single vertex.
    Both segment arrays are built on first use. `times` holds the flow time
    at each vertex (the iteration index for mean-shift paths); trim_hint[i]
    is the vertex where path i's trimmed copy starts, as traced the first
    vertex whose field value has gained a set fraction of the path's total
    gain.
    """

    def __init__(self, vertices, vertex_offsets, times, converged, trim_hint):
        if len(vertex_offsets) < 2:
            raise ValueError("ensemble needs at least one path")
        self.vertices = vertices
        self.vertex_offsets = vertex_offsets
        self.times = times
        self.converged = converged
        self.trim_hint = trim_hint

    @cached_property
    def seg_a(self) -> np.ndarray:
        counts = np.diff(self.vertex_offsets)
        starts = np.ones(len(self.vertices), dtype=bool)
        starts[self.vertex_offsets[1:] - 1] = counts == 1
        return np.flatnonzero(starts)

    @cached_property
    def offsets(self) -> np.ndarray:
        counts = np.diff(self.vertex_offsets)
        return np.concatenate([[0], np.cumsum(np.maximum(counts - 1, 1))])

    @property
    def n_paths(self) -> int:
        return len(self.vertex_offsets) - 1

    @property
    def step_count(self) -> int:
        """Each path's vertices less one, summed over the paths."""
        return len(self.vertices) - self.n_paths

    def __getitem__(self, i) -> "PathEnsemble":
        """Path i as an ensemble of one path, on views of this one's arrays."""
        i = range(self.n_paths)[i]
        lo, hi = self.vertex_offsets[i], self.vertex_offsets[i + 1]
        return PathEnsemble(self.vertices[lo:hi], np.array([0, hi - lo]),
                            self.times[lo:hi], self.converged[i:i + 1],
                            self.trim_hint[i:i + 1])

    def simplified(self, eps: float) -> "PathEnsemble":
        """A Douglas-Peucker copy: every path keeps its first and last vertex,
        and each interval between kept vertices is split at its vertex
        farthest from the chord segment across it until no vertex lies more
        than eps from its chord. All open intervals split in one pass per
        round. The copy keeps the rows of `vertices` and `times` it keeps,
        `converged`, and moves each trim hint to the first kept vertex at or
        after it.

        Each path and its copy then lie within Hausdorff distance eps of each
        other, so a path distance moves by at most eps and the path density
        by at most exp(-1/2) eps / nu^2.
        """
        if not 0 <= eps < np.inf:
            raise ValueError(f"tolerance must be finite and nonnegative, not {eps!r}")
        v = self.vertices
        first, last = self.vertex_offsets[:-1], self.vertex_offsets[1:] - 1
        keep = np.zeros(len(v), dtype=bool)
        keep[first] = keep[last] = True
        lo, hi = first, last
        while True:
            wide = hi - lo > 1
            lo, hi = lo[wide], hi[wide]
            if len(lo) == 0:
                break
            inner = hi - lo - 1
            at = np.cumsum(inner) - inner  # each interval's first inner row
            interval = np.repeat(np.arange(len(lo)), inner)
            idx = np.arange(len(interval)) + np.repeat(lo + 1 - at, inner)
            chords = Segments.between(v[lo], v[hi]).part(interval)
            d2 = segment_distances(v[idx], chords, squared=True)
            far = np.maximum.reduceat(d2, at)
            # the first vertex at each interval's largest distance
            split = np.minimum.reduceat(
                np.where(d2 == far[interval], idx, len(v)), at)
            cut = far > eps * eps
            keep[split[cut]] = True
            lo = np.concatenate([lo[cut], split[cut]])
            hi = np.concatenate([split[cut], hi[cut]])
        rows = np.flatnonzero(keep)
        before = np.concatenate([[0], np.cumsum(keep)])  # kept rows before each row
        offsets = before[self.vertex_offsets]
        return PathEnsemble(v[rows], offsets, self.times[rows], self.converged,
                            before[first + self.trim_hint] - offsets[:-1])

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
