"""The Gaussian kernel profile, the Gaussian-mixture evaluator, and the 2-D
kernel density estimator built on it, with analytic derivatives.

The raw profile K(t) is what distance-smoothing uses; the 2-D normalizer c_K
is applied only when K is promoted to a probability density on the plane.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import as_points

# c_K, making c_K * K(||u||) integrate to 1 over the plane
NORMALIZER = 1.0 / (2.0 * np.pi)

# the bandwidths the KDE accepts: its derivatives divide by h^4, which must
# stay a normal float
BANDWIDTHS = (1e-76, 1e76)


def gaussian(t):
    """The profile K(t) = exp(-t^2 / 2) for t >= 0, vectorized, without the
    normalizer."""
    return np.exp(-0.5 * t * t)


def check_bandwidth(h: float):
    """Refuse a KDE bandwidth outside BANDWIDTHS (nan included)."""
    lo, hi = BANDWIDTHS
    if not lo <= h <= hi:
        raise ValueError(f"bandwidth h must lie in [{lo:g}, {hi:g}], "
                         f"not {float(h)!r}")


@dataclass(frozen=True)
class PointCloud:
    """An ordered 2-D sample; the input to all estimation."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must have shape (n, 2)")
        if len(pts) < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def bounds(self, margin: float = 0.0):
        """(xmin, xmax, ymin, ymax), optionally padded by a fraction of each range."""
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        pad = margin * (hi - lo)
        return (lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1])

    @property
    def spread(self) -> float:
        """Max coordinate range; the scale fed to bandwidth rules."""
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return float(np.max(hi - lo))


_CHUNK = 1024
_TILE = 65_536  # elements of a weight tile: its 512 KB buffer and the matching
                # rows of the cross term stay in a 2 MB L2 cache


class GaussianMixture:
    """sum_i w_i N2(x - q_i, sigma^2 I): weighted nodes q_i sharing one
    Gaussian scale. The KDE is the mixture with weight 1/n at each data point
    and sigma = h; the filament model is one mixture per noise scale."""

    def __init__(self, sigma: float, nodes: np.ndarray, weights: np.ndarray):
        self.sigma = sigma
        self.nodes = np.ascontiguousarray(nodes)
        self.twice_nodes = 2.0 * self.nodes
        self.node_norms = (self.nodes * self.nodes).sum(axis=1)
        w, (x, y) = np.ascontiguousarray(weights), self.nodes.T
        wx, wy = w * x, w * y
        self.moments = (w, wx, wy, wx * x, wx * y, wy * y)

    def weight_sums(self, pts, order: int) -> list:
        """Sums over the nodes of phi_i w_i, with phi_i the N2(0, sigma^2 I)
        density at p - q_i, from one block of weights: s0 (the mixture's
        value), then for order >= 1 s1x and s1y (times the node's x and y),
        then for order 2 s2xx, s2xy and s2yy.

        The squared distances expand as ||p||^2 + ||q||^2 - 2 p.q. The two
        BLAS steps, the cross term 2 p.q and the moment gemv calls, each see
        the whole block, because their rounding depends on the shape of the
        call. The cross term takes its factor 2 from nodes doubled once:
        scaling by 2 is exact, so pts @ (2 nodes).T has the bits of
        2 (pts @ nodes.T) without a sweep over the block. The elementwise
        chain from the cross term to phi runs over tiles of about _TILE
        elements in one reused buffer, so that a block larger than the cache
        is not swept once per step; each tile's weights overwrite its rows
        of the cross term."""
        cross = pts @ self.twice_nodes.T
        p2 = (pts * pts).sum(axis=1)[:, None]
        var = self.sigma * self.sigma
        rows = max(1, _TILE // len(self.nodes))
        buf = np.empty((min(rows, len(pts)), len(self.nodes)))
        for s in range(0, len(pts), rows):
            c = cross[s:s + rows]
            d2 = buf[:len(c)]
            np.add(p2[s:s + rows], self.node_norms, out=d2)
            d2 -= c
            np.maximum(d2, 0.0, out=d2)
            d2 *= -0.5 / var
            np.exp(d2, out=d2)
            np.divide(d2, 2.0 * np.pi * var, out=c)
        return [cross @ m for m in self.moments[:(1, 3, 6)[order]]]

    def derivatives(self, pts, order: int) -> list:
        """Value, gradient and Hessian of the mixture at pts, up to `order`,
        from its weight sums."""
        s0, *sums = self.weight_sums(pts, order)
        if order == 0:
            return [s0]
        s1x, s1y, *s2 = sums
        px, py = pts[:, 0], pts[:, 1]
        g = np.empty((len(pts), 2))
        g[:, 0] = px * s0 - s1x
        g[:, 1] = py * s0 - s1y
        g *= -1.0 / self.sigma**2
        if order == 1:
            return [s0, g]
        s2xx, s2xy, s2yy = s2
        m00 = px * px * s0 - 2 * px * s1x + s2xx
        m11 = py * py * s0 - 2 * py * s1y + s2yy
        m01 = px * py * s0 - px * s1y - py * s1x + s2xy
        s2, s4 = self.sigma**2, self.sigma**4
        H = np.empty((len(pts), 2, 2))
        H[:, 0, 0] = m00 / s4 - s0 / s2
        H[:, 1, 1] = m11 / s4 - s0 / s2
        H[:, 0, 1] = m01 / s4
        H[:, 1, 0] = H[:, 0, 1]
        return [s0, g, H]


def in_blocks(fn, pts: np.ndarray, rows: int, *args) -> list:
    """fn(block, *args) on consecutive `rows`-row blocks of pts (one empty
    block when pts is empty), each returned term joined over the blocks.

    A block is the unit the BLAS calls of GaussianMixture.weight_sums see
    whole: their rounding depends on the row count, so each field keeps its
    own `rows`, and the cache tiling inside a block leaves the bytes as they
    are."""
    parts = [fn(pts[s:s + rows], *args) for s in range(0, max(len(pts), 1), rows)]
    return [np.concatenate(p) for p in zip(*parts)]


def _unbatch(x, terms: list) -> tuple:
    """Field terms computed on as_points(x), unbatched when x is one point:
    the value as a float, the gradient (2,) and the Hessian (2, 2)."""
    if np.ndim(x) == 1:
        return (float(terms[0][0]),) + tuple(t[0] for t in terms[1:])
    return tuple(terms)


class KernelDensityField:
    """The KDE (1/n) sum_i (c_K/h^2) K(||x - X_i|| / h) as an evaluable scalar
    field: the Gaussian mixture of scale h with weight 1/n at each data
    point, evaluated in blocks of _CHUNK rows.

    The mixture lives in coordinates centred on `center`, the midpoint of the
    data bounds: the squared distances expand ||p||^2 + ||q||^2 - 2 p.q, whose
    rounding grows with ||p||^2, so data far from the origin (projected
    coordinates, say) would otherwise blur the kernel weights.
    """

    def __init__(self, cloud: PointCloud, h: float):
        check_bandwidth(h)
        if not isinstance(cloud, PointCloud):
            cloud = PointCloud(cloud)
        self.h = float(h)
        lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
        self.center = 0.5 * (lo + hi)
        self.mixture = GaussianMixture(self.h, cloud.points - self.center,
                                       np.full(cloud.n, 1.0 / cloud.n))

    def weight_sums(self, pts, order: int) -> list:
        """The mixture's weight sums at an (m, 2) batch of centred points
        (x - center); s0 is the KDE, and s1 / s0 is a centred point too."""
        return in_blocks(self.mixture.weight_sums, pts, _CHUNK, order)

    def derivatives(self, x, order: int) -> tuple:
        """(value, gradient, Hessian) at x up to `order` (0, 1 or 2), from one
        pass over the kernel weights."""
        return _unbatch(x, in_blocks(self.mixture.derivatives,
                                     as_points(x) - self.center, _CHUNK, order))


def kde_density(cloud: PointCloud, h: float, x):
    """Kernel density estimate at x: mean over data of (c_K/h^2) K(||x - X_i|| / h)."""
    return KernelDensityField(cloud, h).derivatives(x, 0)[0]


def kde_gradient(cloud: PointCloud, h: float, x):
    """Analytic gradient of the KDE at x."""
    return KernelDensityField(cloud, h).derivatives(x, 1)[1]

