"""The Gaussian kernel profile, the Gaussian-mixture evaluator, and the 2-D
kernel density estimator built on it, with analytic derivatives.

The raw profile K(t) is what distance-smoothing uses; the 2-D normalizer c_K
is applied only when K is promoted to a probability density on the plane.
"""

import threading
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


_TILE = 65_536  # elements of a weight tile: its two 512 KB buffers stay in a
                # 2 MB L2 cache
_LOOP_NODES = 16  # mixtures of at most this many nodes sum their weights
                  # node by node instead of by gemm


class GaussianMixture:
    """sum_i w_i N2(x - q_i, sigma^2 I): weighted nodes q_i sharing one
    Gaussian scale. The KDE is the mixture with weight 1/n at each data point
    and sigma = h; the filament model is one mixture per noise scale."""

    def __init__(self, sigma: float, nodes: np.ndarray, weights: np.ndarray):
        self.sigma = sigma
        self.nodes = np.ascontiguousarray(nodes)
        # coordinates scaled so that a squared distance is the exponent
        # ||p - q||^2 / (2 sigma^2), and the moments (w, w x, w y, w x^2,
        # w x y, w y^2) times the density's normalizer 1 / (2 pi sigma^2)
        self.scale = np.sqrt(0.5) / sigma
        self.scaled_nodes = np.ascontiguousarray((self.nodes * self.scale).T)
        w, (x, y) = np.ascontiguousarray(weights), self.nodes.T
        wx, wy = w * x, w * y
        self.moments = np.column_stack([w, wx, wy, wx * x, wx * y, wy * y]) / (
            2.0 * np.pi * sigma * sigma)
        self._tiles = threading.local()

    def weight_sums(self, pts, order: int) -> list:
        """Sums over the nodes of phi_i w_i, with phi_i the N2(0, sigma^2 I)
        density at p - q_i: s0 (the mixture's value), then for order >= 1
        s1x and s1y (times the node's x and y), then for order 2 s2xx, s2xy
        and s2yy.

        A row's bits depend on that row alone, not on the batch it is in,
        the batch's size or the order asked for. The weights
        exp(-||p - q||^2 / (2 sigma^2)) come from direct differences in
        scaled coordinates, so a point's weight at its own node is exactly 1.
        Up to _LOOP_NODES nodes, one node's weights at a time are added into
        each sum, without a gemm's fused multiply-adds, so that the sums at
        points placed symmetrically about the nodes cancel exactly. More
        nodes go in row tiles of about _TILE weights in two reused buffers,
        and each tile's sums are one gemm against all six moments. The tile
        height is fixed for the call, a multiple of 8 (padded with zero
        rows): OpenBLAS (0.3.31) rounds a row alike at every such height up
        to the tile's, whereas a call of one to three rows, a height of 62
        or 63, or fewer moment columns round differently. The tiles run on a
        16-element ufunc buffer, too small for any tiled row (over 16 nodes)
        to go through it: at numpy's default of 8,192 the two broadcast
        subtractions copy rows of up to about 2,730 nodes through the
        buffer, 1.2 ns an element against 0.26 ns unbuffered (numpy 2.4.6).
        The caller's buffer size is restored on return."""
        n, m, k = len(self.nodes), len(pts), (1, 3, 6)[order]
        px, py = np.ascontiguousarray(pts.T) * self.scale
        if n <= _LOOP_NODES:
            qx, qy = self.scaled_nodes[:, :, None]
            d2 = np.square(px - qx)
            d2 += np.square(py - qy)
            phi = np.exp(np.negative(d2, out=d2), out=d2)
            sums = np.zeros((k, m))
            for w, mom in zip(phi, self.moments[:, :k, None]):
                sums += w * mom
            return list(sums)
        rows = max(8, min(_TILE // n // 8 * 8, -(-m // 8) * 8))
        qx, qy = self.scaled_nodes
        # the two tile buffers are kept per thread from call to call: a tracer
        # makes thousands of calls, and buffers that glibc unmaps and maps
        # again each time cost a page fault per 4 KB
        bufs = getattr(self._tiles, "bufs", None)
        if bufs is None or len(bufs[0]) < rows:
            bufs = self._tiles.bufs = np.empty((2, rows, n))
        phi, tmp = bufs[:, :rows]
        tile = np.empty((rows, 6))
        sums = np.empty((k, m))
        with np.errstate():  # restores the caller's buffer size on exit
            np.setbufsize(16)
            for s in range(0, m, rows):
                r = min(rows, m - s)
                d2, dy2 = phi[:r], tmp[:r]
                np.subtract(px[s:s + r, None], qx, out=d2)
                np.subtract(py[s:s + r, None], qy, out=dy2)
                d2 *= d2
                dy2 *= dy2
                d2 += dy2
                np.exp(np.negative(d2, out=d2), out=d2)
                phi[r:] = 0.0
                np.matmul(phi, self.moments, out=tile)
                sums[:, s:s + r] = tile[:r, :k].T
        return list(sums)

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


def _unbatch(x, terms: list) -> tuple:
    """Field terms computed on as_points(x), unbatched when x is one point:
    the value as a float, the gradient (2,) and the Hessian (2, 2)."""
    if np.ndim(x) == 1:
        return (float(terms[0][0]),) + tuple(t[0] for t in terms[1:])
    return tuple(terms)


class KernelDensityField:
    """The KDE (1/n) sum_i (c_K/h^2) K(||x - X_i|| / h) as an evaluable scalar
    field: the Gaussian mixture of scale h with weight 1/n at each data
    point.

    The mixture lives in coordinates centred on `center`, the midpoint of the
    data bounds: the Hessian's moment terms p^2 s0 - 2 p s1 + s2 cancel, with
    a rounding that grows with ||p||^2, so data far from the origin
    (projected coordinates, say) would otherwise blur the derivatives.
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

    def derivatives(self, x, order: int) -> tuple:
        """(value, gradient, Hessian) at x up to `order` (0, 1 or 2), from one
        pass over the kernel weights."""
        return _unbatch(x, self.mixture.derivatives(as_points(x) - self.center,
                                                    order))


def kde_density(cloud: PointCloud, h: float, x):
    """Kernel density estimate at x: mean over data of (c_K/h^2) K(||x - X_i|| / h)."""
    return KernelDensityField(cloud, h).derivatives(x, 0)[0]


def kde_gradient(cloud: PointCloud, h: float, x):
    """Analytic gradient of the KDE at x."""
    return KernelDensityField(cloud, h).derivatives(x, 1)[1]

