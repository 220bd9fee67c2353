"""The Gaussian kernel profile and the 2-D kernel density estimator with analytic derivatives.

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


def squared_distance_matrix(pts: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """||p - q||^2 for all pairs via the inner-product expansion (BLAS path)."""
    d2 = (pts * pts).sum(axis=1)[:, None] + (nodes * nodes).sum(axis=1)[None, :]
    d2 -= 2.0 * (pts @ nodes.T)
    return np.maximum(d2, 0.0, out=d2)


def _weight_sums(data: np.ndarray, h: float, pts: np.ndarray, order: int) -> list:
    """Row sums of the weight block K(||p - X_i|| / h) over the data X_i,
    built once per chunk of rows: s0 = sum K, then for order >= 1
    s1 = sum K X_i (m, 2), and for order 2 the second moments
    sum K (x_i^2, x_i y_i, y_i^2) (m, 3)."""
    sums = [np.empty(len(pts)), np.empty((len(pts), 2)),
            np.empty((len(pts), 3))][:order + 1]
    if order == 2:
        moments = (data[:, 0] * data[:, 0], data[:, 0] * data[:, 1],
                   data[:, 1] * data[:, 1])
    for s in range(0, len(pts), _CHUNK):
        sl = slice(s, s + _CHUNK)
        k = np.exp(squared_distance_matrix(pts[sl], data) * (-0.5 / (h * h)))
        sums[0][sl] = k.sum(axis=1)
        if order >= 1:
            sums[1][sl] = k @ data
        if order == 2:
            for j, col in enumerate(moments):
                sums[2][sl, j] = k @ col
    return sums


def _kde_terms(h: float, n: int, pts: np.ndarray, sums: list) -> list:
    """KDE value, gradient and Hessian at pts from the weight sums of an
    n-point cloud, as far as the sums go."""
    s0 = sums[0]
    terms = [NORMALIZER / (h * h * n) * s0]
    c = NORMALIZER / (h**4 * n)
    if len(sums) > 1:
        s1 = sums[1]
        terms.append(-c * (pts * s0[:, None] - s1))
    if len(sums) > 2:
        px, py = pts[:, 0], pts[:, 1]
        kxx, kxy, kyy = sums[2].T
        # second moments of (x - X_i) under the kernel weights
        m00 = px**2 * s0 - 2 * px * s1[:, 0] + kxx
        m11 = py**2 * s0 - 2 * py * s1[:, 1] + kyy
        m01 = px * py * s0 - px * s1[:, 1] - py * s1[:, 0] + kxy
        H = np.empty((len(pts), 2, 2))
        H[:, 0, 0] = c * (m00 / h**2 - s0)
        H[:, 1, 1] = c * (m11 / h**2 - s0)
        H[:, 0, 1] = c * m01 / h**2
        H[:, 1, 0] = H[:, 0, 1]
        terms.append(H)
    return terms


def _unbatch(x, terms: list) -> tuple:
    """Field terms computed on as_points(x), unbatched when x is one point:
    the value as a float, the gradient (2,) and the Hessian (2, 2)."""
    if np.ndim(x) == 1:
        return (float(terms[0][0]),) + tuple(t[0] for t in terms[1:])
    return tuple(terms)


def _kde_derivatives(cloud, h: float, x, order: int) -> tuple:
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(np.asarray(cloud))
    check_bandwidth(h)
    pts = as_points(x)
    sums = _weight_sums(cloud.points, h, pts, order)
    return _unbatch(x, _kde_terms(h, cloud.n, pts, sums))


def kde_density(cloud: PointCloud, h: float, x):
    """Kernel density estimate at x: mean over data of (c_K/h^2) K(||x - X_i|| / h)."""
    return _kde_derivatives(cloud, h, x, 0)[0]


def kde_gradient(cloud: PointCloud, h: float, x):
    """Analytic gradient of the KDE at x."""
    return _kde_derivatives(cloud, h, x, 1)[1]


def kde_hessian(cloud: PointCloud, h: float, x):
    """Analytic Hessian of the KDE at x; exactly symmetric by construction."""
    return _kde_derivatives(cloud, h, x, 2)[2]


class KernelDensityField:
    """The KDE as an evaluable scalar field."""

    def __init__(self, cloud: PointCloud, h: float):
        check_bandwidth(h)
        self.cloud = cloud
        self.h = float(h)

    def derivatives(self, x, order: int) -> tuple:
        """(value, gradient, Hessian) at x up to `order` (0, 1 or 2), from one
        pass over the kernel weights."""
        return _kde_derivatives(self.cloud, self.h, x, order)
