"""Radial kernel profiles and the 2-D kernel density estimator with analytic derivatives.

The raw profile K(t) is what distance-smoothing uses; the 2-D normalizer c_K
is applied only when K is promoted to a probability density on the plane.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import as_points

_PROFILES = ("gaussian", "truncated-gaussian")


@dataclass(frozen=True)
class KernelSpec:
    """A radial profile K(t) on [0, inf) plus the constant c_K making
    c_K * K(||u||) integrate to 1 over the plane."""

    profile: str = "gaussian"
    cutoff: float | None = None
    normalizer: float = field(init=False)

    def __post_init__(self):
        if self.profile not in _PROFILES:
            raise ValueError(f"unknown kernel profile {self.profile!r}")
        if self.profile == "truncated-gaussian":
            if self.cutoff is None or self.cutoff <= 0:
                raise ValueError("truncated-gaussian needs a positive cutoff radius")
            mass = 2.0 * np.pi * (1.0 - np.exp(-0.5 * self.cutoff**2))
        else:
            if self.cutoff is not None:
                raise ValueError("cutoff only applies to truncated-gaussian")
            mass = 2.0 * np.pi
        object.__setattr__(self, "normalizer", 1.0 / mass)

    def raw(self, t):
        """Profile K(t); vectorized, no normalizer."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("kernel argument must be nonnegative")
        v = np.exp(-0.5 * t * t)
        if self.profile == "truncated-gaussian":
            v = np.where(t <= self.cutoff, v, 0.0)
        return v


def kernel_value(kernel: KernelSpec, t):
    """Raw profile value K(t); scalar in, scalar out."""
    out = kernel.raw(t)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


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


_CHUNK = 2048


def squared_distance_matrix(pts: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """||p - q||^2 for all pairs via the inner-product expansion (BLAS path)."""
    d2 = (pts * pts).sum(axis=1)[:, None] + (nodes * nodes).sum(axis=1)[None, :]
    d2 -= 2.0 * (pts @ nodes.T)
    return np.maximum(d2, 0.0, out=d2)


def _profile_weights(kernel: KernelSpec, d2: np.ndarray, h: float) -> np.ndarray:
    """K(||diff|| / h) for the whole squared-distance block."""
    k = np.exp(d2 * (-0.5 / (h * h)))
    if kernel.profile == "truncated-gaussian":
        k[d2 > (kernel.cutoff * h) ** 2] = 0.0
    return k


def _check_kde_args(cloud, h):
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(np.asarray(cloud))
    if h <= 0:
        raise ValueError("bandwidth h must be positive")
    return cloud


def kde_density(cloud: PointCloud, kernel: KernelSpec, h: float, x):
    """Kernel density estimate at x: mean over data of (c_K/h^2) K(||x - X_i|| / h)."""
    cloud = _check_kde_args(cloud, h)
    pts = as_points(x)
    data = cloud.points
    out = np.empty(len(pts))
    c = kernel.normalizer / (h * h * cloud.n)
    for s in range(0, len(pts), _CHUNK):
        sl = slice(s, min(s + _CHUNK, len(pts)))
        k = _profile_weights(kernel, squared_distance_matrix(pts[sl], data), h)
        out[sl] = c * k.sum(axis=1)
    return float(out[0]) if np.ndim(x) == 1 else out


def kde_gradient(cloud: PointCloud, kernel: KernelSpec, h: float, x):
    """Analytic gradient of the KDE at x."""
    cloud = _check_kde_args(cloud, h)
    pts = as_points(x)
    data = cloud.points
    out = np.empty((len(pts), 2))
    c = kernel.normalizer / (h**4 * cloud.n)
    for s in range(0, len(pts), _CHUNK):
        sl = slice(s, min(s + _CHUNK, len(pts)))
        k = _profile_weights(kernel, squared_distance_matrix(pts[sl], data), h)
        s0 = k.sum(axis=1)
        s1 = k @ data
        out[sl] = -c * (pts[sl] * s0[:, None] - s1)
    return out[0] if np.ndim(x) == 1 else out


def kde_hessian(cloud: PointCloud, kernel: KernelSpec, h: float, x):
    """Analytic Hessian of the KDE at x; exactly symmetric by construction."""
    cloud = _check_kde_args(cloud, h)
    pts = as_points(x)
    data = cloud.points
    out = np.empty((len(pts), 2, 2))
    c = kernel.normalizer / (h**4 * cloud.n)
    xx = data[:, 0] * data[:, 0]
    xy = data[:, 0] * data[:, 1]
    yy = data[:, 1] * data[:, 1]
    for s in range(0, len(pts), _CHUNK):
        sl = slice(s, min(s + _CHUNK, len(pts)))
        p = pts[sl]
        k = _profile_weights(kernel, squared_distance_matrix(p, data), h)
        s0 = k.sum(axis=1)
        s1 = k @ data
        # second moments of (x - X_i) under the kernel weights
        m00 = p[:, 0] ** 2 * s0 - 2 * p[:, 0] * s1[:, 0] + k @ xx
        m11 = p[:, 1] ** 2 * s0 - 2 * p[:, 1] * s1[:, 1] + k @ yy
        m01 = p[:, 0] * p[:, 1] * s0 - p[:, 0] * s1[:, 1] - p[:, 1] * s1[:, 0] + k @ xy
        out[sl, 0, 0] = c * (m00 / h**2 - s0)
        out[sl, 1, 1] = c * (m11 / h**2 - s0)
        out[sl, 0, 1] = c * m01 / h**2
        out[sl, 1, 0] = out[sl, 0, 1]
    return out[0] if np.ndim(x) == 1 else out


class KernelDensityField:
    """The KDE as an evaluable scalar field (value / gradient / hessian)."""

    def __init__(self, cloud: PointCloud, kernel: KernelSpec, h: float):
        if h <= 0:
            raise ValueError("bandwidth h must be positive")
        self.cloud = cloud
        self.kernel = kernel
        self.h = float(h)

    def value(self, x):
        return kde_density(self.cloud, self.kernel, self.h, x)

    def gradient(self, x):
        return kde_gradient(self.cloud, self.kernel, self.h, x)

    def hessian(self, x):
        return kde_hessian(self.cloud, self.kernel, self.h, x)
