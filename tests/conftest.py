from dataclasses import dataclass

import numpy as np
import pytest

from pathdensity.geometry import Segments, as_points, segment_distances
from pathdensity.kernels import PointCloud
from pathdensity.oracle import point_density_terms
from pathdensity.path_density import PathEnsemble


class QuadraticPeakField:
    """g(x) = -||x||^2 / 2: unique maximum at the origin, flow x(t) = x0 e^-t."""

    def derivatives(self, x, order):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        terms = (-0.5 * (x**2).sum(axis=1), -x.copy(),
                 np.broadcast_to(-np.eye(2), (len(x), 2, 2)).copy())
        return terms[:order + 1]


def polyline_ensemble(polylines) -> PathEnsemble:
    """An ensemble of the given vertex arrays, one path each; times count
    vertices, and every path reads converged with trim hint 0."""
    polylines = [np.asarray(v, dtype=float).reshape(-1, 2) for v in polylines]
    counts = np.array([len(v) for v in polylines], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    n = len(polylines)
    vertices = np.concatenate(polylines) if n else np.empty((0, 2))
    times = np.arange(len(vertices), dtype=float) - np.repeat(offsets[:-1], counts)
    return PathEnsemble(vertices, offsets, times, np.ones(n, dtype=bool),
                        np.zeros(n, dtype=np.int64))


def convex_hull_contains(hull_points, query, tol: float = 0.0) -> np.ndarray:
    """Membership of query points in the convex hull of `hull_points`, padded by tol."""
    from scipy.spatial import ConvexHull

    hull_points = np.asarray(hull_points, dtype=float)
    q = as_points(query)
    if len(hull_points) < 3:
        # degenerate hull: distance to the single point or the segment
        ends = Segments.between(hull_points[0], hull_points[-1])
        return segment_distances(q, ends) <= tol
    hull = ConvexHull(hull_points)
    # hull.equations: outward normals, A x + b <= 0 inside
    vals = q @ hull.equations[:, :2].T + hull.equations[:, 2][None, :]
    return (vals <= tol).all(axis=1)


def fd_gradient(value_fn, x, step):
    """Central finite differences of a scalar field."""
    x = np.asarray(x, dtype=float)
    out = np.empty(2)
    for k in range(2):
        e = np.zeros(2)
        e[k] = step
        out[k] = (value_fn(x + e) - value_fn(x - e)) / (2 * step)
    return out


def fd_hessian(gradient_fn, x, step):
    """Central finite differences of a gradient field; symmetrized."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(2):
        e = np.zeros(2)
        e[k] = step
        cols.append((np.asarray(gradient_fn(x + e)) - np.asarray(gradient_fn(x - e)))
                    / (2 * step))
    H = np.column_stack(cols)
    return 0.5 * (H + H.T)


@pytest.fixture(scope="session")
def small_cloud():
    rng = np.random.default_rng(1234)
    return PointCloud(rng.standard_normal((60, 2)))


@dataclass(frozen=True)
class SaddleFourSum:
    """Both sides of the saddle four-sum identity, as measured on a batch.

    at_saddle is p(s); four_sums[k] is sum_i p(s + eps[k] u_i); beta holds
    (beta0, beta1) of the weighted line fit four_sum = beta0 + beta1 * eps,
    so beta0 is the four-sum extrapolated to eps -> 0; se is the bootstrap
    standard error of at_saddle - beta0.
    """

    at_saddle: float
    eps: np.ndarray
    four_sums: np.ndarray
    beta: np.ndarray
    se: float

    @property
    def gap(self) -> float:
        return self.at_saddle - float(self.beta[0])

    @property
    def holds(self) -> bool:
        """p(s) matches the extrapolated four-sum within 3 se, and the sum
        resolves eps (beta1 > 0) instead of fitting a flat line to noise."""
        return abs(self.gap) <= 3.0 * self.se and self.beta[1] > 0


def saddle_four_sum(segs, saddle, directions, eps, r1, rng, n_boot=200):
    """Check p(s) = lim_{eps -> 0} sum_i p(s + eps u_i) on a traced batch.

    Each p is the two-radius estimate at radii r1, 2 r1, kept as per-path
    terms so that the four-sums and p(s) can be bootstrapped jointly over
    paths. The four-sum is fitted as a line in eps, weighted by its
    Monte-Carlo variance; the bootstrap refits the line with the same
    weights.
    """
    saddle = np.asarray(saddle, dtype=float)
    eps = np.asarray(eps, dtype=float)
    directions = np.asarray(directions, dtype=float)

    def terms(x):
        return point_density_terms(segs, x, r1)

    n = segs.n_paths
    at_s = terms(saddle)
    sums = np.column_stack([sum(terms(saddle + e * u) for u in directions)
                            for e in eps])  # (n_paths, len(eps))
    X = np.column_stack([np.ones_like(eps), eps])
    w = 1.0 / np.maximum(sums.var(axis=0, ddof=1) / n, 1e-18)
    A = X.T @ (w[:, None] * X)

    def fit(f):
        return np.linalg.solve(A, X.T @ (w * f))

    beta = fit(sums.mean(axis=0))
    gaps = np.empty(n_boot)
    for b in range(n_boot):
        counts = np.bincount(rng.integers(0, n, n), minlength=n) / n
        gaps[b] = counts @ at_s - fit(counts @ sums)[0]
    return SaddleFourSum(at_saddle=float(at_s.mean()), eps=eps,
                         four_sums=sums.mean(axis=0), beta=beta,
                         se=float(gaps.std(ddof=1)))
