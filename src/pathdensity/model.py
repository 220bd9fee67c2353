"""Generative mixture of filaments, clusters, and a uniform background.

The density is alpha_0 * uniform(box) + sum_i alpha_i * integral of
w_i(s) * N2(x - f_i(s), sigma_i^2 I) ds + sum_j alpha_j * N2(x - z_j, sigma_j^2 I).
Line integrals run over arclength-parameterized polylines; the model exposes
value, gradient and Hessian from one pass and so can be traced like any
other field.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (as_points, point_on_polyline, polyline_arclength,
                       polyline_self_intersects)
from .kernels import GaussianMixture, PointCloud, _unbatch

# line-integral node density: roughly this many evaluation points per sigma
# of arclength wherever the weight density is not vanishing
_NODES_PER_SIGMA = 8


class Filament:
    """An arclength-parameterized curve with a length-position weight density
    and a Gaussian noise scale."""

    def __init__(self, vertices, sigma: float, weight: str = "uniform",
                 beta_a: float = 0.5, beta_b: float = 0.5):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 2:
            raise ValueError("filament needs a polyline of at least 2 vertices")
        if not np.isfinite(v).all():
            raise ValueError("filament vertices must be finite")
        if not 0 < sigma < np.inf:
            raise ValueError("sigma must be finite and positive")
        if not (0 < beta_a < np.inf and 0 < beta_b < np.inf):
            raise ValueError("beta shapes must be finite and positive")
        if weight not in ("uniform", "beta"):
            raise ValueError(f"unknown weight density {weight!r}")
        self.vertices = v
        self.sigma = float(sigma)
        self.weight = weight
        self.beta_a = float(beta_a)
        self.beta_b = float(beta_b)
        self.arclength = polyline_arclength(v)
        self.length = float(self.arclength[-1])
        if self.length <= 0:
            raise ValueError("filament has zero length")
        if polyline_self_intersects(v):
            raise ValueError("filament polyline self-intersects")

    @classmethod
    def from_endpoints(cls, a, b, sigma: float, weight: str = "uniform",
                       beta_a: float = 0.5, beta_b: float = 0.5):
        """A straight filament densified to 32 vertices per sigma."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        length = float(np.hypot(*(b - a)))
        k = max(2, int(np.ceil(32 * length / sigma)) + 1)
        t = np.linspace(0.0, 1.0, k)[:, None]
        return cls(a[None, :] * (1 - t) + b[None, :] * t, sigma,
                   weight=weight, beta_a=beta_a, beta_b=beta_b)

    def point_at(self, s) -> np.ndarray:
        return point_on_polyline(self.vertices, self.arclength, s)

    def weight_ppf(self, u):
        """Arclength position with weight-CDF value u. For the arcsine weight,
        beta(1/2, 1/2), this is sin^2(pi u / 2), the closed form Boost's
        ibeta_inv (under scipy's betaincinv) uses for that shape: the same
        bits without importing scipy, and NaN for u outside [0, 1] as there."""
        u = np.asarray(u, dtype=float)
        if self.weight == "uniform":
            return self.length * u
        if self.beta_a == self.beta_b == 0.5:
            u = np.where((u >= 0.0) & (u <= 1.0), u, np.nan)
            return self.length * np.sin(0.5 * np.pi * u) ** 2
        from scipy.special import betaincinv

        return self.length * betaincinv(self.beta_a, self.beta_b, u)

    def quadrature(self):
        """(points (N,2), weights (N,)) approximating integral w(s) g(f(s)) ds
        as sum weights * g(points); the weight density is absorbed by placing
        nodes through its CDF; two Gauss-Legendre nodes per CDF interval."""
        # enough CDF intervals for the target node density over the central
        # 99.8% of the weight mass
        us = np.linspace(0.001, 0.999, 513)
        s = self.weight_ppf(us)
        dsdu = np.max(np.diff(s)) / (us[1] - us[0])
        n = max(8, int(np.ceil(dsdu * _NODES_PER_SIGMA / (self.sigma * 2))))
        edges = np.linspace(0.0, 1.0, n + 1)
        du = 1.0 / n
        off = du / (2.0 * np.sqrt(3.0))
        centers = (edges[:-1] + edges[1:]) / 2.0
        u = np.sort(np.concatenate([centers - off, centers + off]))
        w = np.full(2 * n, du / 2.0)
        pts = self.point_at(self.weight_ppf(u))
        return pts, w

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        s = self.weight_ppf(rng.random(n))
        return self.point_at(s) + self.sigma * rng.standard_normal((n, 2))


@dataclass(frozen=True)
class Cluster:
    center: tuple[float, float]
    sigma: float

    def __post_init__(self):
        if not (np.shape(self.center) == (2,) and np.isfinite(self.center).all()):
            raise ValueError("cluster center must be two finite coordinates")
        if not 0 < self.sigma < np.inf:
            raise ValueError("cluster sigma must be finite and positive")


class FilamentModel:
    """The full mixture; immutable after construction and safe to share."""

    def __init__(self, filaments, filament_weights, clusters, cluster_weights,
                 background_weight: float, box):
        self.filaments = list(filaments)
        self.filament_weights = np.asarray(filament_weights, dtype=float).reshape(-1)
        self.clusters = [c if isinstance(c, Cluster) else Cluster(tuple(c[0]), float(c[1]))
                         for c in clusters]
        self.cluster_weights = np.asarray(cluster_weights, dtype=float).reshape(-1)
        self.background_weight = float(background_weight)
        self.box = tuple(float(b) for b in box)

        weights = np.concatenate([[self.background_weight], self.filament_weights,
                                  self.cluster_weights])
        if not np.all((weights >= 0) & (weights <= 1)):
            raise ValueError("component weights must lie in [0, 1]")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise ValueError("component weights must sum to 1")
        if len(self.filaments) != len(self.filament_weights):
            raise ValueError("one weight per filament required")
        if len(self.clusters) != len(self.cluster_weights):
            raise ValueError("one weight per cluster required")
        xmin, xmax, ymin, ymax = self.box
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("degenerate box")
        if not np.isfinite([xmax - xmin, ymax - ymin]).all():
            raise ValueError("box bounds and their spans must be finite")

    # -- geometry helpers -------------------------------------------------

    @property
    def box_area(self) -> float:
        xmin, xmax, ymin, ymax = self.box
        return (xmax - xmin) * (ymax - ymin)

    @property
    def max_sigma(self) -> float:
        """The largest noise scale of a component of positive weight, 0 if none."""
        return max((g.sigma for g in self._mixtures), default=0.0)

    def anchor_points(self) -> np.ndarray:
        """Vertices of the filaments and centers of the clusters of positive
        weight (the set the detector is meant to recover)."""
        parts = [f.vertices for a, f in zip(self.filament_weights, self.filaments) if a > 0]
        parts += [np.asarray([c.center])
                  for a, c in zip(self.cluster_weights, self.clusters) if a > 0]
        return np.concatenate(parts) if parts else np.empty((0, 2))

    def _in_box(self, pts):
        xmin, xmax, ymin, ymax = self.box
        return ((pts[:, 0] >= xmin) & (pts[:, 0] <= xmax)
                & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax))

    def _on_box_edge(self, pts, tol=1e-12):
        xmin, xmax, ymin, ymax = self.box
        scale = max(xmax - xmin, ymax - ymin)
        near = lambda a, b: np.abs(a - b) <= tol * scale
        on_x = (near(pts[:, 0], xmin) | near(pts[:, 0], xmax)) & \
               (pts[:, 1] >= ymin - tol) & (pts[:, 1] <= ymax + tol)
        on_y = (near(pts[:, 1], ymin) | near(pts[:, 1], ymax)) & \
               (pts[:, 0] >= xmin - tol) & (pts[:, 0] <= xmax + tol)
        return on_x | on_y

    @cached_property
    def _mixtures(self) -> list[GaussianMixture]:
        # built on first evaluation: sampling never needs the quadrature
        by_sigma: dict[float, list] = {}
        for alpha, f in zip(self.filament_weights, self.filaments):
            if alpha > 0:
                nodes, w = f.quadrature()
                by_sigma.setdefault(f.sigma, []).append((nodes, alpha * w))
        for alpha, c in zip(self.cluster_weights, self.clusters):
            if alpha > 0:
                by_sigma.setdefault(c.sigma, []).append(
                    (np.asarray([c.center], dtype=float), np.asarray([alpha])))
        return [GaussianMixture(s, np.concatenate([n for n, _ in parts]),
                                np.concatenate([w for _, w in parts]))
                for s, parts in sorted(by_sigma.items())]

    # -- field interface ---------------------------------------------------

    def derivatives(self, x, order: int) -> tuple:
        """(value, gradient, Hessian) of the density at x up to `order`
        (0, 1 or 2), from one pass over each noise scale's Gaussian weights."""
        pts = as_points(x)
        if order > 0 and self.background_weight > 0 and self._on_box_edge(pts).any():
            raise ValueError("density is not differentiable on the box boundary")
        terms = [np.zeros((len(pts),) + shape)
                 for shape in [(), (2,), (2, 2)][:order + 1]]
        if self.background_weight > 0:
            terms[0] += self.background_weight * self._in_box(pts) / self.box_area
        for g in self._mixtures:
            for total, part in zip(terms, g.derivatives(pts, order)):
                total += part
        return _unbatch(x, terms)

    def value(self, x):
        return self.derivatives(x, 0)[0]

    def gradient(self, x):
        return self.derivatives(x, 1)[1]

    def hessian(self, x):
        return self.derivatives(x, 2)[2]

    # -- sampling ----------------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator) -> PointCloud:
        """n independent draws; component per point, then the component draw."""
        if n < 1:
            raise ValueError("n must be >= 1")
        weights = np.concatenate([[self.background_weight], self.filament_weights,
                                  self.cluster_weights])
        comp = rng.choice(len(weights), size=n, p=weights)
        out = np.empty((n, 2))
        idx = np.nonzero(comp == 0)[0]
        if len(idx):
            xmin, xmax, ymin, ymax = self.box
            u = rng.random((len(idx), 2))
            out[idx, 0] = xmin + (xmax - xmin) * u[:, 0]
            out[idx, 1] = ymin + (ymax - ymin) * u[:, 1]
        for i, f in enumerate(self.filaments):
            idx = np.nonzero(comp == 1 + i)[0]
            if len(idx):
                out[idx] = f.sample(len(idx), rng)
        base = 1 + len(self.filaments)
        for j, c in enumerate(self.clusters):
            idx = np.nonzero(comp == base + j)[0]
            if len(idx):
                out[idx] = np.asarray(c.center) + c.sigma * rng.standard_normal((len(idx), 2))
        return PointCloud(out)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "box": list(self.box),
            "background_weight": self.background_weight,
            "filaments": [
                {
                    "vertices": f.vertices.tolist(),
                    "sigma": f.sigma,
                    "weight": float(self.filament_weights[i]),
                    "length_density": (
                        {"kind": "uniform"} if f.weight == "uniform"
                        else {"kind": "beta", "a": f.beta_a, "b": f.beta_b}
                    ),
                }
                for i, f in enumerate(self.filaments)
            ],
            "clusters": [
                {"center": list(c.center), "sigma": c.sigma,
                 "weight": float(self.cluster_weights[j])}
                for j, c in enumerate(self.clusters)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FilamentModel":
        filaments, fw = [], []
        for spec in d.get("filaments", []):
            dens = spec.get("length_density", {"kind": "uniform"})
            filaments.append(Filament(
                np.asarray(spec["vertices"], dtype=float),
                sigma=float(spec["sigma"]),
                weight=dens["kind"],
                beta_a=float(dens.get("a", 0.5)),
                beta_b=float(dens.get("b", 0.5)),
            ))
            fw.append(float(spec["weight"]))
        clusters, cw = [], []
        for spec in d.get("clusters", []):
            clusters.append(Cluster(tuple(spec["center"]), float(spec["sigma"])))
            cw.append(float(spec["weight"]))
        return cls(filaments, fw, clusters, cw,
                   background_weight=float(d.get("background_weight", 0.0)),
                   box=tuple(d["box"]))

    @classmethod
    def load(cls, path) -> "FilamentModel":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


# -- builtin models ----------------------------------------------------------

def cluster_model(centers, sigma: float, box) -> FilamentModel:
    """Equal-weight Gaussian clusters of one noise scale, no background."""
    centers = as_points(centers)
    k = len(centers)
    return FilamentModel([], [], [(tuple(c), sigma) for c in centers],
                         np.full(k, 1.0 / k), background_weight=0.0, box=box)


def two_gaussian_model(separation: float = 2.0) -> FilamentModel:
    """Two sigma-0.5 clusters on the x-axis in the box [-3, 3] x [-2.5, 2.5]."""
    half = separation / 2.0
    return cluster_model([(-half, 0.0), (half, 0.0)], 0.5, (-3.0, 3.0, -2.5, 2.5))


def _largest_remainder_counts(total: int, proportions: np.ndarray) -> np.ndarray:
    """Integer allocation with each count within 1 of total * proportion."""
    exact = total * proportions / proportions.sum()
    counts = np.floor(exact).astype(int)
    rem = exact - counts
    short = total - counts.sum()
    for i in np.argsort(-rem)[:short]:
        counts[i] += 1
    return counts


def random_pentagon_model(rng: np.random.Generator, n: int = 500,
                          background: bool = False):
    """Five random vertices on the unit square, joined in the order of their
    angle about the centroid into a simple pentagon; each side is a filament
    of noise scale 0.03 with an endpoint-heavy beta(1/2, 1/2) weight.

    Points are split across sides proportionally to side length (each count
    within 1 of the exact share). With background=True, n uniform points on
    the square are appended and the mixture gets a 0.5 background weight.
    Returns (model, cloud).
    """
    verts = rng.random((5, 2))
    centroid = verts.mean(axis=0)
    ring = verts[np.argsort(np.arctan2(verts[:, 1] - centroid[1],
                                       verts[:, 0] - centroid[0]))]
    edges = [(ring[i], ring[(i + 1) % 5]) for i in range(5)]
    filaments = [Filament.from_endpoints(a, b, 0.03, weight="beta",
                                         beta_a=0.5, beta_b=0.5)
                 for a, b in edges]
    lengths = np.asarray([f.length for f in filaments])
    shares = lengths / lengths.sum()
    bg = 0.5 if background else 0.0
    model = FilamentModel(filaments, (1.0 - bg) * shares, [], [],
                          background_weight=bg, box=(0.0, 1.0, 0.0, 1.0))

    counts = _largest_remainder_counts(n, lengths)
    parts = [f.sample(c, rng) for f, c in zip(filaments, counts) if c > 0]
    pts = np.concatenate(parts)
    if background:
        pts = np.concatenate([pts, rng.random((n, 2))])
    return model, PointCloud(pts)
