"""Rectangular rasters of scalar values; nodes double as cell centers."""

from dataclasses import dataclass

import numpy as np

from .geometry import as_points


@dataclass(frozen=True)
class GridSpec:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2x2 nodes")
        # a finite span needs finite bounds
        if not np.isfinite([self.xmax - self.xmin, self.ymax - self.ymin]).all():
            raise ValueError("grid bounds and their spans must be finite")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("grid bounds are degenerate")

    @classmethod
    def from_bounds(cls, bounds, nx: int):
        """A square nx x nx grid over (xmin, xmax, ymin, ymax)."""
        xmin, xmax, ymin, ymax = bounds
        return cls(float(xmin), float(xmax), float(ymin), float(ymax),
                   int(nx), int(nx))

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return (self.ymax - self.ymin) / (self.ny - 1)

    @property
    def cell_diagonal(self) -> float:
        return float(np.hypot(self.dx, self.dy))

    def xs(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.ymin, self.ymax, self.ny)

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (nx*ny, 2), x-major order."""
        gx, gy = np.meshgrid(self.xs(), self.ys(), indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    def mask_points(self, mask) -> np.ndarray:
        """Coordinates (xmin + i dx, ymin + j dy) of the nodes an (nx, ny) bool
        mask selects, shape (m, 2)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.nx, self.ny):
            raise ValueError("mask shape does not match the grid")
        ii, jj = np.nonzero(mask)
        return np.column_stack([self.xmin + ii * self.dx, self.ymin + jj * self.dy])


@dataclass
class GridField:
    """Finite node values on a GridSpec."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.spec.nx, self.spec.ny):
            raise ValueError(f"values shape {v.shape} != grid ({self.spec.nx}, {self.spec.ny})")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite field values")
        self.values = v

    def interpolate(self, points) -> np.ndarray:
        """Bilinear interpolation at arbitrary points (clamped to the bounds)."""
        pts = as_points(points)
        s = self.spec
        fx = np.clip((pts[:, 0] - s.xmin) / s.dx, 0.0, s.nx - 1.0)
        fy = np.clip((pts[:, 1] - s.ymin) / s.dy, 0.0, s.ny - 1.0)
        i0 = np.minimum(fx.astype(int), s.nx - 2)
        j0 = np.minimum(fy.astype(int), s.ny - 2)
        tx = fx - i0
        ty = fy - j0
        v = self.values
        return ((1 - tx) * (1 - ty) * v[i0, j0]
                + tx * (1 - ty) * v[i0 + 1, j0]
                + (1 - tx) * ty * v[i0, j0 + 1]
                + tx * ty * v[i0 + 1, j0 + 1])
