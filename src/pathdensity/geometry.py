"""Planar computational-geometry primitives: point/segment distances and polylines."""

from typing import NamedTuple

import numpy as np


def as_points(x) -> np.ndarray:
    """Coerce to an (m, 2) float array; a single (2,) point becomes (1, 2)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"expected points of shape (m, 2), got {a.shape}")
    return a


class Segments(NamedTuple):
    """Segments a -> b with the constants of the point projection: start
    (ax, ay), direction (dx, dy) and squared length len2. len2 is inf where
    it would be 0 (a zero-length segment, or one so short that len2
    underflows), so that the projection parameter comes out 0 there. Leading
    axes broadcast against the query points."""

    ax: np.ndarray
    ay: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    len2: np.ndarray

    @classmethod
    def between(cls, seg_a, seg_b) -> "Segments":
        """The segments seg_a -> seg_b, two (..., 2) endpoint arrays."""
        seg_a = np.asarray(seg_a, dtype=float)
        seg_b = np.asarray(seg_b, dtype=float)
        # contiguous copies: a strided start more than doubles the time of px, py
        ax = np.ascontiguousarray(seg_a[..., 0])
        ay = np.ascontiguousarray(seg_a[..., 1])
        dx = seg_b[..., 0] - ax
        dy = seg_b[..., 1] - ay
        len2 = dx * dx + dy * dy
        return cls(ax, ay, dx, dy, np.where(len2 > 0.0, len2, np.inf))

    def part(self, key) -> "Segments":
        """The segments at index or slice `key` of the leading axis."""
        return Segments(*(c[key] for c in self))


def segment_distances(points, segments: Segments, squared: bool = False,
                      out=None, work=(None, None, None)) -> np.ndarray:
    """Euclidean distance from points to segments, or its square.

    points is a (..., 2) array whose leading axes broadcast against the
    segments': points[:, None] against (s,) segments gives an (m, s) result.
    A zero-length segment gives the distance to its start. The square skips
    the sqrt, which is monotone and correctly rounded, so the sqrt of a min
    over squares equals the min over the distances bit for bit. `out`, and
    the three arrays of `work` that hold the temporaries, have the result's
    shape when given.
    """
    points = np.asarray(points, dtype=float)
    px = np.subtract(points[..., 0], segments.ax, out=out)
    py = np.subtract(points[..., 1], segments.ay, out=work[0])
    t = np.multiply(px, segments.dx, out=work[1])
    tmp = np.multiply(py, segments.dy, out=work[2])
    t += tmp
    t /= segments.len2
    np.clip(t, 0.0, 1.0, out=t)
    px -= np.multiply(t, segments.dx, out=tmp)
    py -= np.multiply(t, segments.dy, out=tmp)
    px *= px
    py *= py
    px += py
    return px if squared else np.sqrt(px, out=px)


def polyline_arclength(vertices: np.ndarray) -> np.ndarray:
    """Cumulative arclength at each vertex, starting at 0."""
    vertices = np.asarray(vertices, dtype=float)
    steps = np.hypot(np.diff(vertices[:, 0]), np.diff(vertices[:, 1]))
    return np.concatenate([[0.0], np.cumsum(steps)])


def point_on_polyline(vertices: np.ndarray, arclen: np.ndarray, s) -> np.ndarray:
    """Point(s) at arclength position(s) s along the polyline."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    x = np.interp(s, arclen, vertices[:, 0])
    y = np.interp(s, arclen, vertices[:, 1])
    return np.column_stack([x, y])


def _orient(a, b, c):
    # sign of the cross product (b-a) x (c-a); (m,) for broadcast inputs
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
        b[..., 1] - a[..., 1]
    ) * (c[..., 0] - a[..., 0])


def polyline_self_intersects(vertices: np.ndarray) -> bool:
    """True when any two non-adjacent segments of the polyline properly cross.

    Touching at shared endpoints (adjacent segments) does not count. Only
    pairs whose bounding boxes overlap are tested: a proper crossing point
    lies in both boxes, and the rounding of the orientations of two nearly
    collinear segments that lie apart cannot then pass for a crossing.
    """
    v = np.asarray(vertices, dtype=float)
    a, b = v[:-1], v[1:]
    xlo, xhi = np.minimum(a[:, 0], b[:, 0]), np.maximum(a[:, 0], b[:, 0])
    ylo, yhi = np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1])
    # one segment against the later non-adjacent ones at a time: memory stays
    # linear in the vertex count
    for i in range(len(a) - 2):
        j = i + 2
        near = j + np.flatnonzero((xlo[j:] <= xhi[i]) & (xhi[j:] >= xlo[i])
                                  & (ylo[j:] <= yhi[i]) & (yhi[j:] >= ylo[i]))
        if len(near) == 0:  # the usual case along a smooth curve
            continue
        q1, q2 = a[near], b[near]
        if np.any((_orient(q1, q2, a[i]) * _orient(q1, q2, b[i]) < 0)
                  & (_orient(a[i], b[i], q1) * _orient(a[i], b[i], q2) < 0)):
            return True
    return False
