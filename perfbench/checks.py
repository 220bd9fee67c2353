"""Output checks for the benchmark, computed apart from the pathdensity package.

Every check reads the files the CLI wrote and recomputes what they should
hold with plain numpy. Each returns a list of failure messages; an empty list
means the output passed.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

FIELD_RTOL = 1e-9
ASCENT_RTOL = 1e-12
LEVEL_RTOL = 1e-12
HAUSDORFF_SIGMAS = 4.0


# -- readers ------------------------------------------------------------------

def read_points(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_paths(path) -> list:
    """Vertices of every path, indexed by path id; ids and steps must run
    0, 1, 2, ... without gaps."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ids = rows[:, 0].astype(np.int64)
    steps = rows[:, 1].astype(np.int64)
    cuts = np.nonzero(np.diff(ids))[0] + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [len(ids)]])
    if not np.array_equal(ids[starts], np.arange(len(starts))):
        raise ValueError(f"{path}: path ids are not 0..n-1 in order")
    paths = []
    for a, b in zip(starts, ends):
        if not np.array_equal(steps[a:b], np.arange(b - a)):
            raise ValueError(f"{path}: path {ids[a]} steps are not 0..k")
        paths.append(rows[a:b, 2:4])
    return paths


class Grid:
    """A raster as written by the CLI: node coordinates and values."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as f:
            head = [f.readline() for _ in range(2)]
        meta = dict(kv.split("=") for line in head
                    for kv in line.lstrip("#").split())
        self.nx, self.ny = int(meta["nx"]), int(meta["ny"])
        self.xmin, self.xmax = float(meta["xmin"]), float(meta["xmax"])
        self.ymin, self.ymax = float(meta["ymin"]), float(meta["ymax"])
        rows = np.loadtxt(path, delimiter=",", skiprows=3, ndmin=2)
        if len(rows) != self.nx * self.ny:
            raise ValueError(f"{path}: {len(rows)} rows for a "
                             f"{self.nx}x{self.ny} grid")
        self.nodes = rows[:, :2]
        self.values = rows[:, 2].reshape(self.nx, self.ny)

    def interpolate(self, pts) -> np.ndarray:
        """Bilinear interpolation at points inside the grid."""
        dx = (self.xmax - self.xmin) / (self.nx - 1)
        dy = (self.ymax - self.ymin) / (self.ny - 1)
        fx = np.clip((pts[:, 0] - self.xmin) / dx, 0.0, self.nx - 1.0)
        fy = np.clip((pts[:, 1] - self.ymin) / dy, 0.0, self.ny - 1.0)
        i = np.minimum(fx.astype(np.int64), self.nx - 2)
        j = np.minimum(fy.astype(np.int64), self.ny - 2)
        tx, ty = fx - i, fy - j
        v = self.values
        return ((1 - tx) * (1 - ty) * v[i, j] + tx * (1 - ty) * v[i + 1, j]
                + (1 - tx) * ty * v[i, j + 1] + tx * ty * v[i + 1, j + 1])


def read_levelset(path) -> np.ndarray:
    """Level-set rows (i, j, x, y)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, 4)


def read_critical_points(path) -> list:
    out = []
    with open(path, encoding="utf-8") as f:
        next(f)
        for line in f:
            x, y, kind, e1, e2 = line.strip().split(",")
            out.append((np.array([float(x), float(y)]), kind,
                        float(e1), float(e2)))
    return out


def digest(directory, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update((Path(directory) / name).read_bytes())
    return h.hexdigest()


# -- geometry -----------------------------------------------------------------

def segment_distance(p, a, b) -> np.ndarray:
    """Distance from point(s) p, shape (2,) or (m, 1, 2), to each segment
    a[k] -> b[k]; shape (s,) or (m, s)."""
    ab = b - a
    ap = p - a
    len2 = (ab * ab).sum(axis=-1)
    t = (ap * ab).sum(axis=-1) / np.where(len2 > 0, len2, 1.0)
    t = np.where(len2 > 0, np.clip(t, 0.0, 1.0), 0.0)
    c = ap - t[..., None] * ab
    return np.sqrt((c * c).sum(axis=-1))


def polyline_segments(paths):
    """Segments of every polyline plus each polyline's first segment index;
    a single vertex counts as one zero-length segment."""
    a, b, first = [], [], []
    count = 0
    for v in paths:
        if len(v) == 1:
            v = np.vstack([v, v])
        a.append(v[:-1])
        b.append(v[1:])
        first.append(count)
        count += len(v) - 1
    return np.concatenate(a), np.concatenate(b), np.asarray(first)


def distance_to_polylines(pts, polylines) -> np.ndarray:
    """Distance from each point to the nearest of the polylines."""
    a, b, _ = polyline_segments(polylines)
    chunk = max(1, 2_000_000 // len(a))
    return np.concatenate([
        segment_distance(pts[s:s + chunk, None, :], a, b).min(axis=1)
        for s in range(0, len(pts), chunk)])


# -- the model density, from model.json alone ----------------------------------

class ModelDensity:
    """Density of a saved filament model by its own quadrature.

    Each filament has an arcsine (beta(1/2, 1/2)) length weight, so it is
    integrated in the angle theta with s = L (1 - cos theta) / 2, where the
    weight becomes the constant 1 / pi and the integrand is smooth.
    Eight-point Gauss-Legendre panels keep the arc-length spacing below
    sigma / 2.
    """

    def __init__(self, doc: dict):
        if doc.get("clusters") or any(
                f["length_density"] != {"kind": "beta", "a": 0.5, "b": 0.5}
                for f in doc["filaments"]):
            raise ValueError("only arcsine-weighted filaments are supported")
        self.box = doc["box"]
        self.background = float(doc["background_weight"])
        self.sigma = max(f["sigma"] for f in doc["filaments"])
        self.polylines = [np.asarray(f["vertices"], dtype=float)
                          for f in doc["filaments"]]
        gx, gw = np.polynomial.legendre.leggauss(8)
        nodes, weights, sigmas = [], [], []
        for f, v in zip(doc["filaments"], self.polylines):
            steps = np.hypot(*np.diff(v, axis=0).T)
            arc = np.concatenate([[0.0], np.cumsum(steps)])
            length = arc[-1]
            edges = np.linspace(0.0, math.pi,
                                math.ceil(math.pi * length / f["sigma"]) + 1)
            half = 0.5 * np.diff(edges)
            theta = ((edges[:-1] + half)[:, None] + half[:, None] * gx).ravel()
            s = 0.5 * length * (1 - np.cos(theta))
            nodes.append(np.column_stack([np.interp(s, arc, v[:, 0]),
                                          np.interp(s, arc, v[:, 1])]))
            weights.append(f["weight"] * (half[:, None] * gw).ravel() / math.pi)
            sigmas.append(np.full(len(s), f["sigma"]))
        self.nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights)
        self.sigmas = np.concatenate(sigmas)

    def value(self, pts) -> np.ndarray:
        pts = np.atleast_2d(pts)
        xmin, xmax, ymin, ymax = self.box
        inside = ((pts[:, 0] >= xmin) & (pts[:, 0] <= xmax)
                  & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax))
        out = self.background * inside / ((xmax - xmin) * (ymax - ymin))
        s2 = self.sigmas ** 2
        coef = self.weights / (2 * math.pi * s2)
        for k, p in enumerate(pts):
            d2 = ((self.nodes - p) ** 2).sum(axis=1)
            out[k] += (coef * np.exp(-0.5 * d2 / s2)).sum()
        return out

    def fd_gradient(self, p, step) -> np.ndarray:
        e = np.eye(2) * step
        v = self.value(np.array([p + e[0], p - e[0], p + e[1], p - e[1]]))
        return np.array([v[0] - v[1], v[2] - v[3]]) / (2 * step)

    def fd_hessian(self, p, step) -> np.ndarray:
        e0, e1 = np.array([step, 0.0]), np.array([0.0, step])
        q = np.array([p, p + e0, p - e0, p + e1, p - e1,
                      p + e0 + e1, p + e0 - e1, p - e0 + e1, p - e0 - e1])
        v = self.value(q)
        hxx = (v[1] - 2 * v[0] + v[2]) / step ** 2
        hyy = (v[3] - 2 * v[0] + v[4]) / step ** 2
        hxy = (v[5] - v[6] - v[7] + v[8]) / (4 * step ** 2)
        return np.array([[hxx, hxy], [hxy, hyy]])


# -- estimate checks ------------------------------------------------------------

def sample_nodes(grid: Grid, count: int, seed: int) -> np.ndarray:
    """Flat indices of the grid nodes the field check recomputes."""
    rng = np.random.default_rng(seed)
    return rng.choice(grid.nx * grid.ny, size=min(count, grid.nx * grid.ny),
                      replace=False)


def check_field(grid: Grid, paths, nu: float, nodes) -> list:
    """field.csv at the given nodes equals the mean over paths of
    exp(-d^2 / 2 nu^2) / nu, d the exact point-to-polyline distance."""
    a, b, first = polyline_segments(paths)
    flat = grid.values.ravel()
    bad = []
    for k in nodes:
        d = np.minimum.reduceat(segment_distance(grid.nodes[k], a, b), first)
        want = np.exp(-0.5 * (d / nu) ** 2).mean() / nu
        got = flat[k]
        if not abs(got - want) <= FIELD_RTOL * max(abs(got), abs(want)):
            bad.append(f"field at node {k}: {got!r} != brute force {want!r}")
    return bad


def check_levelset(grid: Grid, rows, level: float) -> list:
    """levelset.csv is exactly the set of nodes whose value exceeds level."""
    want = set(zip(*np.nonzero(grid.values > level)))
    got = set(zip(rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)))
    if len(got) != len(rows) or got != want:
        return [f"level set has {len(rows)} rows, {len(got ^ want)} nodes "
                f"differ from field > level"]
    return []


def check_level(grid: Grid, points, quantile: float, level: float) -> list:
    """level is the lower nearest-rank quantile of the interpolated field at
    the data points."""
    v = np.sort(grid.interpolate(points))
    want = v[max(math.ceil(quantile * len(v)) - 1, 0)]
    if not abs(level - want) <= LEVEL_RTOL * abs(want):
        return [f"level {level!r} != data quantile {want!r}"]
    return []


def check_starts(points, paths) -> list:
    """Path i starts at data point i."""
    if len(paths) != len(points):
        return [f"{len(paths)} paths for {len(points)} points"]
    starts = np.array([p[0] for p in paths])
    wrong = np.nonzero(np.any(starts != points, axis=1))[0]
    if len(wrong):
        return [f"{len(wrong)} paths do not start at their data point "
                f"(first: path {wrong[0]})"]
    return []


def check_ascent(points, h: float, paths, which) -> list:
    """A Gaussian KDE of the data never drops along the chosen paths by more
    than ASCENT_RTOL relative."""
    bad = []
    for i in which:
        v = paths[i]
        d2 = ((v[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        f = np.exp(-0.5 * d2 / (h * h)).sum(axis=1)
        drop = f[:-1] - f[1:]
        if np.any(drop > ASCENT_RTOL * f[:-1]):
            step = int(np.argmax(drop / f[:-1]))
            bad.append(f"KDE drops along path {i} at step {step + 1}")
    return bad


def levelset_hausdorff(rows, polylines) -> float:
    """Directed Hausdorff distance from the level-set nodes to the filaments."""
    if len(rows) == 0:
        return math.inf
    return float(distance_to_polylines(rows[:, 2:4], polylines).max())


def check_hausdorff(distances, sigma: float) -> list:
    """The median over operations of the level set's directed Hausdorff
    distance to the filaments is at most HAUSDORFF_SIGMAS sigma."""
    med = float(np.median(distances))
    if not med <= HAUSDORFF_SIGMAS * sigma:
        return [f"median Hausdorff {med / sigma:.2f} sigma > "
                f"{HAUSDORFF_SIGMAS} sigma"]
    return []


def check_identical(dir_a, dir_b, names) -> list:
    """Two output directories hold byte-identical files."""
    diff = [n for n in names
            if (Path(dir_a) / n).read_bytes() != (Path(dir_b) / n).read_bytes()]
    return [f"{n} differs between worker counts" for n in diff]


def check_estimate(out_dir, points_csv, node_seed, ascent_paths=0) -> tuple:
    """All per-operation checks of one `estimate` output.

    Returns (failures, directed Hausdorff distance to the filaments of the
    model.json beside points_csv).
    """
    out = Path(out_dir)
    meta = json.loads((out / "estimate.json").read_text())
    points = read_points(points_csv)
    paths = read_paths(out / "paths.csv")
    grid = Grid(out / "field.csv")
    rows = read_levelset(out / "levelset.csv")
    bad = check_starts(points, paths)
    bad += check_field(grid, paths, meta["nu"],
                       sample_nodes(grid, 24, node_seed))
    bad += check_levelset(grid, rows, meta["level"])
    bad += check_level(grid, points, meta["quantile"], meta["level"])
    if ascent_paths:
        rng = np.random.default_rng(node_seed)
        which = rng.choice(len(paths), size=min(ascent_paths, len(paths)),
                           replace=False)
        bad += check_ascent(points, meta["h"], paths, which)
    model = json.loads((Path(points_csv).parent / "model.json").read_text())
    polylines = [np.asarray(f["vertices"]) for f in model["filaments"]]
    return bad, levelset_hausdorff(rows, polylines)


# -- oracle checks --------------------------------------------------------------

def check_critical_points(model: ModelDensity, crit) -> list:
    """Each point is a zero of the model gradient, its kind matches the
    eigenvalue signs in the file and of a finite-difference Hessian, and
    maxima - saddles + minima = 1."""
    sigma = model.sigma
    bad = []
    count = {"maximum": 0, "saddle": 0, "minimum": 0}
    for p, kind, e1, e2 in crit:
        value = model.value(p)[0]
        g = np.hypot(*model.fd_gradient(p, 1e-4 * sigma))
        if not g <= 1e-6 * value / sigma:
            bad.append(f"gradient {g:.3g} at {kind} {p.tolist()} exceeds "
                       f"1e-6 value/sigma = {1e-6 * value / sigma:.3g}")
        fd = np.linalg.eigvalsh(model.fd_hessian(p, 1e-3 * sigma))
        signs = {"maximum": (-1, -1), "saddle": (-1, 1), "minimum": (1, 1)}
        if kind not in signs:
            bad.append(f"unexpected kind {kind!r} at {p.tolist()}")
            continue
        count[kind] += 1
        if tuple(np.sign([e1, e2])) != signs[kind]:
            bad.append(f"{kind} at {p.tolist()} has eigenvalues {e1}, {e2}")
        if tuple(np.sign(fd)) != signs[kind]:
            bad.append(f"{kind} at {p.tolist()} has finite-difference "
                       f"eigenvalues {fd.tolist()}")
    euler = count["maximum"] - count["saddle"] + count["minimum"]
    if euler != 1:
        bad.append(f"maxima - saddles + minima = {euler}, not 1 ({count})")
    return bad


def check_oracle_field(grid: Grid, model: ModelDensity, maxima) -> list:
    """Finite and >= 0; exactly 0 beyond 6 sigma of every filament; the top
    3% of nodes lie within 2 sigma of a filament or within 3 sigma of a
    maximum.

    Paths converge on a maximum from every side, so the path density grows
    like 1 / r around it, also outside a pentagon corner where the nearest
    filament is further away; top nodes there are exempt. Elsewhere the
    values near the 97th percentile count a handful of paths, and with 1000
    Monte-Carlo paths such nodes lie up to 1.1 sigma from the filaments.
    """
    v = grid.values.ravel()
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        return ["oracle field has negative or non-finite values"]
    dist = distance_to_polylines(grid.nodes, model.polylines)
    bad = []
    far = dist > 6 * model.sigma
    if np.any(v[far] != 0):
        bad.append(f"{int(np.count_nonzero(v[far]))} nodes beyond 6 sigma "
                   "hold a nonzero value")
    top = np.argsort(-v, kind="stable")[:math.ceil(0.03 * len(v))]
    near_max = np.zeros(len(top), dtype=bool)
    for m in maxima:
        near_max |= np.hypot(*(grid.nodes[top] - m).T) <= 3 * model.sigma
    off = dist[top][~near_max]
    if len(off) and not off.max() <= 2 * model.sigma:
        bad.append(f"a top-3% node lies {off.max() / model.sigma:.2f} sigma "
                   "from the filaments and 3 sigma from every maximum")
    return bad


def check_oracle(out_dir, model_json) -> list:
    """All per-operation checks of one `oracle` output."""
    model = ModelDensity(json.loads(Path(model_json).read_text()))
    out = Path(out_dir)
    crit = read_critical_points(out / "critical_points.csv")
    bad = check_critical_points(model, crit)
    maxima = [p for p, kind, _, _ in crit if kind == "maximum"]
    bad += check_oracle_field(Grid(out / "oracle_field.csv"), model, maxima)
    return bad
