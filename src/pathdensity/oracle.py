"""Brute-force ground truth by Monte Carlo.

Paths are traced on the true model field from fresh model draws; the chance
that a random path meets a ball, estimated by counting, stands in for the
path measure, and a two-radius extrapolation of hit-fraction / radius stands
in for the path density. A rasterized variant provides reference fields for
level-set work, and a harness measures how the estimation error shrinks
with the sample size.
"""

from dataclasses import dataclass, field

import numpy as np

from .flow import (FlowConfig, find_critical_points, mean_shift_paths,
                   trace_ascent_paths)
from .geometry import segment_distances
from .grids import GridField, GridSpec
from .model import FilamentModel
from .parallel import map_indexed
from .path_density import PathEnsemble, default_bandwidths, path_density_field


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A mean over traced paths with its standard error and path count."""

    value: float
    std_error: float
    n_mc: int


def _check_radius(r) -> float:
    """A ball radius as a float; refused unless positive and finite."""
    if not 0 < r < np.inf:
        raise ValueError(f"ball radius must be positive and finite, not {r!r}")
    return float(r)


def model_flow_config(model: FilamentModel) -> FlowConfig:
    """Tracing defaults scaled to the model's noise scale and peak height."""
    sigma = model.max_sigma
    if sigma <= 0:
        raise ValueError("model has no Gaussian components to scale against")
    vmax = float(np.max(model.value(model.anchor_points())))
    return FlowConfig(step_scale=sigma / 6.0, grad_tolerance=1e-7 * vmax / sigma,
                      min_displacement=1e-6 * sigma, max_halvings=30)


def default_r1(model: FilamentModel) -> float:
    """The oracle's default inner ball radius: sigma / 3, two tracing steps."""
    return model.max_sigma / 3.0


def sample_and_trace(model: FilamentModel, n_mc: int, rng: np.random.Generator,
                     refine_disks=None) -> PathEnsemble:
    """Draw n_mc points from the model and trace their ascent on its density."""
    cloud = model.sample(n_mc, rng)
    return trace_ascent_paths(model, cloud.points, model_flow_config(model),
                              refine_disks=refine_disks)


def ball_hit_estimate(segs: PathEnsemble, center, r: float) -> MonteCarloEstimate:
    """Fraction of traced paths passing within r of the center."""
    r = _check_radius(r)
    hits = segs.distances(center)[0] <= r
    v = float(hits.mean())
    se = float(np.sqrt(v * (1.0 - v) / segs.n_paths))
    return MonteCarloEstimate(value=v, std_error=se, n_mc=segs.n_paths)


def point_density_terms(segs: PathEnsemble, x, r1: float) -> np.ndarray:
    """Per-path terms 2 [d <= r1] / r1 - [d <= r2] / r2 of the two-radius
    estimate at x with r2 = 2 r1, shape (n_paths,); their mean is the
    estimate."""
    r1 = _check_radius(r1)
    r2 = 2.0 * r1
    md = segs.distances(x)[0]
    return (2.0 / r1) * (md <= r1) - (1.0 / r2) * (md <= r2)


def point_density_estimate(segs: PathEnsemble, x, r1: float) -> MonteCarloEstimate:
    """Two-radius extrapolation of hit-fraction / radius.

    With hit fractions f1, f2 at radii r1 and r2 = 2 r1, the combination
    2 f1/r1 - f2/r2 removes the term linear in r from f(r)/r; the spread of
    the per-path contributions gives the standard error.
    """
    a = point_density_terms(segs, x, r1)
    n = segs.n_paths
    se = float(a.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return MonteCarloEstimate(value=float(a.mean()), std_error=se, n_mc=n)


_HIT_BLOCK = 30_000  # pairs per (segment, stencil node) block, and segments per gather


def path_hit_counts(segs: PathEnsemble, grid: GridSpec, radii) -> np.ndarray:
    """Per-node counts of paths passing within each radius.

    Returns an int array of shape (len(radii), nx, ny); each path is counted
    at most once per node. Costs O(total segments x local stencil): segments
    are taken in blocks of about 3e4 (segment, stencil node) pairs, and each
    hit is keyed path * n_nodes + node so that np.unique drops a path's repeat
    hits on a node; the keys of a path cut by a block's end join the next
    block's.
    """
    radii = [_check_radius(r) for r in radii]
    n_nodes = grid.nx * grid.ny
    counts = np.zeros((len(radii), n_nodes), dtype=np.int64)
    carry = [np.empty(0, dtype=np.int64)] * len(radii)
    xs0, ys0, dx, dy = grid.xmin, grid.ymin, grid.dx, grid.dy
    n_seg = len(segs.seg_a)
    # one gather serves many blocks: its cost is mostly per call
    for start in range(0, n_seg, _HIT_BLOCK):
        seg, path = segs.segment_block(start, min(start + _HIT_BLOCK, n_seg))
        # nodes within the largest radius of a segment lie within reach of its
        # midpoint; the stencil's one-node margin covers rounding of the midpoint
        longest = np.sqrt(np.max(seg.len2, where=np.isfinite(seg.len2), initial=0.0))
        reach = max(radii) + 0.5 * longest
        hx = int(np.ceil(reach / dx)) + 1
        hy = int(np.ceil(reach / dy)) + 1
        offs_x, offs_y = np.meshgrid(np.arange(-hx, hx + 1), np.arange(-hy, hy + 1),
                                     indexing="ij")
        offs_x = offs_x.ravel()
        offs_y = offs_y.ravel()
        per_block = max(1, _HIT_BLOCK // len(offs_x))
        bi = np.rint((seg.ax + 0.5 * seg.dx - xs0) / dx).astype(np.int64)
        bj = np.rint((seg.ay + 0.5 * seg.dy - ys0) / dy).astype(np.int64)
        for lo in range(0, len(path), per_block):
            b = slice(lo, lo + per_block)
            ii = bi[b, None] + offs_x[None, :]
            jj = bj[b, None] + offs_y[None, :]
            ok = (ii >= 0) & (ii < grid.nx) & (jj >= 0) & (jj < grid.ny)
            nodes = np.stack([xs0 + ii * dx, ys0 + jj * dy], axis=-1)
            dist = segment_distances(nodes, seg.part((b, None)))  # (segments, stencil)
            keys = path[b, None] * n_nodes + (ii * grid.ny + jj)
            # u is sorted, so the keys of the block's last path, which may go
            # on in the next block, are its tail (none after the final block)
            tail = path[b][-1] if start + lo + per_block < n_seg else segs.n_paths
            for k, r in enumerate(radii):
                u = np.unique(np.concatenate([carry[k], keys[ok & (dist <= r)]]))
                cut = np.searchsorted(u, tail * n_nodes)
                carry[k] = u[cut:]
                counts[k] += np.bincount(u[:cut] % n_nodes, minlength=n_nodes)
    return counts.reshape(len(radii), grid.nx, grid.ny)


def oracle_field(segs: PathEnsemble, grid: GridSpec, r1: float) -> GridField:
    """Monte-Carlo path-density raster of a traced batch on the grid: the
    two-radius estimate 2 f1/r1 - f2/r2 at each node, with f the fraction of
    paths within r1 and r2 = 2 r1, clipped at 0."""
    r2 = 2.0 * r1
    f1, f2 = path_hit_counts(segs, grid, [r1, r2]) / segs.n_paths
    return GridField(spec=grid, values=np.maximum(2.0 * f1 / r1 - f2 / r2, 0.0))


@dataclass
class RateTable:
    """Sup-error rows over (sample size, replicate) plus a log-log fit.

    median_rows carries the companion median-over-probes error per run
    (same ordering as rows; not part of the CSV schema).
    """

    rows: list  # (n, replicate, sup_error)
    slope: float
    slope_stderr: float
    ci95: tuple[float, float]
    median_rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    truth_unconverged: int = 0  # truth paths cut at max_steps or stalled

    @staticmethod
    def _medians(rows) -> dict[int, float]:
        out: dict[int, list[float]] = {}
        for n, _rep, err in rows:
            out.setdefault(int(n), []).append(float(err))
        return {n: float(np.median(v)) for n, v in sorted(out.items())}

    def median_by_n(self) -> dict[int, float]:
        return self._medians(self.rows)

    def median_error_by_n(self) -> dict[int, float]:
        return self._medians(self.median_rows)


def _loglog_fit(rows):
    x = np.log([r[0] for r in rows])
    y = np.log([max(r[2], 1e-300) for r in rows])
    A = np.column_stack([np.ones_like(x), x])
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    dof = max(len(x) - 2, 1)
    s2 = float(((y - fitted) ** 2).sum()) / dof
    xvar = float(((x - x.mean()) ** 2).sum())
    stderr = np.sqrt(s2 / xvar) if xvar > 0 else np.inf
    slope = float(coef[1])
    return slope, float(stderr), (slope - 1.96 * stderr, slope + 1.96 * stderr)


def convergence_experiment(model: FilamentModel, n_list, replicates: int,
                           probe_grid: GridSpec, seed: int,
                           oracle_n_mc: int = 100_000,
                           oracle_r1: float = 0.02) -> RateTable:
    """Sup-norm error of the estimator against the Monte-Carlo truth.

    For each sample size and replicate: draw, trace mean-shift paths, estimate
    on the probe grid with the default rate-optimal bandwidths, and take the
    sup of |estimate - truth| over the kept probes. The probe set is fixed
    across the whole sweep: probes within twice the largest nu of the sweep
    of any true maximum or saddle are dropped (a per-run exclusion would
    expose more of the near-mode divergence as n grows and mask the decay).
    The truth raster is shared across runs. Its trace and the critical-point
    search run as two tasks on the workers, and then the runs, each seeded.
    """
    seq = np.random.SeedSequence(seed)
    oracle_seed, *run_seeds = seq.spawn(1 + len(n_list) * replicates)

    def trace_truth():
        segs = sample_and_trace(model, oracle_n_mc, np.random.default_rng(oracle_seed))
        return (np.count_nonzero(~segs.converged),
                oracle_field(segs, probe_grid, oracle_r1).values.ravel())

    crit, (unconverged, truth) = map_indexed(lambda task: task(), (
        lambda: find_critical_points(model, model.box,
                                     model_flow_config(model).grad_tolerance),
        trace_truth))
    excl = np.asarray([c.location for c in crit if c.kind in ("maximum", "saddle")],
                      dtype=float).reshape(-1, 2)

    nodes = probe_grid.nodes()
    d_excl = np.min(np.hypot(nodes[:, 0][:, None] - excl[None, :, 0],
                             nodes[:, 1][:, None] - excl[None, :, 1]),
                    axis=1, initial=np.inf)

    def run(k):
        n, rep = int(n_list[k // replicates]), k % replicates
        cloud = model.sample(n, np.random.default_rng(run_seeds[k]))
        bw = default_bandwidths(cloud.n, cloud.spread)
        ensemble = mean_shift_paths(cloud, bw.h, cloud.points)
        # one worker: the runs already share the pool
        est = path_density_field(ensemble, bw.nu, probe_grid, workers=1)
        return n, rep, bw.nu, est.values.ravel()

    runs = map_indexed(run, range(len(run_seeds)))
    keep = d_excl > 2.0 * max(nu for _, _, nu, _ in runs)
    rows = [(n, rep, float(np.max(np.abs(est[keep] - truth[keep]))))
            for n, rep, _, est in runs]
    median_rows = [(n, rep, float(np.median(np.abs(est[keep] - truth[keep]))))
                   for n, rep, _, est in runs]

    slope, stderr, ci = _loglog_fit(rows)
    return RateTable(rows=rows, slope=slope, slope_stderr=stderr, ci95=ci,
                     median_rows=median_rows, truth_unconverged=unconverged,
                     meta={"seed": seed, "oracle_n_mc": oracle_n_mc,
                           "oracle_r1": oracle_r1,
                           # default_bandwidths' constants and the exclusion
                           # factor above
                           "c_h": 0.125, "c_nu": 0.125, "exclusion_factor": 2.0})
