"""Steepest-ascent integral curves, mean-shift trajectories, and critical points.

Any object with a vectorized derivatives(x, order) method works as a field
source; points may be a single (2,) coordinate or an (m, 2) batch.
"""

from contextlib import suppress
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .geometry import as_points
from .kernels import KernelDensityField, PointCloud
from .path_density import PathEnsemble

# a path's trim hint is its first vertex that has gained this fraction of
# the path's total value gain
TRIM_FRACTION = 0.1
# an RK4 step may lower the field value by at most this much
_ASCENT_TOLERANCE = 1e-12
# a step's time is at most this over the spectral radius of the Hessian at
# its start: RK4 is stable on the real axis up to |lambda| dt = 2.785, and at
# lambda dt = -2 it damps by 1/3, so a step across a ridge is not refused
_CURVATURE_STEP = 2.0


class ScalarField(Protocol):
    def derivatives(self, x, order: int) -> tuple:
        """(value, gradient, Hessian) at x, the first order + 1 of them."""


class FlowNumericalError(RuntimeError):
    """Non-finite field value or position along a path."""


class MeanShiftUnderflowError(RuntimeError):
    """All kernel weights underflowed to zero: a start too far from the data,
    or a bandwidth below the resolution of the coordinates."""


@dataclass(frozen=True)
class FlowConfig:
    """Step control for ascent tracing.

    step_scale is a target arc length per step: the time step is
    step_scale / max(||grad||, grad_tolerance), further capped by
    max_time_step and by 2 / rho(H), the curvature cap (rho is the spectral
    radius of the Hessian at the step's start), and halved whenever the field
    value would decrease.
    """

    step_scale: float
    grad_tolerance: float = 1e-8
    min_displacement: float = 1e-9
    max_steps: int = 10_000
    max_time_step: float = 0.25
    max_halvings: int = 40

    def __post_init__(self):
        for name in ("step_scale", "grad_tolerance", "min_displacement",
                     "max_steps", "max_time_step"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def kde_flow_config(cloud: PointCloud, h: float) -> FlowConfig:
    """Tracing settings scaled to a KDE: tolerances tied to the peak height
    (the largest KDE value at a data point) and h."""
    gmax = float(np.max(KernelDensityField(cloud, h).derivatives(cloud.points, 0)[0]))
    grad_tolerance = 1e-7 * gmax / h
    if not 0.0 < grad_tolerance < np.inf:
        raise FlowNumericalError(
            f"KDE peak {gmax!r} at h = {h!r} gives no usable gradient tolerance")
    return FlowConfig(step_scale=0.25 * h, grad_tolerance=grad_tolerance,
                      min_displacement=1e-6 * h)


@dataclass(frozen=True)
class CriticalPoint:
    location: np.ndarray
    kind: str
    hessian_eigenvalues: tuple[float, float]


class _Recorder:
    """Per-step arrays of every moved path, sorted into an ensemble at the end.

    Holds the arrays it is given (callers pass fresh ones). A tracer marks
    the paths whose last step failed to ascend in `stalled`; build() calls a
    path converged when it stopped on its own tolerance test, that is, when
    it is neither still active (cut at max_steps) nor stalled.
    """

    def __init__(self, m):
        self.ids, self.pos, self.times, self.values = [], [], [], []
        self.stalled = np.zeros(m, dtype=bool)

    def record(self, idx, pos, t, val):
        self.ids.append(idx)
        self.pos.append(pos)
        self.times.append(t)
        self.values.append(val)

    def build(self, active) -> PathEnsemble:
        # Monte-Carlo batches are large: free each list once it is flat
        ids = np.concatenate(self.ids)
        self.ids.clear()
        counts = np.bincount(ids, minlength=len(self.stalled))
        order = np.argsort(ids, kind="stable")
        del ids
        flat = []
        for parts in (self.pos, self.times, self.values):
            flat.append(np.concatenate(parts)[order])
            parts.clear()
        del order
        verts, times, values = flat
        ends = np.cumsum(counts)
        first = ends - counts

        # trim hint: first vertex whose value gained TRIM_FRACTION of the
        # path's total gain (0 when the path did not gain)
        gain = values[ends - 1] - values[first]
        reached = (values - np.repeat(values[first], counts)
                   >= TRIM_FRACTION * np.repeat(gain, counts))
        hit = np.where(reached, np.arange(len(values)), len(values))
        hint = np.minimum.reduceat(hit, first) - first
        hint[(gain <= 0) | (hint >= counts)] = 0

        return PathEnsemble(verts, np.concatenate([[0], ends]), times,
                            ~active & ~self.stalled, hint)


def _spectral_radius(H):
    """Largest |eigenvalue| of each symmetric 2x2 matrix in an (m, 2, 2)
    batch: |a + d| / 2 + hypot((a - d) / 2, b), halving a and d first so that
    no term overflows unless rho does."""
    a, b, d = 0.5 * H[:, 0, 0], H[:, 0, 1], 0.5 * H[:, 1, 1]
    return np.abs(a + d) + np.hypot(a - d, b)


def _curvature_cap(H):
    """The time-step cap _CURVATURE_STEP / rho(H) per path: inf where rho is
    0 (a flat tail whose Hessian underflows) or not finite, so that only the
    other caps and the ascent guard bound such a step."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cap = _CURVATURE_STEP / _spectral_radius(H)
    cap[~(cap > 0.0)] = np.inf  # rho infinite or NaN
    return cap


def _refine_cap(pos, refine_disks):
    """Arc-length cap near query disks: r/4 within 3r of each disk."""
    if refine_disks is None:
        return None
    centers, radii = refine_disks
    d = np.hypot(pos[:, 0:1] - centers[None, :, 0],
                 pos[:, 1:2] - centers[None, :, 1])  # (m, k)
    cap = np.where(d <= 3.0 * radii[None, :], radii[None, :] / 4.0, np.inf)
    return cap.min(axis=1)


def trace_ascent_paths(field: ScalarField, starts, cfg: FlowConfig,
                       refine_disks=None) -> PathEnsemble:
    """Trace the gradient flow of `field` forward from each start.

    Classic RK4 on dx/dt = grad(x) with per-path adaptive time steps. A
    step's time is capped by the FlowConfig rules, by 4 times the path's last
    step, near refine disks, and by the curvature cap 2 / rho(H), with H the
    Hessian at the step's start: without it a step grows past RK4's stability
    limit across a ridge and is refused. A step is halved until the field
    value does not decrease (up to max_halvings). Stops per path when the
    gradient norm or the displacement drops below its tolerance, or after
    max_steps.
    """
    starts = as_points(starts)
    if refine_disks is not None:
        centers = as_points(refine_disks[0])
        radii = np.atleast_1d(np.asarray(refine_disks[1], dtype=float))
        refine_disks = (centers, radii)

    m = len(starts)
    pos = starts.copy()
    t = np.zeros(m)
    val, grad, hess = field.derivatives(pos, 2)
    if not np.all(np.isfinite(val)):
        raise FlowNumericalError("non-finite field value at a start point")
    gnorm = np.hypot(grad[:, 0], grad[:, 1])
    # per path: the cap the last step leaves on the next one, 4 times its
    # time step and the curvature cap at its end
    step_cap = _curvature_cap(hess)
    rec = _Recorder(m)
    rec.record(np.arange(m), starts.copy(), np.zeros(m), val.copy())

    active = gnorm >= cfg.grad_tolerance

    for _ in range(cfg.max_steps):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        p = pos[idx]
        g = grad[idx]
        gn = gnorm[idx]
        v0 = val[idx]

        dt = cfg.step_scale / np.maximum(gn, cfg.grad_tolerance)
        dt = np.minimum(dt, cfg.max_time_step)
        dt = np.minimum(dt, step_cap[idx])
        cap = _refine_cap(p, refine_disks)
        if cap is not None:
            dt = np.minimum(dt, cap / np.maximum(gn, cfg.grad_tolerance))

        def rk4(p0, k1, dt_):
            half = 0.5 * dt_[:, None]
            k2 = field.derivatives(p0 + half * k1, 1)[1]
            k3 = field.derivatives(p0 + half * k2, 1)[1]
            k4 = field.derivatives(p0 + dt_[:, None] * k3, 1)[1]
            return p0 + (dt_[:, None] / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        # the pass that tests a trial's value also gives its gradient and
        # Hessian, the next step's k1 and curvature cap once it is accepted
        trial = rk4(p, g, dt)
        v1, g1, h1 = field.derivatives(trial, 2)
        for _h in range(cfg.max_halvings):
            bad = ~np.isfinite(v1) | (v1 < v0 - _ASCENT_TOLERANCE)
            if not bad.any():
                break
            dt[bad] *= 0.5
            trial[bad] = rk4(p[bad], g[bad], dt[bad])
            v1[bad], g1[bad], h1[bad] = field.derivatives(trial[bad], 2)
        else:
            # a path that still fails to ascend stops where it is
            stalled = ~np.isfinite(v1) | (v1 < v0 - _ASCENT_TOLERANCE)
            rec.stalled[idx[stalled]] = True
            active[idx[stalled]] = False
            ok = ~stalled
            idx, p, trial, dt, v1, g1, h1 = (
                a[ok] for a in (idx, p, trial, dt, v1, g1, h1))

        if not np.isfinite(trial).all():
            raise FlowNumericalError("non-finite position along an ascent path")

        disp = np.hypot(*(trial - p).T)
        gn1 = np.hypot(*g1.T)
        pos[idx] = trial
        t[idx] += dt
        val[idx] = v1
        rec.record(idx, trial, t[idx], v1)
        grad[idx] = g1
        gnorm[idx] = gn1
        step_cap[idx] = np.minimum(4.0 * dt, _curvature_cap(h1))
        done = (gn1 < cfg.grad_tolerance) | (disp < cfg.min_displacement)
        active[idx[done]] = False

    return rec.build(active)


def mean_shift_paths(cloud: PointCloud, h: float, starts,
                     min_displacement: float | None = None,
                     max_steps: int = 10_000) -> PathEnsemble:
    """Kernel-weighted-mean iteration from each start, recorded as paths.

    Each iterate moves to the kernel-weighted mean of the data; the sequence
    ascends the KDE and stops when the displacement drops below
    min_displacement (default 1e-6 h), or after max_steps.
    """
    field = KernelDensityField(cloud, h)
    if min_displacement is None:
        min_displacement = 1e-6 * h
    if not (min_displacement > 0 and max_steps > 0):
        raise ValueError("min_displacement and max_steps must be positive")
    # iterate in the field's centred coordinates; vertices are recorded in
    # the data's own
    c = field.center
    starts = as_points(starts)
    m = len(starts)
    pos = starts - c
    t = np.zeros(m)
    rec = _Recorder(m)
    active = np.ones(m, dtype=bool)

    for step in range(max_steps):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        p = pos[idx]
        s0, s1x, s1y = field.weight_sums(p, 1)
        if np.any(s0 <= 0.0):
            raise MeanShiftUnderflowError(
                f"all kernel weights underflowed at h = {float(h)!r}: a start "
                "is too far from the data, or h is below the resolution of "
                "the coordinates")
        # the weight sum that divides the mean is the KDE at p, so each
        # vertex is recorded one step after it is reached (a start as given:
        # p + c need not round back to it)
        rec.record(idx, p + c if step else starts, t[idx], s0)
        new = np.column_stack([s1x / s0, s1y / s0])
        disp = np.hypot(new[:, 0] - p[:, 0], new[:, 1] - p[:, 1])
        pos[idx] = new
        t[idx] = step + 1
        active[idx[disp < min_displacement]] = False

    # every path's last vertex is still unrecorded
    pos += c
    rec.record(np.arange(m), pos, t, field.derivatives(pos, 0)[0])
    return rec.build(active)


def classify_critical_point(hessian, degeneracy_tol: float) -> str:
    """Eigenvalue-sign classification of a symmetric 2x2 Hessian."""
    ev = np.linalg.eigvalsh(np.asarray(hessian, dtype=float))
    if np.any(np.abs(ev) < degeneracy_tol):
        return "degenerate"
    if ev[1] < 0:
        return "maximum"
    if ev[0] > 0:
        return "minimum"
    return "saddle"


def find_critical_points(field: ScalarField, domain, cfg: FlowConfig,
                         seeds_per_axis: int = 24) -> list[CriticalPoint]:
    """Locate and classify zeros of the gradient inside a bounded rectangle.

    Newton iteration on grad = 0 from a seed grid, all seeds as one batch
    (one field call per iterate and per backtracking round, at most 60
    iterates); roots are deduplicated within 1e-3 of the domain diagonal and
    classified by Hessian eigenvalue signs, with eigenvalues below 1e-9 of
    the largest Hessian entry (or of 1) counting as zero. Seeds that diverge
    (leave the padded domain, or hit a singular Hessian away from a root)
    are dropped.
    """
    xmin, xmax, ymin, ymax = map(float, domain)
    diam = float(np.hypot(xmax - xmin, ymax - ymin))
    merge_radius = 1e-3 * diam

    xs = np.linspace(xmin, xmax, seeds_per_axis + 2)[1:-1]
    ys = np.linspace(ymin, ymax, seeds_per_axis + 2)[1:-1]
    P = np.array([[x, y] for x in xs for y in ys])
    pad = 0.2 * diam
    step_tol = 1e-10 * diam

    live = np.arange(len(P))  # seeds still iterating
    found = np.zeros(len(P), dtype=bool)
    for _ in range(60):
        if not len(live):
            break
        _, g, H = field.derivatives(P[live], 2)
        gn = np.hypot(g[:, 0], g[:, 1])
        try:
            step = np.linalg.solve(H, g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # a singular Hessian drops its own seed only
            step = np.full_like(g, np.nan)
            for i in range(len(g)):
                with suppress(np.linalg.LinAlgError):
                    step[i] = np.linalg.solve(H[i], g[i])
        ok = np.all(np.isfinite(step), axis=1)
        live, gn, step = live[ok], gn[ok], step[ok]
        # damp very long Newton steps so seeds do not fly out immediately
        norm = np.hypot(step[:, 0], step[:, 1])
        long = norm > 0.5 * diam
        step[long] *= (0.5 * diam / norm[long])[:, None]
        # guard: backtrack until the gradient norm actually drops, which
        # widens the basins (bare Newton's basins are narrow and ragged);
        # t halves only on the rows whose trial point was refused
        p = P[live]
        q, t, gq = np.empty_like(p), np.ones(len(live)), np.empty(len(live))
        todo = np.arange(len(live))
        while len(todo):
            q[todo] = p[todo] - t[todo, None] * step[todo]
            gt = field.derivatives(q[todo], 1)[1]
            gq[todo] = np.hypot(gt[:, 0], gt[:, 1])
            todo = todo[~((gq[todo] <= (1.0 - 0.25 * t[todo]) * gn[todo])
                          | (gq[todo] < cfg.grad_tolerance))]
            t[todo] *= 0.5
            todo = todo[t[todo] > 1e-4]
        P[live] = q
        ok = ((t > 1e-4) & (xmin - pad <= q[:, 0]) & (q[:, 0] <= xmax + pad)
              & (ymin - pad <= q[:, 1]) & (q[:, 1] <= ymax + pad))
        # a root is where the Newton increment collapses, not merely where
        # the gradient is small (flat tails have tiny gradients everywhere)
        done = ok & (t == 1.0) & (norm < step_tol)
        found[live[done]] = gq[done] < cfg.grad_tolerance
        live = live[ok & ~done]
    roots = P[found]

    merged: list[np.ndarray] = []
    for p in roots:
        if not (xmin <= p[0] <= xmax and ymin <= p[1] <= ymax):
            continue
        for q in merged:
            if np.hypot(*(p - q)) < merge_radius:
                break
        else:
            merged.append(p)

    out = []
    for p in merged:
        H = field.derivatives(p, 2)[2]
        tol = 1e-9 * max(1.0, float(np.max(np.abs(H))))
        ev = np.linalg.eigvalsh(H)
        out.append(CriticalPoint(
            location=p,
            kind=classify_critical_point(H, tol),
            hessian_eigenvalues=(float(ev[0]), float(ev[1])),
        ))
    out.sort(key=lambda c: (c.location[0], c.location[1]))
    return out
