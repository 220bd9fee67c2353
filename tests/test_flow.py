import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from pathdensity.flow import (TRIM_FRACTION, FlowConfig, FlowNumericalError,
                              MeanShiftUnderflowError, _curvature_cap,
                              _spectral_radius, classify_critical_point,
                              find_critical_points, kde_flow_config,
                              mean_shift_paths, trace_ascent_paths)
from pathdensity.kernels import KernelDensityField, PointCloud
from pathdensity.model import cluster_model, random_pentagon_model, two_gaussian_model
from pathdensity.oracle import model_flow_config

from conftest import QuadraticPeakField, convex_hull_contains

QUAD_CFG = FlowConfig(step_scale=0.5, grad_tolerance=1e-7,
                      min_displacement=1e-12, max_time_step=0.1)


# -- ascent tracing -----------------------------------------------------------

def test_quadratic_flow_matches_closed_form():
    field = QuadraticPeakField()
    rng = np.random.default_rng(3)
    starts = rng.uniform(-8, 8, (5, 2))
    for p in trace_ascent_paths(field, starts, QUAD_CFG):
        assert p.converged
        assert np.hypot(*p.end) < 1e-6
        expected = p.start[None, :] * np.exp(-p.times)[:, None]
        assert np.max(np.hypot(*(p.vertices - expected).T)) < 1e-5


def test_start_at_mode_gives_single_vertex():
    p = trace_ascent_paths(QuadraticPeakField(), [[0.0, 0.0]], QUAD_CFG)[0]
    assert len(p.vertices) == 1
    assert p.converged
    assert p.step_count == 0


def test_retrace_from_endpoint_is_idempotent():
    p = trace_ascent_paths(QuadraticPeakField(), [[2.0, -1.0]], QUAD_CFG)[0]
    again = trace_ascent_paths(QuadraticPeakField(), [p.end], QUAD_CFG)[0]
    assert len(again.vertices) == 1


def test_single_gaussian_paths_are_radial():
    model = cluster_model([(0.4, -0.2)], 0.7, (-3, 3, -3, 3))
    cfg = FlowConfig(step_scale=0.1, grad_tolerance=1e-9, min_displacement=1e-12)
    for x0 in ([2.0, 1.0], [-1.0, 0.5], [0.9, -1.7]):
        p = trace_ascent_paths(model, [x0], cfg)[0]
        ray = np.asarray(x0) - np.array([0.4, -0.2])
        rel = p.vertices - np.array([0.4, -0.2])
        cross = np.abs(rel[:, 0] * ray[1] - rel[:, 1] * ray[0])
        assert cross.max() < 1e-8


def test_field_value_nondecreasing_along_path():
    model = two_gaussian_model()
    cfg = FlowConfig(step_scale=0.1, grad_tolerance=1e-8, min_displacement=1e-12)
    p = trace_ascent_paths(model, [[0.3, 1.8]], cfg)[0]
    vals = model.value(p.vertices)
    assert np.all(np.diff(vals) >= -1e-12)


def test_trim_hint_marks_early_transient():
    model = two_gaussian_model()
    cfg = FlowConfig(step_scale=0.05, grad_tolerance=1e-8, min_displacement=1e-12)
    p = trace_ascent_paths(model, [[2.5, 1.5]], cfg)[0]
    assert 0 < p.trim_hint < len(p.vertices)
    vals = model.value(p.vertices)
    gain = vals[-1] - vals[0]
    assert vals[p.trim_hint] - vals[0] >= 0.1 * gain
    assert vals[p.trim_hint - 1] - vals[0] < 0.1 * gain


def test_a_path_that_cannot_ascend_stalls_alone():
    # right of the y axis the gradient points away from the peak, so every
    # trial step there lowers the value; those paths stop at their start,
    # unconverged, and the others trace as on the true field
    class Field(QuadraticPeakField):
        def derivatives(self, x, order):
            terms = super().derivatives(x, order)
            right = np.atleast_2d(x)[:, 0] > 0
            terms[1][right] *= -1.0
            return terms

    cfg = replace(QUAD_CFG, max_halvings=3)
    starts = np.array([[-2.0, 1.0], [3.0, 0.5], [-0.5, -4.0], [1.0, -1.0]])
    paths = trace_ascent_paths(Field(), starts, cfg)
    left = trace_ascent_paths(QuadraticPeakField(), starts[[0, 2]], cfg)
    np.testing.assert_array_equal(paths.converged, [True, False, True, False])
    for i in (1, 3):
        np.testing.assert_array_equal(paths[i].vertices, starts[[i]])
    for i, j in ((0, 0), (2, 1)):
        np.testing.assert_array_equal(paths[i].vertices, left[j].vertices)
        np.testing.assert_array_equal(paths[i].times, left[j].times)


def test_segment_mode_matches_path_mode():
    field = QuadraticPeakField()
    starts = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 0.0]])
    segs = trace_ascent_paths(field, starts, QUAD_CFG)
    assert segs.n_paths == 3
    last = segs.segments.part(segs.offsets[1:] - 1)
    np.testing.assert_allclose(np.column_stack([last.ax + last.dx, last.ay + last.dy]),
                               [p.end for p in segs], atol=1e-12)
    # per-path segment counts agree with vertex counts (degenerate path keeps 1)
    counts = np.diff(segs.offsets)
    assert counts[2] == 1
    assert counts[0] == len(segs[0].vertices) - 1


def test_min_distances_on_segments():
    field = QuadraticPeakField()
    segs = trace_ascent_paths(field, [[2.0, 0.0], [0.0, 3.0]], QUAD_CFG)
    md = segs.distances([1.0, 0.0])[0]
    assert md[0] == pytest.approx(0.0, abs=1e-6)   # path runs through (1, 0)
    assert md[1] == pytest.approx(1.0, abs=1e-5)   # vertical path, distance 1


def test_curvature_cap_leaves_no_trial_refused_on_filament_ridges():
    # every start costs one field row and every accepted RK4 step four (k2,
    # k3, k4 and the trial), so any further row belongs to a refused trial
    model, cloud = random_pentagon_model(np.random.default_rng(1), n=500)
    cfg = model_flow_config(model)
    rows = []
    inner = model.derivatives

    def counting(x, order):
        rows.append(len(np.atleast_2d(x)))
        return inner(x, order)

    model.derivatives = counting
    paths = trace_ascent_paths(model, cloud.points, cfg)
    steps = len(paths.vertices) - paths.n_paths
    assert paths.converged.all()
    assert sum(rows) == cloud.n + 4 * steps


def test_spectral_radius_matches_eigvalsh():
    rng = np.random.default_rng(8)
    scale = 10.0 ** rng.uniform(-6, 6, (2000, 1, 1))
    A = rng.standard_normal((2000, 2, 2)) * scale
    H = A + A.transpose(0, 2, 1)
    expected = np.max(np.abs(np.linalg.eigvalsh(H)), axis=1)
    np.testing.assert_allclose(_spectral_radius(H), expected, rtol=1e-12)


def test_curvature_cap_skips_zero_and_non_finite_curvature():
    # rho = 0 (a flat tail whose Hessian underflows) and a non-finite rho give
    # no cap, and no warning, rather than a zero or NaN time step
    H = np.zeros((5, 2, 2))
    H[1] = [[np.nan, 0.0], [0.0, 1.0]]
    H[2] = [[np.inf, 0.0], [0.0, -np.inf]]
    H[3] = [[1e308, 1e308], [1e308, 1e308]]  # rho = 2e308 overflows
    H[4] = [[-4.0, 0.0], [0.0, -1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cap = _curvature_cap(H)
    np.testing.assert_array_equal(cap, [np.inf, np.inf, np.inf, np.inf, 0.5])


@pytest.mark.parametrize("curvature", [0.0, np.nan, np.inf])
def test_uncapped_hessian_never_reaches_the_time_step(curvature):
    # QUAD_CFG's max_time_step binds before the quadratic's cap 2 / 1, so a
    # Hessian that gives no cap must leave every path as it is
    class Field(QuadraticPeakField):
        def derivatives(self, x, order):
            terms = super().derivatives(x, order)
            if order == 2:
                terms[2][:] = curvature
            return terms

    starts = np.random.default_rng(3).uniform(-8, 8, (5, 2))
    ref = trace_ascent_paths(QuadraticPeakField(), starts, QUAD_CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = trace_ascent_paths(Field(), starts, QUAD_CFG)
    np.testing.assert_array_equal(paths.vertices, ref.vertices)
    np.testing.assert_array_equal(paths.times, ref.times)
    assert paths.converged.all()


# -- mean shift ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["step_scale", "grad_tolerance",
                                  "min_displacement", "max_time_step"])
def test_flow_config_refuses_nan(name):
    with pytest.raises(ValueError, match=name):
        FlowConfig(**{"step_scale": 0.1, name: np.nan})


@pytest.mark.parametrize("name,value", [
    ("max_halvings", 0), ("max_halvings", -1), ("max_halvings", np.nan),
    ("max_halvings", 2.5), ("max_steps", 2.5)])
def test_flow_config_refuses_a_count_that_is_not_a_positive_integer(name, value):
    with pytest.raises(ValueError, match=name):
        FlowConfig(**{"step_scale": 0.1, name: value})


def test_mean_shift_refuses_a_fractional_step_count():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.5]]))
    with pytest.raises(ValueError, match="max_steps"):
        mean_shift_paths(cloud, 0.5, cloud.points, max_steps=2.5)


def test_kde_flow_config_refuses_a_zero_peak(monkeypatch):
    # far below the point spacing, rounding in the squared self-distances
    # can underflow every kernel weight, so that the KDE peak reads 0
    import pathdensity.flow as flow

    monkeypatch.setattr(flow.KernelDensityField, "derivatives",
                        lambda *args: (np.zeros(2),))
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.5]]))
    with pytest.raises(FlowNumericalError, match="gradient tolerance"):
        kde_flow_config(cloud, 1e-20)


def test_mean_shift_single_point_converges_in_one_step():
    cloud = PointCloud(np.array([[0.7, -0.3]]))
    p = mean_shift_paths(cloud, 0.5, [[5.0, 5.0]], min_displacement=1e-10)[0]
    np.testing.assert_allclose(p.vertices[1], [0.7, -0.3], rtol=4e-16)
    assert p.converged


def test_mean_shift_symmetric_pair_stays_on_axis():
    cloud = PointCloud(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    p = mean_shift_paths(cloud, 1.0, [[0.0, 0.3]],
                         min_displacement=1e-12, max_steps=200)[0]
    assert np.max(np.abs(p.vertices[:, 0])) < 1e-12


def test_mean_shift_underflow_raises():
    cloud = PointCloud(np.array([[0.0, 0.0]]))
    with pytest.raises(MeanShiftUnderflowError):
        mean_shift_paths(cloud, 0.1, [[500.0, 0.0]], min_displacement=1e-10)


def test_mean_shift_is_translation_invariant_far_from_the_origin():
    # squared kernel distances expand ||p||^2 + ||q||^2 - 2 p.q, whose
    # rounding grows with ||p||^2: uncentred, an offset of 1e6 (metres of a
    # projected grid) blurs the weights so that no path stops on its own
    model, cloud = random_pentagon_model(np.random.default_rng(11), n=300)
    h = 0.08
    offset = 1e6
    ref = mean_shift_paths(cloud, h, cloud.points, max_steps=1_000)
    far = mean_shift_paths(PointCloud(cloud.points + offset), h,
                           cloud.points + offset, max_steps=1_000)
    assert ref.converged.all() and far.converged.all()
    np.testing.assert_array_equal(far.vertex_offsets, ref.vertex_offsets)
    assert np.max(np.abs(far.vertices - offset - ref.vertices)) < 1e-6 * h


def test_mean_shift_pentagon_terminals_are_modes():
    model, cloud = random_pentagon_model(np.random.default_rng(11), n=200)
    h = 0.08
    paths = mean_shift_paths(cloud, h, cloud.points,
                             min_displacement=1e-12, max_steps=2000)
    ends = paths.vertices[paths.vertex_offsets[1:] - 1]
    grad = KernelDensityField(cloud, h).derivatives(ends, 1)[1]
    worst = np.hypot(grad[:, 0], grad[:, 1]).max()
    assert worst < 1e-6
    assert all(p.converged for p in paths)


def test_mean_shift_and_flow_reach_the_same_mode():
    model, cloud = random_pentagon_model(np.random.default_rng(15), n=150)
    h = 0.09
    cfg = replace(kde_flow_config(cloud, h), min_displacement=1e-10)
    field = KernelDensityField(cloud, h)
    for x0 in cloud.points[[3, 40, 77]]:
        ms = mean_shift_paths(cloud, h, [x0], min_displacement=1e-10)[0]
        ode = trace_ascent_paths(field, [x0], cfg)[0]
        assert np.hypot(*(ms.end - ode.end)) < 1e-3 * h


@pytest.mark.parametrize("tracer", ["meanshift", "flow"])
def test_converged_flag_tells_cut_paths_from_finished_ones(tracer):
    # kde_flow_config stops paths on min_displacement before the gradient
    # test, so a finished path must read converged even when its terminal
    # gradient is above grad_tolerance
    model, cloud = random_pentagon_model(np.random.default_rng(15), n=150)
    h = 0.09
    starts = cloud.points[::10]

    def trace(**overrides):
        if tracer == "meanshift":
            return mean_shift_paths(cloud, h, starts, **overrides)
        cfg = replace(kde_flow_config(cloud, h), **overrides)
        return trace_ascent_paths(KernelDensityField(cloud, h), starts, cfg)

    assert not any(p.converged for p in trace(max_steps=2))
    assert all(p.converged for p in trace())


def _trim_hint(values, fraction):
    """First vertex whose value gained `fraction` of the path's total gain."""
    gain = values[-1] - values[0]
    if gain <= 0:
        return 0
    return int(np.argmax(values - values[0] >= fraction * gain))


@pytest.mark.parametrize("max_steps", [3, 10_000], ids=["cut", "finished"])
def test_mean_shift_trim_hint_matches_vertex_values(max_steps):
    # mean shift takes each vertex's value from the weight sums of the next
    # step (the last vertex's from a terminal pass): the trim hint must still
    # be the one the KDE at the path's own vertices gives
    from pathdensity.kernels import kde_density

    model, cloud = random_pentagon_model(np.random.default_rng(4), n=150)
    h = 0.1
    paths = mean_shift_paths(cloud, h, cloud.points, max_steps=max_steps)
    assert all(p.converged == (max_steps > 3) for p in paths)
    for p in paths:
        vals = kde_density(cloud, h, p.vertices)
        assert p.trim_hint == _trim_hint(vals, TRIM_FRACTION)


def test_mean_shift_ascends_kde():
    from pathdensity.kernels import kde_density

    model, cloud = random_pentagon_model(np.random.default_rng(4), n=150)
    p = mean_shift_paths(cloud, 0.1, [cloud.points[17]], min_displacement=1e-9)[0]
    vals = kde_density(cloud, 0.1, p.vertices)
    assert np.all(np.diff(vals) >= -1e-12)


# -- critical points ----------------------------------------------------------

def test_classify_examples():
    assert classify_critical_point(np.diag([-1.0, -2.0]), 1e-9) == "maximum"
    assert classify_critical_point(np.diag([1.0, -1.0]), 1e-9) == "saddle"
    assert classify_critical_point(np.diag([1e-12, 1.0]), 1e-9) == "degenerate"
    assert classify_critical_point(np.diag([2.0, 1.0]), 1e-9) == "minimum"


def test_single_gaussian_has_one_maximum():
    model = cluster_model([(0.25, -0.5)], 0.6, (-3, 3, -3, 3))
    crit = find_critical_points(model, model.box, 1e-10, seeds_per_axis=8)
    assert len(crit) == 1
    assert crit[0].kind == "maximum"
    np.testing.assert_allclose(crit[0].location, [0.25, -0.5], atol=1e-8)


def _axial_roots_two_gaussian(model):
    """1-D scan of the x-axis gradient: the independent root oracle."""
    def gx(x):
        return model.gradient(np.array([x, 0.0]))[0]

    xs = np.linspace(-2.5, 2.5, 2001)
    vals = np.array([gx(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(brentq(gx, xs[i], xs[i + 1], xtol=1e-12))
    return np.asarray(roots)


def test_two_gaussian_critical_points_match_axial_oracle():
    model = two_gaussian_model()  # means (+-1, 0), sigma = 0.5
    crit = find_critical_points(model, model.box, 1e-11, seeds_per_axis=14)
    kinds = sorted(c.kind for c in crit)
    assert kinds == ["maximum", "maximum", "saddle"]
    found_x = np.sort([c.location[0] for c in crit])
    oracle_x = np.sort(_axial_roots_two_gaussian(model))
    assert len(oracle_x) == 3
    np.testing.assert_allclose(found_x, oracle_x, atol=1e-7)
    assert np.all(np.abs([c.location[1] for c in crit]) < 1e-7)
    saddle = next(c for c in crit if c.kind == "saddle")
    np.testing.assert_allclose(saddle.location, [0.0, 0.0], atol=1e-8)


def test_critical_points_inside_anchor_hull():
    model, _ = random_pentagon_model(np.random.default_rng(21), n=100)
    crit = find_critical_points(model, model.box, 1e-9, seeds_per_axis=12)
    assert len(crit) >= 1
    locs = np.array([c.location for c in crit])
    inside = convex_hull_contains(model.anchor_points(), locs, tol=1e-6)
    assert inside.all()


def test_two_gaussian_separation_sweep_counts():
    for sep in (1.5, 2.0, 3.0):  # separations above 2 sigma = 1.0
        model = two_gaussian_model(separation=sep)
        crit = find_critical_points(model, model.box, 1e-11, seeds_per_axis=12)
        assert len(crit) == 3, f"separation {sep}"


def _per_seed_critical_points(field, domain, grad_tolerance, seeds_per_axis=24,
                              max_newton_steps=60):
    """Reference: the Newton search one seed at a time, with the seeds, step
    rule, backtrack, merge and classification of find_critical_points.
    Returns the sorted locations, kinds and Hessian eigenvalues."""
    xmin, xmax, ymin, ymax = map(float, domain)
    diam = float(np.hypot(xmax - xmin, ymax - ymin))
    xs = np.linspace(xmin, xmax, seeds_per_axis + 2)[1:-1]
    ys = np.linspace(ymin, ymax, seeds_per_axis + 2)[1:-1]
    pad, step_tol = 0.2 * diam, 1e-10 * diam
    roots = []
    for seed in np.array([[x, y] for x in xs for y in ys]):
        p = seed.copy()
        accepted = False
        for _ in range(max_newton_steps):
            _, g, H = field.derivatives(p, 2)
            gn = np.hypot(*g)
            try:
                step = np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            norm = np.hypot(*step)
            if norm > 0.5 * diam:
                step *= 0.5 * diam / norm
            t = 1.0
            while t > 1e-4:
                q = p - t * step
                gq = np.hypot(*field.derivatives(q, 1)[1])
                if gq <= (1.0 - 0.25 * t) * gn or gq < grad_tolerance:
                    break
                t *= 0.5
            else:
                break
            p = q
            if not (xmin - pad <= p[0] <= xmax + pad and ymin - pad <= p[1] <= ymax + pad):
                break
            if t == 1.0 and norm < step_tol:
                accepted = gq < grad_tolerance
                break
        if accepted:
            roots.append(p)
    merged = []
    for p in roots:
        inside = xmin <= p[0] <= xmax and ymin <= p[1] <= ymax
        if inside and all(np.hypot(*(p - q)) >= 1e-3 * diam for q in merged):
            merged.append(p)
    merged.sort(key=lambda p: (p[0], p[1]))
    hess = [field.derivatives(p, 2)[2] for p in merged]
    kinds = [classify_critical_point(H, 1e-9 * max(1.0, float(np.max(np.abs(H)))))
             for H in hess]
    return np.array(merged), kinds, np.array([np.linalg.eigvalsh(H) for H in hess])


def _as_arrays(crit):
    return (np.array([c.location for c in crit]), [c.kind for c in crit],
            np.array([c.hessian_eigenvalues for c in crit]))


def test_trace_in_slices_equals_one_batch():
    # a row's field bits do not depend on the batch it is evaluated in, so
    # tracing the starts in slices gives the one batch's paths bit for bit
    model, cloud = random_pentagon_model(np.random.default_rng(3), n=1000)
    cfg = model_flow_config(model)
    whole = trace_ascent_paths(model, cloud.points, cfg)
    parts = [trace_ascent_paths(model, cloud.points[s:s + 125], cfg)
             for s in range(0, 1000, 125)]
    np.testing.assert_array_equal(
        np.concatenate([np.diff(p.vertex_offsets) for p in parts]),
        np.diff(whole.vertex_offsets))
    for name in ("vertices", "times", "converged", "trim_hint"):
        np.testing.assert_array_equal(
            np.concatenate([getattr(p, name) for p in parts]), getattr(whole, name))


def test_batched_newton_equals_per_seed_loop_on_two_gaussians():
    model = two_gaussian_model()
    tol = model_flow_config(model).grad_tolerance
    loc, kinds, ev = _as_arrays(find_critical_points(model, model.box, tol))
    ref_loc, ref_kinds, ref_ev = _per_seed_critical_points(model, model.box, tol)
    assert kinds == ref_kinds == ["maximum", "saddle", "maximum"]
    assert np.array_equal(loc, ref_loc)
    assert np.array_equal(ev, ref_ev)


def test_batched_newton_matches_per_seed_loop_on_pentagon():
    # a one-row field call rounds each row as a batch does
    model, _ = random_pentagon_model(np.random.default_rng(21), n=100)
    tol = model_flow_config(model).grad_tolerance
    loc, kinds, ev = _as_arrays(find_critical_points(model, model.box, tol))
    ref_loc, ref_kinds, ref_ev = _per_seed_critical_points(model, model.box, tol)
    assert kinds == ref_kinds
    assert np.array_equal(loc, ref_loc)
    assert np.array_equal(ev, ref_ev)


def test_singular_hessian_drops_only_its_own_seeds():
    # far from a narrow cluster the Hessian underflows to exactly zero, so
    # the batched solve raises and the iteration is solved row by row
    model = cluster_model([(0.35, -0.1)], 0.08, (-3, 3, -3, 3))
    xs = np.linspace(-3, 3, 26)[1:-1]
    H = model.derivatives(np.array([[x, y] for x in xs for y in xs]), 2)[2]
    assert np.any(np.all(H == 0, axis=(1, 2)))
    crit = find_critical_points(model, model.box, 1e-10, seeds_per_axis=24)
    assert [c.kind for c in crit] == ["maximum"]
    np.testing.assert_allclose(crit[0].location, [0.35, -0.1], rtol=0, atol=1e-12)
