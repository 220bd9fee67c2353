import numpy as np
import pytest

from pathdensity import oracle
from pathdensity.flow import find_critical_points, trace_ascent_paths
from pathdensity.grids import GridSpec
from pathdensity.model import (cluster_model, random_pentagon_model,
                               two_gaussian_model)
from pathdensity.oracle import (ball_hit_estimate, convergence_experiment,
                                default_r1, model_flow_config, oracle_field,
                                path_hit_counts, point_density_estimate,
                                point_density_terms, sample_and_trace)
from pathdensity.path_density import estimate_path_density

from conftest import polyline_ensemble, saddle_four_sum, traced_peak_mb


@pytest.fixture(scope="module")
def triangle_model():
    centers = [(0.0, 1.0), (-0.866, -0.5), (0.866, -0.5)]
    return cluster_model(centers, 0.5, (-3, 3, -3, 3))


@pytest.fixture(scope="module")
def triangle_critical(triangle_model):
    return find_critical_points(triangle_model, triangle_model.box, 1e-10)


@pytest.fixture(scope="module")
def triangle_batch(triangle_model, triangle_critical):
    minimum = next(c for c in triangle_critical if c.kind == "minimum")
    disks = ([minimum.location, (0.0, 1.0)], [0.05, 1.5])
    return sample_and_trace(triangle_model, 20_000, np.random.default_rng(5),
                            refine_disks=disks)


# -- path measure -------------------------------------------------------------

def test_single_gaussian_ball_captures_all_paths():
    model = cluster_model([(0.0, 0.0)], 0.4, (-3, 3, -3, 3))
    segs = sample_and_trace(model, 2000, np.random.default_rng(1),
                            refine_disks=([(0.0, 0.0)], [3 * 0.4]))
    est = ball_hit_estimate(segs, (0.0, 0.0), 3 * 0.4)
    assert est.value == 1.0


def test_ball_covering_domain_has_measure_one(triangle_model, triangle_batch):
    est = ball_hit_estimate(triangle_batch, (0.0, 0.0), 30.0)
    assert est.value >= 1.0 - 3 * max(est.std_error, 1e-4)


def test_measure_near_minimum_is_quadratically_small(triangle_model,
                                                     triangle_critical,
                                                     triangle_batch):
    minimum = next(c for c in triangle_critical if c.kind == "minimum")
    r = 0.05
    est = ball_hit_estimate(triangle_batch, minimum.location, r)
    # mass of the ball (density is nearly flat there)
    mass = triangle_model.value(minimum.location) * np.pi * r * r
    assert est.value <= 2.0 * mass + 3 * est.std_error


def test_measure_monotone_in_nested_balls(triangle_batch):
    center = (0.3, 0.2)
    small = ball_hit_estimate(triangle_batch, center, 0.1)
    big = ball_hit_estimate(triangle_batch, center, 0.3)
    assert small.value <= big.value + 3 * (small.std_error + big.std_error)


def test_measure_subadditive_on_disjoint_balls(triangle_batch):
    c1, r1 = np.array([0.5, 0.4]), 0.12
    c2, r2 = np.array([-0.6, -0.1]), 0.12
    m1 = triangle_batch.distances(c1)[0]
    m2 = triangle_batch.distances(c2)[0]
    union = float(((m1 <= r1) | (m2 <= r2)).mean())
    p1 = ball_hit_estimate(triangle_batch, c1, r1)
    p2 = ball_hit_estimate(triangle_batch, c2, r2)
    assert union <= p1.value + p2.value + 3 * (p1.std_error + p2.std_error)


def test_std_error_bound(triangle_batch):
    est = ball_hit_estimate(triangle_batch, (0.0, 0.0), 0.2)
    assert est.std_error <= 0.5 / np.sqrt(est.n_mc)


# -- path density -------------------------------------------------------------

def test_density_vanishes_at_local_minimum(triangle_model, triangle_critical,
                                           triangle_batch):
    minimum = next(c for c in triangle_critical if c.kind == "minimum")
    est = point_density_estimate(triangle_batch, minimum.location, 0.025)
    assert abs(est.value) <= 3 * max(est.std_error, 1e-4)


def test_density_estimate_deterministic():
    model = two_gaussian_model()
    x, r1 = (0.5, 0.3), 0.03

    def estimate():
        segs = sample_and_trace(model, 2000, np.random.default_rng(9),
                                refine_disks=([x], [r1]))
        return point_density_estimate(segs, x, r1)

    a, b = estimate(), estimate()
    assert a.value == b.value
    assert a.std_error == b.std_error


def test_density_halving_r_is_consistent(triangle_batch):
    x = (0.5, 0.4)
    a = point_density_estimate(triangle_batch, x, 0.04)
    b = point_density_estimate(triangle_batch, x, 0.02)
    assert abs(a.value - b.value) <= 3 * (a.std_error + b.std_error)


def test_hit_fraction_linear_in_radius(triangle_batch):
    # f(r)/r should be stable across r, so f(r) is linear through the origin
    x = np.array([0.5, 0.4])
    md = triangle_batch.distances(x)[0]
    r0 = 0.04
    fracs = np.array([(md <= s * r0).mean() for s in (0.5, 1.0, 2.0)])
    slopes = fracs / (np.array([0.5, 1.0, 2.0]) * r0)
    assert slopes.max() - slopes.min() <= 0.25 * slopes.mean()


# -- raster hit counts --------------------------------------------------------

def _hit_count_case(case):
    """An ensemble, a grid and two radii for the hit-count check."""
    if case == "traced":
        segs = sample_and_trace(two_gaussian_model(), 500, np.random.default_rng(3))
        return segs, GridSpec(-2.0, 2.0, -1.5, 1.5, 9, 7), [0.05, 0.1]
    # a lone vertex, then a path of 6,999 segments: longer than a block at
    # every block size below, since the stencil has at least 3 x 3 nodes
    t = np.linspace(0.0, 1.0, 7000)
    wave = np.column_stack([t, 0.5 + 0.3 * np.sin(6 * np.pi * t)])
    segs = polyline_ensemble([[[0.31, 0.52]], wave, [[0.2, 0.9], [0.7, 0.1]]])
    # radii in descending order: counts come back in the caller's order
    return segs, GridSpec(0.0, 1.0, 0.0, 1.0, 11, 11), [0.15, 0.02]


# A gather takes whole paths, up to _HIT_BLOCK segments and _MARKS / nodes
# paths, and works through them in blocks of _HIT_BLOCK (segment, node)
# pairs. At the default _MARKS, 60,000 takes each case in one gather; 250
# gathers a few paths at a time (the 6,999-segment one alone) in blocks of 10
# segments on the traced case's 5 x 5 stencil, which cut most of its paths
# (39 to 50 segments from the 10th to the 90th percentile); 1 gathers one
# path at a time in one-segment blocks. _MARKS of one grid's nodes gathers
# one path at a time, and of three grids' nodes three paths, so each node
# is marked again in later gathers and counts only if the marks were cleared.
@pytest.mark.parametrize("hit_block, marks", [
    pytest.param(b, m, id=str(b) if m is None else f"{b}-marks{m}")
    for m in (None, 1, 3) for b in (60_000, 250, 1)])
@pytest.mark.parametrize("case", ["traced", "polylines"])
def test_hit_counts_match_direct_distances(monkeypatch, case, hit_block, marks):
    monkeypatch.setattr(oracle, "_HIT_BLOCK", hit_block)
    segs, grid, radii = _hit_count_case(case)
    if marks is not None:  # in paths per gather
        monkeypatch.setattr(oracle, "_MARKS", marks * grid.nx * grid.ny)
    counts = path_hit_counts(segs, grid, radii)
    nodes = grid.nodes()
    for k, r in enumerate(radii):
        direct = np.array([(segs.distances(p)[0] <= r).sum() for p in nodes])
        np.testing.assert_array_equal(counts[k].ravel(), direct)


def test_hit_counts_run_in_bounded_memory():
    # a gather holds whole paths, here the 6,999-segment wave amid 1,000
    # traced pentagon paths, and the marks about 2^20 bytes a radius;
    # one (segment, stencil node) block over all 44,905 segments would take
    # hundreds of MB
    model = random_pentagon_model(np.random.default_rng(1))[0]
    traced = [p.vertices for p in sample_and_trace(model, 1000,
                                                   np.random.default_rng(2))]
    wave = _hit_count_case("polylines")[0][1].vertices
    segs = polyline_ensemble(traced[:500] + [wave] + traced[500:])
    r1 = default_r1(model)
    peak = traced_peak_mb(path_hit_counts, segs,
                          GridSpec.from_bounds(model.box, 200), [r1, 2 * r1])
    assert peak < 10.0


BAD_RADII = [np.nan, -1.0, 0.0, np.inf]


@pytest.mark.parametrize("r", BAD_RADII)
@pytest.mark.parametrize("estimate", [
    lambda segs, r: ball_hit_estimate(segs, (0.5, 0.5), r),
    lambda segs, r: point_density_terms(segs, (0.5, 0.5), r),
    lambda segs, r: path_hit_counts(segs, GridSpec(0.0, 1.0, 0.0, 1.0, 5, 5),
                                    [0.1, r]),
], ids=["ball_hit_estimate", "point_density_terms", "path_hit_counts"])
def test_estimates_refuse_a_radius_that_is_not_positive_and_finite(estimate, r):
    segs = polyline_ensemble([[[0.2, 0.5], [0.8, 0.5]], [[0.5, 0.1], [0.5, 0.9]]])
    with pytest.raises(ValueError, match="radius"):
        estimate(segs, r)


@pytest.mark.parametrize("r1", BAD_RADII)
def test_oracle_field_refuses_a_radius_that_is_not_positive_and_finite(r1):
    segs = polyline_ensemble([[[0.2, 0.5], [0.8, 0.5]], [[0.5, 0.1], [0.5, 0.9]]])
    with pytest.raises(ValueError, match="radius"):
        oracle_field(segs, GridSpec(0.0, 1.0, 0.0, 1.0, 5, 5), r1)


def test_oracle_field_nonnegative():
    model = two_gaussian_model()
    grid = GridSpec(-2.0, 2.0, -1.5, 1.5, 25, 19)
    segs = sample_and_trace(model, 2000, np.random.default_rng(4))
    fld = oracle_field(segs, grid, default_r1(model))
    assert np.all(fld.values >= 0)


# -- estimator with true paths ------------------------------------------------

def test_true_path_estimate_concentrates_at_cluster_center():
    model = cluster_model([(0.0, 0.0)], 0.3, (-2, 2, -2, 2))
    cloud = model.sample(400, np.random.default_rng(6))
    nu = 0.1
    ens = trace_ascent_paths(model, cloud.points, model_flow_config(model))
    at_center = estimate_path_density(ens, nu, np.zeros(2))
    far = estimate_path_density(ens, nu, np.array([5 * 0.3, 0.0]))
    assert at_center > far
    assert far >= 0.0


def test_true_path_estimate_permutation_invariant():
    model = cluster_model([(0.0, 0.0)], 0.3, (-2, 2, -2, 2))
    cloud = model.sample(100, np.random.default_rng(2))
    ens = trace_ascent_paths(model, cloud.points, model_flow_config(model))
    x = np.array([0.2, 0.1])
    a = estimate_path_density(ens, 0.1, x)
    perm = np.random.default_rng(0).permutation(cloud.n)
    ens2 = trace_ascent_paths(model, cloud.points[perm], model_flow_config(model))
    b = estimate_path_density(ens2, 0.1, x)
    assert b == pytest.approx(a, rel=1e-12)


def test_coarse_kde_paths_track_true_paths_better_than_fine():
    # with n fixed at desk scale, shrinking h inflates the field-estimation
    # error, so the coarse-h estimator sits closer to the true-path estimator
    from pathdensity.flow import mean_shift_paths

    model = two_gaussian_model()
    nu = 0.3
    probes = np.array([[x, y] for x in np.linspace(-2, 2, 7)
                       for y in np.linspace(-1.5, 1.5, 5)])
    gaps = {}
    for rep in range(2):
        cloud = model.sample(800, np.random.default_rng(300 + rep))
        true_paths = trace_ascent_paths(model, cloud.points,
                                        model_flow_config(model))
        pstar = estimate_path_density(true_paths, nu, probes)
        for h in (0.4, 0.1):
            paths = mean_shift_paths(cloud, h, cloud.points)
            est = estimate_path_density(paths, nu, probes)
            gaps.setdefault(h, []).append(np.median(np.abs(est - pstar)))
    assert np.median(gaps[0.4]) < np.median(gaps[0.1])


# -- saddle four-sum check ---------------------------------------------------

def _linear_saddle_batch(n, rng, n_axis=0, half=0.5, dt=0.02):
    """Paths of the linear saddle flow x' = 3x, y' = -y from uniform starts
    on [-half, half]^2, sampled every dt in time until they leave the box.

    Like the two-gaussian saddle (same eigenvalue ratio), the ball measure
    at s = 0 scales like r^2, so p(s) = 0 and the four-sum is O(eps): the
    identity holds. The n_axis extra paths run down the stable (y) axis and
    end exactly at s, which puts mass at s that no nearby point sees.
    """
    starts = rng.uniform(-half, half, (n, 2))
    t_exit = np.log(half / np.maximum(np.abs(starts[:, 0]), 1e-12)) / 3.0
    n_vert = np.maximum(np.ceil(t_exit / dt), 1).astype(int) + 1
    ids = np.repeat(np.arange(n), n_vert)
    t = dt * (np.arange(len(ids)) - np.repeat(np.cumsum(n_vert) - n_vert, n_vert))
    verts = np.column_stack([starts[ids, 0] * np.exp(3.0 * t),
                             starts[ids, 1] * np.exp(-t)])
    y0 = rng.uniform(0.2, half, n_axis) * rng.choice([-1.0, 1.0], n_axis)
    axis_y = y0[:, None] * np.linspace(1.0, 0.0, 11)[None, :]
    ids = np.concatenate([ids, np.repeat(n + np.arange(n_axis), 11)])
    verts = np.concatenate([verts, np.column_stack([np.zeros(axis_y.size),
                                                    axis_y.ravel()])])
    polylines = np.split(verts, np.searchsorted(ids, np.arange(1, n + n_axis)))
    return polyline_ensemble(polylines)


def test_saddle_four_sum_check_rejects_paths_ending_at_saddle():
    ang = np.arctan(np.sqrt(3.0))  # closest approach: |y| / |x| = sqrt(3 / 1)
    c, s = np.cos(ang), np.sin(ang)
    kw = dict(saddle=(0.0, 0.0), eps=0.025 * np.array([1.0, 2.0, 4.0]), r1=0.008,
              directions=[(c, s), (c, -s), (-c, s), (-c, -s)])
    sound = _linear_saddle_batch(20_000, np.random.default_rng(0))
    check = saddle_four_sum(sound, rng=np.random.default_rng(1), **kw)
    assert check.holds, check
    # same paths plus 1% that end at s: p(s) jumps, the four-sum does not
    flawed = _linear_saddle_batch(20_000, np.random.default_rng(0), n_axis=200)
    check = saddle_four_sum(flawed, rng=np.random.default_rng(1), **kw)
    assert not check.holds, check
    assert check.gap > 3 * check.se


# -- convergence harness ------------------------------------------------------

def test_convergence_experiment_rows_and_determinism():
    model = two_gaussian_model()
    probe = GridSpec(-2.5, 2.5, -2.0, 2.0, 8, 8)
    kw = dict(n_list=[100, 200], replicates=2, probe_grid=probe, seed=11,
              oracle_n_mc=3000, oracle_r1=0.05)
    a = convergence_experiment(model, **kw)
    b = convergence_experiment(model, **kw)
    assert len(a.rows) == 4
    assert a.rows == b.rows
    assert np.isfinite(a.slope)
    med = a.median_by_n()
    assert set(med) == {100, 200}
    assert all(v >= 0 for v in med.values())


def test_convergence_experiment_runs_in_bounded_memory():
    # each run's estimate goes through path_density_field's fixed node
    # chunks; one (probe nodes x paths) distance block per run would take
    # about 180 MB here
    model = two_gaussian_model()
    probe = GridSpec.from_bounds(model.box, 60)
    peak = traced_peak_mb(convergence_experiment, model, [100, 1600], 1, probe, 3,
                          oracle_n_mc=200, oracle_r1=0.05)
    assert peak < 40.0
