import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdensity.geometry import (Segments, _orient, polyline_arclength,
                                  polyline_self_intersects, segment_distances)

from conftest import polyline_ensemble, traced_peak_mb

coord = st.floats(-50, 50, allow_nan=False)


def test_point_to_horizontal_segment():
    d = segment_distances(np.array([[0.5, 1.0]]),
                          Segments.between([[0.0, 0.0]], [[1.0, 0.0]]))
    assert d[0] == pytest.approx(1.0)


def test_distance_beyond_endpoints_clamps():
    segs = Segments.between([[0.0, 0.0]], [[1.0, 0.0]])
    assert segment_distances(np.array([[2.0, 0.0]]), segs)[0] == pytest.approx(1.0)
    assert segment_distances(np.array([[-3.0, 4.0]]), segs)[0] == pytest.approx(5.0)


def test_zero_length_segment_is_point_distance():
    a = np.array([[1.0, 1.0]])
    d = segment_distances(np.array([[4.0, 5.0]]), Segments.between(a, a.copy()))
    assert d[0] == pytest.approx(5.0)


def test_underflowing_segment_length_is_start_distance():
    # dx^2 + dy^2 underflows to 0 although b != a
    a = np.array([[1.0, 1.0]])
    p = np.array([[4.0, 5.0]])
    d = segment_distances(p, Segments.between(a, a + 1e-170))
    assert d[0] == np.sqrt(3.0 * 3.0 + 4.0 * 4.0)


@settings(max_examples=100, deadline=None)
@given(px=coord, py=coord, ax=coord, ay=coord, bx=coord, by=coord)
def test_segment_distance_bounded_by_endpoint_distances(px, py, ax, ay, bx, by):
    p = np.array([[px, py]])
    a = np.array([[ax, ay]])
    b = np.array([[bx, by]])
    d = segment_distances(p, Segments.between(a, b))[0]
    d_end = min(np.hypot(px - ax, py - ay), np.hypot(px - bx, py - by))
    assert d <= d_end + 1e-9
    assert d >= 0.0


def test_polyline_min_distance_single_vertex():
    d = polyline_ensemble([[[0.0, 0.0]]]).distances([3.0, 4.0])[0, 0]
    assert d == pytest.approx(5.0)


def test_polyline_vertex_containment():
    poly = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    for v in poly:
        d = polyline_ensemble([poly]).distances(v)[0, 0]
        assert d == pytest.approx(0.0, abs=1e-15)


def test_arclength_cumulative():
    poly = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 10.0]])
    np.testing.assert_allclose(polyline_arclength(poly), [0.0, 5.0, 11.0])


def test_self_intersection_detected():
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert polyline_self_intersects(bowtie)
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    assert not polyline_self_intersects(square)


def test_straight_line_not_flagged():
    line = np.column_stack([np.linspace(0, 1, 50), np.linspace(0, 2, 50)])
    assert not polyline_self_intersects(line)


def all_pairs_self_intersects(vertices) -> bool:
    """Reference crossing check: every non-adjacent segment pair at once."""
    v = np.asarray(vertices, dtype=float)
    n = len(v) - 1
    if n < 3:
        return False
    a, b = v[:-1], v[1:]
    i, j = np.triu_indices(n, k=2)  # skip self and adjacent pairs
    p1, p2 = a[i], b[i]
    q1, q2 = a[j], b[j]
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return bool(((d1 * d2 < 0) & (d3 * d4 < 0)).any())


def test_self_intersection_matches_the_all_pairs_check():
    rng = np.random.default_rng(8)
    flags = []
    for k in range(3000):
        v = rng.random((rng.integers(1, 12), 2))
        if k % 3 == 0:  # collinear, touching and repeated vertices
            v = np.round(4.0 * v) / 4.0
        if k % 5 == 0:  # a closed ring
            v = np.vstack([v, v[:1]])
        flags.append(polyline_self_intersects(v))
        assert flags[-1] == all_pairs_self_intersects(v)
    assert 0 < sum(flags) < len(flags)


def test_self_intersection_check_memory_is_linear_in_vertices():
    # every segment pair at once would take about 245 MB at 2,000 vertices
    x = np.linspace(0.0, 1.0, 2000)
    zigzag = np.column_stack([x, 0.01 * (np.arange(2000) % 2)])
    flag = []
    peak = traced_peak_mb(lambda: flag.append(polyline_self_intersects(zigzag)))
    assert flag == [False]
    assert peak < 10.0
