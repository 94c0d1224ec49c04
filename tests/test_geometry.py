import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predsearch import (
    Ball,
    Point,
    PolyPath,
    contains,
    cumulative_lengths,
    distance,
    origin,
    path_length,
    point,
)


def test_distance_pythagorean():
    assert distance(point(0, 0), point(3, 4)) == 5.0


def test_distance_identity():
    p = point(1.25, -7.5, 3.0)
    assert distance(p, p) == 0.0


def test_distance_1d():
    assert distance(point(1), point(-2)) == 3.0


def test_distance_symmetric():
    p, q = point(0.3, 1.7), point(-2.0, 0.4)
    assert distance(p, q) == distance(q, p)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance(point(0, 0), point(0, 0, 0))


def test_point_validation():
    with pytest.raises(ValueError):
        Point(())
    with pytest.raises(ValueError):
        point(math.nan)
    with pytest.raises(ValueError):
        point(0.0, math.inf)


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball(point(0, 0), -1.0)
    assert Ball(point(0, 0), 0.0).radius == 0.0


def test_contains_boundary_closed():
    assert contains(Ball(point(0, 0), 1.0), point(1, 0))
    assert not contains(Ball(point(0, 0), 1.0), point(1.0000001, 0))


def test_path_length_single_vertex():
    assert path_length(PolyPath((point(0, 0),))) == 0.0


def test_path_length_two_legs():
    path = PolyPath((point(0, 0), point(3, 4), point(3, 0)))
    assert path_length(path) == 9.0


def test_path_length_out_and_back():
    path = PolyPath((point(0, 0), point(1, 0), point(0, 0)))
    assert path_length(path) == 2.0


def test_polypath_validation():
    with pytest.raises(ValueError):
        PolyPath(())
    with pytest.raises(ValueError):
        PolyPath((point(0, 0), point(1)))


def test_origin():
    assert origin(3).coords == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        origin(0)


def test_triangle_inequality_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        d = int(rng.integers(1, 5))
        p, q, r = (Point(tuple(rng.normal(size=d) * 10)) for _ in range(3))
        assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-12


def test_path_length_rigid_motion_invariant():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pts = rng.normal(size=(6, 2)) * 3
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        shift = rng.normal(size=2) * 5
        moved = pts @ rot.T + shift
        base = path_length(PolyPath(tuple(Point(tuple(r)) for r in pts)))
        transformed = path_length(PolyPath(tuple(Point(tuple(r)) for r in moved)))
        assert transformed == pytest.approx(base, rel=1e-9)


def _scalar_running_lengths(vertices):
    totals = [0.0]
    for a, b in zip(vertices, vertices[1:]):
        totals.append(totals[-1] + distance(a, b))
    return totals


@st.composite
def _vertex_rows(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1e-9, 1.0, 1e6]))
    coords = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * d, max_size=n * d))
    return np.array(coords, dtype=np.float64).reshape(n, d) * scale


@settings(deadline=None, max_examples=200)
@given(_vertex_rows())
def test_array_path_length_matches_point_loop_bit_for_bit(rows):
    vertices = [Point(tuple(r)) for r in rows]
    totals = _scalar_running_lengths(vertices)
    # Left-to-right sums: no pairwise (np.sum) or compensated (fsum) order.
    assert cumulative_lengths(rows).tolist() == totals
    assert path_length(rows) == totals[-1]
    assert path_length(PolyPath(tuple(vertices))) == totals[-1]
    assert path_length(vertices) == totals[-1]


def test_path_length_of_no_vertices():
    assert path_length([]) == 0.0
