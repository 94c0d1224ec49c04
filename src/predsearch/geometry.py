"""Elementary Euclidean geometry in R^d: points, balls, polyline lengths.

Dimension is a runtime value, all reals are 64-bit floats, and every set
membership test uses exact closed inequalities (no epsilon). All types are
immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point",
    "Ball",
    "point",
    "origin",
    "distance",
    "contains",
    "edge_lengths",
    "cumulative_lengths",
    "path_length",
]


@dataclass(frozen=True)
class Point:
    """Immutable point in R^d (d >= 1, all coordinates finite)."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(x) for x in self.coords)
        if len(coords) == 0:
            raise ValueError("a point needs at least one coordinate")
        if not all(math.isfinite(x) for x in coords):
            raise ValueError(f"non-finite coordinate in {coords!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return len(self.coords)


def point(*coords: float) -> Point:
    """Convenience constructor: point(3, 4) == Point((3.0, 4.0))."""
    return Point(tuple(coords))


def origin(dimension: int) -> Point:
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    return Point((0.0,) * dimension)


@dataclass(frozen=True)
class Ball:
    """Closed ball {q : |center q| <= radius}."""

    center: Point
    radius: float

    def __post_init__(self):
        radius = float(self.radius)
        if not (math.isfinite(radius) and radius >= 0.0):
            raise ValueError(f"ball radius must be finite and >= 0, got {radius!r}")
        object.__setattr__(self, "radius", radius)

    @property
    def dimension(self) -> int:
        return self.center.dimension


def _check_same_dimension(p: Point, q: Point) -> None:
    if p.dimension != q.dimension:
        raise ValueError(f"dimension mismatch: {p.dimension} vs {q.dimension}")


def distance(p: Point, q: Point) -> float:
    """Euclidean distance |pq|.

    Squared differences are accumulated coordinate by coordinate; the
    vectorized helpers in the net module follow the same order so scalar and
    array code agree bit for bit.
    """
    _check_same_dimension(p, q)
    acc = 0.0
    for a, b in zip(p.coords, q.coords):
        diff = a - b
        acc += diff * diff
    return math.sqrt(acc)


def contains(ball: Ball, p: Point) -> bool:
    """Closed membership test: boundary points count as inside."""
    _check_same_dimension(ball.center, p)
    return distance(ball.center, p) <= ball.radius


def edge_lengths(rows: np.ndarray) -> np.ndarray:
    """Length of every edge of the polyline through the rows of an (n, d)
    array, each equal to :func:`distance` between its ends bit for bit: the
    squared coordinate differences accumulate in order, as there."""
    acc = np.zeros(max(len(rows) - 1, 0), dtype=np.float64)
    for k in range(rows.shape[1]):
        diff = rows[:-1, k] - rows[1:, k]
        acc += diff * diff
    return np.sqrt(acc)


def cumulative_lengths(rows: np.ndarray) -> np.ndarray:
    """Arc length at every vertex of the polyline through the rows of an
    (n, d) array, starting with 0 at the first vertex.

    The :func:`edge_lengths` are summed left to right by ``np.cumsum``, so
    every entry equals the running total of a scalar loop over
    :func:`distance` bit for bit.
    """
    return np.cumsum(np.concatenate(([0.0], edge_lengths(rows))))


def path_length(rows: np.ndarray) -> float:
    """Total length of the polyline through the rows of an (n, d) array; a
    single vertex has length 0."""
    return float(cumulative_lengths(rows)[-1])
