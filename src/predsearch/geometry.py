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
    "dists_to",
    "contains",
    "sample_in_ball",
    "edge_lengths",
    "cumulative_lengths",
    "path_length",
]

# The range of lengths the CLI accepts, [2^-500, 2^500]: squared distances
# then stay normal floats, as a coordinate difference below ~2^-511 squares
# to 0 and drops out of the distance, and one above 2^512 squares to inf.
MIN_SCALE, MAX_SCALE = 2.0**-500, 2.0**500


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
    array kernel :func:`dists_to` follows the same order so scalar and array
    code agree bit for bit.
    """
    _check_same_dimension(p, q)
    acc = 0.0
    for a, b in zip(p.coords, q.coords):
        diff = a - b
        acc += diff * diff
    return math.sqrt(acc)


def dists_to(arr: np.ndarray, coords) -> np.ndarray:
    """Distances from every row of ``arr`` to ``coords``.

    Accumulates squared differences coordinate by coordinate, matching the
    scalar :func:`distance` bit for bit. ``coords[k]`` may be an array that
    broadcasts against ``arr[:, k]``, as for the distances from every row to
    several points at once.
    """
    # The first square starts the sum, as 0.0 + x == x.
    diff = arr[:, 0] - coords[0]
    acc = diff * diff
    for k in range(1, arr.shape[1]):
        diff = arr[:, k] - coords[k]
        acc += diff * diff
    return np.sqrt(acc)


def contains(ball: Ball, p: Point) -> bool:
    """Closed membership test: boundary points count as inside."""
    _check_same_dimension(ball.center, p)
    return distance(ball.center, p) <= ball.radius


def sample_in_ball(rng: np.random.Generator, ball: Ball, n: int) -> np.ndarray:
    """Uniform samples in the closed ball via rejection from the bounding cube."""
    if n < 1:
        raise ValueError("need at least one sample")
    d = ball.dimension
    out = np.empty((n, d), dtype=np.float64)
    got = 0
    batch = max(256, n)
    while got < n:
        cand = rng.uniform(-ball.radius, ball.radius, size=(batch, d))
        keep = cand[dists_to(cand, (0.0,) * d) <= ball.radius]
        take = min(len(keep), n - got)
        out[got : got + take] = keep[:take]
        got += take
    return out + np.array(ball.center.coords, dtype=np.float64)


def edge_lengths(rows: np.ndarray) -> np.ndarray:
    """Length of every edge of the polyline through the rows of an (n, d)
    array, each equal to :func:`distance` between its ends bit for bit."""
    return dists_to(rows[:-1], rows[1:].T)


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
