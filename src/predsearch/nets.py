"""Deterministic covering/separated point sets for balls in R^d.

Construction: candidate points on a cubic lattice intersected with the ball,
then a greedy selection of a maximal separated subset in lexicographic
candidate order. For a net with cover radius eps the lattice spacing is
(eps/3)/sqrt(d) (so candidates cover the ball within eps/3) and the greedy
separation is 2*eps/3, which certifies cover radius <= eps and cardinality
(r/eps)^d <= |N| <= (4.5*r/eps)^d for eps <= r. The greedy blocks a fixed
integer stencil of lattice indices around each kept point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Ball, Point, distance, origin

__all__ = [
    "Net",
    "CoverReport",
    "CandidateCapExceeded",
    "DEFAULT_CANDIDATE_CAP",
    "build_net",
    "visit_order",
    "check_covering",
    "check_separation",
    "separated_set",
    "net_size_lower_bound",
    "net_size_upper_bound",
    "points_as_array",
    "sample_in_ball",
]

DEFAULT_CANDIDATE_CAP = 5_000_000

# KD-tree distances can differ from dists_to in the last ulps. The walk in
# visit_order and the pair filter in check_separation widen tree radii by
# this guard so that they never miss a point that dists_to would count.
_BLOCK_GUARD = 1.0 + 1e-9

# Nearest neighbours kept per point for the greedy walk. More neighbours
# make fewer steps fall back to a scan, at n * 16 bytes each.
_WALK_NEIGHBORS = 8


class CandidateCapExceeded(RuntimeError):
    """The lattice would need more candidates than the configured cap."""


@dataclass(frozen=True)
class Net:
    """Finite point set in a ball with covering / separation certificates.

    ``cover_radius`` is the claimed covering radius (checked empirically by
    :func:`check_covering`), ``separation`` the claimed pairwise minimum
    distance (checked exactly by :func:`check_separation`).
    """

    points: tuple[Point, ...]
    ball: Ball
    cover_radius: float
    separation: float

    @property
    def points_array(self) -> np.ndarray:
        arr = self.__dict__.get("_points_array")
        if arr is None:
            arr = points_as_array(self.points)
            arr.flags.writeable = False
            self.__dict__["_points_array"] = arr
        return arr

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class CoverReport:
    max_gap: float
    ok: bool
    samples: int


def points_as_array(points) -> np.ndarray:
    return np.array([p.coords for p in points], dtype=np.float64)


def dists_to(arr: np.ndarray, coords) -> np.ndarray:
    """Distances from every row of ``arr`` to ``coords``.

    Accumulates squared differences coordinate by coordinate, matching the
    scalar :func:`predsearch.geometry.distance` bit for bit.
    """
    acc = np.zeros(len(arr), dtype=np.float64)
    for k in range(arr.shape[1]):
        diff = arr[:, k] - coords[k]
        acc += diff * diff
    return np.sqrt(acc)


def _lattice_greedy(dimension: int, radius: float, spacing: float, block_sq: int, cap: int, center):
    """Greedy maximal separated subset, in lexicographic order, of the lattice
    ``spacing * Z^d`` in the closed ball of ``radius``, shifted by ``center``
    and kept where it also lies in B(center, radius).

    A kept point blocks every later point at index offset o with |o|^2 <=
    ``block_sq`` = (separation/spacing)^2 (4d for nets, 9d for separated
    sets). That is blocking within ``separation * _BLOCK_GUARD`` exactly
    while |center| + radius stays below ~1e6 separations, so that rounding
    stays inside the guard; |o|^2 = block_sq + 1 is sqrt(1 + 1/block_sq) out.
    """
    k_max = int(math.floor(radius / spacing)) if radius > 0 else 0
    per_axis = 2 * k_max + 1
    total = per_axis**dimension
    if total > cap:
        raise CandidateCapExceeded(
            f"{total} lattice candidates exceed the cap of {cap} "
            f"(d={dimension}, radius/spacing={radius / spacing:.3g})"
        )
    axis = np.arange(-k_max, k_max + 1, dtype=np.float64) * spacing
    keep = np.ones((per_axis,) * dimension, dtype=bool)
    # dists_to's arithmetic, by broadcasting; the set drops a repeated origin.
    for c in {(0.0,) * dimension, tuple(center)}:
        acc = np.zeros(keep.shape, dtype=np.float64)
        for k in range(dimension):
            diff = (axis + c[k]) - c[k]
            acc += (diff * diff).reshape((-1,) + (1,) * (dimension - 1 - k))
        keep &= np.sqrt(acc, out=acc) <= radius
    # Blocks reach only forward in flat order (kept points stay unblocked); a
    # step off the grid lands in the border after the last axis it leaves.
    w = min(math.isqrt(block_sq), 2 * k_max)
    grid = np.pad(keep, (0, w))
    reach = np.arange(-w, w + 1)
    off_sq = off = np.zeros(1, dtype=np.int64)
    for _ in range(dimension):  # flat stencil offsets, axis by axis, pruned as they grow
        off_sq = np.add.outer(off_sq, reach * reach).ravel()
        off = np.add.outer(off * grid.shape[0], reach).ravel()
        off, off_sq = off[off_sq <= block_sq], off_sq[off_sq <= block_sq]
    off = off[off > 0]
    cands = np.flatnonzero(grid)
    # Python ints from a memoryview and bytearray read faster than numpy's.
    seen = bytearray(grid.size)
    blocked = np.frombuffer(seen, dtype=bool)
    for p in memoryview(cands):
        if not seen[p]:
            blocked[p + off] = True
    idx = np.unravel_index(cands[~blocked[cands]], grid.shape)
    return np.stack([axis[i] + c for i, c in zip(idx, center)], axis=1)


@lru_cache(maxsize=64)
def _unit_net_points(dimension: int, eps: float, cap: int):
    """Net point coordinates for the unit ball at the origin.

    The construction is scale and translation invariant, so nets for
    arbitrary balls are affine images of these; caching them makes repeated
    builds with the same eps/radius ratio cheap.
    """
    spacing = (eps / 3.0) / math.sqrt(dimension)
    pts = _lattice_greedy(dimension, 1.0, spacing, 4 * dimension, cap, (0.0,) * dimension)
    pts.flags.writeable = False
    return pts


def build_net(ball: Ball, eps: float, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> Net:
    """Deterministic eps-net for a closed ball.

    Returns a net with cover radius eps and separation 2*eps/3. Identical
    inputs produce identical point tuples. Raises ``ValueError`` for
    eps <= 0 or eps > radius and :class:`CandidateCapExceeded` when the
    lattice would be too large.
    """
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0, got {eps!r}")
    if eps > ball.radius:
        raise ValueError(f"eps={eps!r} exceeds ball radius {ball.radius!r}")
    unit = _unit_net_points(ball.dimension, eps / ball.radius, candidate_cap)
    center = np.array(ball.center.coords, dtype=np.float64)
    pts = unit * ball.radius + center
    # The affine map can push a boundary point out of the float ball by one
    # ulp; re-filtering keeps closed membership exact.
    pts = pts[dists_to(pts, ball.center.coords) <= ball.radius]
    points = tuple(Point(tuple(row)) for row in pts)
    return Net(points=points, ball=ball, cover_radius=eps, separation=2.0 * eps / 3.0)


def net_size_lower_bound(radius: float, eps: float, dimension: int) -> float:
    """Volume floor (r/eps)^d that any eps-cover of the ball must meet."""
    return (radius / eps) ** dimension


def net_size_upper_bound(radius: float, eps: float, dimension: int) -> float:
    """Packing ceiling (4.5*r/eps)^d for the lattice-greedy construction."""
    return (4.5 * radius / eps) ** dimension


def _visit_indices(arr: np.ndarray, start) -> np.ndarray:
    """Indices into ``arr`` of its rows in greedy nearest-neighbor order,
    starting from the row nearest to ``start``.

    Each step moves to the unvisited row at the smallest :func:`dists_to`
    distance, ties going to the lexicographically smallest row. Every row's
    ``_WALK_NEIGHBORS`` nearest rows (by KD-tree distance) are ranked once by
    exact distance, then by row. A step takes the first unvisited row in that
    ranking when it lies closer than the farthest tree neighbour divided by
    ``_BLOCK_GUARD``: then no row outside the list can win or tie, even if the
    tree's distances differ from ``dists_to`` in the last ulp. Otherwise the
    step scans every unvisited row.
    """
    n, d = arr.shape
    # Pre-sorting lexicographically makes the smallest index the lex-smallest tie.
    lex = np.lexsort(tuple(arr[:, k] for k in reversed(range(d))))
    arr = arr[lex]
    k = min(_WALK_NEIGHBORS, n)
    # A range of neighbour ranks keeps the (n, k) shape also when k == 1.
    tree_dist, nbrs = cKDTree(arr).query(arr, k=range(1, k + 1))
    reach = tree_dist[:, -1] / _BLOCK_GUARD
    # Same per-coordinate accumulation as dists_to, in tree_dist's buffer.
    exact = tree_dist
    exact[:] = 0.0
    for c in range(d):
        diff = arr[nbrs, c]
        diff -= arr[:, c, None]
        diff *= diff
        exact += diff
    np.sqrt(exact, out=exact)
    rank = np.lexsort((nbrs, exact), axis=-1)
    nbrs = np.take_along_axis(nbrs, rank, axis=-1)
    exact = np.take_along_axis(exact, rank, axis=-1)

    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.intp)
    current = int(np.argmin(dists_to(arr, start)))
    for step in range(n):
        visited[current] = True
        order[step] = current
        fresh = ~visited[nbrs[current]]
        j = int(np.argmax(fresh))
        if fresh[j] and exact[current, j] < reach[current]:
            current = int(nbrs[current, j])
        elif step + 1 < n:
            rest = np.flatnonzero(~visited)
            current = int(rest[np.argmin(dists_to(arr[rest], arr[current]))])
    return lex[order]


def visit_order(net: Net, start: Point) -> list[Point]:
    """Deterministic greedy nearest-neighbor ordering of the net points.

    Begins at the net point nearest to ``start`` and then always moves to the
    nearest unvisited point, measured by :func:`dists_to`; ties go to the
    lexicographically smallest point. The result is a permutation of
    ``net.points``. Cost: O(n k log n) for one KD-tree query of every
    point's k = 8 nearest neighbours, O(k) per step, plus an O(n) scan only
    at steps where all k nearest neighbours are already visited.
    """
    if len(net.points) == 0:
        raise ValueError("cannot order an empty net")
    if start.dimension != net.ball.dimension:
        raise ValueError("start dimension does not match the net")
    return [net.points[i] for i in _visit_indices(net.points_array, start.coords)]


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


def check_covering(net: Net, samples: int, seed: int) -> CoverReport:
    """Empirical covering certificate: max nearest-net-point distance over
    uniform samples in the ball, compared against the claimed cover radius."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if len(net.points) == 0:
        return CoverReport(max_gap=math.inf, ok=False, samples=samples)
    rng = np.random.default_rng(seed)
    probes = sample_in_ball(rng, net.ball, samples)
    gaps, _ = cKDTree(net.points_array).query(probes)
    max_gap = float(np.max(gaps))
    return CoverReport(max_gap=max_gap, ok=max_gap <= net.cover_radius, samples=samples)


def check_separation(net: Net) -> bool:
    """Exact all-pairs separation check (no tolerance).

    Only the pairs that a KD-tree finds within ``separation * _BLOCK_GUARD``
    are measured by :func:`dists_to`. The filter is complete: tree and exact
    distances differ by a few ulps, so a pair at exact distance < s has tree
    distance < s * (1 + 1e-9).
    """
    arr = net.points_array
    if len(arr) < 2:
        return True
    i, j = cKDTree(arr).query_pairs(net.separation * _BLOCK_GUARD, output_type="ndarray").T
    # Row k of arr[i].T holds the k-th coordinate of every pair's first point.
    return not np.any(dists_to(arr[j], arr[i].T) < net.separation)


def separated_set(
    ball: Ball,
    separation: float,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> tuple[Point, ...]:
    """Greedy maximal separated subset of a lattice inside the ball.

    Unlike :func:`build_net` this makes no covering claim; it is the
    primitive behind the adversarial target placement.
    """
    separation = float(separation)
    if separation <= 0.0:
        raise ValueError("separation must be > 0")
    d = ball.dimension
    spacing = (separation / 3.0) / math.sqrt(d)
    pts = _lattice_greedy(d, ball.radius, spacing, 9 * d, candidate_cap, ball.center.coords)
    return tuple(Point(tuple(row)) for row in pts)
