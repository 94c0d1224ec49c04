"""Deterministic covering/separated point sets for balls in R^d.

Construction: candidate points on a cubic lattice intersected with the ball,
then a greedy selection of a maximal separated subset in lexicographic
candidate order. For a net with cover radius eps the lattice spacing is
(eps/3)/sqrt(d) (so candidates cover the ball within eps/3) and the greedy
separation is 2*eps/3, which certifies cover radius <= eps and cardinality
(r/eps)^d <= |N| <= (4.5*r/eps)^d for eps <= r. The greedy blocks a fixed
integer stencil of lattice indices around each kept point. It takes the
candidates in blocks of axis-0 slabs, each lattice line of a block along
the last axis as the one span of its cells in the ball, found by
bisection, so no cell of the (2k+1)^d cube is measured on its own. It
keeps blocked flags for a block and the w = isqrt(stencil radius^2) slabs
the stencil reaches past it, so its working memory is about (w + 1) *
(2k+1)^(d-1) cells. Slab by slab, it drops the candidates that earlier
slabs blocked with one gather, tests the rest one by one, and blocks the
later slabs for all the slab's kept points with one numpy call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import MIN_SCALE, Ball, Point, dists_to, sample_in_ball

__all__ = [
    "Net",
    "CoverReport",
    "CandidateCapExceeded",
    "CANDIDATE_CAP",
    "build_net",
    "visit_order",
    "pairs_within",
    "check_covering",
    "check_separation",
    "separated_set",
    "net_size_lower_bound",
    "net_size_upper_bound",
]

# Most lattice cube cells a net or separated set may need; more raise
# CandidateCapExceeded before anything is allocated. `net --check` also
# draws at most this many sample coordinates (samples * d), as
# sample_in_ball holds a few float64 arrays of that size; more exit 2
# before any work.
CANDIDATE_CAP = 5_000_000

# A pair at dists_to distance below h / _BLOCK_GUARD lies in neighbouring
# cells of side h (see _CellGrid): the guard absorbs the rounding of the
# cell coordinates. It also makes the lattice greedy's integer stencil block
# within separation * _BLOCK_GUARD.
_BLOCK_GUARD = 1.0 + 1e-9

# Nearest neighbours kept per point for the greedy walk. More neighbours
# make fewer steps fall back to a search of wider blocks of cells, at
# n * 16 bytes each.
_WALK_NEIGHBORS = 8

# Cell grid sizes, as average rows per 3^d block for the walk's neighbour
# lists and per cell for the covering check, and the candidate pairs per
# grid lookup.
_WALK_BLOCK_ROWS = 27.0
_COVER_CELL_ROWS = 0.25
_PAIR_CHUNK = 1 << 14
# Queries per grid lookup of the certificates.
_QUERY_CHUNK = 1 << 10
# A cell grid keeps a table of where each cell's rows start when its key
# space holds at most this many cells per row, plus the slack.
_TABLE_ROWS = 16
_TABLE_SLACK = 4096

# Lattice cells per block of axis-0 slabs in the greedy. The d <= 2
# lattices of the search commands (up to ~166k cells) take one block.
_GREEDY_BLOCK_CELLS = 1 << 18
# In-slab stencils up to this many offsets are written cell by cell through
# the bytearray; longer ones in one numpy call per kept point.
_GREEDY_SHORT_STENCIL = 32


class CandidateCapExceeded(RuntimeError):
    """The lattice would need more candidate cells than ``CANDIDATE_CAP``."""


@dataclass(frozen=True, eq=False)
class Net:
    """Finite point set in a ball with covering / separation certificates.

    ``rows`` holds the points as a read-only (n, d) float64 array.
    ``cover_radius`` is the claimed covering radius (checked empirically by
    :func:`check_covering`), ``separation`` the claimed pairwise minimum
    distance (checked exactly by :func:`check_separation`).
    """

    rows: np.ndarray
    ball: Ball
    cover_radius: float
    separation: float

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.float64).reshape(-1, self.ball.dimension)
        if not np.isfinite(rows).all():
            raise ValueError("non-finite coordinate in the net rows")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class CoverReport:
    max_gap: float
    ok: bool
    samples: int


def _count_text(base: int, exponent: int) -> str:
    """The count ``base**exponent`` in decimal up to 15 digits, else as
    ~d.dde+N from its base-10 logarithm, ``exponent * log10(base)``: the
    cube-cell count can run to millions of digits, too many to compute,
    print or divide quickly, and a float overflows above 1.8e308."""
    log = exponent * math.log10(base)
    if log < 16.0 and base**exponent < 10**15:
        return str(base**exponent)
    exp, frac = divmod(log, 1.0)
    return f"~{math.floor(10.0 ** (frac + 2.0)) / 100.0:.2f}e+{int(exp)}"


def _ball_cells(coords, side: int, radius: float, center):
    """Flat indices, ascending, of the lattice cells in both the closed ball
    of ``radius`` about the origin and B(center, radius), and the ends of
    each axis-0 slab's run of them (at d = 1, of the one run). Cells sit at
    the products of the ``coords`` arrays, each ascending, and are numbered
    in the block padded to ``side`` cells along every axis but axis 0.

    The test is dists_to's arithmetic: along a line of the last axis, a
    partial sum s = (0 + t_0) + ... + t_(d-2) over the other axes, then
    sqrt(s + t[j]) <= radius, with t_k = ((x + c_k) - c_k)^2 per axis.
    (x + c) - c is nondecreasing in x under round-to-nearest, so t is
    unimodal in j, and the sum, the square root and the comparison are
    monotone: a line's cells in a ball are those whose t is at most some
    threshold, one interval of j. It is found by bisecting the sorted
    distinct values of t with the exact test, all lines at once, and mapped
    back to [min j, max j] of that prefix of the sort.
    """
    start = stop = None
    for c in {(0.0,) * len(coords), tuple(center)}:  # the set drops a repeated origin
        s = np.zeros([len(x) for x in coords[:-1]])
        for k, x in enumerate(coords[:-1]):
            diff = (x + c[k]) - c[k]
            s += (diff * diff).reshape((-1,) + (1,) * (len(coords) - 2 - k))
        s = s.ravel()
        diff = (coords[-1] + c[-1]) - c[-1]
        t = diff * diff
        order = np.argsort(t, kind="stable")
        t = t[order]
        last = np.flatnonzero(np.append(t[1:] != t[:-1], True))  # each value's last place
        low = np.append(0, np.minimum.accumulate(order)[last])
        high = np.append(0, np.maximum.accumulate(order)[last] + 1)
        # Each line's count of distinct values in the ball, one bit at a time;
        # a probe past the last value meets inf and fails.
        bit = 1 << (len(last).bit_length() - 1)
        values = np.full(2 * bit, np.inf)
        values[: len(last)] = t[last]
        q = np.zeros(len(s), dtype=np.intp)
        while bit:
            q += bit * (np.sqrt(s + values[q + (bit - 1)]) <= radius)
            bit >>= 1
        if start is None:
            start, stop = low[q], high[q]
        else:
            start, stop = np.maximum(start, low[q]), np.minimum(stop, high[q])
    count = np.maximum(stop - start, 0)
    total = np.cumsum(count)
    line = np.zeros(1, dtype=np.int64)  # each line's first cell, over side
    for x in coords[:-1]:
        line = np.add.outer(line * side, np.arange(len(x))).ravel()
    cands = np.arange(total[-1]) + np.repeat(line * side + start - (total - count), count)
    lines = math.prod(len(x) for x in coords[1:-1])  # per slab
    return cands, [0] + total[lines - 1 :: lines].tolist()


def _lattice_greedy(dimension: int, radius: float, spacing: float, block_sq: int, center):
    """Greedy maximal separated subset, in lexicographic order, of the lattice
    ``spacing * Z^d`` in the closed ball of ``radius``, shifted by ``center``
    and kept where it also lies in B(center, radius).

    A kept point blocks every later point at index offset o with |o|^2 <=
    ``block_sq`` = (separation/spacing)^2 (4d for nets, 9d for separated
    sets). That is blocking within ``separation * _BLOCK_GUARD`` exactly
    while |center| + radius stays below ~1e6 separations, so that rounding
    stays inside the guard; |o|^2 = block_sq + 1 is sqrt(1 + 1/block_sq) out.

    The cube of (2k+1)^d cells is walked in blocks of axis-0 slabs, so the
    working memory is a block plus the w = isqrt(block_sq) slabs a block's
    stencils reach past it: about (w + 1) * (2k+1)^(d-1) cells once a slab
    outgrows ``_GREEDY_BLOCK_CELLS``. ``CANDIDATE_CAP`` on cube cells is
    checked first. A block's candidates come from :func:`_ball_cells`, one
    span per lattice line along the last axis, not from a mask of its cells.

    Within a block the greedy goes one axis-0 slab at a time. The stencil
    splits into ``near`` offsets (o_0 = 0), which stay in the slab, and
    ``far`` ones (o_0 >= 1). A slab first drops, in one gather, the
    candidates that earlier slabs blocked; then it tests the rest in flat
    order, and a kept point writes its ``near`` offsets at once; last, one
    numpy call writes the ``far`` offsets of all the slab's kept points.
    This is exact: a ``far`` write lands in a later slab or in the padding
    of this one, which holds no candidates, so nothing tested before the
    slab ends reads it; and a ``near`` write lands before any later cell of
    the slab is tested. Every candidate thus sees at its test the flags that
    a one-point-at-a-time loop would show it. At d = 1 a slab is one cell,
    so the whole block runs as one slab with every offset ``near``.
    """
    k_max = int(math.floor(radius / spacing)) if radius > 0 else 0
    per_axis = 2 * k_max + 1
    # Log space first: a count ten times the cap is past it whatever the
    # rounding, and the exact power can run to millions of digits.
    too_many = dimension * math.log10(per_axis) > math.log10(10 * CANDIDATE_CAP)
    if too_many or per_axis**dimension > CANDIDATE_CAP:
        count = _count_text(per_axis, dimension)
        raise CandidateCapExceeded(
            f"{count} lattice candidates exceed the cap of {CANDIDATE_CAP} "
            f"(d={dimension}, radius/spacing={radius / spacing:.3g})"
        )
    axis = np.arange(-k_max, k_max + 1, dtype=np.float64) * spacing
    # The cube padded by w cells after each axis: blocks reach only forward
    # in flat order (kept points stay unblocked), at most w slabs along axis
    # 0, and a step off the lattice lands in the border after the last axis
    # it leaves.
    w = min(math.isqrt(block_sq), 2 * k_max)
    side = per_axis + w
    slab = side ** (dimension - 1)
    reach = np.arange(-w, w + 1)
    off_sq = off = np.zeros(1, dtype=np.int64)
    for _ in range(dimension):  # flat stencil offsets, axis by axis, pruned as they grow
        off_sq = np.add.outer(off_sq, reach * reach).ravel()
        off = np.add.outer(off * side, reach).ravel()
        off, off_sq = off[off_sq <= block_sq], off_sq[off_sq <= block_sq]
    off = off[off > 0]
    # Offsets within the slab (o_0 = 0) and into later ones: the other axes
    # move an offset by less than slab / 2. At d = 1 a slab is one cell, so
    # every offset counts as near and a block is one run.
    near, far = (off, off[:0]) if dimension == 1 else (off[2 * off < slab], off[2 * off > slab])
    short = near.tolist() if len(near) <= _GREEDY_SHORT_STENCIL else None
    # Axis-0 slabs go in blocks of `step`; the blocked flags cover the block
    # and the w slabs after it, which carry over to the next block.
    step = max(1, _GREEDY_BLOCK_CELLS // per_axis ** (dimension - 1))
    seen = None
    kept = []
    for first in range(0, per_axis, step):
        heads = axis[first : first + step]
        cands, ends = _ball_cells([heads] + [axis] * (dimension - 1), side, radius, center)
        if seen is None:
            # Allocated after the first block's candidates: the heap the
            # greedy leaves behind sets the peak RSS of the walk that follows,
            # and allocating the flags first raised it by ~1.6 MB at d = 2.
            # Python ints from a memoryview and bytearray read faster than numpy's.
            seen = bytearray((min(step, per_axis) + w) * slab)
            blocked = np.frombuffer(seen, dtype=bool)
        for lo, hi in zip(ends, ends[1:]):
            live = cands[lo:hi]
            mine = []
            for p in memoryview(live[~blocked[live]]):
                if not seen[p]:
                    mine.append(p)
                    if short is None:
                        blocked[p + near] = True
                    else:
                        for o in short:
                            seen[p + o] = 1
            if mine:
                blocked[np.add.outer(mine, far)] = True
        idx = np.unravel_index(cands[~blocked[cands]], (len(heads),) + (side,) * (dimension - 1))
        kept.append(np.stack([axis[i] + c for i, c in zip((idx[0] + first, *idx[1:]), center)], axis=1))
        blocked[: w * slab] = blocked[len(heads) * slab : (len(heads) + w) * slab]
        blocked[w * slab :] = False
    return kept[0] if len(kept) == 1 else np.concatenate(kept)


@lru_cache(maxsize=64)
def _unit_net_points(dimension: int, eps: float):
    """Net point coordinates for the unit ball at the origin.

    The construction is scale and translation invariant, so nets for
    arbitrary balls are affine images of these; caching them makes repeated
    builds with the same eps/radius ratio cheap.
    """
    spacing = (eps / 3.0) / math.sqrt(dimension)
    pts = _lattice_greedy(dimension, 1.0, spacing, 4 * dimension, (0.0,) * dimension)
    pts.flags.writeable = False
    return pts


def build_net(ball: Ball, eps: float) -> Net:
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
    unit = _unit_net_points(ball.dimension, eps / ball.radius)
    center = np.array(ball.center.coords, dtype=np.float64)
    pts = unit * ball.radius + center
    # The affine map can push a boundary point out of the float ball by one
    # ulp; re-filtering keeps closed membership exact.
    pts = pts[dists_to(pts, ball.center.coords) <= ball.radius]
    return Net(rows=pts, ball=ball, cover_radius=eps, separation=2.0 * eps / 3.0)


def net_size_lower_bound(radius: float, eps: float, dimension: int) -> float:
    """Volume floor (r/eps)^d that any eps-cover of the ball must meet."""
    return (radius / eps) ** dimension


def net_size_upper_bound(radius: float, eps: float, dimension: int) -> float:
    """Packing ceiling (4.5*r/eps)^d for the lattice-greedy construction."""
    return (4.5 * radius / eps) ** dimension


class _CellGrid:
    """Rows bucketed in cubic cells of side ``h``, sorted by flat cell key: a
    fixed-radius near-neighbour grid (Bentley, Stanat & Williams, IPL 1977).

    A point's cell is floor((x - lo) / h) + 1 on each axis, clipped to the
    border layers 0 and m + 1, which the rows, in cells 1..m above their
    lower corner ``lo``, leave empty. The last axis varies fastest, so the
    radius-r block of a cell, the cells within r of it on every axis, is
    (2r + 1)^(d-1) runs of the sorted rows.

    Widening rule: a row at :func:`dists_to` distance below r * h /
    _BLOCK_GUARD from a point lies in the radius-r block of its cell, so a
    block's nearest row that close is the nearest of all, as is any once r
    reaches the grid's span. No coordinate difference exceeds the distance;
    rounding moves a cell coordinate by ~2^-52 * (m + 1) cells at most, far
    below the guard's 1e-9, as ``h`` is raised to keep m <= 2^20 (and the
    key space below 2^60); clipping a point into the border moves its cell
    towards the rows', which only widens its true gaps; and a run past the
    border aliases another run, which only adds rows. ``h`` is at least
    MIN_SCALE, below which differences drop out of the distance, and 1 for
    a box of zero extent.

    Lookups: when the key space, the product of the grid's widths, holds at
    most ``_TABLE_ROWS`` cells per row plus ``_TABLE_SLACK``, a table of
    where each key's rows start in the sorted rows answers them by indexing;
    otherwise, as on a sparse box, where the table would be too large, they
    search the sorted keys.
    """

    def __init__(self, rows: np.ndarray, h: float):
        d = rows.shape[1]
        self.lo = rows.min(axis=0)
        extent = rows.max(axis=0) - self.lo
        span = float(extent.max())
        self.h = max(h, span / min(2**20, int(2.0 ** (60.0 / d)) - 4), MIN_SCALE)
        if span == 0.0:
            self.h = max(self.h, 1.0)
        self.top = np.floor(extent / self.h) + 2.0
        widths = self.top.astype(np.int64) + 1
        self.strides = np.append(np.cumprod(widths[:0:-1])[::-1], 1)
        self.runs = self.runs_within(1)  # the 3^d block's, ascending
        keys = self.cell_keys(rows)
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        # Coordinate k of the sorted rows is cols[k], so gathers are contiguous.
        self.cols = np.ascontiguousarray(rows[self.order].T)
        self.space = int(np.prod(widths))
        self.starts = None
        if self.space <= _TABLE_ROWS * len(rows) + _TABLE_SLACK:
            self.starts = np.searchsorted(self.keys, np.arange(self.space + 1))

    def cell_keys(self, points: np.ndarray) -> np.ndarray:
        cells = np.clip(np.floor((points - self.lo) / self.h) + 1.0, 0.0, self.top)
        return cells.astype(np.int64) @ self.strides

    def block(self, keys: np.ndarray, runs: np.ndarray | None = None, radius: int = 1):
        """Start and end in the sorted rows of each run of the block of cells
        within ``radius`` of each query key's cell: two (len(keys), len(runs))
        arrays. ``runs`` holds the runs' flat offsets, from :meth:`runs_within`
        for the radius; the default is the 3^d block's. Lookups go run by
        run, which is faster when the keys are sorted."""
        middle = (self.runs if runs is None else runs)[:, None] + keys
        if self.starts is None:
            return (
                np.searchsorted(self.keys, middle - radius, "left").T,
                np.searchsorted(self.keys, middle + radius, "right").T,
            )
        # np.clip costs several times more than the two ufuncs on small calls.
        space = self.space
        return (
            self.starts[np.minimum(np.maximum(middle - radius, 0), space)].T,
            self.starts[np.minimum(np.maximum(middle + (radius + 1), 0), space)].T,
        )

    def runs_within(self, radius: int) -> np.ndarray:
        """Flat offsets, ascending, of the runs of the radius-``radius`` block."""
        off = np.zeros(1, dtype=np.int64)
        for stride in self.strides[:-1]:
            off = np.add.outer(off, np.arange(-radius, radius + 1) * stride).ravel()
        return off


def _pairs(start: np.ndarray, end: np.ndarray):
    """Yield, piece by piece, ``(first, size, row)`` for the row ranges
    [start, end) of (m, r) arrays: queries ``first``, ``first + 1``, ... pair
    with ``size[0]``, ``size[1]``, ... sorted rows, listed query by query in
    ``row``. A piece's queries times its most pairs of one query stay within
    ``_PAIR_CHUNK`` unless the piece has a single query."""
    count = end - start
    size = count.sum(axis=1)
    a = 0
    while a < len(size):
        widest = np.maximum.accumulate(size[a : a + _PAIR_CHUNK])
        b = a + max(1, int(np.count_nonzero(np.arange(1, len(widest) + 1) * widest <= _PAIR_CHUNK)))
        flat = count[a:b].ravel()
        skip = np.cumsum(flat) - flat - start[a:b].ravel()
        yield a, size[a:b], np.arange(size[a:b].sum()) - np.repeat(skip, flat)
        a = b


def _pair_distances(grid: _CellGrid, row: np.ndarray, queries: np.ndarray, size: np.ndarray):
    """:func:`dists_to` distances of a piece of :func:`_pairs`: from sorted
    row ``row[t]`` to the query of pair t, the queries' coordinates being the
    columns of ``queries``."""
    return dists_to(grid.cols[:, row].T, np.repeat(queries, size, axis=1))


def _cell_side(rows: np.ndarray, per_cell: float) -> float:
    """Side of a cubic cell that holds ``per_cell`` rows on average over the
    rows' bounding box, counting only its axes of nonzero extent."""
    extent = np.ptp(rows, axis=0)
    extent = extent[extent > 0.0]
    if len(extent) == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(extent))) * (per_cell / len(rows)) ** (1.0 / len(extent)))


def _neighbour_lists(arr: np.ndarray, k: int):
    """Each row's nearest other rows in its 3^d block of a cell grid, up to
    k of them, ranked by exact :func:`dists_to` distance and then by index;
    short lists are padded with the row itself at distance inf. Returns the
    (n, k) indices and distances and the grid."""
    n = len(arr)
    grid = _CellGrid(arr, _cell_side(arr, _WALK_BLOCK_ROWS / 3 ** arr.shape[1]))
    nbrs = np.empty((n, k), dtype=np.intp)
    exact = np.empty((n, k))
    for first, size, p in _pairs(*grid.block(grid.keys)):
        # One matrix row per query and its block's rows in the columns; the
        # query itself and the padding rank last, at distance inf and index n.
        here = slice(first, first + len(size))
        owner = np.repeat(np.arange(len(size)), size)
        slot = np.arange(len(p)) - np.repeat(np.cumsum(size) - size, size)
        itself = p == first + owner
        dist = np.full((len(size), max(k, int(size.max()))), np.inf)
        index = np.full(dist.shape, n)
        measured = _pair_distances(grid, p, grid.cols[:, here], size)
        dist[owner, slot] = np.where(itself, np.inf, measured)
        index[owner, slot] = np.where(itself, n, grid.order[p])
        rank = np.lexsort((index, dist), axis=-1)[:, :k]
        dist = np.take_along_axis(dist, rank, axis=-1)
        i = grid.order[here]
        exact[i] = dist
        nbrs[i] = np.where(dist < np.inf, np.take_along_axis(index, rank, axis=-1), i[:, None])
    return nbrs, exact, grid


def _visit_indices(arr: np.ndarray, start) -> np.ndarray:
    """Indices into ``arr`` of its rows in greedy nearest-neighbor order,
    starting from the row nearest to ``start``.

    Each step moves to the unvisited row at the smallest :func:`dists_to`
    distance, ties going to the lexicographically smallest row. Every row's
    nearest rows in its 3^d block of a cell grid of side h, up to
    ``_WALK_NEIGHBORS``, are ranked once by exact distance, then by row. A
    step takes the first unvisited row in that ranking when it lies closer
    than min(h, k-th listed distance) / ``_BLOCK_GUARD``: an unlisted row
    either lies outside the block, at h / _BLOCK_GUARD or more, or in it at
    the k-th distance or more, so it can neither win nor tie. Otherwise the
    step takes the nearest unvisited row of the blocks of radius r = 2, 4,
    8, ... around its row's cell by the widening rule of :class:`_CellGrid`,
    or, once the unvisited rows are fewer than a block is expected to hold,
    measures them all.
    """
    n, d = arr.shape
    k = _WALK_NEIGHBORS
    # Pre-sorting lexicographically makes the smallest index the lex-smallest tie.
    lex = np.lexsort(tuple(arr[:, a] for a in reversed(range(d))))
    arr = arr[lex]
    nbrs, exact, grid = _neighbour_lists(arr, k)
    # Flat tables and a bytearray: Python ints and floats read from
    # memoryviews faster than numpy's scalars.
    reach = memoryview(np.minimum(exact[:, -1], grid.h) / _BLOCK_GUARD)
    listed, dists = memoryview(nbrs.ravel()), memoryview(exact.ravel())
    seen = bytearray(n)
    visited = np.frombuffer(seen, dtype=bool)
    keys = np.empty(n, dtype=np.int64)
    keys[grid.order] = grid.keys
    span = int(grid.top.max())
    runs = {}
    rest = None

    def nearest_unvisited(current: int, left: int) -> int:
        nonlocal rest
        here = arr[current][:, None]
        r = 2
        # While a block holds fewer rows than are left, on average.
        while left > (2 * r + 1) ** d * _WALK_BLOCK_ROWS / 3**d:
            if r not in runs:
                runs[r] = grid.runs_within(r)
            lo, hi = grid.block(keys[current : current + 1], runs[r], r)
            p = np.concatenate([grid.order[a:b] for a, b in zip(lo[0].tolist(), hi[0].tolist())])
            p = p[~visited[p]]
            if len(p):
                dist = dists_to(arr[p], here)
                best = dist.min()
                if best < r * grid.h / _BLOCK_GUARD or r >= span:
                    return int(p[dist == best].min())
            r *= 2
        # Measure every unvisited row, compacting the list of the last time.
        rest = np.flatnonzero(~visited) if rest is None else rest[~visited[rest]]
        return int(rest[np.argmin(dists_to(arr[rest], here))])

    order = np.empty(n, dtype=np.intp)
    steps = memoryview(order)
    current = int(np.argmin(dists_to(arr, start)))
    for step in range(n):
        seen[current] = True
        steps[step] = current
        first = current * k
        for t in range(first, first + k):
            j = listed[t]
            if not seen[j]:
                break
        if not seen[j] and dists[t] < reach[current]:
            current = j
        elif step + 1 < n:
            current = nearest_unvisited(current, n - step - 1)
    return lex[order]


def visit_order(net: Net, start: Point) -> np.ndarray:
    """Net rows in deterministic greedy nearest-neighbor order, as a
    read-only (n, d) float64 array.

    Begins at the net point nearest to ``start`` and then always moves to the
    nearest unvisited point, measured by :func:`dists_to`; ties go to the
    lexicographically smallest point. The rows are a permutation of
    ``net.rows``. Cost: O(n log n) for a cell grid that lists every
    point's k = 8 nearest neighbours in its block of cells and O(k) per
    step. Only at steps where no listed neighbour is provably the nearest
    unvisited point, a search of blocks of cells that widen until they hold
    it, or a pass over the unvisited points once they are fewer than such a
    block holds; either costs O(n) at most.
    """
    if len(net) == 0:
        raise ValueError("cannot order an empty net")
    if start.dimension != net.ball.dimension:
        raise ValueError("start dimension does not match the net")
    rows = net.rows[_visit_indices(net.rows, start.coords)]
    rows.flags.writeable = False
    return rows


def pairs_within(rows: np.ndarray, points: np.ndarray, radius: float) -> np.ndarray:
    """Every (point, row) index pair at :func:`dists_to` distance <= ``radius``,
    as the two rows of a (2, m) array, point by point in ascending order.
    Only the 3^d block of each point's cell in a grid of side ``radius *
    _BLOCK_GUARD**2`` over the rows is measured: a row within the radius
    lies below side / ``_BLOCK_GUARD``, so in the block (see
    :class:`_CellGrid`). A nan or negative radius has no pairs."""
    grid = _CellGrid(rows, radius * _BLOCK_GUARD**2 if radius > 0.0 else 0.0)
    found = [np.empty((2, 0), dtype=np.intp)]
    for first, size, p in _pairs(*grid.block(grid.cell_keys(points))):
        owner = np.repeat(np.arange(first, first + len(size)), size)
        near = _pair_distances(grid, p, points[first : first + len(size)].T, size) <= radius
        found.append(np.stack((owner[near], grid.order[p[near]])))
    return np.concatenate(found, axis=1)


def _nearest_distances(rows: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Exact :func:`dists_to` distance from each probe to its nearest row.

    Rounds r = 1, 2, 4, ... on one cell grid follow the widening rule of
    :class:`_CellGrid`, ``_QUERY_CHUNK`` probes at a time, fewer in wider
    blocks so that no lookup searches more runs. Once r reaches the grid's
    span or a block is expected to hold every row, the last round measures
    every row.
    """
    grid = _CellGrid(rows, _cell_side(rows, _COVER_CELL_ROWS))
    keys = grid.cell_keys(probes)
    todo = np.argsort(keys, kind="stable")
    gaps = np.full(len(probes), np.inf)
    r = 1
    while len(todo):
        last = r >= grid.top.max() or (2 * r + 1) ** rows.shape[1] * _COVER_CELL_ROWS >= len(rows)
        # One run over the whole key space, below 2^60, holds every row once.
        runs, reach = (np.zeros(1, np.int64), 2**60) if last else (grid.runs_within(r), r)
        chunk = max(1, _QUERY_CHUNK * len(grid.runs) // len(runs))
        best = np.full(len(todo), np.inf)
        for a in range(0, len(todo), chunk):
            batch = todo[a : a + chunk]
            start, end = grid.block(keys[batch], runs, reach)
            cols = np.ascontiguousarray(probes[batch].T)
            near = best[a : a + chunk]
            for first, size, p in _pairs(start, end):
                here = slice(first, first + len(size))
                # Each probe's pairs are adjacent: reduce them in one run.
                heads = (np.cumsum(size) - size)[size > 0]
                if len(heads):
                    dist = _pair_distances(grid, p, cols[:, here], size)
                    near[here][size > 0] = np.minimum.reduceat(dist, heads)
        done = (best < r * grid.h / _BLOCK_GUARD) | last
        gaps[todo[done]] = best[done]
        todo = todo[~done]
        r *= 2
    return gaps


def check_covering(net: Net, samples: int, seed: int) -> CoverReport:
    """Empirical covering certificate: max nearest-net-point distance over
    uniform samples in the ball, compared against the claimed cover radius."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if len(net) == 0:
        return CoverReport(max_gap=math.inf, ok=False, samples=samples)
    rng = np.random.default_rng(seed)
    probes = sample_in_ball(rng, net.ball, samples)
    max_gap = float(np.max(_nearest_distances(net.rows, probes)))
    return CoverReport(max_gap=max_gap, ok=max_gap <= net.cover_radius, samples=samples)


def check_separation(net: Net) -> bool:
    """Exact all-pairs separation check (no tolerance).

    Only the pairs in neighbouring cells of a grid of side ``separation *
    _BLOCK_GUARD`` are measured by :func:`dists_to`: each row against the
    later rows of its own cell and the rows of the forward half of its
    block. The filter is complete, because a pair at distance below the
    separation lies in neighbouring cells (see :class:`_CellGrid`).
    """
    arr, s = net.rows, net.separation
    if len(arr) < 2 or not s > 0.0:
        return True
    grid = _CellGrid(arr, s * _BLOCK_GUARD)
    forward = grid.runs[grid.runs >= 0]
    for a in range(0, len(arr), _QUERY_CHUNK):
        start, end = grid.block(grid.keys[a : a + _QUERY_CHUNK], forward)
        # The run through a row's own cell starts just after the row itself.
        start[:, 0] = np.arange(a, a + len(start)) + 1
        for first, size, j in _pairs(start, end):
            rows = grid.cols[:, a + first : a + first + len(size)]
            if np.any(_pair_distances(grid, j, rows, size) < s):
                return False
    return True


def separated_set(ball: Ball, separation: float) -> tuple[Point, ...]:
    """Greedy maximal separated subset of a lattice inside the ball.

    Unlike :func:`build_net` this makes no covering claim; it is the
    primitive behind the adversarial target placement.
    """
    separation = float(separation)
    if separation <= 0.0:
        raise ValueError("separation must be > 0")
    d = ball.dimension
    spacing = (separation / 3.0) / math.sqrt(d)
    pts = _lattice_greedy(d, ball.radius, spacing, 9 * d, ball.center.coords)
    return tuple(Point(tuple(row)) for row in pts)
