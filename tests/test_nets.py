import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from predsearch import (
    Ball,
    CandidateCapExceeded,
    Net,
    Point,
    build_net,
    check_covering,
    check_separation,
    distance,
    net_size_lower_bound,
    net_size_upper_bound,
    origin,
    point,
    sample_in_ball,
    separated_set,
    visit_order,
)
from predsearch import nets
from predsearch.nets import (
    _QUERY_CHUNK,
    _WALK_NEIGHBORS,
    _nearest_distances,
    _neighbour_lists,
    _unit_net_points,
    _visit_indices,
    dists_to,
    pairs_within,
)
from predsearch.strategies import _unit_walk


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
def test_build_net_size_bounds(d, eps):
    net = build_net(Ball(origin(d), 1.0), eps)
    assert net_size_lower_bound(1.0, eps, d) <= len(net) <= net_size_upper_bound(1.0, eps, d)


def test_build_net_d1_eps1_small():
    net = build_net(Ball(point(0.0), 1.0), 1.0)
    assert 1 <= len(net) <= 4


def test_build_net_d2_lower():
    net = build_net(Ball(origin(2), 1.0), 0.5)
    assert len(net) >= 4


def test_build_net_points_inside_ball():
    ball = Ball(point(0.5, -0.25), 0.8)
    net = build_net(ball, 0.3)
    assert (dists_to(net.rows, ball.center.coords) <= ball.radius).all()


def test_build_net_deterministic():
    ball = Ball(point(0.1, 0.2), 1.5)
    a = build_net(ball, 0.4)
    b = build_net(ball, 0.4)
    assert a.rows.tobytes() == b.rows.tobytes()


def test_build_net_validation():
    ball = Ball(origin(2), 1.0)
    with pytest.raises(ValueError):
        build_net(ball, 0.0)
    with pytest.raises(ValueError):
        build_net(ball, 1.5)


def test_build_net_candidate_cap(monkeypatch):
    monkeypatch.setattr(nets, "CANDIDATE_CAP", 1000)
    with pytest.raises(CandidateCapExceeded):
        build_net(Ball(origin(3), 1.0), 0.01)
    # d = 3, eps = 0.45: 23^3 cube cells. The uncached builder sees the cap
    # as it stands at the call.
    monkeypatch.setattr(nets, "CANDIDATE_CAP", 23**3 - 1)
    with pytest.raises(CandidateCapExceeded, match="12167 lattice candidates"):
        _unit_net_points.__wrapped__(3, 0.45)
    monkeypatch.setattr(nets, "CANDIDATE_CAP", 23**3)
    assert len(_unit_net_points.__wrapped__(3, 0.45)) > 0


def test_cap_count_text_is_exact_up_to_15_digits():
    # log10(999999999999999) rounds to 15.0, yet the count has 15 digits.
    assert nets._count_text(999_999_999_999_999, 1) == "999999999999999"
    assert nets._count_text(10**15 + 1, 1) == "~1.00e+15"
    assert nets._count_text(23, 3) == "12167"


def test_check_covering_built_net():
    net = build_net(Ball(origin(2), 1.0), 0.25)
    report = check_covering(net, 10_000, seed=0)
    assert report.ok
    assert report.max_gap <= 0.25


def test_check_covering_brute_force_agrees():
    # Independent route: same seeded samples, gaps via a plain all-pairs scan.
    net = build_net(Ball(origin(2), 1.0), 0.25)
    report = check_covering(net, 2000, seed=3)
    rng = np.random.default_rng(3)
    probes = sample_in_ball(rng, net.ball, 2000)
    arr = net.rows
    brute = 0.0
    for row in probes:
        gaps = np.sqrt(((arr - row) ** 2).sum(axis=1))
        brute = max(brute, float(gaps.min()))
    assert brute <= net.cover_radius
    assert report.max_gap == brute


def test_check_covering_single_point_fails():
    ball = Ball(origin(2), 1.0)
    net = Net(rows=[(0.0, 0.0)], ball=ball, cover_radius=0.1, separation=0.1)
    assert not check_covering(net, 1000, seed=0).ok


def test_check_covering_degenerate_ball():
    ball = Ball(point(2.0, 3.0), 0.0)
    net = Net(rows=[(2.0, 3.0)], ball=ball, cover_radius=0.1, separation=0.1)
    report = check_covering(net, 1, seed=5)
    assert report.max_gap == 0.0
    assert report.ok


def test_check_separation_cases():
    ball = Ball(point(0.0), 1.0)
    assert check_separation(build_net(ball, 0.5))
    bad = Net(rows=[(0.0,), (0.1,)], ball=ball, cover_radius=1.0, separation=0.5)
    assert not check_separation(bad)
    single = Net(rows=[(0.0,)], ball=ball, cover_radius=1.0, separation=0.5)
    assert check_separation(single)
    empty = Net(rows=[], ball=ball, cover_radius=1.0, separation=0.5)
    assert check_separation(empty)


def test_net_rows_are_read_only_and_finite():
    net = Net(rows=[(0.0, 1.0), (2.0, 3.0)], ball=Ball(origin(2), 4.0), cover_radius=1.0, separation=1.0)
    assert net.rows.shape == (2, 2) and not net.rows.flags.writeable
    assert net.rows.tolist() == [[0.0, 1.0], [2.0, 3.0]]
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Net(rows=[(0.0, bad)], ball=Ball(origin(2), 4.0), cover_radius=1.0, separation=1.0)


def _reference_separation(net):
    """The O(n^2) check: every point against all later ones, by dists_to."""
    arr = net.rows
    for i in range(len(arr) - 1):
        if np.min(dists_to(arr[i + 1 :], arr[i])) < net.separation:
            return False
    return True


@st.composite
def _separation_cases(draw):
    d = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    coord = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    ).map(lambda x: x * scale)
    rows = draw(st.lists(st.tuples(*[coord] * d), min_size=2, max_size=60))
    arr = np.array(rows, dtype=np.float64)
    closest = min(float(np.min(dists_to(arr[i + 1 :], arr[i]))) for i in range(len(arr) - 1))
    # Plant the closest pair at exactly the separation, or one ulp below it.
    separation = draw(
        st.sampled_from([closest, float(np.nextafter(closest, np.inf))])
        | st.floats(0.0, 4.0 * scale)
    )
    return Net(
        rows=rows,
        ball=Ball(origin(d), 10.0 * scale),
        cover_radius=10.0 * scale,
        separation=separation,
    )


@settings(deadline=None)
@given(_separation_cases())
def test_check_separation_matches_all_pairs_reference(net):
    assert check_separation(net) == _reference_separation(net)


def test_certificates_match_references_across_query_batches():
    # More rows and probes than one grid lookup takes; the planted pair lies
    # at the far corner, so it sorts into the last batch of rows.
    rng = np.random.default_rng(7)
    rows = rng.uniform(0.0, 1.0, size=(2 * _QUERY_CHUNK + 500, 3))
    probes = rng.uniform(-0.5, 1.5, size=(3 * _QUERY_CHUNK, 3))
    brute = np.array([np.min(dists_to(rows, probe)) for probe in probes])
    assert np.array_equal(_nearest_distances(rows, probes), brute)
    closest = min(float(np.min(dists_to(rows[i + 1 :], rows[i]))) for i in range(len(rows) - 1))
    pair = np.array([(2.0, 2.0, 2.0), (2.0, 2.0, 2.0 + closest / 2)])
    planted = float(dists_to(pair[1:], pair[0])[0])
    rows = np.concatenate((rows, pair))
    for separation, ok in ((planted, True), (float(np.nextafter(planted, np.inf)), False)):
        net = Net(rows=rows, ball=Ball(origin(3), 4.0), cover_radius=4.0, separation=separation)
        assert check_separation(net) is ok


def test_check_separation_finds_a_pair_split_by_cell_rounding():
    # In cells of side exactly s, the rounding of (x - lo) / s puts p and q
    # two cells apart although |q - p| < s; the guard keeps them neighbours.
    lo, p, q, s = -589.0176223523866, 27.029220055399946, 27.94595642803057, 0.9167363726306349
    assert abs(q - p) < s
    assert math.floor((q - lo) / s) - math.floor((p - lo) / s) == 2
    net = Net(rows=[(lo,), (p,), (q,)], ball=Ball(point(0.0), 1e3), cover_radius=1e3, separation=s)
    assert not check_separation(net)


def test_check_separation_finds_a_pair_whose_square_underflows():
    # The squared difference underflows to 0, so dists_to puts the pair at
    # distance 0 < s, though the points lie 2^20 cells of side s apart.
    net = Net(rows=[(0.0,), (1e-200,)], ball=Ball(point(0.0), 1.0), cover_radius=1.0, separation=5e-324)
    assert dists_to(net.rows[1:], net.rows[0])[0] == 0.0
    assert not check_separation(net)


@st.composite
def _cover_cases(draw):
    d = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    coord = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    ).map(lambda x: x * scale)
    rows = np.array(draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=60)))
    # Probes inside the rows' box, far outside it, and on rows themselves.
    far = st.floats(-1e3, 1e3).map(lambda x: x * scale)
    probes = draw(st.lists(st.tuples(*[coord | far] * d), min_size=1, max_size=40))
    return rows, np.concatenate((np.array(probes), rows[: draw(st.integers(0, len(rows)))]))


@settings(deadline=None)
@given(_cover_cases())
def test_nearest_distances_match_brute_force(case):
    rows, probes = case
    brute = np.array([np.min(dists_to(rows, probe)) for probe in probes])
    assert np.array_equal(_nearest_distances(rows, probes), brute)


@st.composite
def _pair_cases(draw):
    rows, points = draw(_cover_cases())
    d = rows.shape[1]
    radius = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 1e3]))
    if draw(st.booleans()):
        # The skewed cloud: rows spread along axis 0 alone. At the small
        # radii _CellGrid raises h far past the side to keep that axis
        # under its cell cap.
        rows = rows * np.append(1.0, np.full(d - 1, 1e-300))
    # Points one radius from a row along an axis: on its sphere, up to
    # rounding either way.
    offset = draw(st.sampled_from([-1.0, 1.0])) * radius * np.eye(d)[draw(st.integers(0, d - 1))]
    sphere = rows[: draw(st.integers(0, len(rows)))] + offset
    return rows, np.concatenate((points, sphere)), radius


@settings(deadline=None, max_examples=200)
@given(_pair_cases())
@example((np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.5, 0.0], [2.0, 0.0]]), 1.0))
def test_pairs_within_match_brute_force(case):
    rows, points, radius = case
    brute = [
        (i, j) for i, p in enumerate(points) for j in np.flatnonzero(dists_to(rows, p) <= radius)
    ]
    found = pairs_within(rows, points, radius)
    assert np.all(np.diff(found[0]) >= 0)
    assert sorted(zip(*found.tolist())) == brute


def test_nearest_distances_bound_each_lookup_on_a_skewed_cloud(monkeypatch):
    # Rows spread along axis 0 alone put 2^20 cells on it, so a far probe
    # would only stop widening at a radius near 2^20, with ~2^40 runs per
    # block at d = 3. Every lookup searches at most a first-round chunk's
    # runs, also when more probes than a chunk reach the wider blocks.
    rng = np.random.default_rng(1)
    rows = rng.uniform(-1e-300, 1e-300, (60, 3))
    rows[:, 0] = rng.uniform(-3.0, 3.0, 60)
    probes = rng.uniform(-1e3, 1e3, (2 * _QUERY_CHUNK, 3))
    block = nets._CellGrid.block

    def bounded(grid, keys, runs=None, radius=1):
        assert len(keys) * (9 if runs is None else len(runs)) <= _QUERY_CHUNK * 9
        return block(grid, keys, runs, radius)

    monkeypatch.setattr(nets._CellGrid, "block", bounded)
    brute = np.array([np.min(dists_to(rows, probe)) for probe in probes])
    assert np.array_equal(_nearest_distances(rows, probes), brute)


def _reference_greedy(d, radius, spacing, separation, center):
    """The KD-tree greedy over float lattice candidates: the cubic lattice in
    the ball at the origin, shifted by center and re-filtered, thinned in
    lexicographic order by blocking within separation * (1 + 1e-9)."""
    k_max = int(math.floor(radius / spacing)) if radius > 0 else 0
    axis = np.arange(-k_max, k_max + 1, dtype=np.float64) * spacing
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    cands = np.stack([m.ravel() for m in mesh], axis=1)
    cands = cands[dists_to(cands, (0.0,) * d) <= radius] + np.array(center)
    cands = cands[dists_to(cands, center) <= radius]
    tree = cKDTree(cands)
    blocked = np.zeros(len(cands), dtype=bool)
    chosen = []
    for idx in range(len(cands)):
        if not blocked[idx]:
            chosen.append(idx)
            blocked[tree.query_ball_point(cands[idx], separation * (1.0 + 1e-9))] = True
    return cands[chosen]


# The cases of the benchmark's nets, (3, 0.08) and (4, 0.3), are pinned below:
# their reference takes seconds.
# (4, 0.4) and (5, 0.7) walk their lattices in 4 and 10 blocks of slabs.
@pytest.mark.parametrize(
    "d, eps",
    [(2, 1 / 48), (2, 1 / 24), (3, 1 / 8), (1, 1 / 16), (2, 0.25), (4, 0.5), (4, 0.4), (5, 0.7)],
)
def test_unit_net_points_match_reference_greedy(d, eps):
    ref = _reference_greedy(d, 1.0, (eps / 3.0) / math.sqrt(d), 2.0 * eps / 3.0, (0.0,) * d)
    pts = _unit_net_points(d, eps)
    assert pts.shape == ref.shape
    assert pts.tobytes() == ref.tobytes()


# Recorded with the KD-tree greedy that _reference_greedy keeps.
_BENCHMARK_NET_DIGESTS = {
    (3, 0.08): "431544b567746a2586d29726fcf3a1c7bd3777e418c7d8297f1899268b45dab1"
    "75b9b397900c52f2fe3946957f179c7d02cfa10cb5eb8a0dda4aff033610e804",
    (4, 0.3): "4b990727da03ddd961213487c6b448f49c736bd9b3a8244ddecd0aa46260e21d"
    "1a996b457f1694c397b632ae4cf9953c65d66a55a75fd1849f50a896afbeea5e",
}


@pytest.mark.parametrize("d, eps", sorted(_BENCHMARK_NET_DIGESTS))
def test_unit_net_points_of_benchmark_nets_are_pinned(d, eps):
    pts = _unit_net_points(d, eps)
    assert hashlib.blake2b(pts.tobytes()).hexdigest() == _BENCHMARK_NET_DIGESTS[d, eps]


@pytest.mark.parametrize(
    "center, radius, separation",
    [((0.0,) * d, 0.25, 2.0 / c) for c, d in [(24, 2), (32, 2), (48, 2), (16, 3), (12, 1), (20, 4)]]
    + [((0.3, -0.7), 0.5, 0.05), ((1e3, 2.5, -1.0), 0.3, 0.1)]
    # Boundary points that only one of the two ball tests keeps: at center 1.2
    # the lattice point at +1.0 shifts one ulp out of the ball; at (2.4, 0.7)
    # the point at index (1, 2), one ulp outside the radius, shifts inside.
    + [((1.2,), 1.0, 0.75), ((2.4, 0.7), 0.4743416490252568, 0.9)],
)
def test_separated_set_matches_reference_greedy(center, radius, separation):
    d = len(center)
    ref = _reference_greedy(d, radius, (separation / 3.0) / math.sqrt(d), separation, center)
    pts = np.array([p.coords for p in separated_set(Ball(Point(center), radius), separation)])
    assert pts.shape == ref.shape
    assert pts.tobytes() == ref.tobytes()


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 4).flatmap(
        # At d = 4, separations from 0.45 radii keep the lattice within ~0.5M
        # cells, walked in up to 3 blocks of slabs.
        lambda d: st.tuples(
            st.tuples(*[st.floats(-5.0, 5.0)] * d), st.floats(0.25 if d < 4 else 0.45, 8.0)
        )
    ),
    st.floats(0.0, 1.0),
)
def test_separated_set_matches_reference_greedy_on_random_balls(case, radius):
    # Separations up to 8 radii make the stencil wider than the lattice.
    center, ratio = case
    test_separated_set_matches_reference_greedy(center, radius, max(radius, 0.01) * ratio)


def _sequential_greedy(d, radius, spacing, block_sq, center):
    """The lattice greedy one candidate at a time over the whole cube, with
    numpy only: the lattice points of the closed ball at the origin whose
    shift by center stays in B(center, radius), in lexicographic order, each
    kept one blocking the later ones at index offsets o with |o|^2 <= block_sq."""
    k_max = int(math.floor(radius / spacing)) if radius > 0 else 0
    n = 2 * k_max + 1
    axis = np.arange(-k_max, k_max + 1, dtype=np.float64) * spacing
    idx = np.stack([m.ravel() for m in np.meshgrid(*[np.arange(n)] * d, indexing="ij")], axis=1)
    pts = axis[idx]
    inside = (dists_to(pts, (0.0,) * d) <= radius) & (dists_to(pts + center, center) <= radius)
    # Flat indices into the cube padded by w cells on every side.
    w = math.isqrt(block_sq)
    strides = (n + 2 * w) ** np.arange(d - 1, -1, -1)
    offsets = np.array(
        [
            int(np.dot(o, strides))
            for o in itertools.product(range(-w, w + 1), repeat=d)
            if o > (0,) * d and sum(x * x for x in o) <= block_sq
        ],
        dtype=np.int64,
    )
    blocked = np.zeros((n + 2 * w) ** d, dtype=bool)
    kept = []
    for row, flat in zip(np.flatnonzero(inside).tolist(), ((idx[inside] + w) @ strides).tolist()):
        if not blocked[flat]:
            kept.append(row)
            blocked[flat + offsets] = True
    return pts[kept] + np.array(center, dtype=np.float64)


@pytest.mark.parametrize("d, eps", [(3, 0.08), (4, 0.3)])
def test_lattice_greedy_matches_sequential_greedy_on_benchmark_nets(d, eps):
    spacing = (eps / 3.0) / math.sqrt(d)
    ref = _sequential_greedy(d, 1.0, spacing, 4 * d, (0.0,) * d)
    assert nets._lattice_greedy(d, 1.0, spacing, 4 * d, (0.0,) * d).tobytes() == ref.tobytes()


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 4).flatmap(
        # Up to ~84k cube cells per case; 0 slabs per block means one block.
        lambda d: st.tuples(
            st.tuples(*[st.floats(-5.0, 5.0)] * d),
            st.floats(0.4, (200.0, 60.0, 20.0, 8.0)[d - 1]),
            st.sampled_from([4 * d, 9 * d]),
            st.integers(0, 4),
        )
    ),
    st.floats(0.1, 8.0),
)
def test_lattice_greedy_matches_sequential_greedy(case, radius):
    # Blocks of one and of several slabs, each carrying w slabs to the next.
    center, ratio, block_sq, slabs = case
    d = len(center)
    spacing = radius / ratio
    per_axis = 2 * int(math.floor(radius / spacing)) + 1
    ref = _sequential_greedy(d, radius, spacing, block_sq, center)
    with pytest.MonkeyPatch.context() as mp:
        if slabs:
            mp.setattr(nets, "_GREEDY_BLOCK_CELLS", slabs * per_axis ** (d - 1))
        pts = nets._lattice_greedy(d, radius, spacing, block_sq, center)
    assert pts.shape == ref.shape
    assert pts.tobytes() == ref.tobytes()


def _padded_ball_mask(coords, side, radius, center):
    """The greedy's candidate mask over the whole cube: every cell measured by
    broadcasting dists_to's arithmetic against both balls, then padded to
    ``side`` cells along every axis but axis 0."""
    d = len(coords)
    keep = np.ones([len(x) for x in coords], dtype=bool)
    for c in {(0.0,) * d, tuple(center)}:
        acc = np.zeros(keep.shape)
        for k, x in enumerate(coords):
            diff = (x + c[k]) - c[k]
            acc += (diff * diff).reshape((-1,) + (1,) * (d - 1 - k))
        keep &= np.sqrt(acc) <= radius
    return np.pad(keep, [(0, 0)] + [(0, side - len(coords[-1]))] * (d - 1))


@settings(deadline=None, max_examples=150)
@given(
    st.integers(1, 4).flatmap(
        # Separations from 0.25 radii (0.45 at d = 4) keep the cube within
        # ~0.5M cells, as in the separated-set tests.
        lambda d: st.tuples(
            st.tuples(*[st.floats(-5.0, 5.0)] * d),
            st.floats(0.0, 1.0),
            st.floats(0.25 if d < 4 else 0.45, 8.0),
        ).map(lambda c: (c[0], c[1], max(c[1], 0.01) * c[2]))
    ),
    st.integers(0, 3),
    st.integers(0, 10**6),
    st.integers(1, 6),
)
# Boundary balls where one of the two ball tests drops or keeps a lattice
# point one ulp from the radius (see the separated-set tests).
@example(((1.2,), 1.0, 0.75), 0, 4, 6)
@example(((2.4, 0.7), 0.4743416490252568, 0.9), 1, 0, 6)
@example(((2.4, 0.7), 0.4743416490252568, 0.9), 2, 1, 1)
def test_ball_cells_match_the_padded_cube_mask(case, pad, first, slabs):
    # The cells of a block of axis-0 slabs, from per-line spans, are those of
    # the whole cube's padded mask, and each slab's run ends where it does.
    center, radius, separation = case
    d = len(center)
    spacing = (separation / 3.0) / math.sqrt(d)
    k_max = int(math.floor(radius / spacing)) if radius > 0 else 0
    axis = np.arange(-k_max, k_max + 1, dtype=np.float64) * spacing
    side = len(axis) + pad
    first %= len(axis)
    heads = axis[first : first + slabs]
    cands, ends = nets._ball_cells([heads] + [axis] * (d - 1), side, radius, center)
    mask = _padded_ball_mask([axis] * d, side, radius, center)
    assert np.array_equal(cands, np.flatnonzero(mask[first : first + slabs]))
    slab = side ** (d - 1)
    runs = np.searchsorted(cands, np.arange(len(heads) + 1) * slab) if d > 1 else [0, len(cands)]
    assert ends == list(runs)


def _bounds_by_search(grid, keys, runs, radius):
    middle = runs[:, None] + keys
    return (
        np.searchsorted(grid.keys, middle - radius, "left").T,
        np.searchsorted(grid.keys, middle + radius, "right").T,
    )


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cell_grid_start_table_matches_searchsorted(d):
    # Query keys reach below 0 and past the key space, as the runs of a
    # border cell and of blocks wider than the grid do.
    rng = np.random.default_rng(d)
    rows = rng.uniform(-1.0, 1.0, (300, d))
    grid = nets._CellGrid(rows, nets._cell_side(rows, 0.25))
    assert grid.starts is not None
    for radius in range(1, 9):
        runs = grid.runs_within(radius)
        keys = rng.integers(-grid.space, 2 * grid.space, 200)
        keys = np.concatenate((keys, grid.keys[::7], [-radius - 1, 0, grid.space - 1, grid.space]))
        for got, want in zip(grid.block(keys, runs, radius), _bounds_by_search(grid, keys, runs, radius)):
            assert np.array_equal(got, want)
    # The covering check's last round: one run over the whole key space.
    whole = np.zeros(1, np.int64)
    start, end = grid.block(grid.keys, whole, 2**60)
    assert (start == 0).all() and (end == len(rows)).all()


def test_cell_grid_on_a_sparse_box_searches_the_sorted_keys():
    # Two clusters 1e6 cells apart: a start table would need ~1e12 entries.
    rng = np.random.default_rng(3)
    rows = np.concatenate((rng.uniform(0.0, 10.0, (100, 2)), rng.uniform(1e6, 1e6 + 10.0, (100, 2))))
    grid = nets._CellGrid(rows, 1.0)
    assert grid.starts is None and grid.space > 10**12
    keys = np.concatenate((grid.keys, rng.integers(-10, grid.space + 10, 100)))
    for radius in (1, 3):
        runs = grid.runs_within(radius)
        start, end = grid.block(keys, runs, radius)
        middle = keys[:, None] + runs
        inside = np.abs(grid.keys[None, None, :] - middle[:, :, None]) <= radius
        assert np.array_equal(end - start, inside.sum(axis=2))


def test_net_build_and_covering_check_stay_within_memory_ceiling():
    # The greedy keeps only a window of lattice slabs and finds its candidates
    # from per-line spans, and the covering check looks its probes up in fixed
    # batches. Over the whole cube and all probes at once, these traced peaks
    # were ~39 MiB and ~13 MiB; with a measured mask per block of slabs, the
    # greedy's was ~4.8 MiB, and it is ~3.3 MiB.
    net = build_net(Ball(origin(4), 1.0), 0.3)
    tracemalloc.start()
    try:
        _unit_net_points.__wrapped__(4, 0.3)
        greedy_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert check_covering(net, 10_000, seed=0).ok
        cover_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert greedy_peak <= 4 * 2**20
    assert cover_peak <= 8 * 2**20


def test_candidate_cap_is_checked_before_allocating(monkeypatch):
    # d = 4, eps = 0.2: 13.8M cube cells against the cap of 5M.
    tracemalloc.start()
    try:
        with pytest.raises(CandidateCapExceeded, match="13845841 lattice candidates"):
            _unit_net_points.__wrapped__(4, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # The cap counts cube cells: 5^2 cells at d = 2, radius/spacing = 2.
    ball = Ball(origin(2), 1.0)
    monkeypatch.setattr(nets, "CANDIDATE_CAP", 25)
    assert len(separated_set(ball, 1.5 * math.sqrt(2.0))) > 0
    monkeypatch.setattr(nets, "CANDIDATE_CAP", 24)
    with pytest.raises(CandidateCapExceeded):
        separated_set(ball, 1.5 * math.sqrt(2.0))


def _brute_greedy(points, start):
    def key(base):
        return lambda p: (distance(base, p), p.coords)

    remaining = list(points)
    out = [min(remaining, key=key(start))]
    remaining.remove(out[0])
    while remaining:
        nxt = min(remaining, key=key(out[-1]))
        out.append(nxt)
        remaining.remove(nxt)
    return [list(p.coords) for p in out]


def _reference_order(net, start):
    """The O(n^2) greedy walk: rescan every point at each step and take the
    first argmin over the lexicographically sorted rows. Returns the rows in
    walk order."""
    arr = net.rows
    n, d = arr.shape
    arr = arr[np.lexsort(tuple(arr[:, k] for k in reversed(range(d))))]
    remaining_dist = dists_to(arr, start.coords)
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    for _ in range(n):
        current = int(np.argmin(remaining_dist))
        order.append(current)
        visited[current] = True
        remaining_dist = dists_to(arr, arr[current])
        remaining_dist[visited] = np.inf
    return arr[order]


@pytest.mark.parametrize(
    "d, eps",
    [(1, 1 / 16), (2, 1 / 4), (2, 1 / 16), (2, 1 / 24), (3, 1 / 8)],
)
@pytest.mark.parametrize("centered", [True, False])
def test_visit_order_matches_reference_on_unit_nets(d, eps, centered):
    net = build_net(Ball(origin(d), 1.0), eps)
    start = origin(d) if centered else point(*(0.61 - 0.37 * k for k in range(d)))
    assert visit_order(net, start).tolist() == _reference_order(net, start).tolist()


@st.composite
def _grid_clouds(draw):
    d = draw(st.integers(1, 3))
    coord = st.integers(-4, 4).map(float)
    rows = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=300))
    if draw(st.booleans()):
        start = draw(st.sampled_from(rows))
    else:
        start = draw(st.tuples(*[st.integers(-6, 6).map(lambda x: x / 2)] * d))
    net = Net(
        rows=rows,
        ball=Ball(origin(d), 10.0),
        cover_radius=10.0,
        separation=0.0,
    )
    return net, Point(start)


@settings(deadline=None)
@given(_grid_clouds())
def test_visit_order_matches_reference_on_grid_clouds(case):
    # Integer grids with duplicate rows make exact distance ties common.
    net, start = case
    order = visit_order(net, start).tolist()
    assert order == _reference_order(net, start).tolist()
    assert sorted(order) == sorted(net.rows.tolist())


def test_visit_order_matches_reference_on_clustered_clouds(monkeypatch):
    # Clusters of very different density leave sparse points with short
    # neighbour lists, whose nearest unvisited point lies outside the block.
    radii = set()
    runs_within = nets._CellGrid.runs_within
    monkeypatch.setattr(
        nets._CellGrid, "runs_within", lambda grid, r: radii.add(r) or runs_within(grid, r)
    )
    rng = np.random.default_rng(5)
    clouds = []
    for _ in range(40):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        centres = rng.uniform(-10.0, 10.0, (k, d))
        scales = 10.0 ** rng.uniform(-2.0, 1.0, k)
        label = rng.integers(0, k, int(rng.integers(2, 40)))
        noise = rng.normal(size=(len(label), d)) * scales[label, None]
        clouds.append(np.round(centres[label] + noise, 2))
    # Six far-apart d = 3 clusters of 2,000 rows in all: leaving a cluster
    # while more than 9^3 rows are unvisited searches blocks of radius 4 or more.
    rng = np.random.default_rng(3)
    centres = rng.uniform(-60.0, 60.0, (6, 3))
    noise = rng.normal(size=(2000, 3)) * 2.0
    clouds.append(np.round(centres[rng.integers(0, 6, 2000)] + noise, 2))
    for rows in clouds:
        d = rows.shape[1]
        net = Net(rows=rows, ball=Ball(origin(d), 200.0), cover_radius=200.0, separation=0.0)
        start = Point(rows[0])
        assert visit_order(net, start).tolist() == _reference_order(net, start).tolist()
    assert max(radii) >= 4


def test_visit_order_matches_reference_on_clouds_with_far_outliers():
    # A dense cluster and a few outliers out to ~30 radii, walked from the
    # first row or from the farthest one: the nearest unvisited row is often
    # several cells of the walk's grid away, while many rows are unvisited,
    # so the steps search blocks of growing radius or measure the rest.
    rng = np.random.default_rng(11)
    longest = []
    for d in (1, 2, 3):
        for dense, far in ((300, 8), (300, 30), (1000, 30)):
            outliers = rng.normal(size=(far, d))
            outliers *= (10.0 ** rng.uniform(0.3, 1.5, far) / np.linalg.norm(outliers, axis=1))[:, None]
            rows = np.round(np.concatenate([rng.normal(size=(dense, d)), outliers]), 3)
            net = Net(rows=rows, ball=Ball(origin(d), 100.0), cover_radius=100.0, separation=0.0)
            for start in (Point(rows[0]), Point(rows[np.argmax(np.linalg.norm(rows, axis=1))])):
                walk = visit_order(net, start)
                assert walk.tolist() == _reference_order(net, start).tolist()
                h = _neighbour_lists(net.rows, _WALK_NEIGHBORS)[2].h
                longest.append(np.max(np.linalg.norm(np.diff(walk, axis=0), axis=1)) / h)
    # Every walk makes a jump of 2 cells or more, and some of 32 or more.
    assert min(longest) >= 2.0 and max(longest) >= 32.0


def test_visit_order_of_the_benchmark_net_stays_within_memory_ceiling():
    # The neighbour lists are built in bounded pieces and the step loop reads
    # flat numpy tables: ~5.2 MiB traced, against ~12 MiB with per-row lists.
    rows = np.array(_unit_net_points(2, 1 / 48))
    tracemalloc.start()
    try:
        _visit_indices(rows, (0.0, 0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 13447
    assert peak <= 7 * 2**20


def test_unit_walk_of_benchmark_net_is_pinned():
    # The lowerbound c=24 d=2 walk (13,447 points), recorded with the O(n^2)
    # implementation; checking it against _reference_order would take seconds.
    walk = _unit_walk(2, 1 / 48)
    assert walk.shape == (13447, 2)
    assert hashlib.blake2b(walk.tobytes()).hexdigest() == (
        "26100248a82a66c6212d19108771f782fc29d70d3039a1b6123e147e0c89ae70"
        "f1a046363c003f83dcdba8756ff81d82d59789f2da3b4ce76cee6a4e8ceebdb6"
    )


def test_unit_walk_of_d3_net_is_pinned():
    # The sweep --d 3 --c 8 walk (51,636 points, 4,730 steps whose listed
    # neighbours are all visited), recorded with the scan-fallback walk.
    walk = _unit_walk(3, 1 / 16)
    assert walk.shape == (51636, 3)
    assert hashlib.blake2b(walk.tobytes()).hexdigest() == (
        "8bc66117f4a138e1ad57f71cf57eb5049dbd8b55460536b76438868056deaaa4"
        "c046a0640e5db5637a6409580faab0c7fdcb90063879a09d3e5486e132100c4d"
    )


def test_visit_order_1d_chain():
    ball = Ball(point(1.5), 2.0)
    net = Net(rows=[(0.0,), (1.0,), (3.0,)], ball=ball, cover_radius=2.0, separation=1.0)
    assert visit_order(net, point(0.1)).tolist() == [[0.0], [1.0], [3.0]]


def test_visit_order_single():
    net = Net(rows=[(2.0, 2.0)], ball=Ball(point(2.0, 2.0), 1.0), cover_radius=1.0, separation=1.0)
    assert visit_order(net, point(0.0, 0.0)).tolist() == [[2.0, 2.0]]


def test_visit_order_triangle_matches_brute_force():
    pts = (point(0.0, 0.0), point(0.0, 2.0), point(5.0, 0.0))
    net = Net(rows=[p.coords for p in pts], ball=Ball(point(1.0, 1.0), 6.0), cover_radius=6.0, separation=1.0)
    order = visit_order(net, point(0.0, 0.0)).tolist()
    assert order == [[0.0, 0.0], [0.0, 2.0], [5.0, 0.0]]
    assert order == _brute_greedy(pts, point(0.0, 0.0))


def test_visit_order_random_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 12))
        pts = tuple(point(*row) for row in rng.normal(size=(n, d)))
        net = Net(rows=[p.coords for p in pts], ball=Ball(origin(d), 10.0), cover_radius=10.0, separation=0.0)
        start = point(*rng.normal(size=d))
        assert visit_order(net, start).tolist() == _brute_greedy(pts, start)


def test_visit_order_is_permutation():
    net = build_net(Ball(origin(2), 1.0), 0.3)
    order = visit_order(net, point(0.7, -0.2))
    assert order.shape == net.rows.shape and not order.flags.writeable
    assert sorted(order.tolist()) == sorted(net.rows.tolist())


def test_visit_order_empty_net():
    net = Net(rows=[], ball=Ball(origin(2), 1.0), cover_radius=1.0, separation=1.0)
    with pytest.raises(ValueError):
        visit_order(net, origin(2))


def test_separated_set_properties():
    ball = Ball(origin(2), 0.25)
    pts = separated_set(ball, 0.125)
    assert len(pts) >= 4
    for p in pts:
        assert distance(ball.center, p) <= ball.radius
    for a, b in itertools.combinations(pts, 2):
        assert distance(a, b) >= 0.125


def test_build_net_covering_on_shifted_scaled_balls():
    # Exercises the affine reuse of the unit construction: covering and
    # separation certificates must hold for arbitrary centers and radii.
    rng = np.random.default_rng(19)
    for _ in range(8):
        d = int(rng.integers(1, 4))
        center = point(*(rng.normal(size=d) * 5))
        radius = float(rng.uniform(0.01, 20.0))
        eps = radius * float(rng.uniform(0.15, 1.0))
        net = build_net(Ball(center, radius), eps)
        assert check_covering(net, 2000, seed=int(rng.integers(1 << 30))).ok
        assert check_separation(net)
        assert net_size_lower_bound(radius, eps, d) <= len(net)
        assert len(net) <= net_size_upper_bound(radius, eps, d)


def test_visit_order_breaks_exact_ties_lexicographically():
    # Four corners of a square are equidistant from the center: the walk must
    # start at the lexicographically smallest and stay deterministic.
    pts = (point(1.0, 1.0), point(-1.0, 1.0), point(-1.0, -1.0), point(1.0, -1.0))
    net = Net(rows=[p.coords for p in pts], ball=Ball(origin(2), 2.0), cover_radius=2.0, separation=2.0)
    order = visit_order(net, origin(2)).tolist()
    assert order[0] == [-1.0, -1.0]
    assert order == visit_order(net, origin(2)).tolist()
    assert order == _brute_greedy(pts, origin(2))


def test_sample_in_ball_inside():
    ball = Ball(point(1.0, 2.0, 3.0), 0.7)
    rng = np.random.default_rng(11)
    pts = sample_in_ball(rng, ball, 500)
    assert pts.shape == (500, 3)
    for row in pts:
        assert distance(point(*row), ball.center) <= ball.radius + 1e-12
