import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predsearch import (
    AdversarialInstance,
    Ball,
    Point,
    StrategyConfig,
    adversarial_path_floor,
    audit_trace,
    bound_lower,
    bound_upper_known,
    bound_upper_unknown,
    build_adversarial_instance,
    count_visited_balls,
    distance,
    doubling_cap,
    origin,
    point,
    replay_consistent,
    run_strategy,
    tsp_ball_lower_bound,
)
from predsearch import verification
from predsearch.geometry import dists_to
from predsearch.strategies import _unit_walk
from reference import piecewise_prediction, query_values


def test_tsp_floor_zero_cases():
    for d in (1, 2, 3):
        assert tsp_ball_lower_bound(2**d, 1.0, d) == 0.0
    assert tsp_ball_lower_bound(1, 5.0, 1) == 0.0  # clamped


def test_tsp_floor_formula():
    assert tsp_ball_lower_bound(8, 1.0, 2) == pytest.approx(math.sqrt(math.pi / 2), abs=1e-12)


def test_tsp_floor_validation():
    with pytest.raises(ValueError):
        tsp_ball_lower_bound(0, 1.0, 2)
    with pytest.raises(ValueError):
        tsp_ball_lower_bound(4, 0.0, 2)


def test_upper_bound_formulas():
    assert bound_upper_known(2.0, 2) == 576.0
    assert bound_upper_unknown(2.0, 2) == 13824.0
    assert bound_upper_known(1.0, 1) == 12.0


def test_lower_bound_formula():
    assert bound_lower(16.0, 2) == 0.25
    assert bound_lower(4.0, 1) == 0.25 * min(math.sqrt(math.pi), 1.0)
    with pytest.raises(ValueError):
        bound_lower(3.9, 2)


def test_bounds_monotone_in_c():
    for d in (2, 3):
        cs = [4.0, 8.0, 16.0, 32.0]
        for f in (bound_upper_known, bound_upper_unknown, bound_lower):
            values = [f(c, d) for c in cs]
            assert values == sorted(values)
            assert len(set(values)) == len(values)


def test_doubling_cap():
    assert doubling_cap(1.0) == 1
    assert doubling_cap(2.0) == 1
    assert doubling_cap(4.0) == 2
    assert doubling_cap(8.0) == 3
    assert doubling_cap(5.0) == 3


@pytest.mark.parametrize("c,floor", [(16.0, 4), (32.0, 16)])
def test_build_adversarial_instance_size(c, floor):
    instance = build_adversarial_instance(c, 2)
    assert len(instance.targets) >= floor
    ball = Ball(origin(2), 0.25)
    for t in instance.targets:
        assert distance(ball.center, t) <= ball.radius
    for a, b in itertools.combinations(instance.targets, 2):
        assert distance(a, b) >= 2.0 / c


def test_build_adversarial_instance_validation():
    with pytest.raises(ValueError):
        build_adversarial_instance(4.0, 2)


def test_adversary_common_values():
    instance = build_adversarial_instance(16.0, 2)
    assert instance.query(point(1.0, 0.0)) == 2.0
    # inside B(o, 1/2): the common answer is 1 while several candidates live
    assert instance.query(point(0.45, 0.0)) == 1.0
    # outside the half ball the answer is always 2|po|
    assert instance.query(point(0.0, 2.0)) == 4.0


def test_adversary_elimination_on_entry():
    instance = build_adversarial_instance(16.0, 2)
    n = len(instance.targets)
    first = instance.targets[0]
    value = instance.query(first)
    assert value == 1.0  # still more than one live candidate
    assert len(instance.live) == n - 1
    assert 0 not in instance.live


def test_adversary_commits_to_last_candidate():
    instance = build_adversarial_instance(16.0, 2)
    for t in instance.targets[:-2]:
        instance.query(t)
    assert instance.committed is None
    instance.query(instance.targets[-2])
    last = instance.targets[-1]
    assert instance.committed == last
    assert instance.query(last) == 0.0  # querying the committed target itself


def test_adversary_answers_consistent_with_all_live():
    # Every answer must equal the piecewise value of every candidate that was
    # live when the answer was given.
    instance = build_adversarial_instance(16.0, 2)
    probes = [point(0.3, 0.1), point(-0.2, 0.0), instance.targets[2], point(0.6, 0.6)]
    for p in probes:
        live_before = [instance.targets[i] for i in instance.live]
        value = instance.query(p)
        hit = [t for t in live_before if distance(p, t) <= instance.ball_radius]
        for t in live_before:
            if t in hit:
                continue  # eliminated by this very query
            assert piecewise_prediction(t, instance.c, p) == value


def test_adversary_determinism_and_memo():
    instance = build_adversarial_instance(16.0, 2)
    p = instance.targets[1]
    v1 = instance.query(p)
    live_after_first = list(instance.live)
    v2 = instance.query(p)
    assert v1 == v2
    assert instance.live == live_after_first


def test_adversary_fuzzed_query_sequences_stay_consistent():
    # Random query streams: every answer must match the piecewise value of
    # every candidate still live after the query, and once commitment is
    # forced the whole log must replay exactly.
    import numpy as np

    from predsearch import Point

    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        instance = build_adversarial_instance(16.0, 2)
        for _ in range(200):
            scale = rng.choice([0.3, 0.6, 2.0])
            p = Point(tuple(rng.uniform(-scale, scale, size=2)))
            value = instance.query(p)
            for i in instance.live:
                assert piecewise_prediction(instance.targets[i], instance.c, p) == value
        for t in instance.targets:  # force commitment
            instance.query(t)
        assert instance.committed is not None
        assert replay_consistent(instance)


def test_replay_requires_commitment():
    instance = build_adversarial_instance(16.0, 2)
    instance.query(point(1.0, 0.0))
    assert not replay_consistent(instance)  # nothing committed yet


def test_adversarial_instance_needs_targets():
    with pytest.raises(ValueError):
        AdversarialInstance(8.0, ())


def test_count_visited_balls():
    def rows(*points):
        return np.array([p.coords for p in points], dtype=np.float64)

    centers = [point(0.0, 0.0), point(1.0, 0.0), point(2.0, 0.0)]
    path = rows(point(-1.0, 0.05), point(1.2, 0.05))
    # passes strictly inside the first two balls, misses the third
    assert count_visited_balls(path, centers, 0.1) == 2
    # a segment crossing a ball between vertices still counts
    crossing = rows(point(0.5, -1.0), point(0.5, 1.0))
    assert count_visited_balls(crossing, [point(0.5, 0.0)], 0.25) == 1
    # tangent (distance exactly the radius) does not touch the interior
    tangent = rows(point(-1.0, 0.1), point(1.0, 0.1))
    assert count_visited_balls(tangent, [point(0.0, 0.0)], 0.1) == 0
    single = rows(point(0.0, 0.0))
    assert count_visited_balls(single, centers, 0.1) == 1
    # No ball of radius 0 or nan holds a point.
    for radius in (0.0, math.nan):
        assert count_visited_balls(path, centers, radius) == 0


def _reference_count_visited_balls(verts, centers, radius):
    """The scan of every segment for every ball, as count_visited_balls ran
    before it looked for a witness segment first."""
    if len(verts) == 1:
        starts = verts
        ends = verts
    else:
        starts = verts[:-1]
        ends = verts[1:]
    deltas = ends - starts
    len2 = np.einsum("ij,ij->i", deltas, deltas)
    safe_len2 = np.where(len2 > 0.0, len2, 1.0)
    visited = 0
    for center in centers:
        z = np.array(center.coords, dtype=np.float64)
        t = np.einsum("ij,ij->i", z - starts, deltas) / safe_len2
        t = np.clip(np.where(len2 > 0.0, t, 0.0), 0.0, 1.0)
        closest = starts + t[:, None] * deltas
        gap2 = np.einsum("ij,ij->i", closest - z, closest - z)
        if np.min(gap2) < radius * radius:
            visited += 1
    return visited


@st.composite
def _polylines_and_balls(draw):
    # Half-integer grids put vertices exactly on spheres and repeat vertices
    # (zero-length segments); the midpoints of long segments give balls that
    # only a segment passing through reaches.
    # A centre one radius from a vertex along an axis puts that vertex on
    # its sphere.
    d = draw(st.integers(1, 3))
    grid = st.integers(-8, 8).map(lambda x: x / 2)
    coord = grid | st.floats(-5.0, 5.0, allow_subnormal=False)
    verts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=40))
    radius = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.5]) | st.floats(0.01, 4.0))
    midpoints = [tuple((a + b) / 2 for a, b in zip(u, v)) for u, v in zip(verts, verts[1:])]
    on_sphere = [
        v[:k] + (v[k] + sign * radius,) + v[k + 1 :]
        for v in verts
        for k in range(d)
        for sign in (-1.0, 1.0)
    ]
    centre = st.tuples(*[coord] * d) | st.sampled_from(verts + midpoints + on_sphere)
    centres = draw(st.lists(centre, max_size=12))
    return np.array(verts, dtype=np.float64), [Point(c) for c in centres], radius


@settings(deadline=None, max_examples=300)
@given(_polylines_and_balls())
@example((np.array([[1.0, 0.0]]), [Point((0.0, 0.0))], 1.0))
@example((np.array([[-1.0, 0.5], [1.0, 0.5]]), [Point((0.0, 0.0))], 0.5))
def test_count_visited_balls_matches_the_scan_of_every_segment(case):
    verts, centres, radius = case
    assert count_visited_balls(verts, centres, radius) == _reference_count_visited_balls(
        verts, centres, radius
    )


def test_count_visited_balls_scans_no_ball_of_the_adversarial_run(monkeypatch):
    # Every candidate ball of the c = 24 run holds a trace vertex, whose
    # segments are its witness: no call measures the whole trace.
    instance = build_adversarial_instance(24.0, 2)
    trace = run_strategy(instance, StrategyConfig(kind="known_c", c_guess=24.0))
    sizes = []
    gaps2 = verification._segment_gaps2
    monkeypatch.setattr(
        verification,
        "_segment_gaps2",
        lambda starts, *rest: sizes.append(len(starts)) or gaps2(starts, *rest),
    )
    counted = count_visited_balls(trace.rows, instance.targets, instance.ball_radius)
    assert counted == len(instance.targets) == 26
    assert sizes == [2 * 26]


def _run_lowerbound(c, d):
    instance = build_adversarial_instance(c, d)
    config = StrategyConfig(kind="unknown_c", delta_stop=1e-3)
    trace = run_strategy(instance, config)
    report = audit_trace(trace, instance.committed, config, instance, instance=instance)
    return instance, trace, report


def test_known_factor_strategy_beats_adversary():
    # With guess = c the walk can only stop on a certified halving, which the
    # adversary cannot withhold once the last candidate ball is entered.
    instance = build_adversarial_instance(16.0, 2)
    config = StrategyConfig(kind="known_c", c_guess=16.0, delta_stop=1e-3)
    trace = run_strategy(instance, config)
    report = audit_trace(trace, instance.committed, config, instance, instance=instance)
    assert trace.reached
    assert report.balls_visited == report.n_targets
    assert replay_consistent(instance)
    assert not report.violations


def test_adversarial_run_audit():
    instance, trace, report = _run_lowerbound(16.0, 2)
    assert trace.reached
    assert not report.violations
    assert report.balls_visited == report.n_targets == len(instance.targets)
    assert report.total_length >= adversarial_path_floor(16.0, 2)
    assert report.total_length >= report.tsp_floor
    assert report.total_length >= report.combined_floor
    assert report.ratio >= bound_lower(16.0, 2)
    assert replay_consistent(instance)


def test_audit_degenerate_run():
    from predsearch import OracleSpec, PredictionOracle

    oracle = PredictionOracle(OracleSpec(kind="exact", target=origin(2)))
    config = StrategyConfig(kind="known_c", c_guess=1.0)
    trace = run_strategy(oracle, config)
    report = audit_trace(trace, origin(2), config, oracle)
    assert report.degenerate
    assert report.ratio is None
    assert report.total_length == 0.0
    assert report.reached
    assert not report.violations


def test_audit_known_run_within_bound():
    from predsearch import OracleSpec, PredictionOracle

    target = point(0.6, 0.8)
    oracle = PredictionOracle(OracleSpec(kind="affine", target=target, c_hi=2.0, alpha=2.0))
    config = StrategyConfig(kind="known_c", c_guess=2.0, delta_stop=1e-3)
    trace = run_strategy(oracle, config)
    report = audit_trace(trace, target, config, oracle)
    assert report.ratio <= 576.0
    assert report.step_bound_ok
    assert not report.violations


def test_replay_consistent_detects_a_changed_answer():
    instance, _, _ = _run_lowerbound(16.0, 2)
    assert replay_consistent(instance)
    # One answer off by one ulp must fail the bit-exact replay.
    _, values = instance.query_arrays()
    values[-1] = math.nextafter(values[-1], math.inf)
    assert not replay_consistent(instance)


def test_report_dict_keeps_field_order():
    _, _, report = _run_lowerbound(16.0, 2)
    payload = report.to_dict()
    assert list(payload) == [f.name for f in dataclasses.fields(report)]
    assert payload["violations"] == list(report.violations)
    assert isinstance(payload["violations"], list)


# --- Batched adversary against the per-row route and the scalar adversary ---


class _ScalarAdversary:
    """The per-point adversary: the scalar ``distance`` to each live
    candidate, ``piecewise_prediction`` once committed, first-seen memo."""

    def __init__(self, c, targets):
        self.c, self.targets, self.ball_radius = c, targets, 1.0 / c
        self.live = list(range(len(targets)))
        self.memo, self.log = {}, []

    def query(self, p):
        value = self.memo.get(p.coords)
        if value is None:
            if len(self.live) > 1:
                hits = [i for i in self.live if distance(p, self.targets[i]) <= self.ball_radius]
                for i in hits:
                    if len(self.live) > 1:
                        self.live.remove(i)
            if len(self.live) == 1:
                value = piecewise_prediction(self.targets[self.live[0]], self.c, p)
            else:
                dist_o = distance(p, origin(p.dimension))
                value = 1.0 if dist_o <= 0.5 else 2.0 * dist_o
            self.memo[p.coords] = value
        self.log.append((p.coords, value))
        return value


class _PerRowAdversary(AdversarialInstance):
    def query(self, p):
        return super().query(p)


@st.composite
def _adversary_batches(draw):
    d = draw(st.integers(1, 3))
    # c = 40 makes 74 candidates at d = 2, many per query chunk; at d = 3
    # its 548 would make the scalar adversary slow.
    c = draw(st.sampled_from([6.0, 8.0, 12.0] + ([40.0] if d <= 2 else [])))
    targets = build_adversarial_instance(c, d).targets
    centres = np.array([t.coords for t in targets])
    coord = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-0.6, 0.6))
    seen = [np.zeros(d)]
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        rows = []
        for _ in range(draw(st.integers(1, 30))):
            how = draw(st.sampled_from(["near", "edge", "between", "free", "repeat", "twin"]))
            if how == "near":  # inside or next to a candidate's ball
                centre = np.array(draw(st.sampled_from(targets)).coords)
                row = centre + np.array(draw(st.lists(st.floats(-1.2, 1.2), min_size=d, max_size=d))) / c
            elif how == "edge":  # on the ball's boundary, up to rounding
                row = np.array(draw(st.sampled_from(targets)).coords)
                row[draw(st.integers(0, d - 1))] += draw(st.sampled_from([-1.0, 1.0])) / c
            elif how == "between":  # the midpoint of a candidate and a near one,
                # a tangent point of the two balls where they lie 2/c apart
                k = draw(st.integers(0, len(targets) - 1))
                near = np.argsort(dists_to(centres, centres[k]), kind="stable")[: 2 * d + 1]
                row = (centres[k] + centres[draw(st.sampled_from(near.tolist()))]) / 2
            elif how == "free":
                row = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
            else:
                row = draw(st.sampled_from(seen))
                if how == "twin":  # the same key with its zeros negated
                    row = np.where(row == 0.0, -row, row)
            rows.append(row)
            seen.append(row)
        batches.append((np.array(rows), draw(st.floats(0.0, 1.5)), draw(st.integers(0, len(rows)))))
    return c, d, batches


@settings(deadline=None, max_examples=150)
@given(_adversary_batches())
def test_adversary_batches_match_the_per_row_route_and_the_scalar_adversary(case):
    c, d, batches = case
    batched = build_adversarial_instance(c, d)
    per_row = _PerRowAdversary(c, batched.targets)
    scalar = _ScalarAdversary(c, batched.targets)
    for rows, stop, limit in batches:
        expected = []
        for row in rows[:limit]:
            expected.append(scalar.query(Point(row.tolist())))
            if expected[-1] <= stop:
                break
        for instance in (batched, per_row):
            assert repr(query_values(instance, rows, stop, limit).tolist()) == repr(expected)
            assert instance.live == scalar.live
    for instance in (batched, per_row):
        assert repr(list(instance.memo.items())) == repr(list(scalar.memo.items()))
        rows, values = instance.query_arrays()
        assert repr(list(zip(map(tuple, rows.tolist()), values.tolist()))) == repr(scalar.log)


def test_adversary_rows_after_the_first_common_stop_remove_nothing():
    # Row 0 lies in no ball and answers 1.0 <= stop, so the walk stops there
    # and the candidate centre behind it stays live.
    instance = build_adversarial_instance(24.0, 2)
    rows = np.array([[0.45, 0.0], instance.targets[5].coords])
    assert query_values(instance, rows, 1.2, 2).tolist() == [1.0]
    assert instance.live == list(range(len(instance.targets)))


def test_adversary_row_in_two_live_balls_removes_the_lower_index():
    # Both balls hold (0.05, 0): candidate 0 goes, candidate 1 commits there
    # and answers c*|pt| = 0.4, as the scalar adversary does.
    targets = (point(0.0, 0.0), point(0.1, 0.0))
    rows = np.array([[0.05, 0.0], [0.1, 0.0]])
    scalar = _ScalarAdversary(8.0, targets)
    expected = [scalar.query(Point(row)) for row in rows.tolist()]
    assert expected == [0.4, 0.0]
    for instance in (AdversarialInstance(8.0, targets), _PerRowAdversary(8.0, targets)):
        assert query_values(instance, rows, -1.0, 2).tolist() == expected
        assert instance.live == [1]


def test_wrapped_adversary_query_hears_every_row(monkeypatch):
    # A wrapper on the class, as a tracer installs, sees each row once.
    heard = []
    query = AdversarialInstance.query

    def wrapped(self, p):
        heard.append(p.coords)
        return query(self, p)

    monkeypatch.setattr(AdversarialInstance, "query", wrapped)
    instance = build_adversarial_instance(12.0, 2)
    rows = np.array([[0.3, 0.1], [-0.2, 0.0], [0.3, 0.1], [0.6, 0.6]])
    values = query_values(instance, rows, -1.0, 4)
    assert heard == [tuple(r) for r in rows.tolist()]
    assert values.tolist() == instance.query_arrays()[1].tolist()


def test_adversary_answers_a_long_walk_in_bounded_chunks(monkeypatch):
    # The lowerbound c=24 d=2 walk: unbounded doubling handed the adversary
    # a last chunk of 5,271 rows, each measured against every candidate.
    walk = _unit_walk(2, 1 / 48)
    instance = build_adversarial_instance(24.0, 2)
    sizes = []
    answer_chunk = instance._answer_chunk

    def recorded(rows, stop):
        sizes.append(len(rows))
        return answer_chunk(rows, stop)

    monkeypatch.setattr(instance, "_answer_chunk", recorded)
    values = query_values(instance, walk, -1.0, len(walk))
    assert len(walk) == 13447 and sum(sizes) == len(walk)
    assert max(sizes) == AdversarialInstance._CHUNK
    per_row = _PerRowAdversary(24.0, instance.targets)
    assert repr(values.tolist()) == repr(query_values(per_row, walk, -1.0, len(walk)).tolist())
    assert instance.live == per_row.live


def test_query_log_and_trace_retain_at_most_72_bytes_per_query():
    # The lowerbound c=64 d=2 known_c run answers 88,866 queries. The log
    # keeps a float64 row and value per query (24 B), the trace a row, a
    # value and a label pair per vertex (40 B). A log of coordinate tuples
    # and Python floats with a memo dict takes 253 B per query.
    instance = build_adversarial_instance(64.0, 2)
    _unit_walk(2, 1.0 / 128.0)  # the cached step net is not part of the log
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_strategy(instance, StrategyConfig(kind="known_c", c_guess=64.0))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert trace.reached and instance.query_count == len(trace.rows) == 88_866
    assert retained <= 72 * instance.query_count
