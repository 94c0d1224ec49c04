import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from predsearch import (
    ORACLE_KINDS,
    AdversarialInstance,
    GuessTooSmallError,
    OracleSpec,
    Point,
    PredictionOracle,
    QueryBudgetExceeded,
    StrategyConfig,
    audit_trace,
    distance,
    origin,
    one_step,
    path_length,
    phase_endpoints,
    point,
    run_strategy,
    step_length_bound,
    trilaterate,
)
from predsearch.cli import main
from predsearch.nets import dists_to
from predsearch.strategies import _unit_walk


def make_oracle(kind, target, c=1.0, c_lo=1.0, seed=0):
    alpha = c if kind == "affine" else None
    return PredictionOracle(
        OracleSpec(kind=kind, target=target, c_hi=c, c_lo=c_lo, seed=seed, alpha=alpha)
    )


# A target whose coarse guess-1 net misses B(t, 1/16): forces the
# too-small-guess outcome against the piecewise family with c = 8.
STUBBORN_TARGET = point(0.29, -0.21)


def test_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(kind="bogus")
    with pytest.raises(ValueError):
        StrategyConfig(kind="known_c", c_guess=0.5)
    with pytest.raises(ValueError):
        StrategyConfig(kind="known_c", delta_stop=0.0)
    with pytest.raises(ValueError):
        StrategyConfig(kind="exact_c1", epsilon_ratio=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            StrategyConfig(kind="known_c", c_guess=bad)
        with pytest.raises(ValueError):
            StrategyConfig(kind="known_c", delta_stop=bad)
        with pytest.raises(ValueError):
            StrategyConfig(kind="exact_c1", epsilon_ratio=bad)
    # A float limit once reached the slicing of the step's rows, and a JSON
    # true ran with a limit of one query.
    for bad in (math.nan, math.inf, 20.0, 0, True):
        with pytest.raises(ValueError):
            StrategyConfig(kind="known_c", max_queries=bad)
    # A truthy string such as "no" once turned snapping on.
    for bad in ("no", "false", 1, 0, None):
        with pytest.raises(ValueError):
            StrategyConfig(kind="known_c", snap_integral=bad)


def test_one_step_advanced_affine():
    target = point(0.6, 0.8)
    oracle = make_oracle("affine", target, c=2.0)
    p0 = origin(2)
    lam0 = oracle.query(p0)
    assert lam0 == 2.0
    outcome = one_step(p0, 1.0, 2.0, oracle)
    assert outcome.variant == "advanced"
    assert outcome.next_value <= 0.5
    assert path_length(outcome.segment_rows) <= 2.0 * 18.0**2 * 1.0
    assert outcome.segment_rows[0].tolist() == list(p0.coords)


def test_one_step_exact_always_advances():
    target = point(0.3, -0.2)
    for guess in (1.0, 2.0, 5.0):
        oracle = make_oracle("exact", target)
        lam0 = oracle.query(origin(2))
        outcome = one_step(origin(2), lam0, guess, oracle)
        assert outcome.variant == "advanced"
        assert outcome.next_value <= lam0 / 2.0


def test_one_step_guess_too_small():
    oracle = make_oracle("piecewise_lower_bound", STUBBORN_TARGET, c=8.0)
    p0 = origin(2)
    lam0 = oracle.query(p0)
    assert lam0 == 1.0
    outcome = one_step(p0, lam0, 1.0, oracle)
    assert outcome.variant == "guess_too_small"
    assert outcome.segment_rows[-1].tolist() == list(p0.coords)
    assert path_length(outcome.segment_rows) <= step_length_bound(1.0, 2, lam0)
    # The deduction is correct: the true factor 8 exceeds the guess 1.
    assert oracle.c_factor > 1.0


def test_one_step_invariants_seeded_trials():
    rng = np.random.default_rng(99)
    for trial in range(100):
        target = Point(tuple(rng.normal(size=2)))
        oracle = make_oracle("seeded_noise", target, c=8.0, seed=trial)
        p0 = origin(2)
        lam0 = oracle.query(p0)
        outcome = one_step(p0, lam0, 1.0, oracle)
        assert outcome.variant in ("advanced", "guess_too_small")
        # locality: the whole walk stays inside the closed step ball
        segment = outcome.segment_rows
        assert (dists_to(segment, p0.coords) <= lam0).all()
        assert (dists_to(segment, target.coords) <= 2.0 * lam0).all()
        assert path_length(segment) <= step_length_bound(1.0, 2, lam0)
        if outcome.variant == "advanced":
            assert outcome.next_value <= lam0 / 2.0
        else:
            assert segment[-1].tolist() == list(p0.coords)


def test_one_step_rejects_nonpositive_lambda():
    oracle = make_oracle("exact", point(1.0))
    with pytest.raises(ValueError):
        one_step(origin(1), 0.0, 1.0, oracle)


def test_known_c_target_at_origin():
    oracle = make_oracle("affine", origin(2), c=2.0)
    trace = run_strategy(oracle, StrategyConfig(kind="known_c", c_guess=2.0))
    assert trace.reached
    assert trace.total_length == 0.0
    assert len(trace.rows) == 1


def test_known_c_bounds_and_step_count():
    target = point(0.6, 0.8)
    oracle = make_oracle("affine", target, c=2.0)
    config = StrategyConfig(kind="known_c", c_guess=2.0, delta_stop=1e-3)
    trace = run_strategy(oracle, config)
    assert trace.reached
    assert trace.total_length <= 2.0 * 6.0**2 * 2.0**3 * 1.0  # = 2304
    contractions = sum(1 for s in trace.steps if s.advanced)
    assert contractions <= math.ceil(math.log2(2.0 / 1e-3))  # 11
    # geometric halving of the prediction value along endpoints
    lam0 = trace.lambda_values[0]
    for j, i, _, lam in phase_endpoints(trace):
        assert lam <= lam0 / 2.0**i


def test_known_c_hard_step_bound():
    target = point(-1.1, 0.4)
    oracle = make_oracle("seeded_noise", target, c=4.0, seed=8)
    config = StrategyConfig(kind="known_c", c_guess=4.0, delta_stop=1e-3)
    trace = run_strategy(oracle, config)
    assert trace.reached
    for s in trace.steps:
        assert s.segment_length <= step_length_bound(s.guess, 2, s.lambda_start)


def test_known_c_guess_too_small_raises():
    oracle = make_oracle("piecewise_lower_bound", STUBBORN_TARGET, c=8.0)
    config = StrategyConfig(kind="known_c", c_guess=1.0, delta_stop=1e-3)
    with pytest.raises(GuessTooSmallError):
        run_strategy(oracle, config)


def test_known_c_query_budget():
    oracle = make_oracle("affine", point(0.6, 0.8), c=2.0)
    config = StrategyConfig(kind="known_c", c_guess=2.0, delta_stop=1e-9, max_queries=20)
    with pytest.raises(QueryBudgetExceeded):
        run_strategy(oracle, config)


def test_unknown_c_exact_oracle_never_doubles():
    oracle = make_oracle("exact", point(0.7, -0.3))
    trace = run_strategy(oracle, StrategyConfig(kind="unknown_c", delta_stop=1e-3))
    assert trace.reached
    assert trace.doublings == 1


def test_unknown_c_doubling_cap_and_halving():
    target = point(0.6, 0.8)
    oracle = make_oracle("seeded_noise", target, c=8.0, seed=5)
    config = StrategyConfig(kind="unknown_c", delta_stop=1e-3)
    trace = run_strategy(oracle, config)
    assert trace.reached
    assert trace.doublings <= math.ceil(math.log2(8.0))
    lam0 = trace.lambda_values[0]
    for j, i, _, lam in phase_endpoints(trace):
        assert lam <= lam0 / 2.0**i
        assert 1 <= j <= trace.doublings


def test_unknown_c_forced_doubling():
    oracle = make_oracle("piecewise_lower_bound", STUBBORN_TARGET, c=8.0)
    config = StrategyConfig(kind="unknown_c", delta_stop=1e-3)
    trace = run_strategy(oracle, config)
    assert trace.reached
    assert 2 <= trace.doublings <= math.ceil(math.log2(8.0))
    assert distance(trace.final_point, STUBBORN_TARGET) <= config.delta_stop


def test_reached_distance_scales_with_underestimates():
    # c_lo < 1: the stop test fires at lambda <= delta while the true
    # distance can be up to delta / c_lo.
    target = point(0.4, 0.9)
    oracle = PredictionOracle(
        OracleSpec(kind="affine", target=target, c_hi=4.0, c_lo=0.5, alpha=0.75)
    )
    config = StrategyConfig(kind="unknown_c", delta_stop=1e-3)
    trace = run_strategy(oracle, config)
    assert trace.reached
    final_dist = distance(trace.final_point, target)
    assert final_dist <= config.delta_stop / 0.5
    assert final_dist == trace.final_lambda / 0.75


def test_snap_integral_recovers_integer_target():
    target = point(2.0, -3.0)
    oracle = make_oracle("seeded_noise", target, c=2.0, seed=3)
    config = StrategyConfig(kind="unknown_c", delta_stop=1e-12, snap_integral=True)
    trace = run_strategy(oracle, config)
    assert trace.reached
    assert trace.final_point == target
    assert trace.final_lambda == 0.0


def test_trace_lambda_replay_consistent():
    target = point(0.6, 0.8)
    oracle = make_oracle("seeded_noise", target, c=4.0, seed=1)
    trace = run_strategy(oracle, StrategyConfig(kind="unknown_c", delta_stop=1e-3))
    for row, lam in zip(trace.rows.tolist(), trace.lambda_values):
        assert oracle.query(Point(tuple(row))) == lam
    assert trace.total_length == path_length(trace.rows)


def test_trilaterate_plane():
    readings = [
        (point(0.0, 0.0), 5.0),
        (point(1.0, 0.0), math.sqrt(20.0)),
        (point(0.0, 1.0), math.sqrt(18.0)),
    ]
    t = trilaterate(readings, 2)
    assert distance(t, point(3.0, 4.0)) < 1e-9
    for center, r in readings:
        assert distance(t, center) == pytest.approx(r, abs=1e-9)


def test_trilaterate_line():
    t = trilaterate([(point(0.0), 2.0), (point(1.0), 3.0)], 1)
    assert distance(t, point(-2.0)) < 1e-12


def test_trilaterate_collinear_degenerate():
    readings = [(point(0.0, 0.0), 1.0), (point(1.0, 0.0), 1.0), (point(2.0, 0.0), 1.0)]
    with pytest.raises(ValueError):
        trilaterate(readings, 2)


def test_trilaterate_wrong_count():
    with pytest.raises(ValueError):
        trilaterate([(point(0.0, 0.0), 1.0)], 2)


def test_search_exact_plane():
    oracle = make_oracle("exact", point(3.0, 4.0))
    config = StrategyConfig(kind="exact_c1", epsilon_ratio=0.01)
    trace = run_strategy(oracle, config)
    assert trace.reached
    assert trace.total_length <= 5.05 + 1e-9
    assert distance(trace.final_point, point(3.0, 4.0)) <= 1e-9 * 5.0


def test_search_exact_target_at_origin():
    oracle = make_oracle("exact", origin(3))
    trace = run_strategy(oracle, StrategyConfig(kind="exact_c1"))
    assert trace.reached
    assert trace.total_length == 0.0


def test_search_exact_line():
    oracle = make_oracle("exact", point(-2.0))
    trace = run_strategy(oracle, StrategyConfig(kind="exact_c1", epsilon_ratio=0.1))
    assert trace.reached
    assert trace.total_length <= 2.2 + 1e-9


_scaled_coordinate = st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) > 1e-6)


@settings(deadline=None, max_examples=100)
@given(
    kind=st.sampled_from(["exact", "affine", "midpoint_open"]),
    strategy=st.sampled_from(["known_c", "unknown_c"]),
    c=st.sampled_from([1.5, 2.0, 3.0]),
    coords=st.integers(1, 3).flatmap(
        lambda d: st.lists(_scaled_coordinate, min_size=d, max_size=d)
    ),
    k=st.integers(-20, 20),
)
def test_search_scales_exactly_by_powers_of_two(kind, strategy, c, coords, k):
    # delta_stop is an absolute radius: scaled with the target, every
    # comparison of the search keeps its outcome and every float scales
    # exactly, so the trace is the base trace times 2^k.
    scale = 2.0**k
    runs = []
    for factor in (1.0, scale):
        target = Point(tuple(x * factor for x in coords))
        oracle = make_oracle(kind, target, c=1.0 if kind == "exact" else c)
        config = StrategyConfig(
            kind=strategy, c_guess=c if strategy == "known_c" else 1.0, delta_stop=1e-3 * factor
        )
        runs.append((run_strategy(oracle, config), oracle.query_count))
    (base, base_queries), (scaled, scaled_queries) = runs
    assert scaled.rows.tolist() == (base.rows * scale).tolist()
    assert scaled.lambda_values.tolist() == (base.lambda_values * scale).tolist()
    assert scaled.total_length == base.total_length * scale
    assert scaled_queries == base_queries


@settings(deadline=None, max_examples=100)
@given(
    kind=st.sampled_from(["exact", "affine", "midpoint_open", "seeded_noise"]),
    strategy=st.sampled_from(["known_c", "unknown_c"]),
    c=st.sampled_from([1.5, 2.0, 3.0]),
    coords=st.integers(1, 3).flatmap(
        lambda d: st.lists(_scaled_coordinate, min_size=d, max_size=d)
    ),
    log_scale=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**31),
)
def test_search_passes_its_audit_at_any_scale(kind, strategy, c, coords, log_scale, seed):
    # Away from powers of two the scaled target rounds differently, so the
    # trace is not the base trace scaled; the audit must still pass.
    scale = 10.0**log_scale
    assume(scale != 2.0 ** round(math.log2(scale)))
    target = Point(tuple(x * scale for x in coords))
    oracle = make_oracle(kind, target, c=1.0 if kind == "exact" else c, seed=seed)
    config = StrategyConfig(
        kind=strategy, c_guess=c if strategy == "known_c" else 1.0, delta_stop=1e-3 * scale
    )
    trace = run_strategy(oracle, config)
    report = audit_trace(trace, target, config, oracle)
    assert report.reached and report.violations == ()


@settings(deadline=None, max_examples=200)
@given(
    d=st.integers(1, 4),
    data=st.data(),
)
def test_trilaterate_recovers_the_target_from_a_well_conditioned_simplex(d, data):
    row = st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)
    corners = np.array(data.draw(st.lists(row, min_size=d + 1, max_size=d + 1)))
    target = np.array(data.draw(row))
    offsets = corners[1:] - corners[0]
    # Well conditioned: neither flat (condition number below 100) nor tiny.
    assume(np.linalg.cond(offsets) < 100.0 and np.abs(offsets).max() > 0.1)
    distances = dists_to(corners, target).tolist()
    recovered = trilaterate([(Point(tuple(p)), r) for p, r in zip(corners.tolist(), distances)], d)
    assert distance(recovered, Point(tuple(target.tolist()))) < 1e-9


@pytest.mark.parametrize(
    "d,c,trials",
    [(1, 2.0, 50), (1, 4.0, 50), (1, 8.0, 50), (2, 2.0, 50), (2, 4.0, 50), (2, 8.0, 20), (3, 2.0, 25), (3, 4.0, 10)],
)
def test_known_c_guarantee_under_worst_case_noise(d, c, trials):
    # alpha = c puts every prediction at the factor ceiling, which makes the
    # halving argument tight: it must still succeed on every step.
    rng = np.random.default_rng(int(c) * 100 + d)
    config = StrategyConfig(kind="known_c", c_guess=c, delta_stop=1e-2)
    for _ in range(trials):
        target = Point(tuple(rng.normal(size=d)))
        if distance(origin(d), target) < 1e-6:
            continue
        oracle = make_oracle("affine", target, c=c)
        trace = run_strategy(oracle, config)
        assert trace.reached
        assert distance(trace.final_point, target) <= config.delta_stop
        assert trace.total_length <= 2.0 * 6.0**d * c ** (d + 1) * distance(origin(d), target)


def test_one_step_deterministic():
    target = point(0.37, -0.81)
    outs = []
    for _ in range(2):
        oracle = make_oracle("seeded_noise", target, c=4.0, seed=13)
        lam0 = oracle.query(origin(2))
        outs.append(one_step(origin(2), lam0, 4.0, oracle))
    assert outs[0].variant == outs[1].variant
    assert outs[0].segment_rows.tolist() == outs[1].segment_rows.tolist()
    assert outs[0].queries == outs[1].queries


# --- Array-native step against the per-Point reference ---------------------


def _reference_step(p_i, lambda_i, c_guess, oracle, query_limit=None):
    """The per-Point contraction step: build a Point per net row and query it
    alone. Returns (variant, segment vertices, queries)."""
    walk = _unit_walk(p_i.dimension, 1.0 / (2.0 * c_guess))
    pts = walk * lambda_i + np.array(p_i.coords, dtype=np.float64)
    pts = pts[dists_to(pts, p_i.coords) <= lambda_i]
    vertices = [p_i]
    queries = []
    for row in pts:
        q = Point(tuple(row))
        if query_limit is not None and oracle.query_count >= query_limit:
            raise QueryBudgetExceeded(f"query limit {query_limit} reached during a step")
        value = oracle.query(q)
        vertices.append(q)
        queries.append((q, value))
        if value <= lambda_i / 2.0:
            return "advanced", vertices, queries
    vertices.append(p_i)
    return "guess_too_small", vertices, queries


def _reference_length(vertices):
    total = 0.0
    for a, b in zip(vertices, vertices[1:]):
        total += distance(a, b)
    return total


def _bits(pairs):
    """repr keeps every float bit, -0.0 included."""
    return repr([(tuple(k.coords) if isinstance(k, Point) else k, v) for k, v in pairs])


def _log_bits(oracle):
    """The oracle's query log, every float bit included."""
    rows, values = oracle.query_arrays()
    return repr((rows.tolist(), values.tolist()))


_ADVERSARY_TARGETS = ((0.05, 0.1, -0.1), (-0.2, 0.0, 0.05), (0.1, -0.15, 0.0))


def _fresh_oracle(kind, target, seed):
    if kind == "adversary":
        d = target.dimension
        return AdversarialInstance(8.0, tuple(Point(t[:d]) for t in _ADVERSARY_TARGETS))
    if kind == "piecewise_lower_bound":
        return make_oracle(kind, target, c=8.0)
    return make_oracle(kind, target, c=4.0, c_lo=0.5, seed=seed)


_coordinate = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-0.3, 0.3))


@settings(deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(ORACLE_KINDS + ("adversary",)),
    base=st.integers(1, 3).flatmap(lambda d: st.lists(_coordinate, min_size=d, max_size=d)),
    lam=st.floats(0.02, 1.5),
    c_guess=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    seed=st.integers(0, 2**31),
)
def test_one_step_matches_per_point_reference(kind, base, lam, c_guess, seed):
    target = Point((0.11, -0.07, 0.05)[: len(base)])
    p0 = Point(tuple(base))
    ref_oracle = _fresh_oracle(kind, target, seed)
    new_oracle = _fresh_oracle(kind, target, seed)
    # Query the base first, as a search does: the step's centre row then
    # revisits it, up to the sign of a zero.
    assert ref_oracle.query(p0) == new_oracle.query(p0)
    for _ in range(2):  # the second pass revisits every row
        variant, vertices, queries = _reference_step(p0, lam, c_guess, ref_oracle)
        outcome = one_step(p0, lam, c_guess, new_oracle)
        assert outcome.variant == variant
        assert _bits(outcome.queries) == _bits(queries)
        assert outcome.rows.tolist() == [list(q.coords) for q, _ in queries]
        assert outcome.values.tolist() == [v for _, v in queries]
        assert outcome.segment_rows.tolist() == [list(v.coords) for v in vertices]
        assert path_length(outcome.segment_rows) == _reference_length(vertices)
        if variant == "advanced":
            assert outcome.next_point == queries[-1][0]
            assert outcome.next_value == queries[-1][1]
    assert _log_bits(new_oracle) == _log_bits(ref_oracle)
    assert _bits(new_oracle.memo.items()) == _bits(ref_oracle.memo.items())
    assert new_oracle.query_count == ref_oracle.query_count


@pytest.mark.parametrize("kind", ["piecewise_lower_bound", "adversary"])
@pytest.mark.parametrize("spare", [0, 1, 2, 5])
def test_query_limit_mid_step_logs_exactly_the_limit(kind, spare):
    # Both oracles make the guess-1 step from o walk its whole net, so a
    # limit below the net size runs out in the middle of the step.
    p0 = origin(2)
    ref_oracle = _fresh_oracle(kind, STUBBORN_TARGET, 3)
    new_oracle = _fresh_oracle(kind, STUBBORN_TARGET, 3)
    assert one_step(p0, 1.0, 1.0, _fresh_oracle(kind, STUBBORN_TARGET, 3)).values.size > 6
    for oracle in (ref_oracle, new_oracle):
        oracle.query(p0)
    limit = 1 + spare
    with pytest.raises(QueryBudgetExceeded):
        _reference_step(p0, 1.0, 1.0, ref_oracle, query_limit=limit)
    with pytest.raises(QueryBudgetExceeded):
        one_step(p0, 1.0, 1.0, new_oracle, query_limit=limit)
    assert new_oracle.query_count == limit
    assert len(new_oracle.query_arrays()[1]) == limit
    assert _log_bits(new_oracle) == _log_bits(ref_oracle)
    assert _bits(new_oracle.memo.items()) == _bits(ref_oracle.memo.items())


def test_query_limit_reached_on_the_stopping_row_still_advances():
    oracle = make_oracle("exact", point(0.3, -0.2))
    lam0 = oracle.query(origin(2))
    free = one_step(origin(2), lam0, 2.0, make_oracle("exact", point(0.3, -0.2)))
    limit = 1 + len(free.values)
    outcome = one_step(origin(2), lam0, 2.0, oracle, query_limit=limit)
    assert outcome.variant == "advanced"
    assert oracle.query_count == limit


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["exact", "seeded_noise", "adversary"])
def test_query_rows_rejects_non_finite_rows(kind):
    for bad in (math.nan, math.inf, -math.inf):
        oracle = _fresh_oracle(kind, point(1.0, 0.0), 0)
        rows = np.array([[0.1, 0.2], [bad, 0.0], [0.3, 0.1]])
        with pytest.raises(ValueError):
            oracle.query_rows(rows, -1.0, 3)
        assert oracle.query_count == 0 and oracle.memo == {}
    # The step hands its rows over unchecked; an infinite ball yields
    # infinite rows, which the oracle refuses before any query.
    oracle = _fresh_oracle(kind, point(1.0, 0.0), 0)
    with pytest.raises(ValueError):
        one_step(origin(2), math.inf, 1.0, oracle)
    assert oracle.query_count == 0


class _ListeningOracle(PredictionOracle):
    def __init__(self, spec):
        super().__init__(spec)
        self.heard = []

    def query(self, p):
        self.heard.append(p.coords)
        return super().query(p)


@pytest.mark.parametrize("how", ["subclass", "wrapped"])
def test_query_rows_sends_every_row_through_an_overridden_query(how, monkeypatch):
    spec = OracleSpec(kind="seeded_noise", target=point(0.4, -0.3), c_hi=4.0, c_lo=0.5, seed=1)
    p0 = origin(2)
    plain = PredictionOracle(spec)
    lam = plain.query(p0)
    expected = one_step(p0, lam, 2.0, plain)
    if how == "subclass":
        oracle = _ListeningOracle(spec)
        heard = oracle.heard
    else:
        heard = []
        query = PredictionOracle.query

        def wrapped(self, p):
            heard.append(p.coords)
            return query(self, p)

        monkeypatch.setattr(PredictionOracle, "query", wrapped)
        oracle = PredictionOracle(spec)
    assert oracle.query(p0) == lam
    outcome = one_step(p0, lam, 2.0, oracle)
    assert heard == [p0.coords] + [tuple(r) for r in outcome.rows.tolist()]
    assert outcome.variant == expected.variant
    assert _log_bits(oracle) == _log_bits(plain)
    assert _bits(oracle.memo.items()) == _bits(plain.memo.items())


def test_search_trace_views_match_rows():
    oracle = make_oracle("seeded_noise", point(0.6, -0.8), c=4.0, seed=2)
    trace = run_strategy(oracle, StrategyConfig(kind="unknown_c", delta_stop=1e-3))
    assert trace.final_point.coords == tuple(trace.rows[-1].tolist())
    assert trace.dimension == 2
    assert trace.total_length == _reference_length(list(map(Point, trace.rows.tolist())))


# Recorded with the per-Point step (Point-built net rows, scalar distance and
# path length, one keyed blake2b per query).
_SMALL_SWEEP_DIGEST = "5aeef52cda84ee870f4e256aa4989a5f"


def test_small_sweep_csv_digest_is_pinned(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--d", "1", "2", "--c", "2", "4", "--trials", "3", "--seed", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.blake2b(out.read_bytes(), digest_size=16).hexdigest() == _SMALL_SWEEP_DIGEST
