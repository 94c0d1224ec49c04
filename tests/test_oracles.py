import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predsearch import (
    ORACLE_KINDS,
    Ball,
    OracleSpec,
    Point,
    PredictionOracle,
    QueryHistory,
    check_prediction_bounds,
    distance,
    infer_lipschitz,
    origin,
    piecewise_prediction,
    piecewise_predictions,
    point,
    refined_query,
    sample_in_ball,
    validate_oracle,
)


def make_oracle(kind, target, c=1.0, c_lo=1.0, seed=0):
    alpha = c if kind == "affine" else None
    return PredictionOracle(
        OracleSpec(kind=kind, target=target, c_hi=c, c_lo=c_lo, seed=seed, alpha=alpha)
    )


def test_spec_validation():
    t = point(0.1, 0.1)
    with pytest.raises(ValueError):
        OracleSpec(kind="nope", target=t)
    with pytest.raises(ValueError):
        OracleSpec(kind="exact", target=t, c_hi=0.5)
    with pytest.raises(ValueError):
        OracleSpec(kind="exact", target=t, c_lo=0.0)
    with pytest.raises(ValueError):
        OracleSpec(kind="affine", target=t, c_hi=2.0)  # missing alpha
    with pytest.raises(ValueError):
        OracleSpec(kind="affine", target=t, c_hi=2.0, alpha=3.0)
    with pytest.raises(ValueError):
        OracleSpec(kind="piecewise_lower_bound", target=t, c_hi=2.0)
    with pytest.raises(ValueError):
        # |o t| too large for the family hypothesis
        OracleSpec(kind="piecewise_lower_bound", target=point(0.4, 0.0), c_hi=4.0)


def test_exact_oracle_at_target():
    t = point(0.3, -0.4)
    oracle = make_oracle("exact", t)
    assert oracle.query(t) == 0.0
    assert oracle.query(point(3.3, -4.4)) == 5.0


def test_affine_oracle_value():
    oracle = make_oracle("affine", point(0.0, 0.0), c=2.0)
    assert oracle.query(point(3.0, 4.0)) == 10.0


def test_midpoint_open_strictly_between():
    t = point(0.2)
    oracle = make_oracle("midpoint_open", t, c=3.0)
    p = point(1.2)
    value = oracle.query(p)
    assert distance(p, t) < value < 3.0 * distance(p, t)


def test_piecewise_values():
    t = origin(2)
    oracle = make_oracle("piecewise_lower_bound", t, c=4.0)
    assert oracle.query(point(0.2, 0.0)) == pytest.approx(0.8)
    assert oracle.query(point(0.4, 0.0)) == 1.0
    assert oracle.query(point(0.6, 0.0)) == pytest.approx(1.2)


def test_piecewise_case_order_on_overlap():
    # On the boundary of the target ball both cases give the same number.
    t = origin(1)
    assert piecewise_prediction(t, 4.0, point(0.25)) == 4.0 * 0.25


@pytest.mark.parametrize("kind", ["exact", "affine", "midpoint_open", "seeded_noise"])
def test_determinism_bit_exact(kind):
    t = point(0.3, 0.7, -0.2)
    oracle = make_oracle(kind, t, c=4.0, seed=9)
    rng = np.random.default_rng(4)
    for row in rng.normal(size=(50, 3)):
        p = Point(tuple(row))
        assert oracle.query(p) == oracle.query(p)


def test_query_log_and_memo():
    oracle = make_oracle("seeded_noise", point(0.5, 0.5), c=2.0, seed=1)
    p = point(1.0, 1.0)
    v1 = oracle.query(p)
    v2 = oracle.query(p)
    assert v1 == v2
    assert oracle.query_count == 2
    assert oracle.query_log[0] == (p, v1)


def test_query_dimension_mismatch():
    oracle = make_oracle("exact", point(0.0, 0.0))
    with pytest.raises(ValueError):
        oracle.query(point(1.0))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c", [1.0, 2.0, 4.0, 8.0])
@pytest.mark.parametrize("kind", ["exact", "affine", "midpoint_open", "seeded_noise"])
def test_validity_synthetic_kinds(d, c, kind):
    rng = np.random.default_rng(int(c) * 10 + d)
    t = Point(tuple(rng.normal(size=d)))
    oracle = make_oracle(kind, t, c=c, seed=17)
    assert validate_oracle(oracle, probes=1000, radius=3.0, seed=d)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c", [4.0, 8.0])
def test_validity_piecewise(d, c):
    rng = np.random.default_rng(d)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    t = Point(tuple(direction * (0.5 - 1.0 / c) * 0.8))
    oracle = make_oracle("piecewise_lower_bound", t, c=c)
    assert validate_oracle(oracle, probes=1000, radius=3.0, seed=d + 100)


def test_broken_oracle_detected():
    t = point(0.0, 0.0)
    broken = lambda p: 0.5 * distance(p, t)  # claims c_lo = 1 but underestimates
    assert not check_prediction_bounds(broken, t, 1.0, 2.0, probes=200, radius=2.0, seed=0)


def test_piecewise_indistinguishable_outside_balls():
    c = 8.0
    rng = np.random.default_rng(21)
    t1 = point(0.2, 0.1)
    t2 = point(-0.15, 0.2)
    probes = sample_in_ball(rng, Ball(origin(2), 2.0), 10_000)
    checked = 0
    for row in probes:
        p = Point(tuple(row))
        if distance(p, t1) <= 1.0 / c or distance(p, t2) <= 1.0 / c:
            continue
        assert piecewise_prediction(t1, c, p) == piecewise_prediction(t2, c, p)
        checked += 1
    assert checked > 9000


def test_infer_lipschitz_example():
    history = QueryHistory([point(0.0)], [1.0])
    assert infer_lipschitz(history, point(2.0)) == 3.0


def test_infer_lipschitz_self_term():
    history = QueryHistory([point(1.0, 0.0)], [0.7])
    assert infer_lipschitz(history, point(1.0, 0.0)) <= 0.7


def test_infer_lipschitz_empty():
    with pytest.raises(ValueError):
        infer_lipschitz(QueryHistory(), point(0.0))


def test_inferred_function_is_one_lipschitz():
    rng = np.random.default_rng(33)
    t = point(0.4, -0.3)
    oracle = make_oracle("seeded_noise", t, c=8.0, seed=5)
    history = QueryHistory()
    for row in rng.normal(size=(50, 2)):
        p = Point(tuple(row))
        history.add(p, oracle.query(p))
    for _ in range(1000):
        p = Point(tuple(rng.normal(size=2) * 2))
        q = Point(tuple(rng.normal(size=2) * 2))
        gap = abs(infer_lipschitz(history, p) - infer_lipschitz(history, q))
        assert gap <= distance(p, q) + 1e-12


def test_refined_query_cases():
    t = point(0.0, 0.0)
    oracle = make_oracle("seeded_noise", t, c=8.0, seed=2)
    p = point(1.0, 1.0)
    history = QueryHistory([p], [oracle.query(p)])
    assert refined_query(oracle, history, p) == min(
        oracle.query(p), infer_lipschitz(history, p)
    )
    # A recorded point very close to the target caps faraway predictions.
    near = point(1e-6, 0.0)
    history.add(near, oracle.query(near))
    far = point(2.0, 0.0)
    assert refined_query(oracle, history, far) <= distance(far, near) + oracle.query(near)
    assert refined_query(oracle, history, t) == 0.0


def test_refined_query_still_valid_prediction():
    t = point(0.2, 0.6)
    oracle = make_oracle("seeded_noise", t, c=8.0, seed=11)
    rng = np.random.default_rng(12)
    history = QueryHistory()
    for row in rng.normal(size=(50, 2)):
        p = Point(tuple(row))
        history.add(p, oracle.query(p))
    refined = lambda p: refined_query(oracle, history, p)
    assert check_prediction_bounds(refined, t, 1.0, 8.0, probes=1000, radius=3.0, seed=13)


# --- Batched queries against the scalar formulas ----------------------------


def _reference_value(spec, p):
    """One point's prediction by the scalar formulas: a fresh keyed blake2b
    over struct-packed coordinates for the seeded noise."""
    if spec.kind == "piecewise_lower_bound":
        return piecewise_prediction(spec.target, spec.c_hi, p)
    dist = distance(p, spec.target)
    if spec.kind == "exact":
        return dist
    if spec.kind == "affine":
        return spec.alpha * dist
    if spec.kind == "midpoint_open":
        return (1.0 + spec.c_hi) / 2.0 * dist
    h = hashlib.blake2b(digest_size=8, key=struct.pack("<q", spec.seed))
    h.update(struct.pack(f"<{len(p.coords)}d", *p.coords))
    u = int.from_bytes(h.digest(), "little") / 2.0**64
    return (spec.c_lo + (spec.c_hi - spec.c_lo) * u) * dist


def _reference_rows(spec, rows, stop, limit):
    """query_rows by single queries: (values, memo, log) of the prefix."""
    memo, log = {}, []
    for row in rows[:limit]:
        p = Point(tuple(row))
        value = memo.setdefault(p.coords, _reference_value(spec, p))
        log.append((p.coords, value))
        if value <= stop:
            break
    return [v for _, v in log], memo, log


_coordinate = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, 3.0))


@st.composite
def _row_batches(draw):
    d = draw(st.integers(1, 3))
    distinct = draw(st.lists(st.lists(_coordinate, min_size=d, max_size=d), min_size=1, max_size=8))
    # Repeats (and sign-of-zero twins) land in and across evaluation chunks.
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=70))
    return np.array([distinct[k] for k in picks], dtype=np.float64).reshape(len(picks), d)


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(ORACLE_KINDS),
    rows=_row_batches(),
    stop_q=st.floats(0.0, 1.0),
    limit=st.integers(0, 80),
    seed=st.integers(-(2**63), 2**63 - 1),
)
def test_query_rows_matches_scalar_reference(kind, rows, stop_q, limit, seed):
    d = rows.shape[1]
    target = Point((0.1, -0.2, 0.05)[:d])
    spec = OracleSpec(
        kind=kind, target=target, c_hi=8.0, c_lo=0.25, seed=seed,
        alpha=3.0 if kind == "affine" else None,
    )
    values, memo, log = _reference_rows(spec, rows, -np.inf, len(rows))
    stop = float(np.quantile(values, stop_q))
    values, memo, log = _reference_rows(spec, rows, stop, limit)
    oracle = PredictionOracle(spec)
    got = oracle.query_rows(rows, stop, limit)
    assert repr(got.tolist()) == repr(values)
    assert repr(list(oracle.memo.items())) == repr(list(memo.items()))
    assert repr([(p.coords, v) for p, v in oracle.query_log]) == repr(log)
    assert oracle.query_count == len(log)
    # Single queries go through the scalar path and agree with the rows.
    single = PredictionOracle(spec)
    assert repr([single.query(Point(tuple(r))) for r in rows[: len(values)]]) == repr(
        [v for _, v in _reference_rows(spec, rows, -np.inf, len(values))[2]]
    )


def test_query_rows_stops_after_first_value_at_or_below_stop():
    oracle = make_oracle("exact", point(0.0))
    rows = np.array([[5.0], [3.0], [2.0], [1.0], [2.0]])
    assert oracle.query_rows(rows, 2.0, 5).tolist() == [5.0, 3.0, 2.0]
    assert sorted(oracle.memo) == [(2.0,), (3.0,), (5.0,)]
    assert oracle.query_rows(rows, -1.0, 2).tolist() == [5.0, 3.0]
    assert oracle.query_count == 5
    with pytest.raises(ValueError):
        oracle.query_rows(np.zeros((2, 2)), 0.0, 2)


def test_noise_draw_conversion_matches_python_division():
    # The batched noise turns uint64 digests into floats with numpy; the
    # scalar formula divides a Python int. Both must round the same way,
    # ties to even included.
    cases = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**63, 2**64 - 1, 2**64 - 1024]
    cases += [(2**52 + k) << 11 | r for k in (0, 1, 2) for r in (0x3FF, 0x400, 0x401)]
    rng = np.random.default_rng(0)
    cases += [int(x) for x in rng.integers(0, 2**64 - 1, size=2000, dtype=np.uint64)]
    got = np.array(cases, dtype=np.uint64) / 2.0**64
    assert got.tolist() == [x / 2.0**64 for x in cases]


@settings(deadline=None)
@given(
    rows=_row_batches(),
    c=st.floats(2.1, 64.0),
)
def test_piecewise_predictions_match_scalar(rows, c):
    target = Point((0.1, -0.2, 0.05)[: rows.shape[1]])
    got = piecewise_predictions(target, c, rows)
    want = [piecewise_prediction(target, c, Point(tuple(r))) for r in rows]
    assert got.tolist() == want
