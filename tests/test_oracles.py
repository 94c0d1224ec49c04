import hashlib
import math
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
    QueryRecorder,
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
from predsearch.nets import dists_to
from predsearch.strategies import StrategyConfig, one_step, phase_endpoints, run_strategy
from predsearch.verification import build_adversarial_instance


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
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            OracleSpec(kind="exact", target=t, c_hi=bad)
        with pytest.raises(ValueError):
            OracleSpec(kind="affine", target=t, c_hi=bad, alpha=2.0)
        with pytest.raises(ValueError):
            OracleSpec(kind="exact", target=t, c_lo=bad)
    with pytest.raises(TypeError):
        OracleSpec(kind="seeded_noise", target=t, c_hi=2.0, seed=1.5)
    # The noise key packs the seed as a signed 64-bit integer.
    for bad in (2**63, 2**64, -(2**63) - 1):
        with pytest.raises(ValueError):
            OracleSpec(kind="seeded_noise", target=t, c_hi=2.0, seed=bad)
    for edge in (2**63 - 1, -(2**63)):
        PredictionOracle(OracleSpec(kind="seeded_noise", target=t, c_hi=2.0, seed=edge))


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
    rows, values = oracle.query_arrays()
    assert rows.tolist() == [list(p.coords)] * 2 and values.tolist() == [v1, v2]
    assert oracle.memo == {p.coords: v1}


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
    # Claims c_lo = 1 but underestimates.
    broken = lambda rows: [0.5 * distance(Point(r), t) for r in rows.tolist()]
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
    assert infer_lipschitz(np.array([[0.0]]), np.array([1.0]), point(2.0)) == 3.0


def test_infer_lipschitz_self_term():
    assert infer_lipschitz(np.array([[1.0, 0.0]]), np.array([0.7]), point(1.0, 0.0)) <= 0.7


def test_infer_lipschitz_empty():
    with pytest.raises(ValueError):
        infer_lipschitz(np.empty((0, 1)), np.empty(0), point(0.0))


def test_inferred_function_is_one_lipschitz():
    rng = np.random.default_rng(33)
    t = point(0.4, -0.3)
    oracle = make_oracle("seeded_noise", t, c=8.0, seed=5)
    oracle.query_rows(rng.normal(size=(50, 2)), -math.inf, 50)
    rows, values = oracle.query_arrays()
    for _ in range(1000):
        p = Point(tuple(rng.normal(size=2) * 2))
        q = Point(tuple(rng.normal(size=2) * 2))
        gap = abs(infer_lipschitz(rows, values, p) - infer_lipschitz(rows, values, q))
        assert gap <= distance(p, q) + 1e-12


def test_refined_query_cases():
    t = point(0.0, 0.0)
    oracle = make_oracle("seeded_noise", t, c=8.0, seed=2)
    p = point(1.0, 1.0)
    # With an empty log the refined answer is the direct one.
    assert refined_query(oracle, p) == oracle.query(p)
    rows, values = oracle.query_arrays()
    assert refined_query(oracle, p) == min(oracle.query(p), infer_lipschitz(rows, values, p))
    # A logged point very close to the target caps faraway predictions.
    near = point(1e-6, 0.0)
    near_value = oracle.query(near)
    far = point(2.0, 0.0)
    assert refined_query(oracle, far) <= distance(far, near) + near_value
    assert refined_query(oracle, t) == 0.0


def test_refined_query_still_valid_prediction():
    t = point(0.2, 0.6)
    oracle = make_oracle("seeded_noise", t, c=8.0, seed=11)
    rng = np.random.default_rng(12)
    oracle.query_rows(rng.normal(size=(50, 2)), -math.inf, 50)
    # Each refined query also joins the log the next one infers from.
    refined = lambda rows: [refined_query(oracle, Point(r)) for r in rows.tolist()]
    assert check_prediction_bounds(refined, t, 1.0, 8.0, probes=1000, radius=3.0, seed=13)


_bounded_specs = st.sampled_from(ORACLE_KINDS).flatmap(
    lambda kind: st.fixed_dictionaries(
        {
            "kind": st.just(kind),
            "d": st.integers(1, 3),
            # exact claims its own factor, so its bounds are tight.
            "c_hi": st.just(1.0) if kind == "exact" else st.floats(
                2.01 if kind == "piecewise_lower_bound" else 1.0, 64.0
            ),
            "c_lo": st.just(1.0) if kind == "exact" else st.floats(0.01, 1.0),
            "alpha_q": st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            "seed": st.integers(-(2**63), 2**63 - 1),
            "target_q": st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        }
    )
)


def _bounded_oracle(params):
    """An oracle of any kind; a piecewise target is scaled into the family's
    ball |o t| <= 1/2 - 1/c_hi (the unscaled one has |o t| <= sqrt(3) < 2)."""
    d, c_hi, c_lo = params["d"], params["c_hi"], params["c_lo"]
    target = np.array(params["target_q"][:d])
    if params["kind"] == "piecewise_lower_bound":
        target *= (0.5 - 1.0 / c_hi) / 2.0
    alpha = c_lo + (c_hi - c_lo) * params["alpha_q"]
    return PredictionOracle(
        OracleSpec(
            kind=params["kind"], target=Point(tuple(target.tolist())), c_hi=c_hi, c_lo=c_lo,
            seed=params["seed"], alpha=min(max(alpha, c_lo), c_hi),
        )
    )


def _query_rows_near(draw, oracle, n_min, n_max):
    """``n_min`` to ``n_max`` rows: scattered, near the target, or on it."""
    d, target = oracle.dimension, np.array(oracle.spec.target.coords)
    rows = []
    for _ in range(draw(st.integers(n_min, n_max))):
        how = draw(st.sampled_from(["free", "near", "target"]))
        if how == "target":
            rows.append(target)
            continue
        offset = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d)))
        rows.append(target + offset / (oracle.spec.c_hi if how == "near" else 1.0))
    return np.array(rows, dtype=np.float64).reshape(len(rows), d)


@settings(deadline=None, max_examples=200)
@given(params=_bounded_specs, data=st.data())
def test_query_rows_lie_within_the_factor_bounds(params, data):
    # Validity, c_lo*|pt| <= lambda(p) <= c_hi*|pt|, over every kind, with
    # the relative slack of check_prediction_bounds for the rounding of the
    # factor and of the piecewise cases; a row on the target answers 0.
    oracle = _bounded_oracle(params)
    rows = _query_rows_near(data.draw, oracle, 0, 40)
    values = oracle.query_rows(rows, -math.inf, len(rows))
    spec = oracle.spec
    dist = dists_to(rows, spec.target.coords)
    assert len(values) == len(rows)
    assert (spec.c_lo * dist * (1.0 - 1e-9) <= values).all()
    assert (values <= spec.c_hi * dist * (1.0 + 1e-9)).all()


@settings(deadline=None, max_examples=200)
@given(params=_bounded_specs, data=st.data())
def test_refined_query_tightens_the_direct_answer_by_the_log_before_it(params, data):
    oracle = _bounded_oracle(params)
    spec = oracle.spec
    rows = _query_rows_near(data.draw, oracle, 0, 30)
    oracle.query_rows(rows, -math.inf, len(rows))
    p = Point(tuple(_query_rows_near(data.draw, oracle, 1, 1)[0].tolist()))
    before_rows, before_values = oracle.query_arrays()
    refined = refined_query(oracle, p)
    direct = oracle.query_arrays()[1][-1]
    assert oracle.query_count == len(before_values) + 1
    # Every logged value is at least c_lo times its distance, so by the
    # triangle inequality the refined answer is at least c_lo * |pt|.
    assert refined >= spec.c_lo * distance(p, spec.target) * (1.0 - 1e-9)
    assert refined <= direct
    # infer_lipschitz agrees bit for bit with a per-row scalar reference.
    inferred = [distance(p, Point(r)) + v for r, v in zip(before_rows.tolist(), before_values)]
    assert refined == min([direct] + inferred)
    if len(before_values):
        assert refined == min(direct, infer_lipschitz(before_rows, before_values, p))


# --- Batched queries against the scalar formulas ----------------------------


def _reference_value(spec, p):
    """One point's prediction by the scalar formulas: a fresh keyed blake2b
    over struct-packed coordinates for the seeded noise, with 0.0 added to
    each so that -0.0 and 0.0 get the same draw."""
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
    h.update(struct.pack(f"<{len(p.coords)}d", *(x + 0.0 for x in p.coords)))
    u = int.from_bytes(h.digest(), "little") / 2.0**64
    return (spec.c_lo + (spec.c_hi - spec.c_lo) * u) * dist


def _log_pairs(oracle):
    """The oracle's log as (coordinates, value) pairs."""
    rows, values = oracle.query_arrays()
    return list(zip(map(tuple, rows.tolist()), values.tolist()))


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
    assert repr(_log_pairs(oracle)) == repr(log)
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


def test_a_short_answer_without_a_stop_raises_and_logs_nothing():
    # The next chunk would start past the rows left out and skip them.
    class Short(QueryRecorder):
        def _answer(self, rows, stop):
            return np.full(len(rows) - 1, 5.0)

    recorder = Short(1, 1.0)
    with pytest.raises(RuntimeError, match="2 values for 3 rows"):
        recorder.query_rows(np.zeros((3, 1)), 1.0, 3)
    assert recorder.query_count == 0 and len(recorder.query_arrays()[1]) == 0
    # A short answer that ends at its stop is the protocol.
    assert recorder.query_rows(np.zeros((3, 1)), 5.0, 3).tolist() == [5.0]


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


def _edge_digests():
    """uint64 digests where float rounding is delicate (ties to even, and
    those >= 2^63, where a uint64 has bits below a float's), plus random
    ones of both halves."""
    cases = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1]
    cases += [2**64 - 2**10 - 1, 2**64 - 2**10, 2**64 - 1]
    cases += [(2**52 + k) << s | r for s in (11, 10) for k in (0, 1, 2) for r in (0x3FF, 0x400)]
    rng = np.random.default_rng(1)
    cases += [int(x) for x in rng.integers(0, 2**63, size=500, dtype=np.uint64)]
    cases += [int(x) | 2**63 for x in rng.integers(0, 2**63, size=500, dtype=np.uint64)]
    return cases


@pytest.mark.parametrize("c_lo, c_hi, dist", [(1.0, 2.0, 0.7), (0.25, 8.0, 1.3), (0.3, 1e6, 3e-5)])
def test_noise_stop_test_agrees_with_the_logged_values(c_lo, c_hi, dist):
    # The seeded noise decides where to stop from a Python-float value and
    # logs numpy values; at stop = the numpy value of the first row the walk
    # must stop there, and one ulp below it must go on to the second row.
    # There the first row is deferred iff c_lo*|pt| > stop, and resolves to
    # the same value.
    oracle = make_oracle("seeded_noise", point(0.0, 0.0), c=c_hi, c_lo=c_lo)
    rows = np.array([[dist, 0.0], [0.0, 0.0]])
    for digest in _edge_digests():
        draws = {dist: digest.to_bytes(8, "little"), 0.0: bytes(8)}
        oracle._digests = lambda rows: iter([draws[x] for x in rows[:, 0].tolist()])
        u = np.array([digest], dtype=np.uint64) / 2.0**64
        value = ((c_lo + (c_hi - c_lo) * u) * dist).item()
        assert len(oracle._answer(rows, value)) == 1, digest
        below = math.nextafter(value, -math.inf)
        raw = oracle._answer(rows, below)
        assert math.isnan(raw[0]) == (c_lo * dist > below), digest
        assert oracle._resolve(rows, raw).tolist() == [value, 0.0], digest


class _HashEveryRow(PredictionOracle):
    """The seeded noise hashing every row of each chunk, which the recorder
    then cuts at the first value <= stop."""

    def _answer(self, rows, stop):
        spec = self.spec
        factor = spec.c_lo + (spec.c_hi - spec.c_lo) * self._noise_draws(rows)
        return factor * dists_to(rows, spec.target.coords)


@settings(deadline=None, max_examples=60)
@given(
    d=st.integers(1, 3),
    n=st.integers(0, 2_200),
    at_target=st.lists(st.integers(0, 2_199), max_size=3),
    stop=st.one_of(st.sampled_from([-math.inf, 0.0, -0.5]), st.floats(0.0, 4.0)),
    limit=st.integers(0, 2_300),
    c_lo=st.floats(0.0, 1.0, exclude_min=True),
    c_hi=st.one_of(st.floats(1.0, 16.0), st.floats(1.0, 1e300)),
    seed=st.integers(0, 2**32),
)
def test_exact_stop_logs_what_hashing_every_row_logs(d, n, at_target, stop, limit, c_lo, c_hi, seed):
    target = Point((0.1, -0.2, 0.05)[:d])
    rows = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, d))
    rows[[k for k in at_target if k < n]] = target.coords
    spec = OracleSpec(kind="seeded_noise", target=target, c_hi=c_hi, c_lo=c_lo, seed=seed)
    oracle, reference = PredictionOracle(spec), _HashEveryRow(spec)
    hashed = []
    digests = oracle._digests
    oracle._digests = lambda rows: (hashed.append(1) or h for h in digests(rows))
    got, want = oracle.query_rows(rows, stop, limit), reference.query_rows(rows, stop, limit)
    assert repr(got.tolist()) == repr(want.tolist())
    got_rows, got_values = oracle.query_arrays()
    want_rows, want_values = reference.query_arrays()
    assert np.array_equal(got_rows, want_rows)
    assert repr(got_values.tolist()) == repr(want_values.tolist())
    # Each row queried is hashed once: in the walk if it can stop it, else
    # when query_rows resolves the value it deferred, and the log read after
    # it hashes none again.
    assert oracle.query_count == reference.query_count == len(hashed)


def _no_nan_and_same(got, want):
    """Equal by repr, every float bit included, and no value NaN."""
    assert not np.isnan(np.asarray(got, dtype=np.float64)).any()
    assert repr(np.asarray(got).tolist()) == repr(np.asarray(want).tolist())


@settings(deadline=None, max_examples=60)
@given(
    d=st.integers(1, 3),
    n=st.integers(0, 2_200),
    stop=st.one_of(st.sampled_from([-math.inf, 0.0]), st.floats(0.0, 4.0)),
    limit=st.integers(0, 2_300),
    c_lo=st.floats(0.0, 1.0, exclude_min=True),
    c_hi=st.floats(1.0, 16.0),
    lam=st.floats(0.05, 2.0),
    guess=st.sampled_from([1.0, 2.0, 3.0]),
    seed=st.integers(0, 2**32),
)
def test_deferred_values_read_as_hashing_every_row(d, n, stop, limit, c_lo, c_hi, lam, guess, seed):
    # The seeded noise defers the rows that cannot stop a walk; every read
    # resolves them to what hashing every row gives, and none shows a NaN.
    target = Point((0.1, -0.2, 0.05)[:d])
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.0, 1.0, size=(n, d))
    base = Point(tuple(rng.uniform(-1.0, 1.0, size=d).tolist()))
    spec = OracleSpec(kind="seeded_noise", target=target, c_hi=c_hi, c_lo=c_lo, seed=seed)
    oracle, reference = PredictionOracle(spec), _HashEveryRow(spec)
    _no_nan_and_same(oracle.query_rows(rows, stop, limit), reference.query_rows(rows, stop, limit))
    got, want = one_step(base, lam, guess, oracle), one_step(base, lam, guess, reference)
    assert got.variant == want.variant
    _no_nan_and_same(got.values, want.values)
    assert repr(got.queries) == repr(want.queries)
    _no_nan_and_same(oracle.query_arrays()[1], reference.query_arrays()[1])
    assert repr(list(oracle.memo.items())) == repr(list(reference.memo.items()))
    # A whole search, with the c_lo = 1 that its halving argument needs and
    # factors small enough for quick nets up to d = 3.
    spec = OracleSpec(
        kind="seeded_noise", target=Point(tuple(rows[0])) if n else target,
        c_hi=min(c_hi, {1: 16.0, 2: 8.0, 3: 3.0}[d]), seed=seed,
    )
    config = StrategyConfig(kind="unknown_c", delta_stop=1e-3)
    oracle, hashed = PredictionOracle(spec), []
    digests = oracle._digests
    oracle._digests = lambda rows: (hashed.append(1) or h for h in digests(rows))
    got = run_strategy(oracle, config)
    want = run_strategy(_HashEveryRow(spec), config)
    _no_nan_and_same(got.lambda_values, want.lambda_values)
    assert repr(phase_endpoints(got)) == repr(phase_endpoints(want))
    # The trace reads its values from the log, where each deferred one is
    # computed once, whichever view reads it first.
    oracle.query_arrays(), oracle.memo
    assert len(hashed) <= oracle.query_count


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


# --- Pure oracles against a memoising reference recorder --------------------


class _MemoisingRecorder:
    """A reference recorder with a memo: the first value answered at exact
    coordinates wins, and every query, repeats included, is logged.
    ``answer`` computes a value only where the memo has none."""

    def __init__(self, answer):
        self.answer, self.memo, self.log = answer, {}, []

    def query(self, p):
        value = self.memo.get(p.coords)
        if value is None:
            value = self.memo[p.coords] = self.answer(p)
        self.log.append((p.coords, value))
        return value

    def query_rows(self, rows, stop, limit):
        values = []
        for row in rows[:limit]:
            values.append(self.query(Point(row.tolist())))
            if values[-1] <= stop:
                break
        return values


def _scalar_adversary_answer(instance):
    """The adversary's answer by scalar ``distance`` and
    ``piecewise_prediction``, eliminating from its own live list."""
    live = list(range(len(instance.targets)))

    def answer(p):
        hits = [i for i in live if distance(p, instance.targets[i]) <= instance.ball_radius]
        for i in hits:
            if len(live) > 1:
                live.remove(i)
        if len(live) == 1:
            return piecewise_prediction(instance.targets[live[0]], instance.c, p)
        dist_o = distance(p, origin(p.dimension))
        return 1.0 if dist_o <= 0.5 else 2.0 * dist_o

    return answer


@st.composite
def _query_scripts(draw):
    """An oracle kind, a fresh oracle and a script of ``query_rows`` and
    single-query steps over a few distinct points, with repeats and
    sign-of-zero twins; "near" points fall in or next to a candidate's
    ball (the adversary's) or the target's."""
    kind = draw(st.sampled_from(ORACLE_KINDS + ("adversary",)))
    d = draw(st.integers(1, 2))
    if kind == "adversary":
        oracle = build_adversarial_instance(draw(st.sampled_from([6.0, 8.0])), d)
        anchors, c = oracle.targets, oracle.c
    else:
        target = Point((0.1, -0.2)[:d])
        spec = OracleSpec(
            kind=kind, target=target, c_hi=8.0, c_lo=0.25,
            seed=draw(st.integers(-(2**63), 2**63 - 1)),
            alpha=3.0 if kind == "affine" else None,
        )
        oracle, anchors, c = PredictionOracle(spec), (target,), 8.0
    coord = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-0.7, 0.7))
    distinct = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            centre = np.array(draw(st.sampled_from(anchors)).coords)
            offset = draw(st.lists(st.floats(-1.2, 1.2), min_size=d, max_size=d))
            distinct.append(centre + np.array(offset) / c)
        else:
            distinct.append(np.array(draw(st.lists(coord, min_size=d, max_size=d))))
    distinct += [np.where(row == 0.0, -row, row) for row in distinct]  # twins
    script = []
    for _ in range(draw(st.integers(1, 4))):
        picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=70))
        rows = np.array([distinct[k] for k in picks]).reshape(len(picks), d)
        if draw(st.booleans()):
            script.append(("rows", rows, draw(st.floats(0.0, 3.0)), draw(st.integers(0, 80))))
        else:
            script.append(("single", rows[:5], None, None))
    return kind, oracle, script


@settings(deadline=None, max_examples=200)
@given(_query_scripts())
def test_pure_oracles_log_what_a_memoising_recorder_logs(case):
    kind, oracle, script = case
    if kind == "adversary":
        answer = _scalar_adversary_answer(oracle)
    else:
        answer = lambda p: _reference_value(oracle.spec, p)
    reference = _MemoisingRecorder(answer)
    for how, rows, stop, limit in script:
        if how == "rows":
            got = oracle.query_rows(rows, stop, limit).tolist()
            want = reference.query_rows(rows, stop, limit)
        else:
            got = [oracle.query(Point(row.tolist())) for row in rows]
            want = [reference.query(Point(row.tolist())) for row in rows]
        assert repr(got) == repr(want)
    assert repr(_log_pairs(oracle)) == repr(reference.log)
    assert oracle.query_count == len(reference.log)
    memo = oracle.memo
    assert repr(list(memo.items())) == repr(list(reference.memo.items()))
    assert all(repr(memo[key]) == repr(v) for key, v in _log_pairs(oracle))


@pytest.mark.parametrize("kind", ORACLE_KINDS + ("adversary",))
def test_fresh_oracles_answer_signed_zero_twins_alike(kind):
    # Fresh oracles share no memo, so the twins agree only if the seeded
    # noise reads -0.0 as 0.0; hashing the raw bytes gave 0.953... at
    # (-0.0, 0.5) and 0.465... at (0.0, 0.5).
    def fresh():
        if kind == "adversary":
            return build_adversarial_instance(8.0, 2)
        c = 8.0 if kind == "piecewise_lower_bound" else 2.0
        return make_oracle(kind, point(0.1, -0.2), c=c, c_lo=0.5 if c == 2.0 else 1.0, seed=3)

    for y in (0.5, 0.1, -1.25):
        twins = [point(-0.0, y), point(0.0, y)]
        singles = [fresh().query(p) for p in twins]
        batched = [fresh().query_rows(np.array([p.coords]), -1.0, 1).item() for p in twins]
        assert singles[0] == singles[1] == batched[0] == batched[1], (kind, y)


def _ks_uniform(u):
    """Kolmogorov-Smirnov distance of the sample u from uniform on [0, 1)."""
    u = np.sort(u)
    n = len(u)
    return max((np.arange(1, n + 1) / n - u).max(), (u - np.arange(n) / n).max())


@pytest.mark.parametrize("rows", ["lattice", "normal"])
def test_seeded_noise_draws_are_uniform(rows):
    # 10^5 rows: lattice rows like those of a step net, or scattered ones.
    n = 100_000
    if rows == "lattice":
        k = np.arange(n)
        pts = np.stack([k // 400, k % 400], axis=1) * 0.0125 - 2.0
    else:
        pts = np.random.default_rng(5).normal(size=(n, 2))
    oracle = make_oracle("seeded_noise", point(0.1, -0.2), c=2.0, seed=11)
    u = oracle._noise_draws(np.ascontiguousarray(pts))
    assert len(u) == n and (0.0 <= u).all() and (u < 1.0).all()
    # The mean of n uniform draws has standard deviation 1/sqrt(12 n).
    assert abs(u.mean() - 0.5) < 5.0 / math.sqrt(12.0 * n)
    # 1.63/sqrt(n) is the KS test's 1% critical value.
    assert _ks_uniform(u) < 1.63 / math.sqrt(n)
