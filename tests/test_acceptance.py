"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
live). The sweep and adversarial fixtures are shared across criteria so the
whole suite stays well inside its runtime budgets.
"""

import json
import math
import time

import numpy as np
import pytest

from predsearch import (
    Ball,
    OracleSpec,
    Point,
    PredictionOracle,
    QueryHistory,
    StrategyConfig,
    adversarial_path_floor,
    audit_trace,
    bound_lower,
    build_adversarial_instance,
    build_net,
    check_covering,
    check_prediction_bounds,
    check_separation,
    distance,
    infer_lipschitz,
    net_size_lower_bound,
    net_size_upper_bound,
    origin,
    phase_endpoints,
    replay_consistent,
    run_strategy,
    sample_in_ball,
    step_length_bound,
    tsp_ball_lower_bound,
    validate_oracle,
)
from predsearch.cli import derive_seed, main
from predsearch.nets import CandidateCapExceeded


def announce(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared fixtures


SWEEP_DS = (1, 2)
SWEEP_CS = (2.0, 4.0)
SWEEP_TRIALS = 25
SWEEP_DELTA = 1e-3
SWEEP_SEED = 20240811


def _sweep_target(d, c, trial):
    rng = np.random.default_rng(derive_seed(SWEEP_SEED, "target", d, c, trial))
    direction = rng.normal(size=d)
    direction /= math.sqrt(float(direction @ direction))
    return Point(tuple(direction * rng.uniform(0.5, 2.0)))


@pytest.fixture(scope="module")
def sweep_results():
    """All sweep runs: {(d, c, trial, kind): (report, trace, lam0)}."""
    results = {}
    for d in SWEEP_DS:
        for c in SWEEP_CS:
            for trial in range(SWEEP_TRIALS):
                target = _sweep_target(d, c, trial)
                oracle_seed = derive_seed(SWEEP_SEED, "oracle", d, c, trial)
                for kind in ("known_c", "unknown_c"):
                    spec = OracleSpec(
                        kind="seeded_noise", target=target, c_hi=c, seed=oracle_seed
                    )
                    oracle = PredictionOracle(spec)
                    config = StrategyConfig(
                        kind=kind,
                        c_guess=c if kind == "known_c" else 1.0,
                        delta_stop=SWEEP_DELTA,
                    )
                    trace = run_strategy(oracle, config)
                    report = audit_trace(trace, target, config, oracle)
                    results[(d, c, trial, kind)] = (report, trace, trace.lambda_values[0])
    return results


@pytest.fixture(scope="module")
def lowerbound_results():
    """Adversarial runs for (c, d) in {(16, 2), (32, 2)}."""
    results = {}
    for c in (16.0, 32.0):
        instance = build_adversarial_instance(c, 2)
        config = StrategyConfig(kind="unknown_c", delta_stop=1e-3)
        trace = run_strategy(instance, config)
        committed = instance.committed
        report = audit_trace(trace, committed, config, instance, instance=instance)
        results[(c, 2)] = (instance, trace, report)
    return results


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_net_bounds():
    t0 = time.time()
    cells = checked = 0
    for d in (1, 2, 3):
        for eps in (0.1, 0.25, 0.5, 1.0):
            cells += 1
            try:
                net = build_net(Ball(origin(d), 1.0), eps)
            except CandidateCapExceeded:
                continue  # infeasible cell at desk scale, allowed to skip
            lower = net_size_lower_bound(1.0, eps, d)
            upper = net_size_upper_bound(1.0, eps, d)
            assert lower <= len(net) <= upper, (d, eps, len(net), lower, upper)
            assert check_covering(net, 10_000, seed=d * 100 + int(eps * 100)).ok, (d, eps)
            assert check_separation(net), (d, eps)
            checked += 1
    elapsed = time.time() - t0
    announce(
        "criterion 1 (net bounds)",
        checked >= 10 and elapsed < 60.0,
        f"{checked}/{cells} cells certified in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_oracle_validity():
    t0 = time.time()
    combos = 0
    for d in (1, 2, 3):
        for c in (1.0, 2.0, 4.0, 8.0):
            for kind in ("exact", "affine", "midpoint_open", "seeded_noise", "piecewise_lower_bound"):
                if kind == "piecewise_lower_bound" and c <= 2.0:
                    continue  # the family requires c > 2
                rng = np.random.default_rng(derive_seed(1, "t2", d, c, kind))
                if kind == "piecewise_lower_bound":
                    direction = rng.normal(size=d)
                    direction /= math.sqrt(float(direction @ direction))
                    target = Point(tuple(direction * (0.5 - 1.0 / c) * 0.9))
                else:
                    target = Point(tuple(rng.normal(size=d)))
                spec = OracleSpec(
                    kind=kind,
                    target=target,
                    c_hi=c,
                    seed=7,
                    alpha=c if kind == "affine" else None,
                )
                oracle = PredictionOracle(spec)
                assert validate_oracle(oracle, probes=10_000, radius=3.0, seed=d), (kind, d, c)
                # determinism replay, bit exact
                probes = sample_in_ball(
                    np.random.default_rng(d), Ball(target, 2.0), 200
                )
                for row in probes:
                    p = Point(tuple(row))
                    assert oracle.query(p) == oracle.query(p)
                combos += 1
    elapsed = time.time() - t0
    announce(
        "criterion 2 (oracle validity)",
        combos == 54,
        f"{combos} (kind, d, c) combinations valid and replay-stable in {elapsed:.1f}s",
    )


def test_criterion_3_known_c_bound(sweep_results):
    t0 = time.time()
    worst = 0.0
    runs = steps = 0
    for (d, c, trial, kind), (report, trace, _) in sweep_results.items():
        if kind != "known_c":
            continue
        runs += 1
        bound = 2.0 * 6.0**d * c ** (d + 1)
        assert report.reached, (d, c, trial)
        assert report.ratio <= bound, (d, c, trial, report.ratio, bound)
        worst = max(worst, report.ratio / bound)
        for s in trace.steps:
            steps += 1
            assert s.segment_length <= step_length_bound(s.guess, d, s.lambda_start), (
                d,
                c,
                trial,
                s,
            )
    elapsed = time.time() - t0
    announce(
        "criterion 3 (known-c upper bound)",
        runs == 100 and elapsed < 300.0,
        f"{runs} runs, {steps} steps within hard caps, worst ratio/bound = {worst:.3g}, "
        f"{elapsed:.1f}s (< 5 min)",
    )


def test_criterion_4_unknown_c_bound(sweep_results):
    t0 = time.time()
    worst = 0.0
    runs = 0
    for (d, c, trial, kind), (report, trace, lam0) in sweep_results.items():
        if kind != "unknown_c":
            continue
        runs += 1
        bound = 12.0 ** (d + 1) * c ** (d + 1)
        assert report.reached, (d, c, trial)
        assert report.ratio <= bound, (d, c, trial, report.ratio, bound)
        assert trace.doublings <= math.ceil(math.log2(c)), (d, c, trial, trace.doublings)
        for _, i, _, lam in phase_endpoints(trace):
            assert lam <= lam0 / 2.0**i, (d, c, trial, i, lam, lam0)
        worst = max(worst, report.ratio / bound)
    elapsed = time.time() - t0
    announce(
        "criterion 4 (unknown-c upper bound)",
        runs == 100 and elapsed < 600.0,
        f"{runs} runs within bound, doubling caps and halving hold, "
        f"worst ratio/bound = {worst:.3g}, {elapsed:.1f}s (< 10 min)",
    )


def test_criterion_5_exact_trilateration():
    t0 = time.time()
    runs = 0
    for d in (1, 2, 3):
        for eps_ratio in (0.01, 0.1):
            rng = np.random.default_rng(derive_seed(2, "t5", d, eps_ratio))
            for _ in range(50):
                direction = rng.normal(size=d)
                direction /= math.sqrt(float(direction @ direction))
                target = Point(tuple(direction * rng.uniform(0.5, 2.0)))
                oracle = PredictionOracle(OracleSpec(kind="exact", target=target))
                config = StrategyConfig(kind="exact_c1", epsilon_ratio=eps_ratio)
                trace = run_strategy(oracle, config)
                dist_ot = distance(origin(d), target)
                assert trace.reached, (d, eps_ratio, target)
                assert trace.total_length <= (1.0 + eps_ratio) * dist_ot + 1e-9
                assert distance(trace.final_point, target) <= 1e-9 * trace.lambda_values[0]
                runs += 1
    elapsed = time.time() - t0
    announce(
        "criterion 5 (exact-distance trilateration)",
        runs == 300 and elapsed < 10.0,
        f"{runs} runs within (1+eps)*|ot| and 1e-9 recovery, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_6_lower_bound_experiment(lowerbound_results):
    t0 = time.time()
    details = []
    for (c, d), (instance, trace, report) in lowerbound_results.items():
        n = len(instance.targets)
        assert trace.reached, (c, d)
        assert n >= (c / 8.0) ** d, (c, d, n)
        assert report.balls_visited == n, (c, d, report.balls_visited, n)
        floor = adversarial_path_floor(c, d)
        assert report.total_length >= floor, (c, d, report.total_length, floor)
        ratio_floor = bound_lower(c, d)
        assert report.ratio >= ratio_floor, (c, d, report.ratio, ratio_floor)
        assert replay_consistent(instance), (c, d)
        details.append(f"c={c:g}: |N|={n}, len={report.total_length:.3g}>={floor:.3g}")
    elapsed = time.time() - t0
    announce(
        "criterion 6 (adversarial lower bound)",
        len(details) == 2 and elapsed < 300.0,
        "; ".join(details) + f", replay bit-exact, {elapsed:.1f}s (< 5 min)",
    )


def test_criterion_7_lipschitz_inference():
    t0 = time.time()
    pair_checks = 0
    for h in range(100):
        rng = np.random.default_rng(derive_seed(3, "t7", h))
        target = Point(tuple(rng.normal(size=2)))
        oracle = PredictionOracle(
            OracleSpec(kind="seeded_noise", target=target, c_hi=8.0, seed=h)
        )
        history = QueryHistory()
        for row in rng.normal(size=(50, 2)) * 2.0:
            p = Point(tuple(row))
            history.add(p, oracle.query(p))
        for _ in range(10):
            p = Point(tuple(rng.normal(size=2) * 2.0))
            q = Point(tuple(rng.normal(size=2) * 2.0))
            gap = abs(infer_lipschitz(history, p) - infer_lipschitz(history, q))
            assert gap <= distance(p, q) + 1e-12, (h, p, q)
            pair_checks += 1
        refined = lambda rows: [
            min(oracle.query(pt), infer_lipschitz(history, pt)) for pt in map(Point, rows.tolist())
        ]
        assert check_prediction_bounds(
            refined, target, 1.0, 8.0, probes=100, radius=3.0, seed=h
        ), h
    elapsed = time.time() - t0
    announce(
        "criterion 7 (triangle-inequality inference)",
        pair_checks == 1000 and elapsed < 30.0,
        f"100 histories, {pair_checks} pairs 1-Lipschitz, refined predictions valid, "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_8_tsp_floor(lowerbound_results):
    for d in (1, 2, 3):
        assert tsp_ball_lower_bound(2**d, 1.0, d) == pytest.approx(0.0, abs=1e-12)
    assert tsp_ball_lower_bound(8, 1.0, 2) == pytest.approx(math.sqrt(math.pi / 2), abs=1e-12)
    details = []
    for (c, d), (instance, trace, report) in lowerbound_results.items():
        floor = tsp_ball_lower_bound(len(instance.targets), 1.0 / c, d)
        assert report.total_length >= floor, (c, d, report.total_length, floor)
        details.append(f"c={c:g}: len={report.total_length:.3g}>=tsp {floor:.3g}")
    announce("criterion 8 (tsp floor)", len(details) == 2, "; ".join(details))


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.time()
    config = {
        "d": 2,
        "seed": 99,
        "target": "random",
        "target_radius": 1.5,
        "oracle": {"kind": "seeded_noise", "c_hi": 4.0, "seed": 12},
        "strategy": {"kind": "unknown_c", "delta_stop": 1e-3},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    run_blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"t{tag}.csv"
        rep = tmp_path / f"r{tag}.json"
        svg = tmp_path / f"v{tag}.svg"
        code = main(
            ["run", "--config", str(cfg), "--out", str(out), "--report", str(rep), "--svg", str(svg)]
        )
        assert code == 0
        run_blobs.append((out.read_bytes(), rep.read_bytes(), svg.read_bytes()))
    assert run_blobs[0] == run_blobs[1]
    sweep_blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"s{tag}.csv"
        code = main(
            ["sweep", "--d", "1", "2", "--c", "2", "--trials", "3", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        sweep_blobs.append(out.read_bytes())
    assert sweep_blobs[0] == sweep_blobs[1]
    announce(
        "criterion 9 (determinism)",
        True,
        f"run and sweep outputs byte-identical across reruns, {time.time() - t0:.1f}s",
    )
