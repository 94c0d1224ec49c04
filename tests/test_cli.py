import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import predsearch
from predsearch import point, render_svg, run_strategy
from predsearch.cli import _random_direction, main
from predsearch.oracles import OracleSpec, PredictionOracle
from predsearch.strategies import StrategyConfig


RUN_CONFIG = {
    "d": 2,
    "seed": 7,
    "target": [0.6, 0.8],
    "oracle": {"kind": "affine", "c_hi": 2.0, "alpha": 2.0},
    "strategy": {"kind": "known_c", "c_guess": 2.0, "delta_stop": 1e-3},
}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_writes_outputs_and_respects_bound(tmp_path):
    cfg = write_config(tmp_path, RUN_CONFIG)
    out = tmp_path / "trace.csv"
    rep = tmp_path / "report.json"
    svg = tmp_path / "trace.svg"
    code = main(["run", "--config", cfg, "--out", str(out), "--report", str(rep), "--svg", str(svg)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,j,i,x0,x1,lambda,cum_length"
    assert len(lines) > 2
    report = json.loads(rep.read_text())
    assert report["reached"] is True
    assert report["ratio"] <= 576.0
    assert report["violations"] == []
    assert svg.read_text().startswith("<svg")


def test_run_deterministic_replay(tmp_path):
    cfg = write_config(tmp_path, dict(RUN_CONFIG, target="random", target_radius=1.5))
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"trace_{tag}.csv"
        rep = tmp_path / f"report_{tag}.json"
        svg = tmp_path / f"trace_{tag}.svg"
        assert (
            main(["run", "--config", cfg, "--out", str(out), "--report", str(rep), "--svg", str(svg)])
            == 0
        )
        blobs.append((out.read_bytes(), rep.read_bytes(), svg.read_bytes()))
    assert blobs[0] == blobs[1]


def test_run_exact_strategy(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "d": 3,
            "target": [0.3, -0.4, 1.2],
            "oracle": {"kind": "exact"},
            "strategy": {"kind": "exact_c1", "epsilon_ratio": 0.05},
        },
    )
    rep = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["reached"] is True
    assert report["total_length"] <= 1.05 * report["dist_ot"] + 1e-9


def test_run_target_at_origin(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "d": 2,
            "target": [0.0, 0.0],
            "oracle": {"kind": "exact"},
            "strategy": {"kind": "known_c", "c_guess": 1.0},
        },
    )
    rep = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["total_length"] == 0.0


def test_trace_csv_cum_length_matches_total():
    from predsearch.cli import trace_to_csv

    oracle = PredictionOracle(
        OracleSpec(kind="seeded_noise", target=point(0.8, -0.3), c_hi=4.0, seed=2)
    )
    config = StrategyConfig(kind="unknown_c", delta_stop=1e-3)
    trace = run_strategy(oracle, config)
    last = trace_to_csv(trace).strip().splitlines()[-1]
    assert last.split(",")[-1] == format(trace.total_length, ".12g")


def test_run_rejects_exact_strategy_with_noisy_oracle(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "d": 2,
            "target": [0.6, 0.8],
            "oracle": {"kind": "affine", "c_hi": 2.0, "alpha": 2.0},
            "strategy": {"kind": "exact_c1"},
        },
    )
    assert main(["run", "--config", cfg]) == 2


def test_run_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2
    cfg = write_config(tmp_path, {"d": 2, "target": [1.0]})
    assert main(["run", "--config", cfg]) == 2
    cfg = write_config(tmp_path, dict(RUN_CONFIG, oracle={"kind": "bogus"}))
    assert main(["run", "--config", cfg]) == 2
    # An infinite delta_stop once "reached" a target at distance 1 with
    # length 0, and a truthy "no" turned snapping on and missed the target;
    # the other values crashed with a traceback.
    for section, key, bad in [
        ("strategy", "delta_stop", math.inf),
        ("strategy", "c_guess", math.inf),
        ("strategy", "c_guess", "2"),
        ("strategy", "max_queries", math.inf),
        ("strategy", "max_queries", 20.0),
        ("strategy", "max_queries", True),
        ("oracle", "c_hi", math.inf),
        ("strategy", "snap_integral", "no"),
        ("strategy", "snap_integral", 1),
        ("oracle", "seed", 1.5),
        ("oracle", "seed", 2**64),
        ("oracle", "seed", -(2**63) - 1),
        (None, "target_radius", math.inf),
        (None, "d", math.inf),
        (None, "seed", math.inf),
        # These ran as d=2, seed 7 and seed 1.
        (None, "d", 2.5),
        (None, "d", "2"),
        (None, "seed", 7.9),
        (None, "seed", True),
    ]:
        doc = json.loads(json.dumps(RUN_CONFIG))
        (doc if section is None else doc[section])[key] = bad
        if key == "target_radius":
            doc["target"] = "random"
        capsys.readouterr()
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 2, (key, bad)
        assert capsys.readouterr().err.startswith("error: ")


def test_run_guess_too_small_exits_1(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "d": 2,
            "target": [0.29, -0.21],
            "oracle": {"kind": "piecewise_lower_bound", "c_hi": 8.0},
            "strategy": {"kind": "known_c", "c_guess": 1.0},
        },
    )
    assert main(["run", "--config", cfg]) == 1


def test_sweep_deterministic_and_green(tmp_path):
    args = ["sweep", "--d", "1", "--c", "2", "--trials", "2", "--seed", "5"]
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("row_type,d,c,trial,strategy")
    trial_rows = [l for l in lines if l.startswith("trial")]
    summary_rows = [l for l in lines if l.startswith("summary")]
    assert len(trial_rows) == 4  # 2 trials x 2 strategies
    assert len(summary_rows) == 4  # mean/max x 2 strategies


def test_sweep_rejects_bad_c(tmp_path):
    assert (
        main(["sweep", "--d", "1", "--c", "0.5", "--trials", "1", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        == 2
    )


def test_lowerbound_small_instance(tmp_path):
    rep = tmp_path / "lb.json"
    code = main(["lowerbound", "--c", "8", "--d", "1", "--strategy", "unknown_c", "--report", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["reached"] is True
    assert report["replay_ok"] is True
    assert report["balls_visited"] == report["n_targets"]
    assert report["total_length"] >= report["path_floor"]


def test_lowerbound_rejects_small_c():
    assert main(["lowerbound", "--c", "4", "--d", "1"]) == 2


def test_net_command(tmp_path, capsys):
    dump = tmp_path / "net.csv"
    code = main(["net", "--d", "2", "--eps", "0.5", "--check", "--dump", str(dump)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "|N| = " in printed
    assert "covering: ok" in printed
    assert "separation: ok" in printed
    lines = dump.read_text().splitlines()
    assert lines[0] == "x0,x1"
    assert len(lines) > 4


def test_net_rejects_eps_above_r():
    assert main(["net", "--d", "2", "--eps", "2.0", "--r", "1.0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["net", "--d", "2", "--eps", "0"],
        ["net", "--d", "2", "--eps", "-1"],
        ["net", "--d", "0", "--eps", "0.5"],
        ["net", "--d", "2", "--r", "-1", "--eps", "0.5"],
        ["net", "--d", "2", "--eps", "0.5", "--check", "--samples", "0"],
        ["lowerbound", "--c", "8", "--d", "0"],
        ["lowerbound", "--c", "8", "--d", "2", "--delta", "0"],
        ["sweep", "--d", "1", "--c", "2", "--trials", "1", "--seed", "0", "--delta", "0"],
        ["sweep", "--d", "1", "--c", "nan", "--trials", "1", "--seed", "0"],
        ["sweep", "--d", "1", "--c", "inf", "--trials", "1", "--seed", "0"],
        ["sweep", "--d", "1", "--c", "2", "--trials", "1", "--seed", "0", "--delta", "inf"],
        ["lowerbound", "--c", "inf", "--d", "2"],
        ["lowerbound", "--c", "8", "--d", "2", "--delta", "inf"],
        ["net", "--d", "2", "--r", "inf", "--eps", "0.5"],
        ["net", "--d", "2", "--eps", "0.3", "--check", "--seed", "-1"],
    ],
)
def test_invalid_numbers_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    if argv[0] == "sweep":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _range_config(target, delta_stop=1e-3):
    return {
        "d": 2,
        "seed": 1,
        "target": target,
        "oracle": {"kind": "seeded_noise", "c_hi": 2.0},
        "strategy": {"kind": "known_c", "c_guess": 2.0, "delta_stop": delta_stop},
    }


@pytest.mark.parametrize(
    "case",
    [
        # Squares of 1e155 overflow: the closed-ball refilter kept 3 of 101 points.
        ["net", "--d", "2", "--r", "1e155", "--eps", "2.5e154"],
        # Squares of 1e-200 underflow: the separation check failed with max_gap=0.
        ["net", "--d", "2", "--r", "1e-200", "--eps", "2.5e-201", "--check"],
        # The first step's net rows overflowed to inf: a ValueError traceback.
        _range_config([1e200, 0.0]),
        # |ot| squared to 0: a false audit, reached after 1 query at ratio "degenerate".
        _range_config([1e-170, 0.0], delta_stop=1e-173),
    ],
)
def test_lengths_out_of_range_exit_2_before_any_work(case, tmp_path, capsys):
    outputs = [tmp_path / name for name in ("out.csv", "report.json")]
    if isinstance(case, dict):
        argv = ["run", "--config", write_config(tmp_path, case), "--out", str(outputs[0])]
        argv += ["--report", str(outputs[1])]
    else:
        argv = case + ["--dump", str(outputs[0])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2^-500" in err and "2^500" in err
    assert not any(path.exists() for path in outputs)


def test_lengths_at_the_ends_of_the_range_pass_their_audits(tmp_path, capsys):
    lo, hi = 2.0**-500, 2.0**500
    for r, eps in ((hi, hi / 4.0), (4.0 * lo, lo)):
        argv = ["net", "--d", "2", "--r", repr(r), "--eps", repr(eps), "--check"]
        assert main(argv) == 0, argv
    for doc in (_range_config([lo, 0.0], lo * 1e-3), _range_config([hi / 2.0, 0.0], hi * 1e-3)):
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 0, doc
        assert "reached=True" in capsys.readouterr().out


def test_svg_with_d_other_than_2_exits_2_before_any_work(tmp_path, capsys):
    # These once wrote the CSV and report (or ran the whole adversarial
    # search) and then died with a ValueError traceback from render_svg.
    doc = {
        "d": 3,
        "seed": 1,
        "target": [0.3, 0.2, -0.1],
        "oracle": {"kind": "seeded_noise", "c_hi": 2.0},
        "strategy": {"kind": "known_c", "c_guess": 2.0},
    }
    outputs = [tmp_path / name for name in ("trace.csv", "report.json", "trace.svg")]
    run = ["run", "--config", write_config(tmp_path, doc), "--out", str(outputs[0])]
    run += ["--report", str(outputs[1]), "--svg", str(outputs[2])]
    for argv in (run, ["lowerbound", "--c", "24", "--d", "3", "--svg", str(outputs[2])]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(path.exists() for path in outputs)


def test_contraction_with_c_lo_below_1_exits_2_at_once(tmp_path, capsys):
    # The halving argument needs lambda(p) >= |pt|; this config once ran for
    # seconds and failed on the lattice cap of a net.
    doc = {
        "d": 2,
        "seed": 3,
        "target": "random",
        "target_radius": 1.5,
        "oracle": {"kind": "seeded_noise", "c_hi": 4.0, "c_lo": 0.5},
        "strategy": {"kind": "unknown_c"},
    }
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lambda(p) >= |pt|" in err
    assert not out.exists()


def test_sweep_d0_exits_2_promptly(tmp_path):
    # A zero-dimensional sweep cell once resampled a size-0 direction forever;
    # a child process turns such a hang into a timeout.
    env = dict(os.environ, PYTHONPATH=str(Path(predsearch.__file__).parents[1]))
    argv = ["sweep", "--d", "1", "0", "--c", "2", "--trials", "1", "--seed", "0"]
    argv += ["--out", str(tmp_path / "out.csv")]
    proc = subprocess.run(
        [sys.executable, "-m", "predsearch.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


def test_cli_runs_with_scipy_blocked(tmp_path):
    # The runtime needs numpy only: a child process with SciPy made
    # unimportable runs the net certificate, a sweep and the adversary.
    env = dict(os.environ, PYTHONPATH=str(Path(predsearch.__file__).parents[1]))
    commands = [
        ["net", "--d", "3", "--eps", "0.25", "--check"],
        ["sweep", "--d", "1", "2", "--c", "2", "--trials", "2", "--seed", "0", "--out", "s.csv"],
        ["lowerbound", "--c", "12", "--d", "2", "--strategy", "known_c", "--svg", "a.svg"],
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from predsearch.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "assert not any(name.startswith('scipy') for name in sys.modules if sys.modules[name]), 'scipy'\n"
        "sys.exit(max(codes))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "covering: ok" in proc.stdout
    assert (tmp_path / "s.csv").exists() and (tmp_path / "a.svg").exists()


def test_random_direction_draws_again_after_a_zero_draw():
    class Stub:
        def __init__(self, draws):
            self.draws = list(draws)

        def normal(self, size):
            return np.array(self.draws.pop(0))

    rng = Stub([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, 3.0, -4.0]])
    assert _random_direction(rng, 3).tolist() == [0.0, 0.6, -0.8]
    assert rng.draws == []
    draw = np.random.default_rng(5).normal(size=4)
    direction = _random_direction(np.random.default_rng(5), 4)
    assert direction.tolist() == (draw / math.sqrt(float(draw @ draw))).tolist()


def test_svg_requires_d2():
    oracle = PredictionOracle(OracleSpec(kind="exact", target=point(0.5, 0.5, 0.5)))
    trace = run_strategy(oracle, StrategyConfig(kind="known_c", c_guess=1.0))
    with pytest.raises(ValueError):
        render_svg(trace)


def test_svg_deterministic():
    oracle = PredictionOracle(OracleSpec(kind="exact", target=point(0.5, 0.5)))
    trace = run_strategy(oracle, StrategyConfig(kind="known_c", c_guess=1.0))
    target = point(0.5, 0.5)
    assert render_svg(trace, target=target) == render_svg(trace, target=target)
    assert render_svg(trace, target=target).count("<polyline") == 1
