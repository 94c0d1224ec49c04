import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predsearch
from predsearch import point, render_svg, run_strategy
from predsearch.cli import _random_direction, derive_seed, main, parse_run_config
from predsearch.nets import dists_to
from predsearch.oracles import OracleSpec, PredictionOracle, QueryRecorder
from predsearch.strategies import GuessTooSmallError, StrategyConfig


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
        # An int past the float range crashed the walk (c_guess) or "reached"
        # the target with length 0 (delta_stop).
        ("strategy", "c_guess", 10**400),
        ("strategy", "delta_stop", 10**400),
        ("strategy", "epsilon_ratio", 10**400),
        ("strategy", "max_queries", 20.0),
        ("strategy", "max_queries", True),
        ("oracle", "c_hi", math.inf),
        ("oracle", "c_hi", 10**400),
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
        # A key that is no field of the section, and the oracle's target,
        # which only the config's top level gives.
        ("oracle", "bogus", 1),
        ("strategy", "bogus", 1),
        ("oracle", "target", [0.6, 0.8]),
        # A section without its kind.
        ("oracle", "kind", None),
        ("strategy", "kind", None),
    ]:
        doc = json.loads(json.dumps(RUN_CONFIG))
        (doc if section is None else doc[section])[key] = bad
        if key == "target_radius":
            doc["target"] = "random"
        if key == "kind":
            del doc[section]["kind"]
        capsys.readouterr()
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 2, (key, bad)
        assert capsys.readouterr().err.startswith("error: ")


# Each ran to exit 0, read as the number it spells or as 1.
@pytest.mark.parametrize(
    "change",
    [
        {"oracle": {"kind": "affine", "c_hi": "2", "alpha": 2.0}},
        {"oracle": {"kind": "affine", "c_hi": 2.0, "alpha": "2"}},
        {"target": ["0.6", True]},
        {"target": "random", "target_radius": "1.5"},
        {"oracle": {"kind": "exact", "c_hi": True}},
        {"oracle": {"kind": "exact"}, "strategy": {"kind": "known_c", "c_guess": True}},
        {"oracle": {"kind": "seeded_noise", "c_hi": 2.0, "seed": True}},
    ],
    ids=["c_hi-str", "alpha-str", "target-str-bool", "target_radius-str", "c_hi-bool",
         "c_guess-bool", "oracle_seed-bool"],
)
def test_a_string_or_bool_where_a_number_belongs_exits_2(tmp_path, capsys, change):
    assert main(["run", "--config", write_config(tmp_path, dict(RUN_CONFIG, **change))]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_numbers_take_ints_and_numpy_numbers():
    doc = dict(RUN_CONFIG, target=[0, 1], oracle={"kind": "affine", "c_hi": 2, "alpha": 2})
    cfg = parse_run_config(dict(doc, strategy={"kind": "known_c", "c_guess": 2, "max_queries": 9}))
    assert (cfg.target.coords, cfg.oracle_spec.c_hi, cfg.oracle_spec.alpha) == ((0.0, 1.0), 2.0, 2.0)
    assert (cfg.strategy.c_guess, cfg.strategy.max_queries) == (2.0, 9)
    spec = OracleSpec(
        kind="affine", target=point(0.1), c_hi=np.float32(2.0), alpha=np.int64(2), seed=np.uint8(3)
    )
    assert [type(x) for x in (spec.c_hi, spec.alpha, spec.seed)] == [float, float, int]
    config = StrategyConfig(kind="known_c", c_guess=np.float64(3.0), max_queries=np.int64(5))
    assert [type(x) for x in (config.c_guess, config.max_queries)] == [float, int]


def test_a_config_section_takes_its_class_defaults_and_the_derived_oracle_seed():
    doc = {
        "d": 2,
        "seed": 7,
        "target": [0.6, 0.8],
        "oracle": {"kind": "exact"},
        "strategy": {"kind": "known_c"},
    }
    cfg = parse_run_config(doc)
    target = point(0.6, 0.8)
    assert cfg.oracle_spec == OracleSpec(kind="exact", target=target, seed=derive_seed(7, "oracle"))
    assert cfg.strategy == StrategyConfig(kind="known_c")


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


def test_sweep_mean_is_summed_left_to_right(tmp_path):
    # Python 3.12's built-in sum compensates, and wrote 6.98744078459 here.
    out = tmp_path / "s.csv"
    argv = ["sweep", "--d", "1", "--c", "8", "--trials", "40", "--seed", "23"]
    assert main(argv + ["--out", str(out)]) == 0
    means = {
        r["strategy"]: r["ratio"]
        for r in csv.DictReader(out.open()) if r["row_type"] == "summary_mean"
    }
    assert means["known_c"] == "6.9874407846"


def test_sweep_hashes_exactly_the_rows_that_can_stop(tmp_path, monkeypatch):
    # The benchmark sweep at seed 0 logs 300,900 queries. Hashing each once
    # cost 300,900 hashes (whole chunks, 420,434); a row with
    # c_lo*|pt| > stop cannot stop its step, and the sweep never reads its
    # value, so only the 22,201 rows that can stop a step are hashed, and
    # the 480 searches' first queries, one-row chunks evaluated at once.
    # The counters live in this process, so the sweep runs in it alone.
    monkeypatch.setattr(predsearch.cli.os, "sched_getaffinity", lambda pid: {0})
    hashed, candidates, singles = [], [], []
    digests, answer = PredictionOracle._digests, PredictionOracle._answer

    def counted_digests(self, rows):
        for digest in digests(self, rows):
            hashed.append(digest)
            yield digest

    def counted_answer(self, rows, stop):
        values = answer(self, rows, stop)
        if len(rows) == 1:
            singles.append(1)
        else:
            dist = dists_to(rows[: len(values)], self.spec.target.coords)
            candidates.append(int(np.count_nonzero(self.spec.c_lo * dist <= stop)))
        return values

    monkeypatch.setattr(PredictionOracle, "_digests", counted_digests)
    monkeypatch.setattr(PredictionOracle, "_answer", counted_answer)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--d", "1", "2", "--c", "2", "4", "8", "--trials", "40", "--seed", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    queries = [int(r["queries"]) for r in csv.DictReader(out.open()) if r["row_type"] == "trial"]
    assert sum(queries) == 300_900
    assert (sum(candidates), len(singles)) == (22_201, 480)
    assert len(hashed) == sum(candidates) + len(singles)


# 6 cells of 5 trials. Each cell's trial 0 runs first in the parent; then,
# on two CPUs, the parent runs trials 1 and 3 of every cell and the worker
# trials 2 and 4.
SMALL_SWEEP = ["sweep", "--d", "1", "2", "--c", "2", "4", "8", "--trials", "5", "--seed", "0"]


def _allow_cpus(monkeypatch, n):
    monkeypatch.setattr(predsearch.cli.os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (argv, trial rows, forks on 1, 2 and 3 CPUs)
SWEEPS_ON_CPUS = [
    (SMALL_SWEEP, 60, [0, 1, 2]),
    # No task is left after the trials 0.
    (["sweep", "--d", "1", "2", "--c", "2", "4", "8", "--trials", "1", "--seed", "0"], 12, [0, 0, 0]),
    # One task is left: trial 1 of the one cell.
    (["sweep", "--d", "1", "--c", "2", "--trials", "2", "--seed", "0"], 4, [0, 0, 0]),
    # Six tasks are left, one per cell.
    (["sweep", "--d", "1", "2", "--c", "2", "4", "8", "--trials", "2", "--seed", "0"], 24, [0, 1, 2]),
]


def test_sweep_writes_the_same_bytes_on_any_number_of_cpus(tmp_path, monkeypatch, capfd):
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(predsearch.cli.os, "fork", counted_fork)
    for argv, trial_rows, expected_forks in SWEEPS_ON_CPUS:
        blobs = []
        for cpus in (1, 2, 3):
            _allow_cpus(monkeypatch, cpus)
            out = tmp_path / f"s{cpus}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            _assert_no_child_left()
            assert len(forks) == expected_forks[cpus - 1], (argv, cpus)
            forks.clear()
            blobs.append(out.read_bytes())
            # A worker that returned from its fork would print this line too.
            assert capfd.readouterr().out.count(f"sweep: {trial_rows} trial rows") == 1
        assert blobs[0] == blobs[1] == blobs[2], argv


@pytest.mark.parametrize(
    "failing, first",
    [
        ({(1, 4.0, 2), (2, 2.0, 1)}, (1, 4.0, 2)),  # the worker's fails first
        ({(1, 2.0, 3), (1, 8.0, 4)}, (1, 2.0, 3)),  # the parent's fails first
        ({(2, 2.0, 0), (1, 4.0, 3)}, (1, 4.0, 3)),  # a trial 0 fails later
        ({(1, 8.0, 0), (2, 2.0, 1)}, (1, 8.0, 0)),  # a trial 0 fails first
    ],
)
def test_a_failed_trial_fails_the_sweep_as_in_one_process(
    failing, first, tmp_path, monkeypatch, capfd
):
    sweep_trial = predsearch.cli._sweep_trial

    def failing_trial(d, c, trial, seed, delta):
        if (d, c, trial) in failing:
            raise GuessTooSmallError(f"trial {trial} of d={d} c={c}")
        return sweep_trial(d, c, trial, seed, delta)

    monkeypatch.setattr(predsearch.cli, "_sweep_trial", failing_trial)
    for cpus in (1, 2):
        _allow_cpus(monkeypatch, cpus)
        assert main(SMALL_SWEEP + ["--out", str(tmp_path / "s.csv")]) == 1
        _assert_no_child_left()
        d, c, trial = first
        assert capfd.readouterr().err == f"run failed: trial {trial} of d={d} c={c}\n"
    assert not (tmp_path / "s.csv").exists()


def test_a_failed_trial_0_ends_the_sweep_before_the_later_cells(tmp_path, monkeypatch, capsys):
    # One process would fail in the first cell, before any other trial.
    _allow_cpus(monkeypatch, 2)
    calls, sweep_trial = [], predsearch.cli._sweep_trial

    def counted_trial(*args):
        calls.append(args[:3])
        return sweep_trial(*args)

    monkeypatch.setattr(predsearch.cli, "_sweep_trial", counted_trial)
    argv = ["sweep", "--d", "2", "--c", "1e300", "2", "--trials", "3", "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 2
    assert "exceed the cap" in capsys.readouterr().err
    assert calls == [(2, 1e300, 0)]


def test_a_worker_that_exits_without_its_rows_is_named(tmp_path, monkeypatch):
    _allow_cpus(monkeypatch, 2)
    parent, sweep_trial = os.getpid(), predsearch.cli._sweep_trial

    def dying_trial(*args):
        if os.getpid() != parent:
            os._exit(3)
        return sweep_trial(*args)

    monkeypatch.setattr(predsearch.cli, "_sweep_trial", dying_trial)
    with pytest.raises(RuntimeError, match="exited with status 3 without sending its results"):
        main(SMALL_SWEEP + ["--out", str(tmp_path / "s.csv")])
    _assert_no_child_left()


def test_an_interrupted_sweep_kills_and_reaps_its_workers(tmp_path, monkeypatch):
    _allow_cpus(monkeypatch, 2)
    parent, sweep_trial = os.getpid(), predsearch.cli._sweep_trial

    slept = []

    def slow_or_interrupted(d, c, trial, seed, delta):
        if os.getpid() != parent and not slept:
            slept.append(1)
            time.sleep(20)
        elif os.getpid() == parent and trial > 0:
            raise KeyboardInterrupt
        return sweep_trial(d, c, trial, seed, delta)

    monkeypatch.setattr(predsearch.cli, "_sweep_trial", slow_or_interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(SMALL_SWEEP + ["--out", str(tmp_path / "s.csv")])
    assert time.monotonic() - start < 10
    _assert_no_child_left()


def test_a_worker_ends_without_flushing_or_exit_handlers(tmp_path):
    # stdout is a pipe, so the first line is still buffered at the fork.
    argv = SMALL_SWEEP + ["--out", str(tmp_path / "s.csv")]
    script = (
        "import atexit, os\n"
        "from predsearch.cli import main\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "atexit.register(print, 'exit handler')\n"
        "print('before the sweep')\n"
        f"print('main returned', main({argv!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(predsearch.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.stdout.splitlines() == [
        "before the sweep",
        f"sweep: 60 trial rows, 0 violations -> {tmp_path / 's.csv'}",
        "main returned 0",
        "exit handler",
    ]


def test_a_wrapped_query_hears_every_query_of_a_sweep(tmp_path, monkeypatch):
    # An in-process wrapper hears only its own process, so the sweep stays
    # in it, whatever the affinity mask.
    _allow_cpus(monkeypatch, 2)
    calls = []

    def counted_query(self, p):
        calls.append(1)
        return QueryRecorder.query(self, p)

    monkeypatch.setattr(PredictionOracle, "query", counted_query)
    out = tmp_path / "s.csv"
    assert main(SMALL_SWEEP + ["--out", str(out)]) == 0
    queries = [int(r["queries"]) for r in csv.DictReader(out.open()) if r["row_type"] == "trial"]
    assert len(queries) == 60
    assert len(calls) == sum(queries)


@pytest.mark.parametrize(
    "argv, count",
    [
        # The exact cube-cell count, 603 digits, once made a 688-byte line.
        (["sweep", "--d", "2", "--c", "1e300", "--trials", "1", "--seed", "0"], "~2.88e+602"),
        # 8,453 digits, past Python's int-to-str limit: once a traceback.
        (["net", "--d", "3000", "--eps", "0.5"], "~4.96e+8452"),
    ],
)
def test_past_the_cap_exits_2_with_a_short_message(argv, count, tmp_path, capsys):
    out = tmp_path / "out.csv"
    flag = "--out" if argv[0] == "sweep" else "--dump"
    assert main(argv + [flag, str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {count} lattice candidates exceed the cap")
    assert len(err.encode()) < 200
    assert not out.exists()


def test_a_cap_count_of_millions_of_digits_exits_2_within_a_second(tmp_path):
    # The exact count 12001^1000000 once took ~3 s to compute before the
    # comparison with the cap; the child times main() alone.
    env = dict(os.environ, PYTHONPATH=str(Path(predsearch.__file__).parents[1]))
    code = (
        "import sys, time\n"
        "from predsearch.cli import main\n"
        "start = time.perf_counter()\n"
        "status = main(['net', '--d', '1000000', '--eps', '0.5'])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(status)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ~2.72e+4079217 lattice candidates exceed the cap")
    assert float(proc.stdout) < 1.0


# sha256 of the trace CSV of NOISE_RUN_CONFIG, recorded with a seeded noise
# that computed every value it logged as it logged it.
_NOISE_RUN_TRACE_SHA256 = "746775c7e059a8371f38742aa47995dfe3abf583ed7825407bedbdafdeb40cf0"

NOISE_RUN_CONFIG = {
    "d": 2,
    "seed": 5,
    "target": [0.9, -1.3],
    "oracle": {"kind": "seeded_noise", "c_hi": 16.0, "seed": 3},
    "strategy": {"kind": "unknown_c", "delta_stop": 1e-3},
}


def test_seeded_noise_run_trace_csv_is_pinned(tmp_path):
    # The CSV prints every lambda, so each value the walk deferred is read
    # back; the run doubles its guess once, so both step variants occur.
    cfg = write_config(tmp_path, NOISE_RUN_CONFIG)
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _NOISE_RUN_TRACE_SHA256
    assert {row["j"] for row in csv.DictReader(out.open())} == {"1", "2"}


def test_lowerbound_small_instance(tmp_path):
    rep = tmp_path / "lb.json"
    code = main(["lowerbound", "--c", "8", "--d", "1", "--strategy", "unknown_c", "--report", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["reached"] is True
    assert report["replay_ok"] is True
    assert report["balls_visited"] == report["n_targets"]
    assert report["total_length"] >= report["path_floor"]


def test_lowerbound_prints_every_violation_of_its_report(tmp_path, capsys):
    # At --delta 1 the search stops at o after one query, before the
    # adversary commits, so the replay fails along with the audit's floors.
    rep = tmp_path / "lb.json"
    assert main(["lowerbound", "--c", "24", "--d", "2", "--delta", "1", "--report", str(rep)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"VIOLATION: {v}" for v in json.loads(rep.read_text())["violations"]]
    assert "VIOLATION: query log replay against the committed target mismatched" in err


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
        # samples * d past CANDIDATE_CAP: ~15 GiB of samples.
        ["net", "--d", "2", "--eps", "0.5", "--check", "--samples", "1000000000"],
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


def _exact_config(target, epsilon_ratio, delta_stop=1e-3):
    strategy = {"kind": "exact_c1", "epsilon_ratio": epsilon_ratio, "delta_stop": delta_stop}
    return {"d": 2, "target": target, "oracle": {"kind": "exact"}, "strategy": strategy}


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
        # exact_c1's axis probes at |ot|*epsilon_ratio/(2d) = 2.5e199 trilaterated
        # to (nan, nan): a ValueError traceback.
        _exact_config([0.6, 0.8], 1e200),
        # Probes at 0 from o do not span the plane: a ValueError traceback.
        _exact_config([1e-150, 0.0], 1e-300, delta_stop=1e-160),
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


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "{config}", "--out", "{ok}", "--report", "{missing}"],
        ["sweep", "--d", "3", "--c", "8", "--trials", "40", "--seed", "0", "--out", "{dir}"],
        ["lowerbound", "--c", "64", "--d", "2", "--strategy", "known_c"]
        + ["--report", "{ok}", "--svg", "{dir}"],
        ["net", "--d", "2", "--eps", "0.004", "--check", "--samples", "2000000"]
        + ["--dump", "{missing}"],
        # Passes the early check, then fails to write: ENOSPC.
        ["net", "--d", "2", "--eps", "0.5", "--dump", "/dev/full"],
    ],
    ids=["run", "sweep", "lowerbound", "net", "net-write-fails"],
)
def test_an_unwritable_output_exits_2_before_any_work(argv, tmp_path, capsys):
    # These once ran to the end, then died in _write with a FileNotFoundError
    # traceback and exit 1, the code of a bound violation. Each run takes
    # more than a second when it does the work.
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    doc = {
        "d": 3,
        "target": [0.6, -0.5, 0.4],
        "oracle": {"kind": "seeded_noise", "c_hi": 8.0},
        "strategy": {"kind": "known_c", "c_guess": 8.0},
    }
    paths = {
        "config": write_config(tmp_path, doc),
        "ok": tmp_path / "ok.out",
        "missing": tmp_path / "missing" / "x.out",
        "dir": tmp_path / "outdir",
    }
    paths["dir"].mkdir()
    before = sorted(tmp_path.rglob("*"))
    start = time.perf_counter()
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


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


def _reference_render_svg(trace, target=None, instance=None):
    """render_svg as it formatted the polyline before, row by row."""

    def _fmt(x):
        return format(float(x), ".6g")

    side, margin = 1000.0, 40.0
    xs = trace.rows[:, 0].tolist()
    ys = trace.rows[:, 1].tolist()
    extra = []
    if target is not None:
        extra.append((target.coords[0], target.coords[1], 0.0))
    if instance is not None:
        for t in instance.targets:
            extra.append((t.coords[0], t.coords[1], instance.ball_radius))
    lo_x = min(xs + [e[0] - e[2] for e in extra])
    hi_x = max(xs + [e[0] + e[2] for e in extra])
    lo_y = min(ys + [e[1] - e[2] for e in extra])
    hi_y = max(ys + [e[1] + e[2] for e in extra])
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-12)
    scale = (side - 2.0 * margin) / span

    def to_canvas(x, y):
        return (margin + (x - lo_x) * scale, side - margin - (y - lo_y) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(side)}" height="{_fmt(side)}" '
        f'viewBox="0 0 {_fmt(side)} {_fmt(side)}">',
        f'<rect x="0" y="0" width="{_fmt(side)}" height="{_fmt(side)}" fill="white"/>',
    ]
    if instance is not None:
        for t in instance.targets:
            cx, cy = to_canvas(t.coords[0], t.coords[1])
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(instance.ball_radius * scale)}" '
                f'fill="none" stroke="#bbbbbb" stroke-width="1"/>'
            )
    coords = " ".join(
        f"{_fmt(px)},{_fmt(py)}" for px, py in (to_canvas(x, y) for x, y in zip(xs, ys))
    )
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    sx, sy = to_canvas(xs[0], ys[0])
    parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="6" fill="#2ca02c"/>')
    ex, ey = to_canvas(xs[-1], ys[-1])
    parts.append(
        f'<circle cx="{_fmt(ex)}" cy="{_fmt(ey)}" r="5" fill="none" '
        f'stroke="#1f77b4" stroke-width="2"/>'
    )
    if target is not None:
        tx, ty = to_canvas(target.coords[0], target.coords[1])
        parts.append(
            f'<path d="M{_fmt(tx - 7)} {_fmt(ty)} L{_fmt(tx + 7)} {_fmt(ty)} '
            f'M{_fmt(tx)} {_fmt(ty - 7)} L{_fmt(tx)} {_fmt(ty + 7)}" '
            f'stroke="#d62728" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Search traces stay within 2^500 of the origin; up to 1e300, no canvas
# coordinate overflows.
_svg_coord = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]) | st.floats(-1e300, 1e300)


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.tuples(_svg_coord, _svg_coord), min_size=1, max_size=30),
    st.none() | st.tuples(_svg_coord, _svg_coord),
    st.lists(st.tuples(_svg_coord, _svg_coord), max_size=4),
    st.sampled_from([0.5, 1e-300, 1e300]),
)
def test_svg_polyline_matches_the_row_by_row_rendering(rows, target, centres, radius):
    # render_svg reads only the trace's rows and dimension and the
    # instance's targets and ball radius.
    trace = SimpleNamespace(rows=np.array(rows, dtype=np.float64), dimension=2)
    target = None if target is None else point(*target)
    instance = SimpleNamespace(targets=[point(*c) for c in centres], ball_radius=radius)
    for inst in (None, instance):
        assert render_svg(trace, target, inst) == _reference_render_svg(trace, target, inst)


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
