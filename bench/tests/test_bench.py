"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def test_install_and_restore_put_back_every_patched_name():
    from predsearch import cli, oracles, strategies, verification

    owners = (cli, strategies, verification, oracles.PredictionOracle,
              verification.AdversarialInstance)
    before = [dict(vars(owner)) for owner in owners]
    t = tracer.Tracer()
    tracer.install(t)
    patched = {(owner, attr) for owner, attr, _ in t._patches}
    assert len(patched) == len(t._patches) == 16
    assert all(hasattr(vars(owner)[attr], "__wrapped__") for owner, attr in patched)
    t.restore()
    after = [dict(vars(owner)) for owner in owners]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(b[k] is a[k] for k in b)


def test_self_time_of_nested_calls():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    def failing():
        now[0] += 0.5
        raise RuntimeError("boom")

    def outer():
        now[0] += 1.0
        inner_w()
        now[0] += 3.0
        inner_w()
        with pytest.raises(RuntimeError):
            failing_w()

    inner_w = t.wrap("inner", inner)
    failing_w = t.wrap("failing", failing)
    outer_w = t.wrap("outer", outer)
    outer_w()
    assert t.calls == {"inner": 2, "failing": 1, "outer": 1}
    assert t.inclusive["outer"] == 8.5
    assert t.self_time("outer") == 4.0
    assert t.inclusive["inner"] == 4.0 and t.self_time("inner") == 4.0
    assert t.inclusive["failing"] == 0.5 and t.self_time("failing") == 0.5
    assert t._stack == []


@pytest.fixture
def runner():
    r = run.Runner(run.SMOKE_WORKLOADS, seed=3, expected={})
    yield r
    r.close()


@pytest.mark.parametrize("name", sorted(run.SMOKE_WORKLOADS))
def test_smoke_traced_run_matches_untraced(runner, name):
    plain = runner.invoke(name, traced=False)
    traced = runner.invoke(name, traced=True)
    assert plain.error is None and traced.error is None
    assert plain.digest == traced.digest
    assert plain.counts == traced.counts
    assert plain.run_s < 10.0
    for layer in run.LAYERS[name]:
        assert run.layer_value(layer, [traced]) >= 0
        if layer.endswith(".calls") and layer != "oracles.query.calls":
            assert traced.layers[layer] > 0, layer
    expected_queries = plain.counts["queries"] if name == "sweep" else 0
    assert traced.layers["oracles.query.calls"] == expected_queries


def test_digest_mismatch_fails_the_invocation_by_workload_name(runner):
    first = runner.invoke("netcheck", traced=False)
    second = runner.invoke("netcheck", traced=False)
    second.digest = "0" * 32
    run.cross_check(run.SMOKE_WORKLOADS["netcheck"], 3, [first, second], {})
    assert first.error is None
    assert "netcheck" in second.error and "digest" in second.error
    record = {"netcheck": {"3": {"digest": first.digest, "counts": {"net_points_d3": -1}}}}
    run.cross_check(run.SMOKE_WORKLOADS["netcheck"], 3, [first], record)
    assert "counts" in first.error


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, run.metric_unit(n)) for n in run.per_layer_names()
    ]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
