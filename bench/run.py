"""predsearch benchmark: audited CLI workloads in fresh processes.

Usage (from the repository root):

    python3 bench/run.py --workload {sweep,adversary,netcheck,all} \
        --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client. One CLI child runs at a time,
each in a fresh working directory with OMP/OpenBLAS/MKL threads set to 1,
so the package's in-process caches start cold as they do for a user. A run
repeats its workloads round-robin within ``--seconds`` seconds (at least
one round) and times a fixed calibration loop once per round.

With ``--trace 0`` every invocation is untraced and the result carries the
end-to-end metrics of the chosen workload (for ``all``, of every workload,
prefixed with its name). With ``--trace 1`` each round runs every workload
untraced and then traced, and the result carries the per-layer metrics of
all three workloads; see bench/README.md for the layer map.

Every invocation is checked: exit code 0, workload-specific audits of its
outputs, and a digest of everything it wrote plus its behavioural counts,
which must repeat across the run and match bench/expected.json where that
file records the seed. The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any check failed and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
WORK = ROOT / ".bench_work"

INVOCATION_CAP_S = 60.0
CALIB_ITERS = 3_000_000
POLL_S = 0.02


class CheckFailed(Exception):
    """An invocation's outputs failed the workload's audit."""


@dataclass
class Child:
    """One CLI process: its measurements and everything it wrote."""

    run_s: float
    setup_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    files: dict[str, bytes]
    layers: dict[str, float]


@dataclass
class Invocation:
    """One execution of a workload (one or more CLI processes)."""

    traced: bool
    children: list[Child] = field(default_factory=list)
    error: str | None = None
    digest: str | None = None
    counts: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def run_s(self) -> float:
        return sum(c.run_s for c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)

    @property
    def output_bytes(self) -> int:
        return sum(len(c.stdout) + sum(map(len, c.files.values())) for c in self.children)

    @property
    def layers(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for child in self.children:
            for key, value in child.layers.items():
                out[key] = out.get(key, 0) + value
        return out


@dataclass(frozen=True)
class Workload:
    """CLI argument lists for a seed, and the audit of their outputs.

    ``check`` returns ``(counts, facts)``: counts are deterministic for a
    seed and must repeat exactly; facts feed the throughput metrics.
    """

    name: str
    commands: Callable[[int], list[list[str]]]
    check: Callable[[list[Child]], tuple[dict, dict]]
    seeded: bool = True


# ---------------------------------------------------------------- workloads


def sweep_workload(trials: int, dims=(1, 2), factors=(2, 4, 8)) -> Workload:
    """Many short searches against seeded_noise oracles: the nets are small
    and built once per (d, eps), so the time goes to oracles and one_step."""
    expected_rows = 2 * len(dims) * len(factors) * trials

    def commands(seed):
        return [
            ["sweep", "--d", *map(str, dims), "--c", *map(str, factors)]
            + ["--trials", str(trials), "--seed", str(seed), "--out", "sweep.csv"]
        ]

    def check(children):
        text = children[0].files["sweep.csv"].decode()
        rows = [r for r in csv.DictReader(io.StringIO(text)) if r["row_type"] == "trial"]
        if len(rows) != expected_rows:
            raise CheckFailed(f"{len(rows)} trial rows, expected {expected_rows}")
        for r in rows:
            if r["ok"] != "true" or not float(r["ratio"]) <= float(r["bound"]):
                raise CheckFailed(f"trial row fails its audit: {r}")
        queries = sum(int(r["queries"]) for r in rows)
        ratios = [float(r["ratio"]) for r in rows]
        counts = {
            "trial_rows": len(rows),
            "queries": queries,
            "total_length": repr(sum(float(r["total_length"]) for r in rows)),
            "doublings": sum(int(r["doublings"]) for r in rows if r["doublings"]),
        }
        facts = {"queries": queries, "trials": len(rows), "ratio_mean": statistics.fmean(ratios)}
        return counts, facts

    return Workload("sweep", commands, check)


def adversary_workload(c: int) -> Workload:
    """One long known-factor search against the adaptive adversary: one
    greedy visit_order over the unit net dominates; no random input."""

    def commands(seed):
        return [
            ["lowerbound", "--c", str(c), "--d", "2", "--strategy", "known_c"]
            + ["--report", "report.json", "--svg", "trace.svg"]
        ]

    def check(children):
        files = children[0].files
        report = json.loads(files["report.json"])
        if not (report["reached"] and report["replay_ok"]) or report["violations"]:
            raise CheckFailed(f"adversary audit failed: {report['violations']}")
        if report["balls_visited"] != report["n_targets"]:
            raise CheckFailed("not every candidate ball was visited")
        if not files["trace.svg"].startswith(b"<svg"):
            raise CheckFailed("trace.svg is not an SVG document")
        counts = {
            "queries": report["queries"],
            "total_length": repr(report["total_length"]),
            "candidates": report["n_targets"],
            "balls_visited": report["balls_visited"],
            "doublings": report["doublings"],
        }
        facts = {"queries": report["queries"], "ratio_mean": report["ratio"]}
        return counts, facts

    return Workload("adversary", commands, check, seeded=False)


def netcheck_workload(nets=((3, 0.08), (4, 0.3))) -> Workload:
    """Net construction and its certificates, with no oracle and no walk."""

    def commands(seed):
        return [
            ["net", "--d", str(d), "--eps", str(eps), "--check", "--seed", str(seed)]
            for d, eps in nets
        ]

    def check(children):
        counts = {}
        for (d, _), child in zip(nets, children):
            out = child.stdout.decode()
            for line in ("size within bounds: True", "covering: ok", "separation: ok"):
                if line not in out:
                    raise CheckFailed(f"net d={d}: missing {line!r}")
            counts[f"net_points_d{d}"] = int(re.search(r"^\|N\| = (\d+)$", out, re.M)[1])
        return counts, {}

    return Workload("netcheck", commands, check)


WORKLOADS = {
    w.name: w for w in (sweep_workload(40), adversary_workload(24), netcheck_workload())
}

# Tiny sizes of the same workloads for the benchmark's self-tests.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        sweep_workload(2, dims=(2,), factors=(2,)),
        adversary_workload(8),
        netcheck_workload(((3, 0.3), (4, 0.9))),
    )
}


# ---------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def wait_child(proc: subprocess.Popen):
    """Reap ``proc`` with its own rusage (``RUSAGE_CHILDREN`` would give a
    running maximum over all children). Returns ``(exit code, rusage)``, with
    exit code None when the child was killed at the time cap; the child is
    killed and reaped on any error too."""
    deadline = time.monotonic() + INVOCATION_CAP_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                break
            time.sleep(POLL_S)
    finally:
        if proc.returncode is None:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return None, usage


def spawn(argv: list[str], workdir: Path, traced: bool) -> Child:
    """Run one CLI child in ``workdir`` and collect its rusage and outputs."""
    out_dir = workdir / "out"
    out_dir.mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result_path)]
    cmd += ["--trace"] if traced else []
    cmd += ["--", *argv]
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, cwd=out_dir, stdout=out, stderr=err, env=child_env())
        code, usage = wait_child(proc)
    if code is None:
        raise CheckFailed(f"{argv[0]} ran past the {INVOCATION_CAP_S:.0f} s cap")
    if code != 0 or not result_path.exists():
        stderr = (workdir / "stderr").read_text(errors="replace").strip()
        raise CheckFailed(f"{argv[0]} exited {code}: {stderr[-400:]}")
    result = json.loads(result_path.read_text())
    if Path(result["module"]).resolve().parent.parent != SRC.resolve():
        raise CheckFailed(f"imported predsearch from {result['module']}, not from {SRC}")
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return Child(
        run_s=result["run_s"],
        setup_s=result["imported_at"] - spawned_at,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=(workdir / "stdout").read_bytes(),
        files=files,
        layers=result.get("layers", {}),
    )


def digest(children: list[Child]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for child in children:
        h.update(b"stdout\0%d\0" % len(child.stdout) + child.stdout)
        for name, data in child.files.items():
            h.update(name.encode() + b"\0%d\0" % len(data) + data)
    return h.hexdigest()


class Runner:
    """Runs invocations in fresh directories under ``.bench_work``."""

    def __init__(self, workloads: dict[str, Workload], seed: int, expected: dict):
        self.workloads = workloads
        self.seed = seed
        self.expected = expected
        self.root = WORK / str(os.getpid())
        self.count = 0

    def invoke(self, name: str, traced: bool) -> Invocation:
        workload = self.workloads[name]
        inv = Invocation(traced)
        try:
            for argv in workload.commands(self.seed):
                self.count += 1
                workdir = self.root / f"inv{self.count}"
                try:
                    inv.children.append(spawn(argv, workdir, traced))
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
            inv.counts, inv.facts = workload.check(inv.children)
            inv.digest = digest(inv.children)
        except (CheckFailed, KeyError, ValueError, TypeError) as exc:
            inv.error = f"{type(exc).__name__}: {exc}"
        return inv

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def calibrate() -> float:
    """A fixed pure-Python loop: a gauge of how fast this machine is now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_ITERS):
        total += i
    return time.perf_counter() - start


# -------------------------------------------------------------- consistency


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def expected_key(workload: Workload, seed: int) -> str:
    return str(seed) if workload.seeded else "any"


def layer_fingerprint(inv: Invocation) -> dict:
    """The deterministic part of a traced invocation's layer numbers."""
    return {k: v for k, v in inv.layers.items() if not k.endswith((".s", ".self_s"))}


def cross_check(workload: Workload, seed: int, invocations: list[Invocation], expected: dict):
    """Fail every invocation whose digest or counts differ from the record
    for this seed, or, without a record, from the run's first good one."""
    good = [inv for inv in invocations if not inv.failed]
    record = expected.get(workload.name, {}).get(expected_key(workload, seed))
    if record is None and good:
        record = {"digest": good[0].digest, "counts": good[0].counts}
    for inv in good:
        if inv.digest != record["digest"]:
            inv.error = (
                f"{workload.name}: output digest {inv.digest} differs from "
                f"{record['digest']} for seed {seed}"
            )
        elif inv.counts != record["counts"]:
            inv.error = (
                f"{workload.name}: counts {inv.counts} differ from "
                f"{record['counts']} for seed {seed}"
            )
    traced = [inv for inv in invocations if inv.traced and not inv.failed]
    for inv in traced[1:]:
        if layer_fingerprint(inv) != layer_fingerprint(traced[0]):
            inv.error = f"{workload.name}: traced layer counts differ between invocations"


# ------------------------------------------------------------------ metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def end_to_end_samples(invs: list[Invocation]) -> dict[str, tuple[list[float], str]]:
    """Per-invocation samples of every end-to-end metric that applies."""
    out = {
        "run_s": ([i.run_s for i in invs], "s"),
        "setup_s": ([c.setup_s for i in invs for c in i.children], "s"),
        "cpu_s": ([i.cpu_s for i in invs], "s"),
        "peak_rss_mb": ([i.peak_rss_mb for i in invs], "MB"),
    }
    if invs and "queries" in invs[0].facts:
        out["queries_per_s"] = ([i.facts["queries"] / i.run_s for i in invs], "1/s")
    if invs and "trials" in invs[0].facts:
        out["trials_per_s"] = ([i.facts["trials"] / i.run_s for i in invs], "1/s")
    if invs and "ratio_mean" in invs[0].facts:
        out["ratio_mean"] = ([i.facts["ratio_mean"] for i in invs], "ratio")
    return out


# Per-layer metrics of each workload, for the layers that run on it. Names
# ending in .calls, .s, .self_s or .points come straight from the tracer;
# layer_value derives the fractions.
LAYERS = {
    "sweep": (
        "nets.build_net.calls", "nets.build_net.s", "nets.build_net.points",
        "nets.visit_order.calls", "nets.visit_order.s", "nets.visit_order.points",
        "strategies.one_step.calls", "strategies.one_step.s", "strategies.one_step.self_s",
        "strategies.one_step.advanced_frac",
        "strategies.run_strategy.calls", "strategies.run_strategy.s",
        "strategies.run_strategy.self_s", "strategies.walk_used_frac",
        "oracles.query.calls", "oracles.query.s", "oracles.memo_hit_frac",
        "verification.audit_trace.calls", "verification.audit_trace.s",
        "geometry.path_length.calls", "geometry.path_length.s",
    ),
    "adversary": (
        "nets.build_net.calls", "nets.build_net.s", "nets.build_net.points",
        "nets.visit_order.calls", "nets.visit_order.s", "nets.visit_order.points",
        "nets.separated_set.s", "nets.separated_set.points",
        "strategies.one_step.calls", "strategies.one_step.s", "strategies.one_step.self_s",
        "strategies.one_step.advanced_frac",
        "strategies.run_strategy.calls", "strategies.run_strategy.s",
        "strategies.run_strategy.self_s", "strategies.walk_used_frac",
        "verification.adversary_query.calls", "verification.adversary_query.s",
        "verification.candidates", "verification.build_adversarial_instance.s",
        "verification.audit_trace.calls", "verification.audit_trace.s",
        "verification.count_visited_balls.s", "verification.replay_consistent.s",
        "geometry.path_length.calls", "geometry.path_length.s",
        "svg.render_svg.s",
    ),
    "netcheck": (
        "nets.build_net.calls", "nets.build_net.s", "nets.build_net.points",
        "nets.check_covering.s", "nets.check_separation.s",
        "oracles.query.calls",
    ),
}

# Run-level metrics of each workload in the traced run, measured on its
# untraced invocations except traced_run_s.
TRACE_RUN_METRICS = {
    "sweep": ("queries_per_s", "trials_per_s", "ratio_mean"),
    "adversary": ("queries_per_s", "ratio_mean"),
    "netcheck": (),
}
COMMON_TRACE_METRICS = (
    "traced_run_s", "trace.overhead_frac", "cli.output_bytes", "failed_frac",
)


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("ratio_mean"):
        return "ratio"
    if name.endswith("output_bytes"):
        return "bytes"
    return "count"


def per_layer_names() -> list[str]:
    names = []
    for w, layer_names in LAYERS.items():
        for n in TRACE_RUN_METRICS[w] + COMMON_TRACE_METRICS + layer_names:
            names.append(f"{w}.{n}")
    names.append("machine.calib_s")
    return names


def layer_value(name: str, traced: list[Invocation]) -> float:
    """Median over traced invocations of one layer metric."""

    def one(layers):
        if name == "strategies.one_step.advanced_frac":
            return ratio(layers, "strategies.one_step.advanced", "strategies.one_step.calls")
        if name == "strategies.walk_used_frac":
            return ratio(layers, "strategies.one_step.queries", "strategies.one_step.net_points")
        if name == "oracles.memo_hit_frac":
            return 1.0 - ratio(layers, "oracles.memo_entries", "oracles.logged_queries")
        return layers.get(name, 0)

    return statistics.median(one(inv.layers) for inv in traced)


def ratio(layers: dict, num: str, den: str) -> float:
    return layers.get(num, 0) / layers[den] if layers.get(den) else 0.0


# ------------------------------------------------------------------ driving


def measure(runner: Runner, names: list[str], seconds: float, traced: bool):
    """Round-robin over ``names`` for ``seconds``: a new round starts only if
    it should end in time, judged by the longest round so far, and the first
    round always runs. With ``traced`` every workload also runs traced in
    each round."""
    invocations: dict[str, list[Invocation]] = {n: [] for n in names}
    calib: list[float] = []
    deadline = time.monotonic() + seconds
    longest = 0.0
    while True:
        started = time.monotonic()
        calib.append(calibrate())
        for name in names:
            invocations[name].append(runner.invoke(name, traced=False))
            if traced:
                invocations[name].append(runner.invoke(name, traced=True))
        now = time.monotonic()
        longest = max(longest, now - started)
        if now + longest > deadline:
            return invocations, calib


def warm_up() -> None:
    """Compile the package's bytecode once, untimed, as an installed package
    would have it; fails when the program under test cannot be imported."""
    subprocess.run(
        [sys.executable, "-c", "import predsearch.cli"],
        env=child_env(),
        cwd=ROOT,
        check=True,
        timeout=INVOCATION_CAP_S,
    )


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def fmt_stats(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"median={q2:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)}"


def report(args, runner: Runner, invocations, calib) -> tuple[dict, bool]:
    metrics: dict[str, dict] = {}
    ok = True
    prefix = args.workload == "all" or args.trace
    for name, invs in invocations.items():
        workload = runner.workloads[name]
        failures = [i for i in invs if i.failed]
        good = [i for i in invs if not i.failed]
        untraced = [i for i in good if not i.traced]
        traced = [i for i in good if i.traced]
        for inv in failures:
            print(f"FAILED {name}{' (traced)' if inv.traced else ''}: {inv.error}")
        if failures or not untraced or (args.trace and not traced):
            ok = False
        samples = end_to_end_samples(untraced) if untraced else {}
        failed_frac = len(failures) / len(invs)
        print(f"{name}: {len(invs)} invocations, failed_frac={failed_frac:.6g}")
        for metric, (values, unit) in samples.items():
            print(f"  {name}.{metric}: {fmt_stats(values)} {unit}")
        if untraced:
            counts = " ".join(f"{k}={v}" for k, v in untraced[0].counts.items())
            print(f"  counts: {counts} digest={untraced[0].digest}")
            key = expected_key(workload, args.seed)
            recorded = key in runner.expected.get(name, {})
            print(f"  digest {'matches the record' if recorded else 'unrecorded'} for seed {key}")
        if not args.trace:
            for metric, unit in END_TO_END:
                if metric in samples:
                    key = f"{name}.{metric}" if prefix else metric
                    value = statistics.median(samples[metric][0])
                    metrics[key] = {"value": value, "unit": unit}
            continue
        if not (untraced and traced):
            continue
        run_s = statistics.median(i.run_s for i in untraced)
        traced_run_s = statistics.median(i.run_s for i in traced)
        values = {
            "traced_run_s": traced_run_s,
            "trace.overhead_frac": (traced_run_s - run_s) / run_s,
            "cli.output_bytes": untraced[0].output_bytes,
            "failed_frac": failed_frac,
        }
        for metric in TRACE_RUN_METRICS[name]:
            values[metric] = statistics.median(samples[metric][0])
        for layer in LAYERS[name]:
            values[layer] = layer_value(layer, traced)
        for metric, value in values.items():
            unit = metric_unit(metric)
            metrics[f"{name}.{metric}"] = {"value": value, "unit": unit}
            share = ""
            if unit == "s" and metric != "traced_run_s":
                share = f" ({value / traced_run_s:.1%} of traced_run_s)"
            print(f"  {name}.{metric} = {value:.6g} {unit}{share}")
    print(f"machine.calib_s: {fmt_stats(calib)} s (diagnostic, {CALIB_ITERS} iterations)")
    if args.trace:
        metrics["machine.calib_s"] = {"value": statistics.median(calib), "unit": "s"}
    print(f"src_lines: {src_lines()}")
    return metrics, ok


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "predsearch" / "cli.py").is_file():
        print(f"error: the predsearch package is missing under {SRC}", file=sys.stderr)
        return 2
    try:
        warm_up()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: cannot import predsearch.cli: {exc}", file=sys.stderr)
        return 2
    if args.trace or args.workload == "all":
        names = list(WORKLOADS)
    else:
        names = [args.workload]
    runner = Runner(WORKLOADS, args.seed, load_expected())
    try:
        invocations, calib = measure(runner, names, args.seconds, bool(args.trace))
    finally:
        runner.close()
    for name, invs in invocations.items():
        cross_check(WORKLOADS[name], args.seed, invs, runner.expected)
    metrics, ok = report(args, runner, invocations, calib)
    attempted = sum(len(v) for v in invocations.values())
    failed = sum(i.failed for v in invocations.values() for i in v)
    result = {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
