"""Command-line harness: audited single runs, (c, d) sweeps, adversarial
lower-bound experiments, and net diagnostics.

All outputs (CSV, JSON, SVG) are deterministic functions of the config and
seed. Exit codes: 0 success, 1 bound/assertion violation, 2 usage or config
error.

Examples:
    predsearch run --config run.json --out trace.csv --report report.json
    predsearch sweep --d 1 2 --c 2 4 --trials 25 --seed 1 --out sweep.csv
    predsearch lowerbound --c 16 --d 2 --strategy unknown_c --report lb.json
    predsearch net --d 2 --r 1.0 --eps 0.25 --check
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import pickle
import sys
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from functools import reduce
from hashlib import blake2b
from pathlib import Path

import numpy as np

from .geometry import MAX_SCALE, MIN_SCALE, Ball, Point, config_number, cumulative_lengths, origin
from .nets import (
    CANDIDATE_CAP,
    CandidateCapExceeded,
    build_net,
    check_covering,
    check_separation,
    net_size_lower_bound,
    net_size_upper_bound,
)
from .oracles import OracleSpec, PredictionOracle
from .strategies import (
    GuessTooSmallError,
    QueryBudgetExceeded,
    SearchTrace,
    StrategyConfig,
    run_strategy,
)
from .svg import render_svg
from .verification import audit_trace, build_adversarial_instance, replay_consistent

__all__ = ["main", "RunConfig", "parse_run_config", "trace_to_csv", "derive_seed"]


class ConfigError(ValueError):
    """Malformed experiment config (exit code 2)."""


def fmt12(x: float) -> str:
    """Fixed 12-significant-digit, locale-independent number formatting."""
    return format(float(x), ".12g")


def derive_seed(base: int, *parts) -> int:
    """Stable sub-seed derivation so every trial owns an independent stream."""
    h = blake2b(digest_size=8)
    h.update(repr((base,) + parts).encode())
    return int.from_bytes(h.digest(), "little") >> 1


@dataclass(frozen=True)
class RunConfig:
    d: int
    target: Point
    oracle_spec: OracleSpec
    strategy: StrategyConfig
    seed: int


def _random_direction(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniform unit vector in R^d: a standard normal draw over its norm,
    drawn again if it is all zeros."""
    while True:
        direction = rng.normal(size=d)
        norm = math.sqrt(float(direction @ direction))
        if norm != 0.0:
            return direction / norm


def _sample_target(d: int, radius: float, seed: int) -> Point:
    """Uniform point in the closed ball B(o, radius)."""
    rng = np.random.default_rng(seed)
    direction = _random_direction(rng, d)
    r = radius * rng.uniform() ** (1.0 / d)
    return Point(tuple(direction * r))


def _section(cls, name: str, doc: dict, **given):
    """The config section ``doc`` as a ``cls``: its keys name fields other
    than the ``given`` ones, and a field it leaves out takes its default."""
    unknown = sorted(set(doc) - {f.name for f in fields(cls)}.difference(given))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")
    try:
        return cls(**doc, **given)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} config: {exc}") from exc


def parse_run_config(doc: dict) -> RunConfig:
    try:
        d = config_number("d", doc["d"], operator.index)
        seed = config_number("seed", doc.get("seed", 0), operator.index)
        radius = config_number("target_radius", doc.get("target_radius", 1.0))
        raw_target = doc["target"]
        oracle_doc = dict(doc["oracle"])
        strategy_doc = dict(doc["strategy"])
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    if d < 1:
        raise ConfigError("d must be >= 1")
    if raw_target == "random":
        if not 0.0 <= radius < math.inf:
            raise ConfigError(f"target_radius must be finite and >= 0, got {radius!r}")
        target = _sample_target(d, radius, derive_seed(seed, "target"))
    else:
        try:
            target = Point(tuple(config_number("target", x) for x in raw_target))
        except (OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad target: {exc}") from exc
    if target.dimension != d:
        raise ConfigError(f"target dimension {target.dimension} != d = {d}")
    oracle_doc = {"seed": derive_seed(seed, "oracle"), **oracle_doc}
    oracle_spec = _section(OracleSpec, "oracle", oracle_doc, target=target)
    norm, c_hi = math.hypot(*target.coords), oracle_spec.c_hi
    if norm != 0.0 and not (MIN_SCALE <= norm and c_hi * norm <= MAX_SCALE):
        raise ConfigError(
            f"a nonzero target needs 2^-500 <= |ot| and c_hi*|ot| <= 2^500, "
            f"got |ot| = {norm!r}, c_hi = {c_hi!r}"
        )
    strategy = _section(StrategyConfig, "strategy", strategy_doc)
    if strategy.kind == "exact_c1":
        exact = oracle_spec.kind == "exact" or (
            oracle_spec.c_lo == 1.0 and oracle_spec.c_hi == 1.0
        )
        if not exact:
            raise ConfigError("exact_c1 requires an exact oracle (c_lo = c_hi = 1)")
        offset = norm * strategy.epsilon_ratio / (2.0 * d)  # how far it probes each axis from o
        if norm != 0.0 and not MIN_SCALE <= offset <= MAX_SCALE:
            msg = f"exact_c1 needs 2^-500 <= |ot|*epsilon_ratio/(2d) <= 2^500, got {offset!r}"
            raise ConfigError(msg)
    elif oracle_spec.c_lo < 1.0:
        raise ConfigError(f"{strategy.kind} needs lambda(p) >= |pt|, i.e. oracle c_lo = 1")
    return RunConfig(d=d, target=target, oracle_spec=oracle_spec, strategy=strategy, seed=seed)


def trace_to_csv(trace: SearchTrace) -> str:
    """Per-vertex trace table: step,j,i,x0..x{d-1},lambda,cum_length."""
    d = trace.dimension
    header = ["step", "j", "i"] + [f"x{k}" for k in range(d)] + ["lambda", "cum_length"]
    lines = [",".join(header)]
    for step, (coords, lam, (j, i), cum) in enumerate(
        zip(
            trace.rows.tolist(),
            trace.lambda_values.tolist(),
            trace.phase_labels.tolist(),
            cumulative_lengths(trace.rows).tolist(),
        )
    ):
        row = [str(step), str(j), str(i)]
        row += [fmt12(x) for x in coords]
        row += [fmt12(lam), fmt12(cum)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _write(path: str | None, content: str) -> None:
    if path is not None:
        try:
            Path(path).write_text(content)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _report_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _print_summary(report) -> None:
    ratio = "degenerate" if report.ratio is None else fmt12(report.ratio)
    print(
        f"strategy={report.strategy} d={report.d} c={fmt12(report.c)} "
        f"reached={report.reached} length={fmt12(report.total_length)} "
        f"dist_ot={fmt12(report.dist_ot)} ratio={ratio} queries={report.queries}"
    )
    for v in report.violations:
        print(f"VIOLATION: {v}", file=sys.stderr)


def cmd_run(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    cfg = parse_run_config(doc)
    if args.svg is not None and cfg.d != 2:
        raise ConfigError(f"--svg needs d = 2, got d = {cfg.d}")
    oracle = PredictionOracle(cfg.oracle_spec)
    trace = run_strategy(oracle, cfg.strategy)
    report = audit_trace(trace, cfg.target, cfg.strategy, oracle)
    _write(args.out, trace_to_csv(trace))
    payload = report.to_dict()
    payload["target"] = list(cfg.target.coords)
    _write(args.report, _report_json(payload))
    if args.svg is not None:
        _write(args.svg, render_svg(trace, target=cfg.target))
    _print_summary(report)
    return 0 if not report.violations else 1


# The sweep CSV's columns, in order. A summary row leaves the per-trial
# columns empty.
SweepRow = namedtuple(
    "SweepRow",
    "row_type d c trial strategy dist_ot total_length ratio bound doublings doubling_cap "
    "queries ok",
    defaults=("",) * 13,
)


def _sweep_trial(d: int, c: float, trial: int, seed: int, delta: float):
    """One sweep cell trial: a fresh random target and noise oracle, searched
    with both the known-factor and the doubling strategy."""
    rng = np.random.default_rng(derive_seed(seed, "target", d, fmt12(c), trial))
    direction = _random_direction(rng, d)
    radius = rng.uniform(0.5, 2.0)
    target = Point(tuple(direction * radius))
    oracle_seed = derive_seed(seed, "oracle", d, fmt12(c), trial)
    rows = []
    for kind in ("known_c", "unknown_c"):
        spec = OracleSpec(kind="seeded_noise", target=target, c_hi=c, seed=oracle_seed)
        oracle = PredictionOracle(spec)
        config = StrategyConfig(
            kind=kind, c_guess=c if kind == "known_c" else 1.0, delta_stop=delta
        )
        trace = run_strategy(oracle, config)
        report = audit_trace(trace, target, config, oracle)
        bound = report.bound_upper_known if kind == "known_c" else report.bound_upper_unknown
        ok = not report.violations
        rows.append(
            SweepRow(
                row_type="trial",
                d=str(d),
                c=fmt12(c),
                trial=str(trial),
                strategy=kind,
                dist_ot=fmt12(report.dist_ot),
                total_length=fmt12(report.total_length),
                ratio=fmt12(report.ratio),
                bound=fmt12(bound),
                doublings="" if report.doublings is None else str(report.doublings),
                doubling_cap="" if report.doubling_cap is None else str(report.doubling_cap),
                queries=str(report.queries),
                ok="true" if ok else "false",
            )
        )
    return rows


def _sweep_share(args, tasks):
    """Run the trials numbered ``tasks`` in (d, c, trial) order up to the
    first that raises an ``Exception``. Returns the ``(task, rows)`` pairs
    done and the ``(task, exception)`` of that failure, or None."""
    done = []
    for task in tasks:
        cell, trial = divmod(task, args.trials)
        d, c = args.d[cell // len(args.c)], args.c[cell % len(args.c)]
        try:
            done.append((task, _sweep_trial(d, c, trial, args.seed, args.delta)))
        except Exception as exc:
            return done, (task, exc)
    return done, None


def _run_shares(args, shares) -> list:
    """``_sweep_share`` of every share. The first runs here; each other runs
    in a child forked for it, which sends its result back over a pipe. Every
    child is reaped, and killed first if this process's own share raises
    anything but a trial failure."""
    pids, pipes, blobs = [], [], []
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                # fork, not spawn: the worker shares the unit walks built so
                # far. numpy's OpenBLAS shuts its thread pool down first.
                pid = os.fork()
                if pid == 0:
                    # A worker sends one pickle and ends in os._exit, so it
                    # neither flushes its copied stdio nor runs exit handlers.
                    code = 1
                    try:
                        data = pickle.dumps(_sweep_share(args, share))
                        with open(write_end, "wb") as pipe:
                            pipe.write(data)
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(write_end)
            pids.append(pid)
        results = [_sweep_share(args, shares[0])]
        while pipes:
            with open(pipes.pop(0), "rb") as pipe:
                blobs.append(pipe.read())
    except BaseException:
        import signal  # only an interrupted sweep needs it

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in pipes:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for blob, status in zip(blobs, statuses):
        try:
            results.append(pickle.loads(blob))
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(
                f"a sweep worker exited with status {os.waitstatus_to_exitcode(status)} "
                f"without sending its results"
            ) from None
    return results


def cmd_sweep(args) -> int:
    """Every (d, c) cell runs ``--trials`` trials, each seeded by its own
    (d, c, trial), so they run across the CPUs in the process's affinity
    mask and write what one process writes. This process first runs each
    cell's trial 0, which builds the unit walks the cell uses, so that the
    forked workers share them. Worker r of w runs every w-th remaining trial
    from the r-th, and this process is worker 0. A failure raises that of
    the lowest task, the one a single process would have met first."""
    if not all(1.0 <= c < math.inf for c in args.c):
        raise ConfigError("all sweep c values must be finite and >= 1")
    if args.trials < 1:
        raise ConfigError("trials must be >= 1")
    if min(args.d) < 1 or not 0.0 < args.delta < math.inf:
        raise ConfigError("need d >= 1 and finite delta > 0")
    trials = args.trials
    cells = len(args.d) * len(args.c)
    first = _sweep_share(args, range(0, cells * trials, trials))
    # The later trials of a cell past a failed trial 0 would never run in
    # one process.
    rest = (cells if first[1] is None else first[1][0] // trials) * (trials - 1)
    # One process where the platform has no fork or no affinity mask, and
    # where query is wrapped: a wrapper hears only its own process.
    cpus = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        cpus = 1 if PredictionOracle.query_wrapped() else len(os.sched_getaffinity(0))
    workers = max(1, min(cpus, rest))
    # The m-th remaining task is trial 1 + m % (trials - 1) of cell
    # m // (trials - 1).
    shares = [
        (m // (trials - 1) * trials + 1 + m % (trials - 1) for m in range(rest)[r::workers])
        for r in range(workers)
    ]
    results = [first, *_run_shares(args, shares)]
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=operator.itemgetter(0))[1]
    done = sorted((pair for share, _ in results for pair in share), key=operator.itemgetter(0))
    rows = []
    for start in range(0, len(done), trials):
        cell = [row for _, task_rows in done[start : start + trials] for row in task_rows]
        rows.extend(cell)
        for kind in ("known_c", "unknown_c"):
            kind_rows = [r for r in cell if r.strategy == kind]
            ratios = [float(r.ratio) for r in kind_rows]
            d, c, bound = kind_rows[0].d, kind_rows[0].c, kind_rows[0].bound
            # Summed left to right: the built-in sum compensates from
            # Python 3.12 on, which changes the mean's last digit.
            mean = fmt12(reduce(operator.add, ratios, 0.0) / len(ratios))
            for row_type, ratio in (("summary_mean", mean), ("summary_max", fmt12(max(ratios)))):
                rows.append(SweepRow(row_type, d, c, strategy=kind, ratio=ratio, bound=bound))
    lines = [",".join(SweepRow._fields)] + [",".join(r) for r in rows]
    _write(args.out, "\n".join(lines) + "\n")
    bad = [r for r in rows if r.ok == "false"]
    for r in bad:
        print(
            f"VIOLATION: d={r.d} c={r.c} trial={r.trial} "
            f"strategy={r.strategy} ratio={r.ratio} bound={r.bound}",
            file=sys.stderr,
        )
    print(f"sweep: {sum(1 for r in rows if r.row_type == 'trial')} trial rows, "
          f"{len(bad)} violations -> {args.out}")
    return 1 if bad else 0


def cmd_lowerbound(args) -> int:
    if not 4.0 < args.c < math.inf:
        raise ConfigError("the adversarial construction needs a finite c > 4")
    if args.strategy not in ("known_c", "unknown_c"):
        raise ConfigError("strategy must be known_c or unknown_c")
    if args.d < 1 or not 0.0 < args.delta < math.inf:
        raise ConfigError("need d >= 1 and finite delta > 0")
    if args.svg is not None and args.d != 2:
        raise ConfigError(f"--svg needs d = 2, got d = {args.d}")
    instance = build_adversarial_instance(args.c, args.d)
    config = StrategyConfig(
        kind=args.strategy,
        c_guess=args.c if args.strategy == "known_c" else 1.0,
        delta_stop=args.delta,
    )
    trace = run_strategy(instance, config)
    committed = instance.committed
    target = committed if committed is not None else instance.targets[instance.live[0]]
    report = audit_trace(trace, target, config, instance, instance=instance)
    replay_ok = replay_consistent(instance)
    if not replay_ok:
        mismatch = "query log replay against the committed target mismatched"
        report = replace(report, violations=(*report.violations, mismatch))
    payload = report.to_dict()
    payload["replay_ok"] = replay_ok
    payload["committed_target"] = None if committed is None else list(committed.coords)
    _write(args.report, _report_json(payload))
    if args.svg is not None:
        _write(args.svg, render_svg(trace, target=target, instance=instance))
    _print_summary(report)
    print(
        f"adversary: {report.n_targets} candidate balls, visited={report.balls_visited}, "
        f"replay_ok={replay_ok}"
    )
    return 0 if not report.violations else 1


def cmd_net(args) -> int:
    if args.d < 1 or args.samples < 1 or args.seed < 0:
        raise ConfigError("need d >= 1, samples >= 1 and seed >= 0")
    if args.check and args.samples * args.d > CANDIDATE_CAP:
        raise ConfigError(
            f"samples * d = {args.samples * args.d} sample coordinates exceed the cap of "
            f"{CANDIDATE_CAP}"
        )
    if not MIN_SCALE <= args.eps <= args.r <= MAX_SCALE:
        raise ConfigError(f"need 2^-500 <= eps <= r <= 2^500, got eps={args.eps!r}, r={args.r!r}")
    net = build_net(Ball(origin(args.d), args.r), args.eps)
    lower = net_size_lower_bound(args.r, args.eps, args.d)
    upper = net_size_upper_bound(args.r, args.eps, args.d)
    print(f"|N| = {len(net)}")
    print(f"size lower bound (r/eps)^d = {fmt12(lower)}")
    print(f"size upper bound (4.5*r/eps)^d = {fmt12(upper)}")
    ok = lower <= len(net) <= upper
    print(f"size within bounds: {ok}")
    if args.check:
        cover = check_covering(net, args.samples, args.seed)
        sep = check_separation(net)
        print(
            f"covering: {'ok' if cover.ok else 'FAILED'} "
            f"(max_gap={fmt12(cover.max_gap)} vs eps={fmt12(args.eps)}, "
            f"{cover.samples} samples)"
        )
        print(f"separation: {'ok' if sep else 'FAILED'} (s={fmt12(net.separation)})")
        ok = ok and cover.ok and sep
    if args.dump is not None:
        header = ",".join(f"x{k}" for k in range(args.d))
        lines = [header] + [",".join(fmt12(x) for x in row) for row in net.rows.tolist()]
        _write(args.dump, "\n".join(lines) + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predsearch",
        description="Audited experiments for target search guided by distance predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one config-driven search, audited")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--out", default=None, help="trace CSV path")
    p_run.add_argument("--report", default=None, help="report JSON path")
    p_run.add_argument("--svg", default=None, help="SVG path (d=2 only)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="(d, c) grid of seeded trials")
    p_sweep.add_argument("--d", type=int, nargs="+", required=True)
    p_sweep.add_argument("--c", type=float, nargs="+", required=True)
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--delta", type=float, default=StrategyConfig.delta_stop)
    p_sweep.add_argument("--out", required=True, help="sweep CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_lb = sub.add_parser("lowerbound", help="run a strategy against the adaptive adversary")
    p_lb.add_argument("--c", type=float, required=True)
    p_lb.add_argument("--d", type=int, required=True)
    p_lb.add_argument("--strategy", default="unknown_c")
    p_lb.add_argument("--delta", type=float, default=StrategyConfig.delta_stop)
    p_lb.add_argument("--report", default=None, help="report JSON path")
    p_lb.add_argument("--svg", default=None, help="SVG path (d=2 only)")
    p_lb.set_defaults(func=cmd_lowerbound)

    p_net = sub.add_parser("net", help="build a net and certify its bounds")
    p_net.add_argument("--d", type=int, required=True)
    p_net.add_argument("--r", type=float, default=1.0)
    p_net.add_argument("--eps", type=float, required=True)
    p_net.add_argument("--check", action="store_true", help="run covering/separation checks")
    p_net.add_argument("--samples", type=int, default=10_000)
    p_net.add_argument("--seed", type=int, default=0)
    p_net.add_argument("--dump", default=None, help="net point CSV path")
    p_net.set_defaults(func=cmd_net)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for path in (getattr(args, name, None) for name in ("out", "report", "svg", "dump")):
            if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
                raise ConfigError(f"cannot write {path}: not a file in an existing directory")
        return args.func(args)
    except (ConfigError, CandidateCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GuessTooSmallError, QueryBudgetExceeded) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
