"""Per-layer tracing of the predsearch CLI from outside the package.

Each traced name is wrapped in the module that calls it (``strategies``
imports ``build_net`` and ``visit_order`` by name, ``cli`` imports
``audit_trace``, ``run_strategy`` and ``render_svg`` by name, and so on), so
nothing under ``src/`` changes. A wrapper records calls and inclusive time;
a stack of open spans gives each span's self time as its inclusive time
minus the inclusive time of the wrapped calls made directly inside it.
Per-point functions (``Point``, ``distance``, ``dists_to``) are not wrapped:
they run millions of times and would swamp the trace.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Wraps callables, accumulating calls, inclusive and self time per name.

    ``counters`` holds extra per-layer counts that the ``on_return`` hooks
    fill in (net points, advanced steps, ...). ``restore`` puts every patched
    attribute back.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.children: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def self_time(self, name: str) -> float:
        return self.inclusive[name] - self.children[name]

    def wrap(self, name: str, fn, on_return=None):
        self.calls.setdefault(name, 0)
        self.inclusive.setdefault(name, 0.0)
        self.children.setdefault(name, 0.0)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.children[name] += stack.pop()
                self.inclusive[name] += elapsed
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute that
        ``owner`` defines itself) with a traced wrapper."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_return))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every predsearch module at the place where
    the CLI path looks them up; each is named <layer>.<function>."""
    from predsearch import cli, oracles, strategies, verification

    def points(name):
        return lambda args, result: tracer.count(name + ".points", len(result))

    # (dimension, cover radius) -> size of the visit-ordered unit net.
    ordered_sizes: dict[tuple[int, float], int] = {}

    def ordered(args, result):
        net = args[0]
        tracer.count("nets.visit_order.points", len(result))
        ordered_sizes[net.ball.dimension, net.cover_radius] = len(result)

    def step_done(args, outcome):
        # args: (p_i, lambda_i, c_guess, ...); the step walks the unit net
        # with cover radius 1/(2*c_guess), scaled to B(p_i, lambda_i), minus
        # any point the affine map pushes out of the ball by one ulp.
        p_i, _, c_guess = args[:3]
        size = ordered_sizes[p_i.dimension, 1.0 / (2.0 * c_guess)]
        tracer.count("strategies.one_step.advanced", outcome.variant == "advanced")
        tracer.count("strategies.one_step.queries", len(outcome.queries))
        tracer.count("strategies.one_step.net_points", size)

    def audited(args, report):
        oracle = args[3]
        if isinstance(oracle, oracles.PredictionOracle):
            tracer.count("oracles.memo_entries", len(oracle.memo))
            tracer.count("oracles.logged_queries", oracle.query_count)

    def instance_built(args, instance):
        tracer.count("verification.candidates", len(instance.targets))

    tracer.patch(strategies, "build_net", "nets.build_net", points("nets.build_net"))
    tracer.patch(cli, "build_net", "nets.build_net", points("nets.build_net"))
    tracer.patch(strategies, "visit_order", "nets.visit_order", ordered)
    tracer.patch(
        verification, "separated_set", "nets.separated_set", points("nets.separated_set")
    )
    tracer.patch(cli, "check_covering", "nets.check_covering")
    tracer.patch(cli, "check_separation", "nets.check_separation")
    tracer.patch(strategies, "one_step", "strategies.one_step", step_done)
    tracer.patch(cli, "run_strategy", "strategies.run_strategy")
    tracer.patch(strategies, "path_length", "geometry.path_length")
    tracer.patch(oracles.PredictionOracle, "query", "oracles.query")
    tracer.patch(verification.AdversarialInstance, "query", "verification.adversary_query")
    tracer.patch(
        cli,
        "build_adversarial_instance",
        "verification.build_adversarial_instance",
        instance_built,
    )
    tracer.patch(cli, "audit_trace", "verification.audit_trace", audited)
    tracer.patch(verification, "count_visited_balls", "verification.count_visited_balls")
    tracer.patch(cli, "replay_consistent", "verification.replay_consistent")
    tracer.patch(cli, "render_svg", "svg.render_svg")


def layer_stats(tracer: Tracer) -> dict[str, float]:
    """Flat per-layer numbers of one traced process."""
    out: dict[str, float] = {}
    for name, calls in tracer.calls.items():
        out[name + ".calls"] = calls
        out[name + ".s"] = tracer.inclusive[name]
        out[name + ".self_s"] = tracer.self_time(name)
    out.update(tracer.counters)
    return out
