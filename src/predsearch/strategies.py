"""Search strategies driven by distance predictions.

A search is a sequence of contraction steps: from the current point p with
prediction value lam, walk a net of the ball B(p, lam) until some net point
q has lambda(q) <= lam/2, then continue from q. With a guessed prediction
factor c the net uses cover radius lam/(2c); if the whole net fails to halve
the value the guess was provably too small. The unknown-factor strategy
doubles the guess on each such failure. With exact predictions (factor 1)
the target is recovered directly by trilateration from d+1 readings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import Ball, Point, dists_to, edge_lengths, origin, path_length
from .nets import build_net, visit_order
from .oracles import QueryRecorder

__all__ = [
    "STRATEGY_KINDS",
    "StrategyConfig",
    "StepOutcome",
    "StepRecord",
    "SearchTrace",
    "GuessTooSmallError",
    "QueryBudgetExceeded",
    "one_step",
    "run_strategy",
    "trilaterate",
    "phase_endpoints",
    "step_length_bound",
]

STRATEGY_KINDS = ("known_c", "unknown_c", "exact_c1")


class GuessTooSmallError(RuntimeError):
    """The configured factor guess is provably below the oracle's true factor."""


class QueryBudgetExceeded(RuntimeError):
    """The search exceeded its query cap before terminating."""


@dataclass(frozen=True)
class StrategyConfig:
    """Parameters of a search run.

    delta_stop is the detection radius: the search stops once the prediction
    value drops to <= delta_stop. With snap_integral the search instead snaps
    to the unique integer-coordinate point once the value drops below 1/2.
    """

    kind: str
    c_guess: float = 1.0
    delta_stop: float = 1e-3
    epsilon_ratio: float = 0.01
    snap_integral: bool = False
    max_queries: int = 10_000_000

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        for name in ("c_guess", "delta_stop", "epsilon_ratio"):
            value = getattr(self, name)
            if isinstance(value, str):  # which float() would parse
                raise ValueError(f"{name} must be a number, got {value!r}")
            # An int past the float range raises OverflowError here.
            object.__setattr__(self, name, float(value))
        if not 1.0 <= self.c_guess < math.inf:
            raise ValueError("c_guess must be finite and >= 1")
        if not 0.0 < self.delta_stop < math.inf:
            raise ValueError("delta_stop must be finite and > 0")
        if not 0.0 < self.epsilon_ratio < math.inf:
            raise ValueError("epsilon_ratio must be finite and > 0")
        if not isinstance(self.snap_integral, bool):
            raise ValueError(f"snap_integral must be true or false, got {self.snap_integral!r}")
        if type(self.max_queries) is not int or self.max_queries < 1:  # a bool is not a count
            raise ValueError(f"max_queries must be an integer >= 1, got {self.max_queries!r}")


@dataclass(frozen=True, eq=False)
class StepOutcome:
    """Result of one contraction step.

    variant "advanced": the walk stopped at next_point with value <= lam/2.
    variant "guess_too_small": the whole net failed; the walk returned to its
    starting point. The segment always starts at the step's base point and
    stays inside B(base, lam).

    ``rows`` holds the queried net points in walk order; the oracle logged
    them from position ``first`` on, and ``values`` is a copy of their
    answers read from that log. ``next_value`` is the value that stopped
    the walk, or None. ``segment_rows`` is the walked polyline.
    ``next_point`` and ``queries`` are Point views.
    """

    variant: str
    base: np.ndarray
    rows: np.ndarray
    first: int
    next_value: float | None
    oracle: QueryRecorder

    @cached_property
    def values(self) -> np.ndarray:
        return self.oracle.query_arrays()[1][self.first : self.first + len(self.rows)].copy()

    @cached_property
    def segment_rows(self) -> np.ndarray:
        base = self.base[None, :]
        tail = base[:0] if self.variant == "advanced" else base
        return np.concatenate((base, self.rows, tail))

    @property
    def next_point(self) -> Point | None:
        return Point(self.rows[-1].tolist()) if self.variant == "advanced" else None

    @cached_property
    def queries(self) -> tuple[tuple[Point, float], ...]:
        return tuple(zip(map(Point, self.rows.tolist()), self.values.tolist()))


@dataclass(frozen=True)
class StepRecord:
    """Audited summary of one contraction step inside a search trace."""

    j: int
    i: int
    guess: float
    lambda_start: float
    lambda_end: float
    segment_length: float
    queries: int
    advanced: bool


@dataclass(frozen=True, eq=False)
class SearchTrace:
    """Full record of a search: the polyline as an (n, d) array of vertex
    rows, the per-vertex prediction values as a float64 array, an (n, 2)
    int array of (doubling index j, contraction index i) labels, and
    per-step summaries. ``final_point`` is a Point view.

    ``log_index`` holds each vertex's position in ``oracle``'s query log; a
    vertex the walk returns to repeats its base's. ``lambda_values`` is a
    copy of the values read from the log at those positions."""

    rows: np.ndarray
    log_index: np.ndarray
    phase_labels: np.ndarray
    total_length: float
    reached: bool
    doublings: int | None
    steps: tuple[StepRecord, ...]
    oracle: QueryRecorder

    def __post_init__(self):
        n = len(self.rows)
        if n == 0 or len(self.log_index) != n or len(self.phase_labels) != n:
            raise ValueError("per-vertex fields must match a nonzero vertex count")

    @cached_property
    def lambda_values(self) -> np.ndarray:
        return self.oracle.query_arrays()[1][self.log_index]

    @property
    def dimension(self) -> int:
        return self.rows.shape[1]

    @property
    def final_point(self) -> Point:
        return Point(self.rows[-1].tolist())

    @property
    def final_lambda(self) -> float:
        return self.lambda_values[-1].item()


def step_length_bound(guess: float, dimension: int, lam: float) -> float:
    """Hard per-step length cap 2*(9*guess)^d*lam implied by the net size
    ceiling (the idealized analysis gives 2*(6*guess)^d*lam)."""
    return 2.0 * (9.0 * guess) ** dimension * lam


@lru_cache(maxsize=32)
def _unit_walk(dimension: int, eps: float) -> np.ndarray:
    """Visit-ordered net of the unit ball, walked from its center, as
    read-only rows.

    Contraction steps always start at the net ball's center, so the visit
    order only depends on (dimension, eps/radius); steps reuse it through an
    affine map.
    """
    ball = Ball(origin(dimension), 1.0)
    return visit_order(build_net(ball, eps), ball.center)


def one_step(
    p_i: Point,
    lambda_i: float,
    c_guess: float,
    oracle,
    query_limit: int | None = None,
) -> StepOutcome:
    """One contraction step from p_i with current prediction value lambda_i.

    Builds a net of B(p_i, lambda_i) with cover radius lambda_i/(2*c_guess)
    and walks it in greedy nearest-neighbor order, querying each point. Stops
    at the first point q with lambda(q) <= lambda_i/2 ("advanced"); if the
    net is exhausted, returns to p_i ("guess_too_small"), which certifies
    that the true prediction factor exceeds c_guess. The net rows go to the
    oracle in one walk, the one ``query_rows`` runs, which rejects a
    non-finite row before any query; ``StepOutcome.values`` reads their
    values from the oracle's log. With a ``query_limit``, a walk that needs
    more queries raises QueryBudgetExceeded once the oracle has answered
    exactly ``query_limit`` queries in all.
    """
    if not lambda_i > 0.0:
        raise ValueError(f"lambda_i must be > 0, got {lambda_i!r}")
    if c_guess < 1.0:
        raise ValueError("c_guess must be >= 1")
    d = p_i.dimension
    walk = _unit_walk(d, 1.0 / (2.0 * c_guess))
    base = np.array(p_i.coords, dtype=np.float64)
    pts = walk * lambda_i + base
    # Keep closed ball membership exact under the affine map.
    pts = pts[dists_to(pts, p_i.coords) <= lambda_i]
    first = oracle.query_count
    # The walk queries no row at a limit <= 0.
    limit = len(pts) if query_limit is None else min(len(pts), query_limit - first)
    value = oracle._walk(pts, lambda_i / 2.0, limit)
    queried = oracle.query_count - first
    if value is not None:
        return StepOutcome("advanced", base, pts[:queried].copy(), first, value, oracle)
    if queried < len(pts):
        raise QueryBudgetExceeded(f"query limit {query_limit} reached during a step")
    return StepOutcome("guess_too_small", base, pts, first, None, oracle)


class _TraceBuilder:
    """A search's vertex rows, log positions and phase labels, and its
    steps, assembled into a :class:`SearchTrace` once, in ``freeze``."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.rows: list[np.ndarray] = []
        self.index: list[np.ndarray] = []
        self.labels: list[tuple[int, int]] = []
        self.size = 0
        self.steps: list[tuple[int, int, tuple]] = []

    def query(self, p: Point, label: tuple[int, int]) -> float:
        """Query p, append it as a vertex under the phase label, return its value."""
        first = self.oracle.query_count
        value = self.oracle.query(p)
        self.extend([p.coords], first, label)
        return value

    def extend(self, rows, first: int, label: tuple[int, int]):
        """Append vertex rows (an (n, d) array or a list of coordinate
        tuples), logged from position ``first`` on, under one phase label."""
        self.rows.append(np.asarray(rows, dtype=np.float64))
        self.index.append(np.arange(first, first + len(rows), dtype=np.int64))
        self.labels.append(label)
        self.size += len(rows)

    def step(self, base: int, *fields):
        """Record a step whose segment runs from vertex ``base`` to the
        last vertex so far, with the StepRecord fields other than
        ``segment_length``, in order."""
        self.steps.append((base, self.size - 1, fields))

    def freeze(self, reached: bool, doublings: int | None) -> SearchTrace:
        rows = np.concatenate(self.rows)
        counts = [len(index) for index in self.index]
        # A step's segment is a run of the trace's own edges. np.cumsum adds
        # them left to right, as path_length does over the segment's rows.
        edges = edge_lengths(rows)
        steps = []
        for base, last, (j, i, guess, lam, lam_end, queries, advanced) in self.steps:
            length = float(np.cumsum(edges[base:last])[-1])
            steps.append(StepRecord(j, i, guess, lam, lam_end, length, queries, advanced))
        return SearchTrace(
            rows=rows,
            log_index=np.concatenate(self.index),
            phase_labels=np.repeat(np.array(self.labels, dtype=np.int64), counts, axis=0),
            total_length=path_length(rows),
            reached=reached,
            doublings=doublings,
            steps=tuple(steps),
            oracle=self.oracle,
        )


def _contraction_search(oracle, config: StrategyConfig, doubling: bool) -> SearchTrace:
    p = origin(oracle.dimension)
    j = 1 if doubling else 0
    i = 0
    builder = _TraceBuilder(oracle)
    at = oracle.query_count  # the log position of p
    lam = builder.query(p, (j, i))
    reached = False
    while True:
        if lam <= config.delta_stop:
            reached = True
            break
        if config.snap_integral and lam < 0.5:
            snapped = Point(tuple(float(round(x)) for x in p.coords))
            value = builder.query(snapped, (j, i))
            reached = value == 0.0 or value <= config.delta_stop
            break
        guess = float(2**j) if doubling else config.c_guess
        outcome = one_step(p, lam, guess, oracle, query_limit=config.max_queries)
        base = builder.size - 1
        first, n = outcome.first, len(outcome.rows)
        if outcome.variant == "advanced":
            builder.extend(outcome.rows[:-1], first, (j, i))
            builder.extend(outcome.rows[-1:], first + n - 1, (j, i + 1))
            builder.step(base, j, i + 1, guess, lam, outcome.next_value, n, True)
            p, lam, at = outcome.next_point, outcome.next_value, first + n - 1
            i += 1
        else:
            if not doubling:
                raise GuessTooSmallError(
                    f"guess c={config.c_guess} exhausted a net without halving: "
                    f"the oracle's true factor exceeds it"
                )
            builder.extend(outcome.rows, first, (j, i))
            # The walk returns to p, which opens the next guess's phase.
            builder.extend([p.coords], at, (j + 1, i))
            builder.step(base, j, i, guess, lam, lam, n, False)
            j += 1
    return builder.freeze(reached, j if doubling else None)


def trilaterate(queries, dimension: int) -> Point:
    """Recover the unique point at the given distances from d+1 centers.

    Subtracting the first sphere equation from the others yields a d x d
    linear system; the offsets minus the base point must span R^d.
    """
    if len(queries) != dimension + 1:
        raise ValueError(f"need exactly {dimension + 1} readings, got {len(queries)}")
    base_p, base_r = queries[0]
    rows = []
    rhs = []
    b0 = np.array(base_p.coords, dtype=np.float64)
    for pk, rk in queries[1:]:
        pkv = np.array(pk.coords, dtype=np.float64)
        rows.append(2.0 * (pkv - b0))
        rhs.append(float(pkv @ pkv - b0 @ b0 - rk * rk + base_r * base_r))
    a = np.array(rows)
    if np.linalg.matrix_rank(a) < dimension:
        raise ValueError("offset points do not span the space; spheres do not meet in one point")
    t = np.linalg.solve(a, np.array(rhs))
    return Point(tuple(t))


def _exact_search(oracle, config: StrategyConfig) -> SearchTrace:
    """Search with exact distance readings (factor 1).

    Walks out and back along each axis by lambda(o)*epsilon_ratio/(2d),
    trilaterates the target from the d+1 readings, and walks straight to it.
    Total length is at most (1 + epsilon_ratio) * |o t|.
    """
    d = oracle.dimension
    o = origin(d)
    builder = _TraceBuilder(oracle)
    lam0 = builder.query(o, (0, 0))
    if lam0 == 0.0:
        return builder.freeze(reached=True, doublings=None)
    offset = lam0 * config.epsilon_ratio / (2.0 * d)
    readings = [(o, lam0)]
    for axis in range(d):
        coords = list(o.coords)
        coords[axis] += offset
        probe = Point(tuple(coords))
        readings.append((probe, builder.query(probe, (0, 0))))
        builder.extend([o.coords], builder.index[0][0], (0, 0))
    target_estimate = trilaterate(readings, d)
    final_value = builder.query(target_estimate, (0, 1))
    reached = final_value <= max(config.delta_stop, 1e-9 * lam0)
    return builder.freeze(reached=reached, doublings=None)


def run_strategy(oracle, config: StrategyConfig) -> SearchTrace:
    """Run the search that ``config.kind`` names.

    known_c: contraction steps with the fixed guess ``c_guess``, which must
    be >= the oracle's true factor, else GuessTooSmallError. unknown_c: the
    guess starts at 2 and doubles whenever a step certifies that it is too
    small. exact_c1: trilateration from exact readings.
    """
    if config.kind == "exact_c1":
        return _exact_search(oracle, config)
    return _contraction_search(oracle, config, doubling=config.kind == "unknown_c")


def phase_endpoints(trace: SearchTrace) -> list[tuple[int, int, int, float]]:
    """(j, i, vertex index, lambda) for the first vertex of every phase label:
    exactly the points the contraction argument tracks."""
    labels = trace.phase_labels
    firsts = np.sort(np.unique(labels, axis=0, return_index=True)[1]).tolist()
    return [(*labels[k].tolist(), k, trace.lambda_values[k].item()) for k in firsts]
