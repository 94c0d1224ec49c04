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

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import Ball, Point, PolyPath, origin, path_length
from .nets import DEFAULT_CANDIDATE_CAP, build_net, dists_to, visit_order

__all__ = [
    "STRATEGY_KINDS",
    "StrategyConfig",
    "StepOutcome",
    "StepRecord",
    "SearchTrace",
    "GuessTooSmallError",
    "QueryBudgetExceeded",
    "one_step",
    "search_known_c",
    "search_unknown_c",
    "search_exact",
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
        if self.c_guess < 1.0:
            raise ValueError("c_guess must be >= 1")
        if not (self.delta_stop > 0.0):
            raise ValueError("delta_stop must be > 0")
        if not (self.epsilon_ratio > 0.0):
            raise ValueError("epsilon_ratio must be > 0")
        if self.max_queries < 1:
            raise ValueError("max_queries must be >= 1")


@dataclass(frozen=True, eq=False)
class StepOutcome:
    """Result of one contraction step.

    variant "advanced": the walk stopped at next_point with value <= lam/2.
    variant "guess_too_small": the whole net failed; the walk returned to its
    starting point. The segment always starts at the step's base point and
    stays inside B(base, lam).

    ``rows`` holds the queried net points in walk order and ``values`` their
    answers; ``segment_rows`` is the walked polyline. ``next_point``,
    ``segment`` and ``queries`` are Point views built on first access.
    """

    variant: str
    base: np.ndarray
    rows: np.ndarray
    values: np.ndarray

    @cached_property
    def segment_rows(self) -> np.ndarray:
        base = self.base[None, :]
        tail = base[:0] if self.variant == "advanced" else base
        return np.concatenate((base, self.rows, tail))

    @property
    def next_point(self) -> Point | None:
        return Point(self.rows[-1].tolist()) if self.variant == "advanced" else None

    @property
    def next_value(self) -> float | None:
        return float(self.values[-1]) if self.variant == "advanced" else None

    @cached_property
    def segment(self) -> PolyPath:
        return PolyPath(tuple(map(Point, self.segment_rows.tolist())))

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
    rows, per-vertex prediction values and (doubling index j, contraction
    index i) labels, and per-step summaries. ``vertices`` and ``final_point``
    are Point views built on first access."""

    rows: np.ndarray
    lambda_values: tuple[float, ...]
    phase_labels: tuple[tuple[int, int], ...]
    total_length: float
    reached: bool
    doublings: int | None
    steps: tuple[StepRecord, ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0 or len(self.lambda_values) != n or len(self.phase_labels) != n:
            raise ValueError("per-vertex fields must match a nonzero vertex count")

    @property
    def dimension(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def vertices(self) -> PolyPath:
        return PolyPath(tuple(map(Point, self.rows.tolist())))

    @property
    def final_point(self) -> Point:
        return Point(self.rows[-1].tolist())

    @property
    def final_lambda(self) -> float:
        return self.lambda_values[-1]


def step_length_bound(guess: float, dimension: int, lam: float) -> float:
    """Hard per-step length cap 2*(9*guess)^d*lam implied by the net size
    ceiling (the idealized analysis gives 2*(6*guess)^d*lam)."""
    return 2.0 * (9.0 * guess) ** dimension * lam


@lru_cache(maxsize=32)
def _unit_walk(dimension: int, eps: float, cap: int) -> np.ndarray:
    """Visit-ordered net of the unit ball, walked from its center.

    Contraction steps always start at the net ball's center, so the visit
    order only depends on (dimension, eps/radius); steps reuse it through an
    affine map.
    """
    ball = Ball(origin(dimension), 1.0)
    net = build_net(ball, eps, candidate_cap=cap)
    ordered = visit_order(net, ball.center)
    arr = np.array([p.coords for p in ordered], dtype=np.float64)
    arr.flags.writeable = False
    return arr


def one_step(
    p_i: Point,
    lambda_i: float,
    c_guess: float,
    oracle,
    query_limit: int | None = None,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> StepOutcome:
    """One contraction step from p_i with current prediction value lambda_i.

    Builds a net of B(p_i, lambda_i) with cover radius lambda_i/(2*c_guess)
    and walks it in greedy nearest-neighbor order, querying each point. Stops
    at the first point q with lambda(q) <= lambda_i/2 ("advanced"); if the
    net is exhausted, returns to p_i ("guess_too_small"), which certifies
    that the true prediction factor exceeds c_guess. The net rows go to the
    oracle in one ``query_rows`` call, which rejects a non-finite row before
    any query. With a ``query_limit``, a walk that needs more queries raises
    QueryBudgetExceeded once the oracle has answered exactly ``query_limit``
    queries in all.
    """
    if not lambda_i > 0.0:
        raise ValueError(f"lambda_i must be > 0, got {lambda_i!r}")
    if c_guess < 1.0:
        raise ValueError("c_guess must be >= 1")
    d = p_i.dimension
    walk = _unit_walk(d, 1.0 / (2.0 * c_guess), candidate_cap)
    base = np.array(p_i.coords, dtype=np.float64)
    pts = walk * lambda_i + base
    # Keep closed ball membership exact under the affine map.
    pts = pts[dists_to(pts, p_i.coords) <= lambda_i]
    limit = len(pts)
    if query_limit is not None:
        limit = max(0, min(limit, query_limit - oracle.query_count))
    values = oracle.query_rows(pts, lambda_i / 2.0, limit)
    n = len(values)
    if n > 0 and values[-1] <= lambda_i / 2.0:
        return StepOutcome("advanced", base, pts[:n].copy(), values)
    if n < len(pts):
        raise QueryBudgetExceeded(f"query limit {query_limit} reached during a step")
    return StepOutcome("guess_too_small", base, pts, values)


class _TraceBuilder:
    def __init__(self, start: Point, start_value: float, label: tuple[int, int]):
        self.chunks: list[np.ndarray] = []
        self.lambdas: list[float] = []
        self.labels: list[tuple[int, int]] = []
        self.steps: list[StepRecord] = []
        self.extend([start.coords], [start_value], label)

    def extend(self, rows, values, label):
        """Append vertex rows (an (n, d) array or a list of coordinate
        tuples) with their prediction values under one phase label."""
        self.chunks.append(np.asarray(rows, dtype=np.float64))
        self.lambdas.extend(values)
        self.labels.extend([label] * len(values))

    def freeze(self, reached: bool, doublings: int | None) -> SearchTrace:
        rows = np.concatenate(self.chunks)
        return SearchTrace(
            rows=rows,
            lambda_values=tuple(self.lambdas),
            phase_labels=tuple(self.labels),
            total_length=path_length(rows),
            reached=reached,
            doublings=doublings,
            steps=tuple(self.steps),
        )


def _snap_to_integer(p: Point) -> Point:
    return Point(tuple(float(round(x)) for x in p.coords))


def _contraction_search(oracle, config: StrategyConfig, doubling: bool) -> SearchTrace:
    d = oracle.dimension
    p = origin(d)
    lam = oracle.query(p)
    j = 1 if doubling else 0
    i = 0
    builder = _TraceBuilder(p, lam, (j, i))
    reached = False
    while True:
        if lam <= config.delta_stop:
            reached = True
            break
        if config.snap_integral and lam < 0.5:
            snapped = _snap_to_integer(p)
            value = oracle.query(snapped)
            builder.extend([snapped.coords], [value], (j, i))
            p, lam = snapped, value
            reached = value == 0.0 or value <= config.delta_stop
            break
        guess = float(2**j) if doubling else config.c_guess
        outcome = one_step(p, lam, guess, oracle, query_limit=config.max_queries)
        seg_length = path_length(outcome.segment_rows)
        values = outcome.values.tolist()
        if outcome.variant == "advanced":
            builder.extend(outcome.rows[:-1], values[:-1], (j, i))
            builder.extend(outcome.rows[-1:], values[-1:], (j, i + 1))
            builder.steps.append(
                StepRecord(j, i + 1, guess, lam, values[-1], seg_length, len(values), True)
            )
            p, lam = outcome.next_point, values[-1]
            i += 1
        else:
            builder.extend(outcome.rows, values, (j, i))
            builder.steps.append(StepRecord(j, i, guess, lam, lam, seg_length, len(values), False))
            if not doubling:
                raise GuessTooSmallError(
                    f"guess c={config.c_guess} exhausted a net without halving: "
                    f"the oracle's true factor exceeds it"
                )
            j += 1
            builder.extend([p.coords], [lam], (j, i))
    return builder.freeze(reached, j if doubling else None)


def search_known_c(oracle, config: StrategyConfig) -> SearchTrace:
    """Contraction search with a fixed factor guess (must be >= the oracle's
    true factor, else the run raises GuessTooSmallError)."""
    if config.kind != "known_c":
        raise ValueError(f"config kind {config.kind!r} is not 'known_c'")
    return _contraction_search(oracle, config, doubling=False)


def search_unknown_c(oracle, config: StrategyConfig) -> SearchTrace:
    """Contraction search with exponential guessing: the guess starts at 2 and
    doubles whenever a step certifies it is too small."""
    if config.kind != "unknown_c":
        raise ValueError(f"config kind {config.kind!r} is not 'unknown_c'")
    return _contraction_search(oracle, config, doubling=True)


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


def search_exact(oracle, config: StrategyConfig) -> SearchTrace:
    """Search with exact distance readings (factor 1).

    Walks out and back along each axis by lambda(o)*epsilon_ratio/(2d),
    trilaterates the target from the d+1 readings, and walks straight to it.
    Total length is at most (1 + epsilon_ratio) * |o t|.
    """
    if config.kind != "exact_c1":
        raise ValueError(f"config kind {config.kind!r} is not 'exact_c1'")
    d = oracle.dimension
    o = origin(d)
    lam0 = oracle.query(o)
    builder = _TraceBuilder(o, lam0, (0, 0))
    if lam0 == 0.0:
        return builder.freeze(reached=True, doublings=None)
    offset = lam0 * config.epsilon_ratio / (2.0 * d)
    readings = [(o, lam0)]
    for axis in range(d):
        coords = list(o.coords)
        coords[axis] += offset
        probe = Point(tuple(coords))
        value = oracle.query(probe)
        readings.append((probe, value))
        builder.extend([probe.coords, o.coords], [value, lam0], (0, 0))
    target_estimate = trilaterate(readings, d)
    final_value = oracle.query(target_estimate)
    builder.extend([target_estimate.coords], [final_value], (0, 1))
    reached = final_value <= max(config.delta_stop, 1e-9 * lam0)
    return builder.freeze(reached=reached, doublings=None)


def run_strategy(oracle, config: StrategyConfig) -> SearchTrace:
    """Dispatch on config.kind."""
    if config.kind == "known_c":
        return search_known_c(oracle, config)
    if config.kind == "unknown_c":
        return search_unknown_c(oracle, config)
    return search_exact(oracle, config)


def phase_endpoints(trace: SearchTrace) -> list[tuple[int, int, int, float]]:
    """(j, i, vertex index, lambda) for the first vertex of every phase label:
    exactly the points the contraction argument tracks."""
    seen: set[tuple[int, int]] = set()
    out = []
    for idx, label in enumerate(trace.phase_labels):
        if label not in seen:
            seen.add(label)
            out.append((label[0], label[1], idx, trace.lambda_values[idx]))
    return out
