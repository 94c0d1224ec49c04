"""Bound formulas, the adaptive adversary, and trace auditing.

The adversary maintains a set of still-live candidate targets whose
prediction functions agree everywhere outside their private balls. A query
inside a live ball eliminates that candidate (while more than one remains);
the last surviving candidate is the committed target and is answered
exactly. Every answer is consistent with the prediction function of every
candidate live at answer time, so replaying the query log against the
committed target's function reproduces the answers bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .geometry import Ball, Point, distance, origin
from .nets import pairs_within, separated_set
from .oracles import QueryRecorder, piecewise_predictions
from .strategies import SearchTrace, StrategyConfig, step_length_bound

__all__ = [
    "AdversarialInstance",
    "ExperimentReport",
    "tsp_ball_lower_bound",
    "bound_upper_known",
    "bound_upper_unknown",
    "bound_lower",
    "adversarial_path_floor",
    "doubling_cap",
    "build_adversarial_instance",
    "replay_consistent",
    "count_visited_balls",
    "audit_trace",
]


def tsp_ball_lower_bound(n: int, delta: float, d: int) -> float:
    """Minimum length of a path meeting n pairwise interior-disjoint
    delta-balls in R^d: max(0, (n/2^d - 1) * delta * sqrt(pi/d))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not delta > 0.0:
        raise ValueError("delta must be > 0")
    return max(0.0, (n / 2.0**d - 1.0) * delta * math.sqrt(math.pi / d))


def bound_upper_known(c: float, d: int) -> float:
    """Competitive-ratio ceiling 2*6^d*c^(d+1) for the known-factor strategy."""
    if c < 1.0:
        raise ValueError("c must be >= 1")
    return 2.0 * 6.0**d * c ** (d + 1)


def bound_upper_unknown(c: float, d: int) -> float:
    """Competitive-ratio ceiling 12^(d+1)*c^(d+1) for the doubling strategy."""
    if c < 1.0:
        raise ValueError("c must be >= 1")
    return 12.0 ** (d + 1) * c ** (d + 1)


def bound_lower(c: float, d: int) -> float:
    """Competitive-ratio floor (1/4)*(c/16)^(d-1)*min(sqrt(pi/d), 1) that no
    strategy can beat against the adversarial family (needs c >= 4)."""
    if c < 4.0:
        raise ValueError("the lower bound requires c >= 4")
    return 0.25 * (c / 16.0) ** (d - 1) * min(math.sqrt(math.pi / d), 1.0)


def adversarial_path_floor(c: float, d: int) -> float:
    """Path-length floor (c^(d-1)/16^d)*min(sqrt(pi/d), 1) for any successful
    search against the adversarial family."""
    if c < 4.0:
        raise ValueError("the lower bound requires c >= 4")
    return c ** (d - 1) / 16.0**d * min(math.sqrt(math.pi / d), 1.0)


def doubling_cap(c: float) -> int:
    """Largest doubling index the unknown-factor strategy can reach against a
    true factor c (the index starts at 1)."""
    return max(1, math.ceil(math.log2(c))) if c > 1.0 else 1


class AdversarialInstance(QueryRecorder):
    """Adaptive adversary over a separated family of candidate targets.

    Presents the oracle interface used by the strategies (query, the one
    batched query_rows, query_count, dimension, c_factor). Mutable
    single-owner state: one instance per run. ``_answer`` takes a chunk in
    one pass: until the commit, :func:`pairs_within` finds which rows that
    can remove a candidate lie in which live balls, and the hit candidates
    go in the order of the per-row adversary; one ``piecewise_predictions``
    call answers the chunk. A single ``query`` is a one-row chunk.

    No memo is needed: a query that falls in a live ball removes that
    candidate while others live, so after a query at p either no live ball
    holds p or one candidate is left. A revisit of p then removes nothing
    and gets the same value, and the committed target's ball was never hit
    before it was committed. ``replay_consistent`` checks the whole log
    against the committed target's prediction function bit for bit.
    """

    query = QueryRecorder.query

    def __init__(self, c: float, targets: tuple[Point, ...]):
        if c <= 4.0:
            raise ValueError("the adversarial construction needs c > 4")
        if len(targets) == 0:
            raise ValueError("need at least one candidate target")
        super().__init__(targets[0].dimension, float(c))
        self.c = self.c_factor
        self.targets = tuple(targets)
        self.ball_radius = 1.0 / self.c
        self.live: list[int] = list(range(len(targets)))
        self._centres = np.array([t.coords for t in targets])

    @property
    def committed(self) -> Point | None:
        """The surviving target once all other candidates are eliminated."""
        if len(self.live) == 1:
            return self.targets[self.live[0]]
        return None

    def _answer(self, rows: np.ndarray, stop: float) -> np.ndarray:
        if len(self.live) > 1:
            # Until the commit each answer is the value all live candidates
            # share outside their balls, so only rows up to the first such
            # value <= stop can remove one.
            stops = np.flatnonzero(piecewise_predictions(None, self.c, rows) <= stop)
            reach = stops[0] + 1 if len(stops) else len(rows)
            live = np.array(self.live)
            # Each live candidate's first row in its ball, or reach.
            hit, row = pairs_within(rows[:reach], self._centres[live], self.ball_radius)
            first = np.full(len(live), reach)
            np.minimum.at(first, hit, row)
            # Each one hit goes at its first hit row, in ascending index there,
            # while another one lives.
            gone = min(np.count_nonzero(first < reach), len(live) - 1)
            self.live = np.delete(live, np.argsort(first, kind="stable")[:gone]).tolist()
        # No row answered before the commit lies in a live ball.
        return piecewise_predictions(self.targets[self.live[0]], self.c, rows)


def build_adversarial_instance(c: float, d: int) -> AdversarialInstance:
    """Candidate targets: a (2/c)-separated set inside B(o, 1/4).

    The private balls B(t, 1/c) are then pairwise interior disjoint, and the
    construction must yield at least (c/8)^d candidates.
    """
    if c <= 4.0:
        raise ValueError("the adversarial construction needs c > 4")
    targets = separated_set(Ball(origin(d), 0.25), 2.0 / c)
    required = (c / 8.0) ** d
    if len(targets) < required:
        raise RuntimeError(
            f"internal error: separated set has {len(targets)} points, "
            f"below the required (c/8)^d = {required}"
        )
    return AdversarialInstance(c, targets)


def replay_consistent(instance: AdversarialInstance) -> bool:
    """Replay the full query log against the committed target's prediction
    function; every answer must match bit for bit."""
    committed = instance.committed
    if committed is None:
        return False
    rows, values = instance.query_arrays()
    return bool(np.array_equal(piecewise_predictions(committed, instance.c, rows), values))


def _segment_gaps2(starts: np.ndarray, deltas: np.ndarray, len2: np.ndarray, z) -> np.ndarray:
    """Squared gap from ``z`` (a point or one row per segment) to the closest
    point of each segment ``starts + t * deltas``, t in [0, 1]; ``len2`` holds
    the squared segment lengths."""
    t = np.einsum("ij,ij->i", z - starts, deltas) / np.where(len2 > 0.0, len2, 1.0)
    t = np.clip(np.where(len2 > 0.0, t, 0.0), 0.0, 1.0)
    closest = starts + t[:, None] * deltas
    return np.einsum("ij,ij->i", closest - z, closest - z)


def count_visited_balls(verts: np.ndarray, centers, radius: float) -> int:
    """How many of the balls the polyline through the (n, d) vertex rows
    reaches: a ball counts when some segment passes strictly inside it.

    A ball's witness is the one or two segments at a vertex within
    ``radius`` of its centre (:func:`pairs_within`); only a ball without a
    witness that reaches it gets the scan of every segment. Each segment's
    gap is the same either way, so the count is that of the scan.
    """
    starts, ends = (verts, verts) if len(verts) == 1 else (verts[:-1], verts[1:])
    deltas = ends - starts
    len2 = np.einsum("ij,ij->i", deltas, deltas)
    z = np.array([c.coords for c in centers], dtype=np.float64).reshape(-1, verts.shape[1])
    ball, vert = pairs_within(verts, z, radius)
    # One vertex per ball, and the segments ending and starting there.
    ball, head = np.unique(ball, return_index=True)
    seg = np.clip(np.concatenate([vert[head] - 1, vert[head]]), 0, len(starts) - 1)
    gaps2 = _segment_gaps2(starts[seg], deltas[seg], len2[seg], np.concatenate([z[ball], z[ball]]))
    witnessed = ball[gaps2.reshape(2, -1).min(axis=0) < radius * radius]
    visited = len(witnessed)
    for center in np.delete(z, witnessed, axis=0):
        if np.min(_segment_gaps2(starts, deltas, len2, center)) < radius * radius:
            visited += 1
    return visited


@dataclasses.dataclass(frozen=True)
class ExperimentReport:
    """Audited outcome of one search run, with every applicable bound."""

    strategy: str
    d: int
    c: float
    total_length: float
    dist_ot: float
    ratio: float | None
    degenerate: bool
    reached: bool
    queries: int
    doublings: int | None
    bound_upper_known: float
    bound_upper_unknown: float
    bound_lower_corollary: float | None
    doubling_cap: int | None
    step_bound_ok: bool
    worst_step_fraction: float | None
    worst_step_ideal_fraction: float | None
    n_targets: int | None
    balls_visited: int | None
    tsp_floor: float | None
    path_floor: float | None
    combined_floor: float | None
    violations: tuple[str, ...]

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "violations": list(self.violations)}


def audit_trace(
    trace: SearchTrace,
    target: Point,
    config: StrategyConfig,
    oracle,
    instance: AdversarialInstance | None = None,
) -> ExperimentReport:
    """Fill an ExperimentReport for a finished run and collect every bound
    violation (an empty violation list is the pass condition)."""
    d = trace.dimension
    c = float(oracle.c_factor)
    dist_ot = distance(origin(d), target)
    degenerate = dist_ot == 0.0
    ratio = None if degenerate else trace.total_length / dist_ot
    violations: list[str] = []

    if not trace.reached:
        violations.append("target not reached")

    # Per-step hard length cap from the net-size ceiling; the idealized
    # constant (6 instead of 9) is reported for comparison.
    worst_frac = None
    worst_ideal_frac = None
    step_bound_ok = True
    for s in trace.steps:
        cap = step_length_bound(s.guess, d, s.lambda_start)
        frac = s.segment_length / cap
        worst_frac = frac if worst_frac is None else max(worst_frac, frac)
        ideal_cap = 2.0 * (6.0 * s.guess) ** d * s.lambda_start
        pfrac = s.segment_length / ideal_cap
        worst_ideal_frac = pfrac if worst_ideal_frac is None else max(worst_ideal_frac, pfrac)
        if s.segment_length > cap:
            step_bound_ok = False
    if not step_bound_ok:
        violations.append("a step exceeded its hard length bound")

    upper_known = bound_upper_known(max(c, config.c_guess), d)
    upper_unknown = bound_upper_unknown(c, d)
    lower_corollary = bound_lower(c, d) if c >= 4.0 else None

    cap_doublings = None
    if config.kind == "known_c" and ratio is not None and ratio > upper_known:
        violations.append(f"ratio {ratio:.6g} exceeds the known-factor bound {upper_known:.6g}")
    if config.kind == "unknown_c":
        if ratio is not None and ratio > upper_unknown:
            violations.append(
                f"ratio {ratio:.6g} exceeds the unknown-factor bound {upper_unknown:.6g}"
            )
        cap_doublings = doubling_cap(c)
        if trace.doublings is not None and trace.doublings > cap_doublings:
            violations.append(
                f"doubling index {trace.doublings} exceeds the cap {cap_doublings}"
            )
    if config.kind == "exact_c1":
        limit = (1.0 + config.epsilon_ratio) * dist_ot + 1e-9
        if trace.total_length > limit:
            violations.append(
                f"length {trace.total_length:.12g} exceeds (1+eps)*|ot| = {limit:.12g}"
            )

    n_targets = balls_visited = None
    tsp_floor = path_floor = combined_floor = None
    if instance is not None:
        n_targets = len(instance.targets)
        balls_visited = count_visited_balls(trace.rows, instance.targets, instance.ball_radius)
        tsp_floor = tsp_ball_lower_bound(n_targets, instance.ball_radius, d)
        path_floor = adversarial_path_floor(instance.c, d)
        combined_floor = (
            n_targets / 2.0**d * instance.ball_radius * min(math.sqrt(math.pi / d), 1.0)
        )
        if trace.reached:
            if balls_visited != n_targets:
                violations.append(
                    f"visited {balls_visited} of {n_targets} candidate balls"
                )
            for name, floor in (
                ("tsp", tsp_floor),
                ("worst-case path", path_floor),
                ("combined", combined_floor),
            ):
                if trace.total_length < floor:
                    violations.append(
                        f"length {trace.total_length:.6g} below the {name} floor {floor:.6g}"
                    )
            if ratio is not None and lower_corollary is not None and ratio < lower_corollary:
                violations.append(
                    f"ratio {ratio:.6g} below the corollary floor {lower_corollary:.6g}"
                )

    return ExperimentReport(
        strategy=config.kind,
        d=d,
        c=c,
        total_length=trace.total_length,
        dist_ot=dist_ot,
        ratio=ratio,
        degenerate=degenerate,
        reached=trace.reached,
        queries=oracle.query_count,
        doublings=trace.doublings,
        bound_upper_known=upper_known,
        bound_upper_unknown=upper_unknown,
        bound_lower_corollary=lower_corollary,
        doubling_cap=cap_doublings,
        step_bound_ok=step_bound_ok,
        worst_step_fraction=worst_frac,
        worst_step_ideal_fraction=worst_ideal_frac,
        n_targets=n_targets,
        balls_visited=balls_visited,
        tsp_floor=tsp_floor,
        path_floor=path_floor,
        combined_floor=combined_floor,
        violations=tuple(violations),
    )
