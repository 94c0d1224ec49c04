"""Distance-prediction oracles.

Every oracle answers point queries with a value lambda(p) guaranteed to lie
in [c_lo*|pt|, c_hi*|pt|] for the hidden target t, is deterministic per
point (revisits return the identical value), and satisfies lambda(p)=0 only
at the target itself. Also provides the triangle-inequality inference that
tightens predictions from the query history.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from .geometry import Ball, Point, distance, origin
from .nets import dists_to, points_as_array, sample_in_ball

__all__ = [
    "ORACLE_KINDS",
    "OracleSpec",
    "PredictionOracle",
    "QueryHistory",
    "QueryRecorder",
    "piecewise_prediction",
    "piecewise_predictions",
    "validate_oracle",
    "check_prediction_bounds",
    "infer_lipschitz",
    "refined_query",
]

ORACLE_KINDS = ("exact", "affine", "midpoint_open", "seeded_noise", "piecewise_lower_bound")


@dataclass(frozen=True)
class OracleSpec:
    """Parameters of a synthetic prediction function.

    kind:
      exact                  lambda(p) = |pt|
      affine                 lambda(p) = alpha * |pt|
      midpoint_open          lambda(p) = (1 + c_hi)/2 * |pt|
      seeded_noise           lambda(p) = u(p) * |pt|, u(p) a deterministic
                             pseudo-random factor in [c_lo, c_hi)
      piecewise_lower_bound  the piecewise family used by the adversarial
                             construction (requires c_hi > 2 and
                             |o t| <= 1/2 - 1/c_hi)
    """

    kind: str
    target: Point
    c_hi: float = 1.0
    c_lo: float = 1.0
    seed: int = 0
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        object.__setattr__(self, "c_hi", float(self.c_hi))
        object.__setattr__(self, "c_lo", float(self.c_lo))
        if not (0.0 < self.c_lo <= 1.0 <= self.c_hi):
            raise ValueError(f"need 0 < c_lo <= 1 <= c_hi, got c_lo={self.c_lo}, c_hi={self.c_hi}")
        if self.kind == "affine":
            if self.alpha is None:
                raise ValueError("affine oracle needs alpha")
            object.__setattr__(self, "alpha", float(self.alpha))
            if not (self.c_lo <= self.alpha <= self.c_hi):
                raise ValueError(f"alpha={self.alpha} outside [{self.c_lo}, {self.c_hi}]")
        if self.kind == "piecewise_lower_bound":
            if self.c_hi <= 2.0:
                raise ValueError("piecewise_lower_bound requires c_hi > 2")
            dist_origin = distance(origin(self.target.dimension), self.target)
            limit = 0.5 - 1.0 / self.c_hi
            if dist_origin > limit:
                raise ValueError(
                    f"piecewise_lower_bound target must satisfy |o t| <= {limit}, got {dist_origin}"
                )

    @property
    def dimension(self) -> int:
        return self.target.dimension


def piecewise_prediction(target: Point, c: float, p: Point) -> float:
    """Piecewise prediction: c*|pt| inside B(t, 1/c), 1 inside B(o, 1/2)
    elsewhere, 2*|po| outside. Overlaps resolve in that order (closed tests).

    Shared by the piecewise oracle kind and the adaptive adversary so that
    query replays reproduce answers bit for bit.
    """
    dist_t = distance(p, target)
    if dist_t <= 1.0 / c:
        return c * dist_t
    dist_o = distance(p, origin(p.dimension))
    if dist_o <= 0.5:
        return 1.0
    return 2.0 * dist_o


def piecewise_predictions(target: Point, c: float, rows: np.ndarray) -> np.ndarray:
    """:func:`piecewise_prediction` at every row of an (n, d) array, bit for
    bit: the distances come from ``dists_to`` and the cases keep their order."""
    dist_t = dists_to(rows, target.coords)
    dist_o = dists_to(rows, origin(target.dimension).coords)
    outside = np.where(dist_o <= 0.5, 1.0, 2.0 * dist_o)
    return np.where(dist_t <= 1.0 / c, c * dist_t, outside)


class QueryRecorder:
    """Memo and query log shared by the prediction oracle and the adversary.

    ``memo`` maps exact coordinates to the first value answered there, so
    revisits agree. Every query, repeats included, is logged in order as a
    coordinate tuple and a value; ``query_log`` builds a list of
    ``(Point, value)`` pairs each time it is read.

    ``query_rows(rows, stop, limit)`` is the batched protocol of the
    contraction step: it queries the rows of an (n, d) array in order, stops
    after the first value ``<= stop`` or after ``limit`` rows, and returns
    the values queried. It rejects a batch with a non-finite row before
    logging anything; ``_query_prefix`` then answers the rows, by default
    one ``query`` call per row.
    """

    def __init__(self):
        self.memo: dict[tuple[float, ...], float] = {}
        self._log_keys: list[tuple[float, ...]] = []
        self._log_values: list[float] = []

    @property
    def query_count(self) -> int:
        return len(self._log_values)

    @property
    def query_log(self) -> list[tuple[Point, float]]:
        return list(zip(map(Point, self._log_keys), self._log_values))

    def query_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every logged query as an (n, d) array of points and their values."""
        rows = np.array(self._log_keys, dtype=np.float64).reshape(-1, self.dimension)
        return rows, np.array(self._log_values, dtype=np.float64)

    def _remember(self, key: tuple[float, ...], value: float) -> float:
        """Log a query at ``key``; a value already memoized there wins."""
        value = self.memo.setdefault(key, value)
        self._log_keys.append(key)
        self._log_values.append(value)
        return value

    def query_rows(self, rows: np.ndarray, stop: float, limit: int) -> np.ndarray:
        rows = np.ascontiguousarray(rows, dtype="<f8")
        if rows.ndim != 2 or rows.shape[1] != self.dimension:
            raise ValueError(f"query rows of shape {rows.shape} for dimension {self.dimension}")
        if not np.isfinite(rows).all():
            raise ValueError("non-finite coordinate in the query rows")
        first = self.query_count
        self._query_prefix(rows[: max(limit, 0)], stop)
        return np.array(self._log_values[first:], dtype=np.float64)

    def _query_prefix(self, rows: np.ndarray, stop: float) -> None:
        """Query the rows in order until a value ``<= stop``."""
        for row in rows:
            if self.query(Point(row.tolist())) <= stop:
                break


class PredictionOracle(QueryRecorder):
    """Queryable prediction source; owns the hidden target.

    Values are memoized on exact coordinates so revisits agree, and every
    query (including repeats) is appended to ``query_log``. Rows are
    evaluated in bulk: distances come from ``dists_to`` and the seeded noise
    hashes each row's little-endian float64 bytes, so every answer equals the
    scalar formula at that point bit for bit. Where ``query`` is overridden
    or wrapped, ``query_rows`` sends every row through it instead.
    """

    _FIRST_CHUNK = 16

    def __init__(self, spec: OracleSpec):
        super().__init__()
        self.spec = spec
        self._noise_hash = blake2b(digest_size=8, key=struct.pack("<q", spec.seed))

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    @property
    def c_factor(self) -> float:
        return self.spec.c_hi

    def query(self, p: Point) -> float:
        if p.dimension != self.dimension:
            raise ValueError(f"query dimension {p.dimension} != oracle dimension {self.dimension}")
        value = self.memo.get(p.coords)
        if value is None:
            spec = self.spec
            if spec.kind == "piecewise_lower_bound":
                value = piecewise_prediction(spec.target, spec.c_hi, p)
            else:
                raw = struct.pack(f"<{p.dimension}d", *p.coords)
                value = self._scale(distance(p, spec.target), raw)
        return self._remember(p.coords, value)

    def _query_prefix(self, rows: np.ndarray, stop: float) -> None:
        if type(self).query is not _PREDICTION_QUERY:
            # ``query`` is overridden or wrapped: it sees every row.
            super()._query_prefix(rows, stop)
            return
        start, size = 0, self._FIRST_CHUNK
        # Doubling chunks: a walk often stops early, and the rows evaluated
        # past the stopping row outnumber those before it by at most the
        # first chunk.
        while start < len(rows):
            chunk = rows[start : start + size]
            answers = zip(map(tuple, chunk.tolist()), self._evaluate(chunk).tolist())
            if any(self._remember(key, value) <= stop for key, value in answers):
                break
            start += len(chunk)
            size *= 2

    def _evaluate(self, rows: np.ndarray) -> np.ndarray:
        """Predictions at the rows of a C-contiguous float64 array; the
        vector form of ``query``'s formulas, with the same operation order."""
        spec = self.spec
        if spec.kind == "piecewise_lower_bound":
            return piecewise_predictions(spec.target, spec.c_hi, rows)
        return self._scale(dists_to(rows, spec.target.coords), rows.tobytes())

    def _scale(self, dist, raw: bytes):
        """Predictions from the distances to the target (a float or an
        array), for every kind but the piecewise one. ``raw`` holds the
        points' little-endian float64 coordinates; the seeded noise hashes
        each point's bytes into a draw u in [0, 1) and scales by a factor in
        [c_lo, c_hi)."""
        spec = self.spec
        if spec.kind == "affine":
            return spec.alpha * dist
        if spec.kind == "midpoint_open":
            return (1.0 + spec.c_hi) / 2.0 * dist
        if spec.kind == "exact":
            return dist
        if isinstance(dist, float):
            h = self._noise_hash.copy()
            h.update(raw)
            u = int.from_bytes(h.digest(), "little") / 2.0**64
        else:
            width = 8 * spec.dimension
            digests = []
            for at in range(0, len(raw), width):
                h = self._noise_hash.copy()
                h.update(raw[at : at + width])
                digests.append(h.digest())
            u = np.frombuffer(b"".join(digests), dtype="<u8") / 2.0**64
        return (spec.c_lo + (spec.c_hi - spec.c_lo) * u) * dist


_PREDICTION_QUERY = PredictionOracle.query


def check_prediction_bounds(
    query_fn,
    target: Point,
    c_lo: float,
    c_hi: float,
    probes: int,
    radius: float,
    seed: int,
    rel_slack: float = 1e-9,
) -> bool:
    """True iff c_lo*|pt| <= query_fn(p) <= c_hi*|pt| (within relative slack)
    on uniform probes in B(target, radius) plus the fixed probes o and t."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    rng = np.random.default_rng(seed)
    pts = sample_in_ball(rng, Ball(target, radius), probes)
    points = [Point(tuple(row)) for row in pts]
    points.append(origin(target.dimension))
    points.append(target)
    for p in points:
        value = query_fn(p)
        dist = distance(p, target)
        lo = c_lo * dist * (1.0 - rel_slack)
        hi = c_hi * dist * (1.0 + rel_slack)
        if not (lo <= value <= hi):
            return False
    return True


def validate_oracle(oracle: PredictionOracle, probes: int, radius: float, seed: int) -> bool:
    """Empirical validity certificate for an oracle against its own spec."""
    return check_prediction_bounds(
        oracle.query, oracle.spec.target, oracle.spec.c_lo, oracle.spec.c_hi, probes, radius, seed
    )


@dataclass
class QueryHistory:
    """Explored points with their prediction values."""

    points: list[Point] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(self.points) != len(self.values):
            raise ValueError("points and values must have equal length")
        if any(v < 0.0 for v in self.values):
            raise ValueError("prediction values are nonnegative")

    def add(self, p: Point, value: float) -> None:
        if value < 0.0:
            raise ValueError("prediction values are nonnegative")
        self.points.append(p)
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.points)


def infer_lipschitz(history: QueryHistory, p: Point) -> float:
    """Tightest triangle-inequality consequence of the history at p:
    min over recorded (p', v) of |pp'| + v. 1-Lipschitz in p."""
    if len(history) == 0:
        raise ValueError("history is empty")
    arr = points_as_array(history.points)
    totals = dists_to(arr, p.coords) + np.array(history.values, dtype=np.float64)
    return float(np.min(totals))


def refined_query(oracle: PredictionOracle, history: QueryHistory, p: Point) -> float:
    """min of the oracle's answer and the history inference; still a valid
    prediction whenever the oracle is."""
    direct = oracle.query(p)
    if len(history) == 0:
        return direct
    return min(direct, infer_lipschitz(history, p))
