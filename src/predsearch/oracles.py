"""Distance-prediction oracles.

Every oracle answers point queries with a value lambda(p) guaranteed to lie
in [c_lo*|pt|, c_hi*|pt|] for the hidden target t, is deterministic per
point (revisits return the identical value), and satisfies lambda(p)=0 only
at the target itself. Also provides the triangle-inequality inference that
tightens predictions from the query history.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from .geometry import Ball, Point, distance, origin
from .nets import dists_to, sample_in_ball

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
        object.__setattr__(self, "seed", operator.index(self.seed))
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError(f"seed must fit in a signed 64-bit integer, got {self.seed}")
        object.__setattr__(self, "c_hi", float(self.c_hi))
        object.__setattr__(self, "c_lo", float(self.c_lo))
        if not (0.0 < self.c_lo <= 1.0 <= self.c_hi < math.inf):
            raise ValueError(
                f"need 0 < c_lo <= 1 <= c_hi < inf, got c_lo={self.c_lo}, c_hi={self.c_hi}"
            )
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

    The piecewise oracle kind, the adaptive adversary and its replay check
    evaluate it on rows with :func:`piecewise_predictions`, which agrees
    with this scalar form bit for bit.
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
    """Query log shared by the prediction oracle and the adversary.

    A recorder only records: every query, repeats included, is logged in
    order as float64 arrays of points and values, one pair per evaluated
    chunk. Nothing is remembered between queries, as every answer is a
    function of the point alone (each subclass says why).

    ``query_rows(rows, stop, limit)`` is the batched protocol of the
    contraction step: it queries the rows of an (n, d) array in order, stops
    after the first value ``<= stop`` or after ``limit`` rows, and returns
    the values queried. It rejects a batch with a non-finite row before
    logging anything. Each subclass evaluates points in one place,
    ``_answer_chunk``, which answers and logs a prefix of a chunk of rows.
    The rows go to it in chunks of 16, 32, 64, ... up to ``_LAST_CHUNK``
    rows, and a single ``query`` is a one-row chunk; wherever ``query`` is
    overridden or wrapped, every row goes through ``query`` instead.
    """

    _FIRST_CHUNK = 16
    # A chunk's answers may measure every row against every candidate
    # target, so the doubling stops here to bound that working memory.
    _LAST_CHUNK = 1 << 10

    def __init__(self):
        self.query_count = 0
        self._row_chunks: list[np.ndarray] = []
        self._value_chunks: list[np.ndarray] = []

    @property
    def query_log(self) -> list[tuple[Point, float]]:
        """Every logged query as a ``(Point, value)`` pair, built on read."""
        rows, values = self.query_arrays()
        return list(zip(map(Point, rows.tolist()), values.tolist()))

    @property
    def memo(self) -> dict[tuple[float, ...], float]:
        """The first value logged at each distinct point, keyed by its
        coordinates and built on read. Keys compare as floats, so points
        that differ only in the sign of a zero share the first one's entry."""
        rows, values = self.query_arrays()
        memo: dict[tuple[float, ...], float] = {}
        for key, value in zip(map(tuple, rows.tolist()), values.tolist()):
            memo.setdefault(key, value)
        return memo

    def query_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every logged query as an (n, d) array of points and their values.
        These are the log's own arrays: the chunks are joined into one on
        read, and later queries go to new chunks."""
        if len(self._value_chunks) != 1:
            self._row_chunks = [np.concatenate([np.empty((0, self.dimension)), *self._row_chunks])]
            self._value_chunks = [np.concatenate([np.empty(0), *self._value_chunks])]
        return self._row_chunks[0], self._value_chunks[0]

    def _log(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Log copies of the answered rows and values, so that no larger
        array stays alive."""
        self._row_chunks.append(rows.copy())
        self._value_chunks.append(values.copy())
        self.query_count += len(values)

    def query(self, p: Point) -> float:
        if p.dimension != self.dimension:
            raise ValueError(f"query dimension {p.dimension} != dimension {self.dimension}")
        self._answer_chunk(np.array([p.coords], dtype="<f8"), -math.inf)
        return self._value_chunks[-1].item()

    # Subclasses hold this ``query`` as their own attribute, so that a
    # wrapper on one class leaves the other alone.
    _chunked_query = query

    def query_rows(self, rows: np.ndarray, stop: float, limit: int) -> np.ndarray:
        rows = np.ascontiguousarray(rows, dtype="<f8")
        if rows.ndim != 2 or rows.shape[1] != self.dimension:
            raise ValueError(f"query rows of shape {rows.shape} for dimension {self.dimension}")
        if not np.isfinite(rows).all():
            raise ValueError("non-finite coordinate in the query rows")
        first = len(self._value_chunks)
        self._query_prefix(rows[: max(limit, 0)], stop)
        return np.concatenate([np.empty(0), *self._value_chunks[first:]])

    def _query_prefix(self, rows: np.ndarray, stop: float) -> None:
        """Query the rows in order until a value ``<= stop``."""
        if type(self).query is not type(self)._chunked_query:
            for row in rows:
                if self.query(Point(row.tolist())) <= stop:
                    break
            return
        start, size = 0, self._FIRST_CHUNK
        # Doubling chunks: a walk often stops early, and the rows evaluated
        # past the stopping row outnumber those before it by at most the
        # first chunk.
        while start < len(rows):
            chunk = rows[start : start + size]
            if self._answer_chunk(chunk, stop):
                break
            start += len(chunk)
            size = min(2 * size, self._LAST_CHUNK)

    def _answer_chunk(self, rows: np.ndarray, stop: float) -> bool:
        """Answer and log the rows of a nonempty C-contiguous float64 array
        in order until a value ``<= stop``; True if one was."""
        raise NotImplementedError


class PredictionOracle(QueryRecorder):
    """Queryable prediction source; owns the hidden target.

    Every kind is a pure function of the point, so a revisit gets the
    identical value without a memo. Rows are evaluated in bulk: distances
    come from ``dists_to``, and the seeded noise hashes each row's
    little-endian float64 bytes after adding 0.0, so that -0.0 and 0.0 get
    the same draw. Where ``query`` is overridden or wrapped, ``query_rows``
    sends every row through it instead.
    """

    query = QueryRecorder.query

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

    def _answer_chunk(self, rows: np.ndarray, stop: float) -> bool:
        values = self._evaluate(rows)
        stops = np.flatnonzero(values <= stop)
        n = stops[0] + 1 if len(stops) else len(values)
        self._log(rows[:n], values[:n])
        return len(stops) > 0

    def _evaluate(self, rows: np.ndarray) -> np.ndarray:
        """Predictions at the rows of a C-contiguous float64 array."""
        spec = self.spec
        if spec.kind == "piecewise_lower_bound":
            return piecewise_predictions(spec.target, spec.c_hi, rows)
        dist = dists_to(rows, spec.target.coords)
        if spec.kind == "affine":
            return spec.alpha * dist
        if spec.kind == "midpoint_open":
            return (1.0 + spec.c_hi) / 2.0 * dist
        if spec.kind == "exact":
            return dist
        return (spec.c_lo + (spec.c_hi - spec.c_lo) * self._noise_draws(rows)) * dist

    def _noise_draws(self, rows: np.ndarray) -> np.ndarray:
        """The seeded noise's draw u in [0, 1) at each row: the keyed hash of
        the row's little-endian float64 bytes, with -0.0 read as 0.0."""
        raw = (rows + 0.0).astype("<f8", copy=False).tobytes()
        width = 8 * rows.shape[1]
        digests = []
        for at in range(0, len(raw), width):
            h = self._noise_hash.copy()
            h.update(raw[at : at + width])
            digests.append(h.digest())
        return np.frombuffer(b"".join(digests), dtype="<u8") / 2.0**64


def check_prediction_bounds(
    values_at,
    target: Point,
    c_lo: float,
    c_hi: float,
    probes: int,
    radius: float,
    seed: int,
    rel_slack: float = 1e-9,
) -> bool:
    """True iff c_lo*|pt| <= value <= c_hi*|pt| (within relative slack) at
    uniform probes in B(target, radius) plus the fixed probes o and t.
    ``values_at`` maps an (n, d) array of probe rows to their n values."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    rng = np.random.default_rng(seed)
    fixed = np.array([origin(target.dimension).coords, target.coords])
    rows = np.concatenate((sample_in_ball(rng, Ball(target, radius), probes), fixed))
    values = np.asarray(values_at(rows), dtype=np.float64)
    dist = dists_to(rows, target.coords)
    lo = c_lo * dist * (1.0 - rel_slack)
    hi = c_hi * dist * (1.0 + rel_slack)
    return bool(np.all((lo <= values) & (values <= hi)))


def validate_oracle(oracle: PredictionOracle, probes: int, radius: float, seed: int) -> bool:
    """Empirical validity certificate for an oracle against its own spec, on
    the batched path the searches use."""
    spec = oracle.spec
    return check_prediction_bounds(
        lambda rows: oracle.query_rows(rows, -math.inf, len(rows)),
        spec.target, spec.c_lo, spec.c_hi, probes, radius, seed,
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
    arr = np.array([q.coords for q in history.points], dtype=np.float64)
    totals = dists_to(arr, p.coords) + np.array(history.values, dtype=np.float64)
    return float(np.min(totals))


def refined_query(oracle: PredictionOracle, history: QueryHistory, p: Point) -> float:
    """min of the oracle's answer and the history inference; still a valid
    prediction whenever the oracle is."""
    direct = oracle.query(p)
    if len(history) == 0:
        return direct
    return min(direct, infer_lipschitz(history, p))
