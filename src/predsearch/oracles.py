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
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from .geometry import Point, config_number, distance, dists_to, origin

__all__ = [
    "ORACLE_KINDS",
    "OracleSpec",
    "PredictionOracle",
    "QueryRecorder",
    "piecewise_predictions",
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
                             pseudo-random factor in [c_lo, c_hi]
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
        object.__setattr__(self, "seed", config_number("seed", self.seed, operator.index))
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError(f"seed must fit in a signed 64-bit integer, got {self.seed}")
        for name in ("c_hi", "c_lo") + (() if self.alpha is None else ("alpha",)):
            object.__setattr__(self, name, config_number(name, getattr(self, name)))
        if not (0.0 < self.c_lo <= 1.0 <= self.c_hi < math.inf):
            raise ValueError(
                f"need 0 < c_lo <= 1 <= c_hi < inf, got c_lo={self.c_lo}, c_hi={self.c_hi}"
            )
        if self.kind == "affine":
            if self.alpha is None:
                raise ValueError("affine oracle needs alpha")
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


def piecewise_predictions(target: Point | None, c: float, rows: np.ndarray) -> np.ndarray:
    """The piecewise prediction at every row of an (n, d) array: c*|pt|
    inside B(t, 1/c), 1 inside B(o, 1/2) elsewhere, 2*|po| outside, with
    overlaps resolved in that order (closed tests); a None target gives the
    value outside B(t, 1/c). The piecewise oracle kind, the adaptive
    adversary and its replay check all evaluate it here.
    ``tests/reference.py`` holds the scalar form, which it matches bit for
    bit: the distances come from ``dists_to`` and the cases keep their order."""
    dist_o = dists_to(rows, origin(rows.shape[1]).coords)
    outside = np.where(dist_o <= 0.5, 1.0, 2.0 * dist_o)
    if target is None:
        return outside
    dist_t = dists_to(rows, target.coords)
    return np.where(dist_t <= 1.0 / c, c * dist_t, outside)


class QueryRecorder:
    """Query protocol shared by the prediction oracle and the adversary.

    The recorder holds ``dimension`` and ``c_factor``, stops and logs; a
    subclass only supplies values, in ``_answer``. Every query, repeats
    included, is logged in order as float64 arrays of points and values,
    and that log is the only query history. Nothing is remembered between
    queries, as every answer is a function of the point alone (each
    subclass says why).

    ``query_rows(rows, stop, limit)`` is the one batched query, the walk of
    the contraction step: it queries the rows of an (n, d) array in order,
    stops after the first value ``<= stop`` or after ``limit`` rows, and
    returns the value that stopped it, or None. The values are logged from
    position ``query_count`` on; ``query_arrays`` reads them. It rejects a
    batch with a non-finite row before logging anything. The rows go to
    ``_answer_chunk`` in chunks of ``_CHUNK`` rows, and a single ``query``
    is a one-row chunk.

    A pure subclass may defer a value that cannot stop a chunk of several
    rows: it logs NaN there, which no real value is and which never
    compares ``<= stop``, and computes it on first read with ``_values``.
    ``_resolve`` fills the NaNs in the log, so each is computed once and no
    public read (``query``, ``query_arrays``, ``memo``) returns one.
    """

    # Rows per chunk: the rows past a stop are answered in vain, and the
    # adversary makes one pass over its live candidates per chunk.
    _CHUNK = 1 << 10

    def __init__(self, dimension: int, c_factor: float):
        self.dimension = dimension
        self.c_factor = c_factor
        self.query_count = 0
        self._row_chunks: list[np.ndarray] = []
        self._value_chunks: list[np.ndarray] = []

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
        These are the log's own arrays: the chunks are joined into one and
        resolved on read, and later queries go to new chunks."""
        if len(self._value_chunks) != 1:
            self._row_chunks = [np.concatenate([np.empty((0, self.dimension)), *self._row_chunks])]
            self._value_chunks = [np.concatenate([np.empty(0), *self._value_chunks])]
        return self._row_chunks[0], self._resolve(self._row_chunks[0], self._value_chunks[0])

    def query(self, p: Point) -> float:
        if p.dimension != self.dimension:
            raise ValueError(f"query dimension {p.dimension} != dimension {self.dimension}")
        self._answer_chunk(np.array([p.coords], dtype="<f8"), -math.inf)
        return self._value_chunks[-1].item()

    # Subclasses bind this ``query`` as their own, so that a wrapper on one
    # class leaves the other alone; ``query_rows`` sends every row through
    # a replaced ``query``; ``memo`` is a view of the log. bench/tracer.py
    # needs all three: it wraps ``query`` per class and counts ``memo``, and
    # bench/tests assert that its ``oracles.query.calls`` is the query count.
    _chunked_query = query

    @classmethod
    def query_wrapped(cls) -> bool:
        """True where a subclass or wrapper replaced ``query``. Every row
        then goes through it, and a sweep stays in one process, as an
        in-process wrapper hears only the queries of its own process."""
        return cls.query is not cls._chunked_query

    def query_rows(self, rows: np.ndarray, stop: float, limit: int) -> float | None:
        """Query the rows in order, at most ``limit``, until a value ``<=
        stop``; returns that value, or None. Their values are logged from
        position ``query_count`` on, some perhaps deferred."""
        rows = np.ascontiguousarray(rows, dtype="<f8")
        if rows.ndim != 2 or rows.shape[1] != self.dimension:
            raise ValueError(f"query rows of shape {rows.shape} for dimension {self.dimension}")
        if not np.isfinite(rows).all():
            raise ValueError("non-finite coordinate in the query rows")
        rows = rows[: max(limit, 0)]
        if self.query_wrapped():
            for row in rows:
                value = self.query(Point(row.tolist()))
                if value <= stop:
                    return value
            return None
        for start in range(0, len(rows), self._CHUNK):
            if self._answer_chunk(rows[start : start + self._CHUNK], stop):
                return self._value_chunks[-1].item(-1)
        return None

    def _resolve(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Fill the deferred (NaN) entries of the values at the rows in
        place, from ``_values``; returns the values."""
        deferred = np.isnan(values)
        if deferred.any():
            values[deferred] = self._values(rows[deferred])
        return values

    def _answer_chunk(self, rows: np.ndarray, stop: float) -> bool:
        """Answer the rows of a nonempty C-contiguous float64 array in order
        until a value ``<= stop``, and log copies of the rows and values
        answered, so that no larger array stays alive; True if one was.
        Raises, logging nothing, if ``_answer`` leaves rows out without a
        stop, as the next chunk would silently skip them."""
        values = self._answer(rows, stop)
        stops = np.flatnonzero(values <= stop)
        if len(stops):
            values = values[: stops[0] + 1]
        elif len(values) != len(rows):
            raise RuntimeError(f"{len(values)} values for {len(rows)} rows and no stop")
        self._row_chunks.append(rows[: len(values)].copy())
        self._value_chunks.append(values.copy())
        self.query_count += len(values)
        return len(stops) > 0

    def _answer(self, rows: np.ndarray, stop: float) -> np.ndarray:
        """The values of a prefix of the rows, in order, that reaches the
        first value ``<= stop`` if the rows have one; the recorder logs
        them only up to that value. In a chunk of several rows, a value
        that cannot be ``<= stop`` may be NaN, deferred to ``_values``."""
        raise NotImplementedError

    def _values(self, rows: np.ndarray) -> np.ndarray:
        """The value at every row, by the full formula; only a recorder
        whose answers are a function of the point alone defers them."""
        raise NotImplementedError


class PredictionOracle(QueryRecorder):
    """Queryable prediction source; owns the hidden target.

    Every kind is a pure function of the point, so a revisit gets the
    identical value without a memo, and ``_values`` evaluates a chunk at
    once. Every kind but the piecewise one scales the ``dists_to`` distance
    by a factor: fixed at construction, or the seeded noise's, which hashes
    each row's little-endian float64 bytes after adding 0.0, so that -0.0
    and 0.0 get the same draw. In a chunk of several rows, the seeded noise
    hashes only the rows that can stop it, up to the first that does, and
    defers the rest; a one-row chunk, such as a single query, is logged
    whole whatever its value, so it is evaluated at once.
    """

    query = QueryRecorder.query

    def __init__(self, spec: OracleSpec):
        super().__init__(spec.target.dimension, spec.c_hi)
        self.spec = spec
        self._noise_hash = blake2b(digest_size=8, key=struct.pack("<q", spec.seed))
        # |pt|'s factor where it is fixed, else None; 1.0 * x == x bit for bit.
        fixed = {"exact": 1.0, "affine": spec.alpha, "midpoint_open": (1.0 + spec.c_hi) / 2.0}
        self._factor = fixed.get(spec.kind)

    def _values(self, rows: np.ndarray) -> np.ndarray:
        spec = self.spec
        if spec.kind == "piecewise_lower_bound":
            return piecewise_predictions(spec.target, spec.c_hi, rows)
        dist = dists_to(rows, spec.target.coords)
        if self._factor is not None:
            return self._factor * dist
        return (spec.c_lo + (spec.c_hi - spec.c_lo) * self._noise_draws(rows)) * dist

    def _answer(self, rows: np.ndarray, stop: float) -> np.ndarray:
        spec = self.spec
        if spec.kind != "seeded_noise" or len(rows) == 1:
            return self._values(rows)
        # A factor c_lo + span * u is >= c_lo, as rounding is monotone, so
        # only a candidate, a row with c_lo * |pt| <= stop, can stop. They are
        # hashed in order up to the first value <= stop, the Python-float
        # value being that of ``_values`` bit for bit (int / float rounds u
        # as numpy does); every other row of the prefix is deferred.
        dist = dists_to(rows, spec.target.coords)
        lo, span = spec.c_lo, spec.c_hi - spec.c_lo
        values = np.full(len(rows), math.nan)
        candidates = np.flatnonzero(lo * dist <= stop)
        for k, digest in zip(candidates.tolist(), self._digests(rows[candidates])):
            value = (lo + span * (int.from_bytes(digest, "little") / 2.0**64)) * dist.item(k)
            values[k] = value
            if value <= stop:
                return values[: k + 1]
        return values

    def _noise_draws(self, rows: np.ndarray) -> np.ndarray:
        """The seeded noise's draw u at each row: a digest over 2^64 in
        [0, 1], as one of at least 2^64 - 2^10 rounds to 1.0."""
        return np.frombuffer(b"".join(self._digests(rows)), dtype="<u8") / 2.0**64

    def _digests(self, rows: np.ndarray):
        """The keyed hash of each row's little-endian float64 bytes, with
        -0.0 read as 0.0, in row order and computed as consumed."""
        raw = (rows + 0.0).astype("<f8", copy=False).tobytes()
        width = 8 * rows.shape[1]
        fresh = self._noise_hash.copy
        for at in range(0, len(raw), width):
            h = fresh()
            h.update(raw[at : at + width])
            yield h.digest()


def infer_lipschitz(rows: np.ndarray, values: np.ndarray, p: Point) -> float:
    """Tightest triangle-inequality consequence at p of queries at the rows
    of an (n, d) float64 array with their values: min over them of
    |pp'| + v. 1-Lipschitz in p."""
    if len(values) == 0:
        raise ValueError("history is empty")
    return float(np.min(dists_to(rows, p.coords) + values))


def refined_query(oracle: QueryRecorder, p: Point) -> float:
    """min of the oracle's answer at p and the inference from its log of the
    queries before this one; still a valid prediction whenever the oracle is."""
    rows, values = oracle.query_arrays()
    direct = oracle.query(p)
    if len(values) == 0:
        return direct
    return min(direct, infer_lipschitz(rows, values, p))
