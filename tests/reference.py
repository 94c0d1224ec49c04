"""Reference forms and sampled checks that only the tests use.

Each restates in plain scalar or sampled form what the package computes
another way, so that a test can hold the two against each other.
"""

import numpy as np

from predsearch.geometry import Ball, Point, distance, dists_to, origin, sample_in_ball


def query_values(oracle, rows, stop, limit):
    """``oracle.query_rows`` and the values it logged, as a fresh array."""
    first = oracle.query_count
    oracle.query_rows(rows, stop, limit)
    return oracle.query_arrays()[1][first:].copy()


def piecewise_prediction(target: Point, c: float, p: Point) -> float:
    """Piecewise prediction: c*|pt| inside B(t, 1/c), 1 inside B(o, 1/2)
    elsewhere, 2*|po| outside. Overlaps resolve in that order (closed tests).
    ``piecewise_predictions`` agrees with it bit for bit."""
    dist_t = distance(p, target)
    if dist_t <= 1.0 / c:
        return c * dist_t
    dist_o = distance(p, origin(p.dimension))
    if dist_o <= 0.5:
        return 1.0
    return 2.0 * dist_o


def check_prediction_bounds(
    values_at, target, c_lo, c_hi, probes, radius, seed, rel_slack=1e-9
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


def validate_oracle(oracle, probes: int, radius: float, seed: int) -> bool:
    """Sampled validity of an oracle against its own spec, on the batched
    path the searches use."""
    spec = oracle.spec
    return check_prediction_bounds(
        lambda rows: query_values(oracle, rows, -np.inf, len(rows)),
        spec.target, spec.c_lo, spec.c_hi, probes, radius, seed,
    )


def phase_endpoints(trace) -> list[tuple[int, int, int, float]]:
    """(j, i, vertex index, lambda) for the first vertex of every phase label:
    exactly the points the contraction argument tracks."""
    labels = trace.phase_labels
    firsts = np.sort(np.unique(labels, axis=0, return_index=True)[1]).tolist()
    return [(*labels[k].tolist(), k, trace.lambda_values[k].item()) for k in firsts]
