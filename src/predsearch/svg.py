"""Deterministic SVG rendering of planar search traces."""

from __future__ import annotations

import numpy as np

from .geometry import Point
from .strategies import SearchTrace
from .verification import AdversarialInstance

__all__ = ["render_svg"]

CANVAS = 1000.0
MARGIN = 40.0


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def render_svg(
    trace: SearchTrace,
    target: Point | None = None,
    instance: AdversarialInstance | None = None,
) -> str:
    """SVG document for a d=2 trace: the search polyline, start and end
    markers, the target, and (for adversarial runs) the candidate balls."""
    if trace.dimension != 2:
        raise ValueError("SVG rendering is only available for d = 2")

    # Everything drawn, in one array: the trace rows, the target, the
    # candidate centres, each padded by the radius drawn around it.
    n = len(trace.rows)
    marks = [] if target is None else [target.coords]
    centres = [] if instance is None else [t.coords for t in instance.targets]
    points = np.concatenate([trace.rows, np.reshape(marks + centres, (-1, 2))])
    first = n + len(marks)  # of the centres
    pads = np.zeros((len(points), 1))
    if instance is not None:
        pads[first:] = instance.ball_radius
    lo = (points - pads).min(axis=0)
    span = max(*((points + pads).max(axis=0) - lo).tolist(), 1e-12)
    scale = (CANVAS - 2.0 * MARGIN) / span
    # The world-to-canvas map, y pointing down; '%.6g' formats as _fmt does.
    canvas = (points - lo) * scale
    canvas[:, 0] += MARGIN
    canvas[:, 1] = CANVAS - MARGIN - canvas[:, 1]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" '
        f'viewBox="0 0 {_fmt(CANVAS)} {_fmt(CANVAS)}">',
        f'<rect x="0" y="0" width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" fill="white"/>',
    ]
    if instance is not None:
        r = _fmt(instance.ball_radius * scale)
        for cx, cy in canvas[first:].tolist():
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{r}" '
                f'fill="none" stroke="#bbbbbb" stroke-width="1"/>'
            )
    coords = " ".join(["%.6g,%.6g"] * n) % tuple(canvas[:n].ravel().tolist())
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    sx, sy = canvas[0].tolist()
    parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="6" fill="#2ca02c"/>')
    ex, ey = canvas[n - 1].tolist()
    parts.append(
        f'<circle cx="{_fmt(ex)}" cy="{_fmt(ey)}" r="5" fill="none" '
        f'stroke="#1f77b4" stroke-width="2"/>'
    )
    if target is not None:
        tx, ty = canvas[n].tolist()
        parts.append(
            f'<path d="M{_fmt(tx - 7)} {_fmt(ty)} L{_fmt(tx + 7)} {_fmt(ty)} '
            f'M{_fmt(tx)} {_fmt(ty - 7)} L{_fmt(tx)} {_fmt(ty + 7)}" '
            f'stroke="#d62728" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
