"""Deterministic SVG rendering of planar search traces."""

from __future__ import annotations

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

    xs = trace.rows[:, 0].tolist()
    ys = trace.rows[:, 1].tolist()
    extra: list[tuple[float, float, float]] = []  # (x, y, pad)
    if target is not None:
        extra.append((target.coords[0], target.coords[1], 0.0))
    if instance is not None:
        for t in instance.targets:
            extra.append((t.coords[0], t.coords[1], instance.ball_radius))
    lo_x = min(xs + [e[0] - e[2] for e in extra])
    hi_x = max(xs + [e[0] + e[2] for e in extra])
    lo_y = min(ys + [e[1] - e[2] for e in extra])
    hi_y = max(ys + [e[1] + e[2] for e in extra])
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-12)
    scale = (CANVAS - 2.0 * MARGIN) / span

    def to_canvas(x: float, y: float) -> tuple[float, float]:
        return (MARGIN + (x - lo_x) * scale, CANVAS - MARGIN - (y - lo_y) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" '
        f'viewBox="0 0 {_fmt(CANVAS)} {_fmt(CANVAS)}">',
        f'<rect x="0" y="0" width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" fill="white"/>',
    ]
    if instance is not None:
        for t in instance.targets:
            cx, cy = to_canvas(t.coords[0], t.coords[1])
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(instance.ball_radius * scale)}" '
                f'fill="none" stroke="#bbbbbb" stroke-width="1"/>'
            )
    coords = " ".join(
        f"{_fmt(px)},{_fmt(py)}" for px, py in (to_canvas(x, y) for x, y in zip(xs, ys))
    )
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    sx, sy = to_canvas(xs[0], ys[0])
    parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="6" fill="#2ca02c"/>')
    ex, ey = to_canvas(xs[-1], ys[-1])
    parts.append(
        f'<circle cx="{_fmt(ex)}" cy="{_fmt(ey)}" r="5" fill="none" '
        f'stroke="#1f77b4" stroke-width="2"/>'
    )
    if target is not None:
        tx, ty = to_canvas(target.coords[0], target.coords[1])
        parts.append(
            f'<path d="M{_fmt(tx - 7)} {_fmt(ty)} L{_fmt(tx + 7)} {_fmt(ty)} '
            f'M{_fmt(tx)} {_fmt(ty - 7)} L{_fmt(tx)} {_fmt(ty + 7)}" '
            f'stroke="#d62728" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
