"""Dependency-free SVG scatter plots of planar point sets with overlays."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def scatter_svg(path: str | Path, coords: np.ndarray, T: float,
                marker: float = 1.5, strip: tuple[float, float] | None = None,
                rays=None, crosses=None, size: int = 800) -> None:
    """Points of B(0, T) on a square canvas, y axis upward.

    ``strip`` shades a horizontal band y in (lo, hi); ``rays`` draws
    (x, y, vx, vy) half-lines to the frame; ``crosses`` marks witness points.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    if coords.shape[1] != 2:
        raise ValueError("SVG scatter plots are planar only")
    scale = size / (2.0 * T)

    def sx(x):
        return (x + T) * scale

    def sy(y):
        return (T - y) * scale

    keep = np.linalg.norm(coords, axis=1) <= T
    pts = coords[keep]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if strip is not None:
        lo, hi = strip
        out.append(
            f'<rect x="0" y="{_fmt(sy(hi))}" width="{size}" '
            f'height="{_fmt((hi - lo) * scale)}" fill="#fde2e2"/>'
        )
    for x, y in pts:
        out.append(
            f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="{_fmt(marker)}" '
            f'fill="black"/>'
        )
    for x, y, vx, vy in rays or []:
        # extend to the frame: 3T covers the square from any interior start
        out.append(
            f'<line x1="{_fmt(sx(x))}" y1="{_fmt(sy(y))}" '
            f'x2="{_fmt(sx(x + 3 * T * vx))}" y2="{_fmt(sy(y + 3 * T * vy))}" '
            f'stroke="#c0392b" stroke-width="1"/>'
        )
    arm = max(3.0, 2.0 * marker)
    for x, y in crosses or []:
        cx, cy = sx(x), sy(y)
        out.append(
            f'<path d="M {_fmt(cx - arm)} {_fmt(cy)} H {_fmt(cx + arm)} '
            f'M {_fmt(cx)} {_fmt(cy - arm)} V {_fmt(cy + arm)}" '
            f'stroke="#2980b9" stroke-width="1.2"/>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")
