"""Deterministic SVG rendering of partitions.

Text output only, stable across runs for identical inputs, so
snapshots can be diffed. Every render embeds as a comment how far
the region areas are from the environment's; the partition held that
gap within its budget when it was built.
"""
from __future__ import annotations

import numpy as np

from .geometry import sum_left
from .partition import Partition

# fills cycle through a fixed palette; outlines stay uniform
PALETTE = ("#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
           "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac")


def _fmt(x: float) -> str:
    return f"{x:.6f}".rstrip("0").rstrip(".")


def audit_cover(partition: Partition) -> float:
    """Absolute gap between the summed region areas and the environment
    area. A partition cannot change, so its construction already held
    the gap to Partition.cover_slack."""
    return abs(sum_left(r.area for r in partition.regions)
               - partition.env.area)


def render_svg(partition: Partition, *, points=None, label: str = "") -> str:
    """Render the partition as an SVG document string, 640 px wide.

    Optional points (one marker per region, e.g. centroids) are drawn
    as small circles. The y axis is flipped so the picture matches
    math orientation.
    """
    gap = audit_cover(partition)
    env = partition.env
    v = env.polygon.vertices
    x0, y0 = v.min(axis=0)
    x1, y1 = v.max(axis=0)
    span_x, span_y = x1 - x0, y1 - y0
    margin = 0.03 * max(span_x, span_y)
    width = 640
    scale = width / (span_x + 2 * margin)
    height = int(round(scale * (span_y + 2 * margin)))

    def to_px(p):
        return ((p[0] - x0 + margin) * scale,
                (y1 - p[1] + margin) * scale)

    def path(ring) -> str:
        cmds = []
        for k, p in enumerate(ring):
            px, py = to_px(p)
            cmds.append(f"{'M' if k == 0 else 'L'}{_fmt(px)},{_fmt(py)}")
        return "".join(cmds) + "Z"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<!-- area audit: residue {gap!r} of {env.area!r} -->",
    ]
    if label:
        lines.append(f"<!-- {label} -->")
    for i, region in enumerate(partition.regions):
        fill = PALETTE[i % len(PALETTE)]
        for piece in region.pieces:
            lines.append(f'<path d="{path(piece.vertices)}" fill="{fill}" '
                         f'fill-opacity="0.65" stroke="{fill}" '
                         f'stroke-width="0.5"/>')
    lines.append(f'<path d="{path(v)}" fill="none" stroke="#222" '
                 f'stroke-width="1.5"/>')
    if points is not None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        for i, p in enumerate(pts):
            px, py = to_px(p)
            lines.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" '
                         f'fill="#222"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_svg(partition: Partition, path, **kwargs) -> float:
    """Render to a file; returns the audited cover residue."""
    text = render_svg(partition, **kwargs)
    with open(path, "w") as f:
        f.write(text)
    return audit_cover(partition)
