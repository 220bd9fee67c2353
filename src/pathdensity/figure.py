"""Self-contained four-panel SVG: data, all paths, trimmed paths, level set."""

import numpy as np

from .grids import GridSpec

_PANEL = 320.0
_MARGIN = 36.0
_GAP = 18.0


class _Transform:
    """Maps the grid's rectangle onto a panel."""

    def __init__(self, grid: GridSpec, side=_PANEL):
        self.xmin, self.ymin = grid.xmin, grid.ymin
        self.sx = side / (grid.xmax - grid.xmin)
        self.sy = side / (grid.ymax - grid.ymin)
        self.side = side

    def to_px(self, x, y):
        # SVG y runs downward
        return ((np.asarray(x) - self.xmin) * self.sx,
                self.side - (np.asarray(y) - self.ymin) * self.sy)


def _fmt(v) -> str:
    return f"{v:.2f}"


def _panel_origin(which: int):
    col = which % 2
    row = which // 2
    return (_MARGIN + col * (_PANEL + _GAP + _MARGIN),
            _MARGIN + row * (_PANEL + _GAP + _MARGIN))


def _scatter(tr, points, color, r=1.6):
    px, py = tr.to_px(points[:, 0], points[:, 1])
    return "".join(
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{color}"/>'
        for x, y in zip(px, py)
    )


def _polylines(tr, paths, trims, color, width=0.6):
    """Panels B and C: one polyline per path of two or more vertices, first
    whole, then without its first paths.trim_drop(trims)[i] vertices. Each
    vertex is formatted once: to_px maps coordinates one by one, and a
    trimmed path is a suffix of its path, so panel C slices panel B's
    strings."""
    px, py = tr.to_px(paths.vertices[:, 0], paths.vertices[:, 1])
    xy = list(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
    starts, ends = paths.vertex_offsets[:-1], paths.vertex_offsets[1:].tolist()

    def panel(first):
        return "".join(
            f'<polyline points="{" ".join(xy[lo:hi])}" fill="none" '
            f'stroke="{color}" stroke-width="{width}"/>'
            for lo, hi in zip(first.tolist(), ends) if hi - lo >= 2)
    return panel(starts), panel(starts + paths.trim_drop(trims))


def _mask_rects(tr, mask, grid: GridSpec, color):
    w = grid.dx * tr.sx
    h = grid.dy * tr.sy
    out = []
    for x, y in grid.mask_points(mask):
        px, py = tr.to_px(x - grid.dx / 2, y + grid.dy / 2)
        out.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(w)}" '
                   f'height="{_fmt(h)}" fill="{color}"/>')
    return "".join(out)


def render_four_panel_svg(points: np.ndarray, paths, trims,
                          mask, grid: GridSpec) -> str:
    """Panels over the grid's rectangle: (A) data, (B) all paths, (C) the
    paths trimmed by trims (see PathEnsemble.trim_drop), (D) level-set mask."""
    tr = _Transform(grid)
    all_paths, trimmed_paths = _polylines(tr, paths, trims, "#1f6fb2")
    width = 2 * (_PANEL + _MARGIN) + _GAP + _MARGIN
    height = 2 * (_PANEL + _MARGIN) + _GAP + _MARGIN

    contents = [
        ("A", _scatter(tr, points, "#333333")),
        ("B", all_paths),
        ("C", trimmed_paths),
        ("D", _mask_rects(tr, mask, grid, "#b22222")),
    ]
    panels = []
    for k, (label, body) in enumerate(contents):
        ox, oy = _panel_origin(k)
        panels.append(
            f'<g transform="translate({_fmt(ox)},{_fmt(oy)})">'
            f'<rect x="0" y="0" width="{_fmt(_PANEL)}" height="{_fmt(_PANEL)}" '
            f'fill="white" stroke="#888888" stroke-width="1"/>'
            f'<text x="6" y="16" font-family="sans-serif" font-size="14" '
            f'fill="#000000">{label}</text>'
            f"{body}</g>"
        )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
        + "".join(panels)
        + "</svg>\n"
    )
