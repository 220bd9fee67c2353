"""Self-contained four-panel SVG: data, all paths, trimmed paths, level set."""

import numpy as np

from .grids import GridSpec

_PANEL = 320.0
_MARGIN = 36.0
_GAP = 18.0


class _Transform:
    def __init__(self, bounds, side=_PANEL):
        xmin, xmax, ymin, ymax = bounds
        self.xmin, self.ymin = xmin, ymin
        self.sx = side / (xmax - xmin)
        self.sy = side / (ymax - ymin)
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


def _polylines(tr, paths, color, width=0.6):
    px, py = tr.to_px(paths.vertices[:, 0], paths.vertices[:, 1])
    xy = [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(px.tolist(), py.tolist())]
    offs = paths.vertex_offsets.tolist()
    return "".join(
        f'<polyline points="{" ".join(xy[lo:hi])}" fill="none" '
        f'stroke="{color}" stroke-width="{width}"/>'
        for lo, hi in zip(offs[:-1], offs[1:]) if hi - lo >= 2)


def _mask_rects(tr, mask, grid: GridSpec, color):
    ii, jj = np.nonzero(mask)
    if len(ii) == 0:
        return ""
    xs = grid.xmin + ii * grid.dx
    ys = grid.ymin + jj * grid.dy
    w = grid.dx * tr.sx
    h = grid.dy * tr.sy
    out = []
    for x, y in zip(xs, ys):
        px, py = tr.to_px(x - grid.dx / 2, y + grid.dy / 2)
        out.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(w)}" '
                   f'height="{_fmt(h)}" fill="{color}"/>')
    return "".join(out)


def render_four_panel_svg(points: np.ndarray, paths, trimmed_paths,
                          mask, grid: GridSpec, bounds) -> str:
    """Panels: (A) data, (B) all paths, (C) trimmed paths, (D) level-set mask."""
    tr = _Transform(bounds)
    width = 2 * (_PANEL + _MARGIN) + _GAP + _MARGIN
    height = 2 * (_PANEL + _MARGIN) + _GAP + _MARGIN

    contents = [
        ("A", _scatter(tr, points, "#333333")),
        ("B", _polylines(tr, paths, "#1f6fb2")),
        ("C", _polylines(tr, trimmed_paths, "#1f6fb2")),
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
