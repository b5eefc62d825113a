"""Chart layer: line/scatter charts with axes, plus the Fig-13 timeline
renderer, all on top of the raw SVG builder."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .svg import Scale, SVGDocument, fmt_tick

#: default series palette
PALETTE = ["#1f6fb2", "#d1495b", "#66a182", "#edae49", "#8661c1", "#3d3d3d"]

_MARGIN = dict(left=70, right=20, top=40, bottom=55)


@dataclass
class _Series:
    name: str
    points: List[Tuple[float, float]]
    color: str
    marker: bool = True


class _Axes:
    """Shared axes scaffolding for the chart classes."""

    def __init__(self, title: str, x_label: str, y_label: str,
                 width: int = 640, height: int = 420,
                 x_log: bool = False, y_log: bool = False):
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.width = width
        self.height = height
        self.x_log = x_log
        self.y_log = y_log
        self.series: List[_Series] = []
        self.hlines: List[Tuple[float, str, str]] = []
        self.segments: List[Tuple[Tuple[float, float], Tuple[float, float], str]] = []

    def add_series(self, name: str, points: Sequence[Tuple[float, float]],
                   color: Optional[str] = None, marker: bool = True) -> None:
        if not points:
            raise ValueError(f"series {name!r} has no points")
        color = color or PALETTE[len(self.series) % len(PALETTE)]
        self.series.append(_Series(name, sorted(points), color, marker))

    def add_hline(self, y: float, label: str = "", color: str = "#888") -> None:
        self.hlines.append((y, label, color))

    def add_segment(self, p1: Tuple[float, float], p2: Tuple[float, float],
                    color: str = "#888") -> None:
        self.segments.append((p1, p2, color))

    # -- rendering -----------------------------------------------------------

    def _domain(self):
        xs = [x for s in self.series for x, _ in s.points]
        ys = [y for s in self.series for _, y in s.points]
        ys += [y for y, _, _ in self.hlines]
        for p1, p2, _ in self.segments:
            xs += [p1[0], p2[0]]
            ys += [p1[1], p2[1]]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if self.x_log:
            x_lo, x_hi = x_lo / 1.5, x_hi * 1.5
        else:
            pad = 0.05 * (x_hi - x_lo or 1.0)
            x_lo, x_hi = x_lo - pad, x_hi + pad
        if self.y_log:
            y_lo, y_hi = y_lo / 2, y_hi * 2
        else:
            pad = 0.08 * (y_hi - y_lo or 1.0)
            y_lo, y_hi = min(y_lo - pad, 0 if y_lo >= 0 else y_lo - pad), y_hi + pad
            if y_lo == y_hi:
                y_hi = y_lo + 1.0
        return x_lo, x_hi, y_lo, y_hi

    def render(self) -> str:
        doc = SVGDocument(self.width, self.height)
        m = _MARGIN
        plot_w = self.width - m["left"] - m["right"]
        plot_h = self.height - m["top"] - m["bottom"]
        x_lo, x_hi, y_lo, y_hi = self._domain()
        sx = Scale(x_lo, x_hi, m["left"], m["left"] + plot_w, log=self.x_log)
        sy = Scale(y_lo, y_hi, m["top"] + plot_h, m["top"], log=self.y_log)

        doc.text(self.width / 2, 20, self.title, size=14, anchor="middle")
        # frame + grid
        doc.rect(m["left"], m["top"], plot_w, plot_h, fill="none",
                 stroke="#333")
        for t in sx.ticks():
            px = sx(t)
            doc.line(px, m["top"], px, m["top"] + plot_h, stroke="#eee")
            doc.text(px, m["top"] + plot_h + 16, fmt_tick(t), size=10,
                     anchor="middle")
        for t in sy.ticks():
            py = sy(t)
            doc.line(m["left"], py, m["left"] + plot_w, py, stroke="#eee")
            doc.text(m["left"] - 6, py + 4, fmt_tick(t), size=10,
                     anchor="end")
        doc.text(m["left"] + plot_w / 2, self.height - 10, self.x_label,
                 size=12, anchor="middle")
        doc.text(16, m["top"] + plot_h / 2, self.y_label, size=12,
                 anchor="middle", rotate=-90)

        for y, label, color in self.hlines:
            py = sy(y)
            doc.line(m["left"], py, m["left"] + plot_w, py, stroke=color,
                     width=1.2, dash="5,4")
            if label:
                doc.text(m["left"] + plot_w - 4, py - 5, label, size=10,
                         fill=color, anchor="end")
        for p1, p2, color in self.segments:
            doc.line(sx(p1[0]), sy(p1[1]), sx(p2[0]), sy(p2[1]),
                     stroke=color, width=1.4)

        self._draw_series(doc, sx, sy)

        # legend
        ly = m["top"] + 8
        for s in self.series:
            doc.line(m["left"] + 8, ly, m["left"] + 28, ly, stroke=s.color,
                     width=2)
            doc.text(m["left"] + 34, ly + 4, s.name, size=10)
            ly += 15
        return doc.render()

    def _draw_series(self, doc, sx, sy):
        raise NotImplementedError

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.render())


class LineChart(_Axes):
    """Connected series with optional markers."""

    def _draw_series(self, doc, sx, sy):
        for s in self.series:
            pts = [(sx(x), sy(y)) for x, y in s.points]
            doc.polyline(pts, stroke=s.color, width=2)
            if s.marker:
                for px, py in pts:
                    doc.circle(px, py, 3, fill=s.color)


class ScatterChart(_Axes):
    """Marker-only series (roofline benchmark points)."""

    def _draw_series(self, doc, sx, sy):
        for s in self.series:
            for x, y in s.points:
                doc.circle(sx(x), sy(y), 4, fill=s.color)


#: timeline activity colors (the paper: blue DMA, red compute)
TIMELINE_COLORS = {"dma": "#2c6fbb", "compute": "#c94040", "lfu": "#e0a426"}


def timeline_chart(segments, total_time: float, title: str,
                   level_names: Optional[Sequence[str]] = None,
                   width: int = 900, row_height: int = 22) -> str:
    """Fig-13 style timeline: one row per (level, kind), colored blocks.

    ``segments`` are :class:`repro.sim.trace.Segment` objects.
    """
    rows: Dict[Tuple[int, str], List] = {}
    for seg in segments:
        rows.setdefault((seg.level, seg.kind), []).append(seg)
    keys = sorted(rows)
    height = 70 + row_height * len(keys)
    doc = SVGDocument(width, height)
    doc.text(width / 2, 20, title, size=14, anchor="middle")
    left, right = 130, width - 20
    span = right - left
    for i, key in enumerate(keys):
        level, kind = key
        y = 40 + i * row_height
        name = (level_names[level]
                if level_names and level < len(level_names) else f"L{level}")
        doc.text(left - 8, y + row_height * 0.7, f"{name} {kind}", size=10,
                 anchor="end")
        doc.rect(left, y, span, row_height - 4, fill="#f4f4f4")
        for seg in rows[key]:
            x0 = left + span * seg.start / total_time
            x1 = left + span * seg.end / total_time
            doc.rect(x0, y, max(x1 - x0, 0.5), row_height - 4,
                     fill=TIMELINE_COLORS.get(kind, "#999"))
    doc.text(left, height - 12, "0 ms", size=10)
    doc.text(right, height - 12, f"{total_time * 1e3:.3f} ms", size=10,
             anchor="end")
    return doc.render()
