"""Deterministic CSV and SVG emission.

Floating values in CSV files are printed with 12 significant digits, and a
zero without its sign, so identical inputs produce byte-identical files; the
SVG files are written as text too, one element per line.
``write_svg`` draws exactly the data it is given on a 720 x 720 canvas,
mapping the plotted box linearly onto it with the y-axis pointing up: an
optional solution-count heat layer, singularity curves in blue and
characteristic curves in green (one path element per branch), a joint loop,
lifted paths, and one marker per cusp or isolated point.  ``workspace_plot``
and ``joint_plot`` derive those markers and the axis labels from a curve set
and its family.
"""

from __future__ import annotations

import html
import math

import numpy as np

from .dkp import CountMap, DkpSolutionSet
from .maps import MapFamily
from .monodromy import JointLoop, LoopLift, Permutation
from .singular import SpecialPoint
from .trace import KIND_CHARACTERISTIC, KIND_SINGULARITY, CurveSet

#: Width and height of every SVG canvas, in pixels.
SIZE = 720
CURVE_COLORS = {KIND_SINGULARITY: "#1f4fd8", KIND_CHARACTERISTIC: "#1f9d3a"}
CURVE_WIDTHS = {KIND_SINGULARITY: "2.2", KIND_CHARACTERISTIC: "1.2"}
COUNT_COLORS = {
    -1: "#d0d0d0", 0: "#ffffff", 1: "#ffe9d9", 2: "#ffd8a8", 3: "#fdc28c",
    4: "#fb9a4b", 5: "#e97029", 6: "#d94801",
}


def fmt(x) -> str:
    return f"{float(x) + 0.0:.12g}"  # + 0.0 turns -0.0 into 0.0


def _write_csv(path, header, rows):
    """Write the header and the rows, each a str of comma-joined fields that
    ends in "\r\n": what csv.writer writes, since no field needs quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(rows)


def write_special_points_csv(path, points: list[SpecialPoint]):
    _write_csv(path, ["phi", "y", "u", "v", "kind", "delta", "residual"], (
        f"{fmt(p.location.phi)},{fmt(p.location.y)},{fmt(p.image.u)},{fmt(p.image.v)},"
        f"{p.kind.value},{'' if math.isnan(p.delta) else fmt(p.delta)},"
        f"{fmt(p.residual)}\r\n" for p in points))


def write_curves_csv(path, cs: CurveSet, coord_names=("c1", "c2")):
    def rows(ci, poly):
        # One % operation formats a polyline's rows.
        n = len(poly.vertices)
        values = np.column_stack([np.arange(n), np.isin(np.arange(n), poly.cusp_indices),
                                  poly.vertices + 0.0])
        row = f"{ci},{poly.kind},{int(poly.closed)},%d,%d,%.12g,%.12g\r\n"
        return row * n % tuple(values.ravel().tolist())

    _write_csv(path, ["curve", "kind", "closed", "vertex", "is_cusp", *coord_names],
               (rows(ci, poly) for ci, poly in enumerate(cs.curves)))


def write_solutions_csv(path, sols: DkpSolutionSet):
    _write_csv(path, ["phi", "y", "residual", "multiplicity_flag"], (
        f"{fmt(s.phi)},{fmt(s.y)},{fmt(r)},{int(m)}\r\n"
        for s, r, m in zip(sols.solutions, sols.residuals, sols.multiplicity_flags)))


def write_countmap_csv(path, cm: CountMap):
    us, vs = cm.cell_centers()
    _write_csv(path, ["u", "v", "count"], (
        f"{fmt(u)},{fmt(v)},{int(cm.counts[i, j])}\r\n"
        for i, u in enumerate(us) for j, v in enumerate(vs)))


def write_lift_csv(path, loop: JointLoop, lift: LoopLift):
    _write_csv(path, ["sample", "u", "v", "phi", "y"], (
        f"{i},{fmt(u)},{fmt(v)},{fmt(phi)},{fmt(y)}\r\n"
        for i, ((u, v), (phi, y)) in enumerate(zip(loop.samples, lift.path))))


def write_permutation_csv(path, perm: Permutation):
    _write_csv(path, ["solution", "phi", "y", "maps_to"], (
        f"{i},{fmt(s.phi)},{fmt(s.y)},{perm.mapping[i]}\r\n"
        for i, s in enumerate(perm.solutions)))


class _Canvas:
    MARGIN = 40.0

    def __init__(self, box):
        (self.x0, self.x1), (self.y0, self.y1) = box
        self.sx = (SIZE - 2 * self.MARGIN) / (self.x1 - self.x0)
        self.sy = (SIZE - 2 * self.MARGIN) / (self.y1 - self.y0)

    def to_px(self, x, y):
        px = self.MARGIN + (x - self.x0) * self.sx
        py = SIZE - self.MARGIN - (y - self.y0) * self.sy
        return px, py

    def path_d(self, vertices, closed):
        px, py = self.to_px(vertices[:, 0], vertices[:, 1])
        pts = tuple(np.column_stack([px, py]).ravel().tolist())
        cmds = ["M" + " L".join(["%.2f,%.2f"] * len(px)) % pts] if pts else []
        if closed:
            cmds.append("Z")
        return " ".join(cmds)


def _split_at_seam(vertices):
    """Split a polyline where the angle wraps across the window seam."""
    cuts = np.flatnonzero(np.abs(np.diff(vertices[:, 0])) > math.pi) + 1
    return [p for p in np.split(vertices, cuts) if len(p) >= 2]


def _path(cls, d, stroke, width, dash=None):
    dash = "" if dash is None else f' stroke-dasharray="{dash}"'
    return (f'  <path class="{cls}" d="{d}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"{dash} />')


def _circle(canvas, cls, p, r, fill, stroke, width):
    px, py = canvas.to_px(p[0], p[1])
    return (f'  <circle class="{cls}" cx="{px:.2f}" cy="{py:.2f}" r="{r}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{width}" />')


def write_svg(path, box, *, labels=("", ""), curves=(), cusps=(), isolated=(),
              countmap: CountMap | None = None, loop: JointLoop | None = None,
              lifts=(), periodic_x: bool = False):
    """Draw exactly the given data into a standalone SVG file.

    ``box`` is the plotted window ((x0, x1), (y0, y1)); ``curves`` are
    polylines (singularity ones drawn before characteristic ones),
    ``cusps`` and ``isolated`` are (x, y) markers, ``lifts`` are (n, 2)
    paths, and ``labels`` name the horizontal and vertical axes.  With
    ``periodic_x`` the curves and lifts are split where the angle wraps.
    """
    canvas = _Canvas(box)
    lines = ["<?xml version='1.0' encoding='utf-8'?>",
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
             f'viewBox="0 0 {SIZE} {SIZE}">',
             f'  <rect x="0" y="0" width="{SIZE}" height="{SIZE}" fill="white" />']

    if countmap is not None:
        (u0, u1), (v0, v1) = countmap.bounds
        nu, nv = countmap.resolution
        du, dv = (u1 - u0) / nu, (v1 - v0) / nv
        width, height = f"{abs(du * canvas.sx):.2f}", f"{abs(dv * canvas.sy):.2f}"
        lines.append('  <g class="countmap">')
        for i in range(nu):
            for j in range(nv):
                count = int(countmap.counts[i, j])
                px0, py0 = canvas.to_px(u0 + i * du, v0 + (j + 1) * dv)
                lines.append(
                    f'    <rect class="count" data-count="{count}" x="{px0:.2f}" y="{py0:.2f}" '
                    f'width="{width}" height="{height}" '
                    f'fill="{COUNT_COLORS.get(count, "#b10026")}" stroke="none" />')
        lines.append("  </g>")

    frame0 = canvas.to_px(canvas.x0, canvas.y1)
    lines.append(f'  <rect x="{frame0[0]:.2f}" y="{frame0[1]:.2f}" '
                 f'width="{(canvas.x1 - canvas.x0) * canvas.sx:.2f}" '
                 f'height="{(canvas.y1 - canvas.y0) * canvas.sy:.2f}" '
                 'fill="none" stroke="#404040" stroke-width="1" />')

    for kind, color in CURVE_COLORS.items():
        for poly in curves:
            if poly.kind != kind:
                continue
            pieces = _split_at_seam(poly.vertices) if periodic_x else [poly.vertices]
            d = " ".join(canvas.path_d(p, poly.closed and len(pieces) == 1)
                         for p in pieces)
            if d:
                lines.append(_path(kind, d, color, CURVE_WIDTHS[kind]))

    if loop is not None:
        lines.append(_path("loop", canvas.path_d(loop.samples, False), "#202020", "1.2", "6,4"))

    for pathline in lifts:
        pieces = _split_at_seam(np.asarray(pathline)) if periodic_x else [np.asarray(pathline)]
        d = " ".join(canvas.path_d(p, False) for p in pieces)
        lines.append(_path("lift", d, "#9016a8", "1.4", "2,3"))

    lines += [_circle(canvas, "cusp", p, "4.5", "#d8261f", "white", "1") for p in cusps]
    lines += [_circle(canvas, "isolated", p, "5", "none", "#1f4fd8", "2") for p in isolated]

    for x, y, text in ((SIZE - 24, SIZE - 14, labels[0]), (10, 24, labels[1])):
        if text:
            lines.append(f'  <text x="{x}" y="{y}" font-size="15" font-family="sans-serif">'
                         f'{html.escape(text, quote=False)}</text>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _cusp_points(cs: CurveSet):
    return sorted(tuple(poly.vertices[vi]) for poly in cs.curves for vi in poly.cusp_indices)


def workspace_plot(path, family: MapFamily, box, cs: CurveSet, *,
                   characteristics: CurveSet | None = None, lift_paths=()):
    """Standard workspace figure: curves, cusp markers, isolated points."""
    curves = cs.curves + (characteristics.curves if characteristics is not None else [])
    write_svg(path, box, labels=family.input_names, curves=curves,
              cusps=_cusp_points(cs), isolated=cs.isolated_points, lifts=lift_paths,
              periodic_x=family.periodic)


def joint_plot(path, family: MapFamily, box, jcs: CurveSet, *,
               countmap: CountMap | None = None, loop: JointLoop | None = None):
    """Standard joint-space figure: image curves, cusp images, count layer."""
    write_svg(path, box, labels=family.output_names, curves=jcs.curves,
              cusps=_cusp_points(jcs), isolated=jcs.isolated_points,
              countmap=countmap, loop=loop)
