"""Deterministic CSV and SVG emission.

Floating values in CSV files are printed with 12 significant digits, and a
zero without its sign, so identical inputs produce byte-identical files.
``write_svg`` draws exactly the data it is given on a 720 x 720 canvas,
mapping the plotted box linearly onto it with the y-axis pointing up: an
optional solution-count heat layer, singularity curves in blue and
characteristic curves in green (one path element per branch), a joint loop,
lifted paths, and one marker per cusp or isolated point.  ``workspace_plot``
and ``joint_plot`` derive those markers and the axis labels from a curve set
and its family.
"""

from __future__ import annotations

import csv
import math
from xml.etree import ElementTree as ET

import numpy as np

from .dkp import CountMap, DkpSolutionSet
from .maps import MapFamily
from .monodromy import JointLoop, LoopLift, Permutation
from .singular import DISPLAY_NAMES, SpecialPoint
from .trace import KIND_CHARACTERISTIC, KIND_SINGULARITY, CurveSet

#: Width and height of every SVG canvas, in pixels.
SIZE = 720
CURVE_COLORS = {KIND_SINGULARITY: "#1f4fd8", KIND_CHARACTERISTIC: "#1f9d3a"}
CURVE_WIDTHS = {KIND_SINGULARITY: 2.2, KIND_CHARACTERISTIC: 1.2}
COUNT_COLORS = {
    -1: "#d0d0d0", 0: "#ffffff", 1: "#ffe9d9", 2: "#ffd8a8", 3: "#fdc28c",
    4: "#fb9a4b", 5: "#e97029", 6: "#d94801",
}


def fmt(x) -> str:
    return f"{float(x) + 0.0:.12g}"  # + 0.0 turns -0.0 into 0.0


def write_special_points_csv(path, points: list[SpecialPoint]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phi", "y", "u", "v", "kind", "delta", "residual"])
        for p in points:
            writer.writerow([
                fmt(p.location.phi), fmt(p.location.y),
                fmt(p.image.u), fmt(p.image.v),
                DISPLAY_NAMES[p.kind],
                "" if math.isnan(p.delta) else fmt(p.delta),
                fmt(p.residual),
            ])


def write_curves_csv(path, cs: CurveSet, coord_names=("c1", "c2")):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve", "kind", "closed", "vertex", "is_cusp",
                         coord_names[0], coord_names[1]])
        # The rows csv.writer would write, "\r\n" included: no field needs quoting.
        for ci, poly in enumerate(cs.curves):
            cusps = set(poly.cusp_indices)
            head = f"{ci},{poly.kind},{int(poly.closed)},"
            fh.write("".join(f"{head}{vi},{int(vi in cusps)},{x:.12g},{y:.12g}\r\n"
                             for vi, (x, y) in enumerate((poly.vertices + 0.0).tolist())))


def write_solutions_csv(path, sols: DkpSolutionSet):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phi", "y", "residual", "multiplicity_flag"])
        for s, r, m in zip(sols.solutions, sols.residuals, sols.multiplicity_flags):
            writer.writerow([fmt(s.phi), fmt(s.y), fmt(r), int(m)])


def write_countmap_csv(path, cm: CountMap):
    us, vs = cm.cell_centers()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "count"])
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                writer.writerow([fmt(u), fmt(v), int(cm.counts[i, j])])


def write_lift_csv(path, loop: JointLoop, lift: LoopLift):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "u", "v", "phi", "y"])
        for i, ((u, v), (phi, y)) in enumerate(zip(loop.samples, lift.path)):
            writer.writerow([i, fmt(u), fmt(v), fmt(phi), fmt(y)])


def write_permutation_csv(path, perm: Permutation):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solution", "phi", "y", "maps_to"])
        for i, s in enumerate(perm.solutions):
            writer.writerow([i, fmt(s.phi), fmt(s.y), perm.mapping[i]])


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
        pts = " L".join(f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist()))
        cmds = ["M" + pts] if pts else []
        if closed:
            cmds.append("Z")
        return " ".join(cmds)


def _split_at_seam(vertices):
    """Split a polyline where the angle wraps across the window seam."""
    cuts = np.flatnonzero(np.abs(np.diff(vertices[:, 0])) > math.pi) + 1
    return [p for p in np.split(vertices, cuts) if len(p) >= 2]


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
    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(SIZE),
        "height": str(SIZE),
        "viewBox": f"0 0 {SIZE} {SIZE}",
    })
    ET.SubElement(svg, "rect", {
        "x": "0", "y": "0", "width": str(SIZE), "height": str(SIZE),
        "fill": "white"})

    if countmap is not None:
        (u0, u1), (v0, v1) = countmap.bounds
        nu, nv = countmap.resolution
        du, dv = (u1 - u0) / nu, (v1 - v0) / nv
        group = ET.SubElement(svg, "g", {"class": "countmap"})
        for i in range(nu):
            for j in range(nv):
                count = int(countmap.counts[i, j])
                px0, py0 = canvas.to_px(u0 + i * du, v0 + (j + 1) * dv)
                color = COUNT_COLORS.get(count, "#b10026")
                ET.SubElement(group, "rect", {
                    "class": "count", "data-count": str(count),
                    "x": f"{px0:.2f}", "y": f"{py0:.2f}",
                    "width": f"{abs(du * canvas.sx):.2f}",
                    "height": f"{abs(dv * canvas.sy):.2f}",
                    "fill": color, "stroke": "none"})

    frame0 = canvas.to_px(canvas.x0, canvas.y1)
    ET.SubElement(svg, "rect", {
        "x": f"{frame0[0]:.2f}", "y": f"{frame0[1]:.2f}",
        "width": f"{(canvas.x1 - canvas.x0) * canvas.sx:.2f}",
        "height": f"{(canvas.y1 - canvas.y0) * canvas.sy:.2f}",
        "fill": "none", "stroke": "#404040", "stroke-width": "1"})

    for kind, color in CURVE_COLORS.items():
        for poly in curves:
            if poly.kind != kind:
                continue
            pieces = _split_at_seam(poly.vertices) if periodic_x else [poly.vertices]
            d = " ".join(canvas.path_d(p, poly.closed and len(pieces) == 1)
                         for p in pieces)
            if not d:
                continue
            ET.SubElement(svg, "path", {
                "class": kind, "d": d, "fill": "none", "stroke": color,
                "stroke-width": str(CURVE_WIDTHS[kind])})

    if loop is not None:
        ET.SubElement(svg, "path", {
            "class": "loop", "d": canvas.path_d(loop.samples, False),
            "fill": "none", "stroke": "#202020", "stroke-width": "1.2",
            "stroke-dasharray": "6,4"})

    for pathline in lifts:
        pieces = _split_at_seam(np.asarray(pathline)) if periodic_x else [np.asarray(pathline)]
        d = " ".join(canvas.path_d(p, False) for p in pieces)
        ET.SubElement(svg, "path", {
            "class": "lift", "d": d, "fill": "none",
            "stroke": "#9016a8", "stroke-width": "1.4",
            "stroke-dasharray": "2,3"})

    for p in cusps:
        px, py = canvas.to_px(p[0], p[1])
        ET.SubElement(svg, "circle", {
            "class": "cusp", "cx": f"{px:.2f}", "cy": f"{py:.2f}",
            "r": "4.5", "fill": "#d8261f", "stroke": "white",
            "stroke-width": "1"})

    for p in isolated:
        px, py = canvas.to_px(p[0], p[1])
        ET.SubElement(svg, "circle", {
            "class": "isolated", "cx": f"{px:.2f}", "cy": f"{py:.2f}",
            "r": "5", "fill": "none", "stroke": "#1f4fd8",
            "stroke-width": "2"})

    if labels[0]:
        label = ET.SubElement(svg, "text", {
            "x": f"{SIZE - 24}", "y": f"{SIZE - 14}",
            "font-size": "15", "font-family": "sans-serif"})
        label.text = labels[0]
    if labels[1]:
        label = ET.SubElement(svg, "text", {
            "x": "10", "y": "24", "font-size": "15", "font-family": "sans-serif"})
        label.text = labels[1]

    tree = ET.ElementTree(svg)
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=True)


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
