"""Deterministic CSV and SVG emission.

Floating values in CSV files are printed with 12 significant digits, so
identical inputs produce byte-identical files.  SVG plots map the analysis
box linearly onto the canvas with the y-axis pointing up; singularity curves
are drawn in blue and characteristic curves in green, with one path element
per branch and one marker per special point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from xml.etree import ElementTree as ET

import numpy as np

from .dkp import CountMap, DkpSolutionSet
from .maps import MapFamily
from .monodromy import JointLoop, LoopLift
from .singular import DISPLAY_NAMES, SpecialPoint
from .trace import KIND_CHARACTERISTIC, KIND_SINGULARITY, CurveSet, JointCurveSet

LAYER_SINGULARITY = "singularity"
LAYER_CHARACTERISTIC = "characteristic"
LAYER_CUSPS = "cusps"
LAYER_ISOLATED = "isolated"
LAYER_COUNTS = "counts"
LAYER_LOOP = "loop"
LAYER_LIFT = "lift"
ALL_LAYERS = (LAYER_SINGULARITY, LAYER_CHARACTERISTIC, LAYER_CUSPS,
              LAYER_ISOLATED, LAYER_COUNTS, LAYER_LOOP, LAYER_LIFT)

CURVE_COLORS = {KIND_SINGULARITY: "#1f4fd8", KIND_CHARACTERISTIC: "#1f9d3a"}
CURVE_WIDTHS = {KIND_SINGULARITY: 2.2, KIND_CHARACTERISTIC: 1.2}
COUNT_COLORS = {
    -1: "#d0d0d0", 0: "#ffffff", 1: "#ffe9d9", 2: "#ffd8a8", 3: "#fdc28c",
    4: "#fb9a4b", 5: "#e97029", 6: "#d94801",
}


def fmt(x) -> str:
    return f"{float(x):.12g}"


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


def write_curves_csv(path, cs: CurveSet | JointCurveSet, coord_names=("c1", "c2")):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve", "kind", "closed", "vertex", "is_cusp",
                         coord_names[0], coord_names[1]])
        # The rows csv.writer would write, "\r\n" included: no field needs quoting.
        for ci, poly in enumerate(cs.curves):
            cusps = set(poly.cusp_indices)
            head = f"{ci},{poly.kind},{int(poly.closed)},"
            fh.write("".join(f"{head}{vi},{int(vi in cusps)},{x:.12g},{y:.12g}\r\n"
                             for vi, (x, y) in enumerate(poly.vertices.tolist())))


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


@dataclass(frozen=True)
class PlotSpec:
    """Which layers to draw, where to write the SVG, and the canvas size."""

    layers: tuple[str, ...]
    output_path: str
    size: tuple[int, int] = (720, 720)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("layer list must be non-empty")
        unknown = [l for l in self.layers if l not in ALL_LAYERS]
        if unknown:
            raise ValueError(f"unknown layers: {unknown}")


@dataclass
class PlotScene:
    """Data pool a plot draws from; layers without data are skipped."""

    box: tuple[tuple[float, float], tuple[float, float]]
    curves: CurveSet | JointCurveSet | None = None
    cusp_points: list = field(default_factory=list)
    isolated_points: list = field(default_factory=list)
    countmap: CountMap | None = None
    loop: JointLoop | None = None
    lift_paths: list = field(default_factory=list)
    axis_labels: tuple[str, str] = ("", "")


class _Canvas:
    MARGIN = 40.0

    def __init__(self, box, size):
        (self.x0, self.x1), (self.y0, self.y1) = box
        self.width, self.height = size
        self.sx = (self.width - 2 * self.MARGIN) / (self.x1 - self.x0)
        self.sy = (self.height - 2 * self.MARGIN) / (self.y1 - self.y0)

    def to_px(self, x, y):
        px = self.MARGIN + (x - self.x0) * self.sx
        py = self.height - self.MARGIN - (y - self.y0) * self.sy
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


def write_svg(spec: PlotSpec, scene: PlotScene, *, periodic_x: bool = False):
    """Render the selected layers into a standalone SVG file."""
    canvas = _Canvas(scene.box, spec.size)
    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(spec.size[0]),
        "height": str(spec.size[1]),
        "viewBox": f"0 0 {spec.size[0]} {spec.size[1]}",
    })
    ET.SubElement(svg, "rect", {
        "x": "0", "y": "0", "width": str(spec.size[0]), "height": str(spec.size[1]),
        "fill": "white"})

    if LAYER_COUNTS in spec.layers and scene.countmap is not None:
        cm = scene.countmap
        (u0, u1), (v0, v1) = cm.bounds
        nu, nv = cm.resolution
        du, dv = (u1 - u0) / nu, (v1 - v0) / nv
        group = ET.SubElement(svg, "g", {"class": "countmap"})
        for i in range(nu):
            for j in range(nv):
                count = int(cm.counts[i, j])
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

    if scene.curves is not None:
        for kind, layer in ((KIND_SINGULARITY, LAYER_SINGULARITY),
                            (KIND_CHARACTERISTIC, LAYER_CHARACTERISTIC)):
            if layer not in spec.layers:
                continue
            for poly in scene.curves.by_kind(kind):
                pieces = (_split_at_seam(poly.vertices) if periodic_x
                          else [poly.vertices])
                d = " ".join(canvas.path_d(p, poly.closed and len(pieces) == 1)
                             for p in pieces)
                if not d:
                    continue
                ET.SubElement(svg, "path", {
                    "class": kind, "d": d, "fill": "none",
                    "stroke": CURVE_COLORS[kind],
                    "stroke-width": str(CURVE_WIDTHS[kind])})

    if LAYER_LOOP in spec.layers and scene.loop is not None:
        ET.SubElement(svg, "path", {
            "class": "loop", "d": canvas.path_d(scene.loop.samples, False),
            "fill": "none", "stroke": "#202020", "stroke-width": "1.2",
            "stroke-dasharray": "6,4"})

    if LAYER_LIFT in spec.layers:
        for pathline in scene.lift_paths:
            pieces = _split_at_seam(np.asarray(pathline)) if periodic_x else [np.asarray(pathline)]
            d = " ".join(canvas.path_d(p, False) for p in pieces)
            ET.SubElement(svg, "path", {
                "class": "lift", "d": d, "fill": "none",
                "stroke": "#9016a8", "stroke-width": "1.4",
                "stroke-dasharray": "2,3"})

    if LAYER_CUSPS in spec.layers:
        for p in scene.cusp_points:
            px, py = canvas.to_px(p[0], p[1])
            ET.SubElement(svg, "circle", {
                "class": "cusp", "cx": f"{px:.2f}", "cy": f"{py:.2f}",
                "r": "4.5", "fill": "#d8261f", "stroke": "white",
                "stroke-width": "1"})

    if LAYER_ISOLATED in spec.layers:
        for p in scene.isolated_points:
            px, py = canvas.to_px(p[0], p[1])
            ET.SubElement(svg, "circle", {
                "class": "isolated", "cx": f"{px:.2f}", "cy": f"{py:.2f}",
                "r": "5", "fill": "none", "stroke": "#1f4fd8",
                "stroke-width": "2"})

    if scene.axis_labels[0]:
        label = ET.SubElement(svg, "text", {
            "x": f"{spec.size[0] - 24:.0f}", "y": f"{spec.size[1] - 14:.0f}",
            "font-size": "15", "font-family": "sans-serif"})
        label.text = scene.axis_labels[0]
    if scene.axis_labels[1]:
        label = ET.SubElement(svg, "text", {
            "x": "10", "y": "24", "font-size": "15", "font-family": "sans-serif"})
        label.text = scene.axis_labels[1]

    tree = ET.ElementTree(svg)
    ET.indent(tree)
    tree.write(spec.output_path, encoding="unicode", xml_declaration=True)


def workspace_plot(path, family: MapFamily, box, cs: CurveSet, *,
                   characteristics: CurveSet | None = None,
                   lift_paths=(), layers=None, size=(720, 720)):
    """Standard workspace figure: curves, cusp markers, isolated points."""
    curves = CurveSet(list(cs.curves), list(cs.isolated_points))
    if characteristics is not None:
        curves.curves.extend(characteristics.curves)
    cusps = [tuple(poly.vertices[vi]) for poly in cs.curves for vi in poly.cusp_indices]
    if layers is None:
        layers = [LAYER_SINGULARITY, LAYER_CUSPS, LAYER_ISOLATED]
        if characteristics is not None:
            layers.append(LAYER_CHARACTERISTIC)
        if len(lift_paths):
            layers.append(LAYER_LIFT)
    scene = PlotScene(
        box=box, curves=curves, cusp_points=sorted(cusps),
        isolated_points=[tuple(p) for p in cs.isolated_points],
        lift_paths=list(lift_paths),
        axis_labels=family.input_names)
    write_svg(PlotSpec(tuple(layers), str(path), size), scene,
              periodic_x=family.periodic)


def joint_plot(path, family: MapFamily, box, jcs: JointCurveSet, *,
               countmap: CountMap | None = None, loop: JointLoop | None = None,
               layers=None, size=(720, 720)):
    """Standard joint-space figure: image curves, cusp images, count layer."""
    cusps = [tuple(poly.vertices[vi]) for poly in jcs.curves for vi in poly.cusp_indices]
    if layers is None:
        layers = [LAYER_SINGULARITY, LAYER_CUSPS, LAYER_ISOLATED]
        if countmap is not None:
            layers.append(LAYER_COUNTS)
        if loop is not None:
            layers.append(LAYER_LOOP)
    scene = PlotScene(
        box=box, curves=jcs, cusp_points=sorted(cusps),
        isolated_points=[tuple(p) for p in jcs.isolated_points],
        countmap=countmap, loop=loop,
        axis_labels=family.output_names)
    write_svg(PlotSpec(tuple(layers), str(path), size), scene, periodic_x=False)
