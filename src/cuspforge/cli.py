"""Command-line front end.

Subcommands
-----------
cusps        locate and classify special points, emit CSV + console table
trace        trace singularity (and optionally characteristic) curves
classify     classify one workspace point on the singularity set
dkp          all direct-kinematics solutions for one joint target
regions      per-cell solution counts over a joint window (CSV + SVG heat)
monodromy    lift a joint-space loop and report the induced permutation
reproduce-paper
             run the four reference instances, emit their figures, and
             print a pass/fail report against the expected structure

Exit codes: 0 success (possibly with warnings), 1 configuration error,
2 solver failure or failed reproduction check.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import output
from .config import family_from_config, load_config, workspace_box
from .dkp import count_map, solve_dkp
from .errors import ConfigError, CuspforgeError
from .maps import JointPoint, in_box, make_family, point_distances
from .monodromy import JointLoop, circle_loop, lift_loop, loop_clearance, loop_permutation
from .singular import DISPLAY_NAMES, PointKind, classify_point, find_special_points
from .trace import characteristic_curves, image_curves, trace_singularity_curves


def _parse_pair(text, what):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{what} must be two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{what} must be numeric, got {text!r}") from None


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args):
    cfg = load_config(args.config)
    family = family_from_config(cfg)
    return family, workspace_box(cfg, family)


#: Share of the image's extent added on each side of an automatic joint window.
JOINT_MARGIN = 0.12


def _auto_joint_bounds(jcs):
    pts = np.concatenate([c.vertices for c in jcs.curves]
                         + [np.reshape(jcs.isolated_points, (-1, 2))])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = JOINT_MARGIN * np.maximum(hi - lo, 1e-6)
    return ((float(lo[0] - pad[0]), float(hi[0] + pad[0])),
            (float(lo[1] - pad[1]), float(hi[1] + pad[1])))


def cmd_cusps(args) -> int:
    family, box = _load(args)
    points = find_special_points(family, box)
    out = _outdir(args)
    output.write_special_points_csv(out / "cusps.csv", points)
    print(f"{len(points)} special point(s) in "
          f"[{box[0][0]:.6g}, {box[0][1]:.6g}] x [{box[1][0]:.6g}, {box[1][1]:.6g}]")
    header = f"{'phi':>18} {'y':>18} {'kind':<20} {'delta':>12} {'residual':>10}"
    print(header)
    for p in points:
        delta = "" if math.isnan(p.delta) else f"{p.delta:12.5g}"
        print(f"{p.location.phi:18.12g} {p.location.y:18.12g} "
              f"{DISPLAY_NAMES[p.kind]:<20} {delta:>12} {p.residual:10.2e}")
    print(f"wrote {out / 'cusps.csv'}")
    return 0


def cmd_trace(args) -> int:
    family, box = _load(args)
    cs = trace_singularity_curves(family, box, args.step)
    jcs = image_curves(family, cs)
    characteristics = None
    if args.characteristics:
        characteristics = characteristic_curves(family, cs)
    out = _outdir(args)
    output.write_curves_csv(out / "trace_workspace.csv", cs, family.input_names)
    output.write_curves_csv(out / "trace_joint.csv", jcs, family.output_names)
    if characteristics is not None:
        output.write_curves_csv(out / "trace_characteristic.csv", characteristics,
                                family.input_names)
    output.workspace_plot(out / "trace_workspace.svg", family, box, cs,
                          characteristics=characteristics)
    output.joint_plot(out / "trace_joint.svg", family, _auto_joint_bounds(jcs), jcs)
    n_cusps = sum(len(c.cusp_indices) for c in cs.curves)
    closed = sum(1 for c in cs.curves if c.closed)
    print(f"{len(cs.curves)} branch(es) ({closed} closed), {n_cusps} cusp vertex(es), "
          f"{len(cs.isolated_points)} isolated point(s)")
    print(f"wrote {out / 'trace_workspace.svg'} and {out / 'trace_joint.svg'}")
    return 0


def cmd_classify(args) -> int:
    family, _ = _load(args)
    phi, y = _parse_pair(args.point, "--point")
    point = classify_point(family, (phi, y))
    if point.kind in (PointKind.CORANK2_ELLIPTIC, PointKind.CORANK2_HYPERBOLIC):
        print(f"{DISPLAY_NAMES[point.kind]}, Δ = {point.delta:g} (normalized)")
    else:
        print(DISPLAY_NAMES[point.kind])
    print(f"residual = {point.residual:.3e}, image = "
          f"({point.image.u:.9g}, {point.image.v:.9g})")
    return 0


def cmd_dkp(args) -> int:
    family, box = _load(args)
    target = _parse_pair(args.target, "--target")
    sols = solve_dkp(family, target, box=box)
    out = _outdir(args)
    output.write_solutions_csv(out / "dkp.csv", sols)
    print(f"{len(sols)} solution(s) of ({target[0]:.9g}, {target[1]:.9g})")
    for s, r, m in zip(sols.solutions, sols.residuals, sols.multiplicity_flags):
        flag = "  [singular]" if m else ""
        print(f"  {family.input_names[0]}={s.phi: .9f}  y={s.y: .9f}  "
              f"residual={r:.2e}{flag}")
    print(f"wrote {out / 'dkp.csv'}")
    return 0


def cmd_regions(args) -> int:
    family, box = _load(args)
    if args.bounds:
        parts = args.bounds.split(",")
        if len(parts) != 4:
            raise ConfigError("--bounds must be u_min,u_max,v_min,v_max")
        try:
            u0, u1, v0, v1 = (float(p) for p in parts)
        except ValueError:
            raise ConfigError("--bounds must be numeric") from None
        bounds = ((u0, u1), (v0, v1))
    else:
        bounds = _auto_joint_bounds(image_curves(family, trace_singularity_curves(family, box)))
    cm = count_map(family, bounds, args.resolution, box=box)
    out = _outdir(args)
    output.write_countmap_csv(out / "regions.csv", cm)
    output.write_svg(out / "regions.svg", bounds, labels=family.output_names, countmap=cm)
    values, freq = np.unique(cm.counts, return_counts=True)
    summary = ", ".join(f"{v}:{f}" for v, f in zip(values, freq))
    print(f"count histogram over {args.resolution}x{args.resolution} cells: {summary}")
    print(f"wrote {out / 'regions.csv'} and {out / 'regions.svg'}")
    return 0


def _loop_from_args(args) -> JointLoop:
    if args.loop_csv:
        rows = []
        with open(args.loop_csv, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                try:
                    rows.append((float(row[0]), float(row[1])))
                except (IndexError, ValueError):  # blank, short or header rows
                    continue
        if len(rows) < 3:
            raise ConfigError("loop CSV needs at least 3 numeric (u, v) rows")
        samples = np.array(rows)
        if not np.array_equal(samples[0], samples[-1]):
            samples = np.vstack([samples, samples[0]])
        return JointLoop(samples)
    if args.center is None or args.radius is None:
        raise ConfigError("monodromy needs either --loop-csv or --center and --radius")
    center = _parse_pair(args.center, "--center")
    return circle_loop(center, args.radius, turns=args.turns,
                       samples_per_turn=args.samples)


def cmd_monodromy(args) -> int:
    family, box = _load(args)
    loop = _loop_from_args(args)
    cs = trace_singularity_curves(family, box)
    jcs = image_curves(family, cs)
    # Every real solution takes part, so the loop is measured against the
    # image of the whole singular set; the configured window only frames the
    # plots.
    loop = loop_clearance(loop, _reach_image(family, None))
    print(f"loop base = ({loop.base.u:.9g}, {loop.base.v:.9g}), "
          f"clearance to image curves = {loop.min_singular_clearance:.6g}")
    out = _outdir(args)
    if args.start:
        start = _parse_pair(args.start, "--start")
        lift = lift_loop(family, loop, start)
        output.write_lift_csv(out / "monodromy_lift.csv", loop, lift)
        print(f"lift: start = ({lift.start.phi:.9f}, {lift.start.y:.9f}) -> "
              f"end = ({lift.end.phi:.9f}, {lift.end.y:.9f})")
        lifts = [lift.path]
    else:
        perm = loop_permutation(family, loop)
        cycles = " ".join(str(c) for c in perm.cycles())
        print(f"{len(perm.solutions)} base solution(s); permutation cycles: {cycles}")
        for i, s in enumerate(perm.solutions):
            print(f"  [{i}] {family.input_names[0]}={s.phi: .9f} y={s.y: .9f} "
                  f"-> [{perm.mapping[i]}]")
        lifts = [lift.path for lift in perm.lifts]
        output.write_permutation_csv(out / "monodromy_permutation.csv", perm)
    output.workspace_plot(out / "monodromy_workspace.svg", family, box, cs,
                          lift_paths=lifts)
    output.joint_plot(out / "monodromy_joint.svg", family,
                      _auto_joint_bounds(jcs), jcs, loop=loop)
    print(f"wrote {out / 'monodromy_workspace.svg'} and {out / 'monodromy_joint.svg'}")
    return 0


class _Report:
    def __init__(self):
        self.checks = 0
        self.failures = 0

    def check(self, ok: bool, label: str):
        print(f"{'PASS' if ok else 'FAIL'}: {label}")
        self.checks += 1
        if not ok:
            self.failures += 1


def _swaps_two(perm) -> bool:
    return (not perm.is_identity()) and perm.compose(perm).is_identity()


def _reach_image(family, found):
    """Image of the singular set over the reach box, holding the points found
    there (searched for where ``found`` is None)."""
    return image_curves(family, trace_singularity_curves(family, specials=found))


def _check_exact(report: _Report, family, points, cs, jcs, found):
    report.check(len(points) == 2, "in-line manipulator: exactly 2 special points")
    kinds = sorted(p.kind.value for p in points)
    report.check(kinds == ["corank2_elliptic", "corank2_hyperbolic"],
                 "in-line manipulator: one hyperbolic and one elliptic corank-2 point")
    hyper = [p for p in points if p.kind == PointKind.CORANK2_HYPERBOLIC]
    if hyper:
        report.check(abs(hyper[0].delta - 13489.0) < 1e-6 * 13489.0,
                     "in-line manipulator: node discriminant = 13489")
    report.check(len(cs.isolated_points) == 1,
                 "in-line manipulator: one isolated singular point")
    report.check(sum(len(c.cusp_indices) for c in cs.curves) == 0,
                 "in-line manipulator: no cusps")

    # One turn around the image of the isolated point; _swaps_two checks
    # that the permutation squares to the identity.  Clearance is measured
    # against the image of the full singular set (reach box), not just the
    # branches clipped to the plotting window.
    target = JointPoint(81.0, 144.0)
    pts = np.concatenate([c.vertices for c in _reach_image(family, found).curves])
    clearance = float(np.min(np.linalg.norm(pts - np.array(target), axis=1)))
    perm = loop_permutation(family, circle_loop(target, 0.4 * clearance))
    report.check(_swaps_two(perm), "in-line manipulator: loop around the multiple image "
                                   "swaps two solutions and squares to the identity")


OFFSET_PAPER_CUSPS = ((-0.0023, 2.9069), (2.6492, -2.2190), (3.5464, -1.2968),
                      (3.0855, 2.6935))


def _check_offset(report: _Report, family, points, cs, jcs, found):
    cusps = np.array([p.location for p in points if p.kind == PointKind.CUSP]).reshape(-1, 2)
    report.check(len(points) == 4 and len(cusps) == 4,
                 "offset manipulator: exactly 4 special points, all cusps")
    dists = point_distances(family, cusps[:, None, :], np.array(OFFSET_PAPER_CUSPS))
    report.check(len(cusps) == 4 and bool(np.all(np.min(dists, axis=0) < 1e-3)),
                 "offset manipulator: cusp coordinates match to 1e-3")
    ovals = [c for c in cs.curves if c.closed]
    report.check(len(ovals) == 1 and len(ovals[0].cusp_indices) == 3,
                 "offset manipulator: one oval carrying 3 cusps")
    open_counts = sorted(len(c.cusp_indices) for c in cs.curves if not c.closed)
    report.check(open_counts.count(1) == 1 and sum(open_counts) == 1,
                 "offset manipulator: exactly one open branch carries the fourth cusp")
    report.check(len(cs.isolated_points) == 0, "offset manipulator: no isolated points")

    full_jcs = _reach_image(family, found)
    oval_image = [c for c in full_jcs.curves if c.closed][0].vertices
    centroid = oval_image.mean(axis=0)
    r_in = float(np.max(np.linalg.norm(oval_image - centroid, axis=1)))
    others = [c.vertices for c in full_jcs.curves if not c.closed]
    r_out = min(float(np.min(np.linalg.norm(v - centroid, axis=1))) for v in others)
    perm = loop_permutation(family, circle_loop(tuple(centroid), math.sqrt(r_in * r_out)))
    report.check(_swaps_two(perm), "offset manipulator: loop around the deltoid swaps two "
                                   "solutions and squares to the identity")


def _check_square(report: _Report, family, points, cs, jcs, found):
    cusps = [p for p in points if p.kind == PointKind.CUSP]
    on_circle = all(abs(math.hypot(p.location.phi, p.location.y) - 2.0) < 1e-8
                    for p in cusps)
    report.check(len(cusps) == 3 and len(points) == 3 and on_circle,
                 "unfolded complex square: 3 cusps on the singular circle")
    closed = [c for c in cs.curves if c.closed]
    report.check(len(cs.curves) == 1 and len(closed) == 1
                 and len(closed[0].cusp_indices) == 3,
                 "unfolded complex square: one closed singular curve with 3 cusps")

    deltoid = jcs.curves[0].vertices
    centroid = deltoid.mean(axis=0)
    radius = 1.2 * float(np.max(np.linalg.norm(deltoid - centroid, axis=1)))
    perm = loop_permutation(family, circle_loop(tuple(centroid), radius))
    report.check(len(perm.solutions) == 2 and _swaps_two(perm),
                 "unfolded complex square: circling the deltoid swaps the two "
                 "outer preimages")


def _check_quarto(report: _Report, family, points, cs, jcs, found):
    cusps = [p for p in points if p.kind == PointKind.CUSP]
    on_hyperbola = all(abs(p.location.phi * p.location.y - 1.0) < 1e-8 for p in cusps)
    report.check(len(points) == 1 and len(cusps) == 1 and on_hyperbola,
                 "unfolded quarto: one cusp on the singular hyperbola")
    report.check(len(cs.curves) == 2 and all(not c.closed for c in cs.curves),
                 "unfolded quarto: two open hyperbola branches")


PAPER_BOX = ((-math.pi / 2.0, 3.0 * math.pi / 2.0), (-8.0, 8.0))
NORMAL_BOX = ((-4.0, 4.0), (-4.0, 4.0))
MANIPULATOR = dict(a1=3.0, a2=7.0, b1=6.0, b2=5.0)

#: The reference instances: file prefix, family kind, parameters, workspace
#: box, whether ``--full`` adds a count map to the joint figure, and checks.
PAPER_INSTANCES = (
    ("exact", "rpr2pr_exact", MANIPULATOR, PAPER_BOX, True, _check_exact),
    ("offset", "rpr2pr_offset", dict(MANIPULATOR, d=3.0), PAPER_BOX, True, _check_offset),
    ("square", "complex_square_unfolded", dict(a=1.0, b=-1.0), NORMAL_BOX, False,
     _check_square),
    ("quarto", "quarto_unfolded", dict(a=1.0, b=1.0), NORMAL_BOX, False, _check_quarto),
)


def _reproduce_instance(out: Path, report: _Report, full: bool,
                        name, kind, params, box, with_counts, checks):
    """Locate, trace and plot one instance, write its data, then check it.
    One search over the reach box finds the special points of both boxes."""
    family = make_family(kind, **params)
    found = find_special_points(family, family.default_box())
    inside = in_box(family, np.reshape([p.location for p in found], (-1, 2)), box)
    points = [p for p, keep in zip(found, inside) if keep]
    cs = trace_singularity_curves(family, box, specials=points)
    jcs = image_curves(family, cs)
    characteristics = characteristic_curves(family, cs) if full else None
    bounds = _auto_joint_bounds(jcs)
    cm = count_map(family, bounds, 32) if full and with_counts else None
    output.workspace_plot(out / f"{name}_workspace.svg", family, box, cs,
                          characteristics=characteristics)
    output.joint_plot(out / f"{name}_joint.svg", family, bounds, jcs, countmap=cm)
    output.write_special_points_csv(out / f"{name}_points.csv", points)
    output.write_curves_csv(out / f"{name}_workspace.csv", cs, family.input_names)
    output.write_curves_csv(out / f"{name}_joint.csv", jcs, family.output_names)
    checks(report, family, points, cs, jcs, found)


def cmd_reproduce(args) -> int:
    out = _outdir(args)
    report = _Report()
    for instance in PAPER_INSTANCES:
        _reproduce_instance(out, report, args.full, *instance)
    print(f"{report.checks - report.failures}/{report.checks} checks passed; "
          f"figures in {out}/")
    return 0 if report.failures == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspforge",
        description="Singularity analysis of planar 2-dof inverse-kinematic maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="analysis config (.cfg)")
        p.add_argument("--out", default=".", help="output directory (default: .)")

    p = sub.add_parser("cusps", help="find and classify special points",
                       description="CSV schema: phi, y, u, v, kind, delta, residual.")
    add_common(p)
    p.set_defaults(func=cmd_cusps)

    p = sub.add_parser("trace", help="trace singularity curves",
                       description="CSV schema: curve, kind, closed, vertex, is_cusp, "
                                   "coord1, coord2.")
    add_common(p)
    p.add_argument("--step", type=float, help="tracing arclength step")
    p.add_argument("--characteristics", action="store_true",
                   help="also compute characteristic curves (slower)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("classify", help="classify one point of the singularity set")
    add_common(p)
    p.add_argument("--point", required=True,
                   help="workspace point as 'phi,y' (a negative phi needs '=': "
                        "--point=-0.00234328474958,2.90691669249)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dkp", help="solve the direct kinematic problem",
                       description="CSV schema: phi, y, residual, multiplicity_flag.")
    add_common(p)
    p.add_argument("--target", required=True,
                   help="joint target as 'u,v' (a negative u needs '=': --target=-1,0.5)")
    p.set_defaults(func=cmd_dkp)

    p = sub.add_parser("regions", help="solution-count map over a joint window",
                       description="CSV schema: u, v, count (cell centers; -1 marks "
                                   "a failed cell).")
    add_common(p)
    p.add_argument("--bounds", help="joint window as 'u_min,u_max,v_min,v_max' (a "
                                    "negative u_min needs '=': --bounds=-2,6,-2,6)")
    p.add_argument("--resolution", type=int, default=32, help="cells per axis (default 32)")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("monodromy", help="lift a joint-space loop",
                       description="Loop from --center/--radius/--turns or from a "
                                   "CSV of u,v samples via --loop-csv.")
    add_common(p)
    p.add_argument("--center", help="circle center as 'u,v' (a negative u needs '=': "
                                    "--center=-1.5,0.5)")
    p.add_argument("--radius", type=float, help="circle radius")
    p.add_argument("--turns", type=int, default=1, help="number of revolutions")
    p.add_argument("--samples", type=int, default=720, help="samples per revolution")
    p.add_argument("--loop-csv", help="CSV file with u,v loop samples")
    p.add_argument("--start", help="lift only this start point 'phi,y' (a negative phi "
                                   "needs '=': --start=-0.2,10.8)")
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("reproduce-paper",
                       help="run the four reference instances and check them")
    add_common(p, config_required=False)
    p.add_argument("--full", action="store_true",
                   help="also compute characteristic curves and count maps")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CuspforgeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
