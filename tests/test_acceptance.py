"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy shared artifacts (full-box traces, count maps) are module fixtures so
the wall-clock budgets stated per criterion are honest per-criterion costs.
"""

import math
import time
from contextlib import contextmanager
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from cuspforge import (
    PointKind,
    circle_loop,
    count_map,
    discriminant,
    find_special_points,
    image_curves,
    lift_loop,
    loop_clearance,
    loop_permutation,
    make_family,
    quadratic_expansion,
    solve_dkp,
    trace_singularity_curves,
)
from cuspforge.cli import main as cli_main
from cuspforge.maps import wrap_delta

from conftest import PAPER_BOX
from gridscan import fd_hessian, fd_jacobian, grid_count

SVG_NS = {"s": "http://www.w3.org/2000/svg"}


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def pdist(p, q):
    return math.hypot(wrap_delta(p[0] - q[0]), p[1] - q[1])


def polyline_distance(jcs, target):
    t = np.asarray(target, float)
    best = math.inf
    for poly in jcs.curves:
        v = poly.vertices
        if len(v) < 2:
            continue
        a, b = v[:-1], v[1:]
        ab = b - a
        denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
        s = np.clip(((t - a) * ab).sum(-1) / denom, 0.0, 1.0)
        proj = a + s[:, None] * ab
        best = min(best, float(np.min(np.linalg.norm(t - proj, axis=1))))
    return best


@pytest.fixture(scope="module")
def exact_full_jcs(exact_family):
    cs = trace_singularity_curves(exact_family,
                                  specials=find_special_points(exact_family))
    return image_curves(exact_family, cs)


@pytest.fixture(scope="module")
def offset_full_jcs(offset_family):
    cs = trace_singularity_curves(offset_family,
                                  specials=find_special_points(offset_family))
    return image_curves(offset_family, cs)


def test_criterion_1_unperturbed_classification(exact_family):
    started = time.perf_counter()
    with criterion(1, "unperturbed corank-2 points located and classified "
                      "with the reference quadratic parts"):
        points = find_special_points(exact_family, PAPER_BOX)
        assert len(points) == 2
        node, isolated = points
        assert pdist(node.location, (0.0, 0.0)) < 1e-9
        assert pdist(isolated.location, (math.pi, 0.0)) < 1e-9
        assert node.kind == PointKind.CORANK2_HYPERBOLIC
        assert isolated.kind == PointKind.CORANK2_ELLIPTIC

        expected = {(0.0, 0.0): (11.0, -17.0, -300.0),
                    (math.pi, 0.0): (-11.0, 17.0, -300.0)}
        for q, want in expected.items():
            got = np.array(quadratic_expansion(exact_family, q).jdet)
            scale = got[0] / want[0]
            assert scale > 0.0
            assert np.max(np.abs(got / scale - np.array(want))) < 1e-6
        assert discriminant(quadratic_expansion(exact_family, (0.0, 0.0))) > 0
        assert discriminant(
            quadratic_expansion(exact_family, (math.pi, 0.0))) < 0
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_perturbed_cusps_and_curve_structure(offset_family):
    started = time.perf_counter()
    with criterion(2, "perturbed instance: 4 cusps at the reference "
                      "coordinates; oval carries 3, one branch carries 1"):
        points = find_special_points(offset_family, PAPER_BOX)
        assert len(points) == 4
        assert all(p.kind == PointKind.CUSP for p in points)
        reference = [(-0.0023, 2.9069), (2.6492, -2.2190),
                     (-2.7368, -1.2968), (3.0855, 2.6935)]
        for ref in reference:
            assert min(pdist(p.location, ref) for p in points) < 1e-3

        cs = trace_singularity_curves(offset_family, PAPER_BOX, specials=points)
        ovals = [c for c in cs.curves if c.closed]
        assert len(ovals) == 1 and len(ovals[0].cusp_indices) == 3
        open_counts = [len(c.cusp_indices) for c in cs.curves if not c.closed]
        assert open_counts.count(1) == 1 and sum(open_counts) == 1
        assert cs.isolated_points == []
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_normal_form_cusp_loci():
    with criterion(3, "random unfoldings: 3 cusps on the singular circle, "
                      "1 cusp on the singular hyperbola (to 1e-8)"):
        rng = np.random.default_rng(2024)
        box = ((-9.0, 9.0), (-9.0, 9.0))
        done = 0
        while done < 20:
            a, b = rng.uniform(-2.0, 2.0, 2)
            if abs(a - b) < 0.1:
                continue
            fam = make_family("complex_square_unfolded", a=a, b=b)
            points = find_special_points(fam, box)
            assert len(points) == 3, (a, b)
            for p in points:
                assert p.kind == PointKind.CUSP
                radial = math.hypot(p.location.phi + a + b, p.location.y)
                assert abs(radial - abs(a - b)) < 1e-8, (a, b)
            done += 1
        done = 0
        while done < 20:
            a, b = rng.uniform(-2.0, 2.0, 2)
            if abs(a * b) < 0.05:
                continue
            fam = make_family("quarto_unfolded", a=a, b=b)
            points = find_special_points(fam, box)
            assert len(points) == 1, (a, b)
            p = points[0]
            assert p.kind == PointKind.CUSP
            assert abs(p.location.phi * p.location.y - a * b) < 1e-8, (a, b)
            done += 1


def test_criterion_4_solution_count_maps(exact_family, offset_family,
                                         exact_full_jcs, offset_full_jcs,
                                         square_family, quarto_family,
                                         square_trace, quarto_trace):
    started = time.perf_counter()
    with criterion(4, "count maps: nested regions with the reference counts, "
                      "verified against the grid-scan oracle"):
        window = ((0.0, 230.0), (0.0, 230.0))

        # Unperturbed: the d = 0 mirror symmetry doubles the fold cover, so
        # the nesting is 4 -> 0 with no 2-band (see the decisions ledger);
        # counts away from the image curve must be exactly {0, 4}.
        cm_exact = count_map(exact_family, window, 64)
        us, vs = cm_exact.cell_centers()
        interior = []
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                if polyline_distance(exact_full_jcs, (u, v)) > 2.0:
                    interior.append(cm_exact.counts[i, j])
        assert set(interior) == {0, 4}
        assert set(np.unique(cm_exact.counts)).issubset({0, 1, 2, 3, 4})

        # Perturbed: 6-count island inside 4/2/0 outward progression.
        cm_offset = count_map(offset_family, window, 64)
        values = set(np.unique(cm_offset.counts))
        assert {0, 2, 4, 6}.issubset(values)
        assert values.issubset({-1, 0, 1, 2, 3, 4, 5, 6})

        oval = [c for c in offset_full_jcs.curves if c.closed][0]
        centroid = oval.vertices[oval.cusp_indices].mean(axis=0)
        assert len(solve_dkp(offset_family, tuple(centroid))) == 6
        for theta in (0.2, 1.8, 4.0):
            direction = np.array([math.cos(theta), math.sin(theta)])
            counts = []
            for t in np.linspace(0.0, 140.0, 36):
                target = centroid + t * direction
                if target[0] < 0.5 or target[1] < 0.5:
                    break
                if polyline_distance(offset_full_jcs, target) < 0.5:
                    continue
                counts.append(len(solve_dkp(offset_family, tuple(target))))
            assert counts[0] == 6
            assert all(a >= b for a, b in zip(counts, counts[1:]))

        # Oracle spot-check: 50 random targets per family, exact agreement.
        setups = [
            (exact_family, exact_full_jcs, window, None),
            (offset_family, offset_full_jcs, window, None),
            (square_family, image_curves(square_family, square_trace),
             ((-15.0, 15.0), (-15.0, 15.0)), ((-10.0, 10.0), (-10.0, 10.0))),
            (quarto_family, image_curves(quarto_family, quarto_trace),
             ((-8.0, 20.0), (-8.0, 20.0)), ((-10.0, 10.0), (-10.0, 10.0))),
        ]
        rng = np.random.default_rng(9)
        for family, jcs, jwindow, box in setups:
            checked = 0
            while checked < 50:
                target = (rng.uniform(*jwindow[0]), rng.uniform(*jwindow[1]))
                if polyline_distance(jcs, target) < 1e-3:
                    continue
                n_solver = len(solve_dkp(family, target, box=box))
                assert n_solver == grid_count(family, target, box=box), target
                checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_monodromy(exact_family, offset_family, square_family,
                               exact_full_jcs, offset_full_jcs, square_trace):
    with criterion(5, "loops around the multiple images swap one solution "
                      "pair; double traversal restores the start"):
        # Unperturbed: circle around the image of the isolated point.
        target = np.array([81.0, 144.0])
        clearance = polyline_distance(exact_full_jcs, target)
        loop = loop_clearance(circle_loop(tuple(target), 0.4 * clearance),
                              exact_full_jcs)
        assert loop.min_singular_clearance > 0.0
        perm = loop_permutation(exact_family, loop)
        assert not perm.is_identity()
        assert perm.compose(perm).is_identity()
        assert sorted(len(c) for c in perm.cycles()) == [1, 1, 2]

        moved = next(i for i, m in enumerate(perm.mapping) if m != i)
        start = perm.solutions[moved]
        double = circle_loop(tuple(target), 0.4 * clearance, turns=2)
        lift = lift_loop(exact_family, double, start)
        assert pdist(lift.end, start) < 1e-6

        # Perturbed: circle between the deltoid and the outer branches.
        oval = [c for c in offset_full_jcs.curves if c.closed][0]
        centroid = oval.vertices.mean(axis=0)
        r_in = float(np.max(np.linalg.norm(oval.vertices - centroid, axis=1)))
        r_out = min(float(np.min(np.linalg.norm(c.vertices - centroid, axis=1)))
                    for c in offset_full_jcs.curves if not c.closed)
        assert r_out > r_in
        loop = loop_clearance(
            circle_loop(tuple(centroid), math.sqrt(r_in * r_out)),
            offset_full_jcs)
        assert loop.min_singular_clearance > 0.0
        perm = loop_permutation(offset_family, loop)
        assert not perm.is_identity()
        assert perm.compose(perm).is_identity()

        # Unfolded complex square: circle around the deltoid.
        jcs = image_curves(square_family, square_trace)
        deltoid = jcs.curves[0].vertices
        centroid = deltoid.mean(axis=0)
        radius = 1.2 * float(np.max(np.linalg.norm(deltoid - centroid, axis=1)))
        loop = loop_clearance(circle_loop(tuple(centroid), radius), jcs)
        assert loop.min_singular_clearance > 0.0
        perm = loop_permutation(square_family, loop)
        # Every real solution takes part; both lie in the window |x|, |y| <= 10.
        assert np.all(np.abs([tuple(s) for s in perm.solutions]) <= 10.0)
        assert len(perm.solutions) == 2 and perm.mapping == (1, 0)


def test_criterion_6_derivative_correctness():
    with criterion(6, "analytic Jacobians and Hessians match finite "
                      "differences at 1000 random points per family"):
        families = [
            make_family("rpr2pr_exact", a1=3.0, a2=7.0, b1=6.0, b2=5.0),
            make_family("rpr2pr_offset", a1=3.0, a2=7.0, b1=6.0, b2=5.0, d=3.0),
            make_family("complex_square_unfolded", a=1.0, b=-1.0),
            make_family("quarto_unfolded", a=1.0, b=1.0),
        ]
        rng = np.random.default_rng(66)
        for fam in families:
            (x0, x1), (y0, y1) = fam.default_box()
            phi = rng.uniform(x0, x1, 1000)
            y = rng.uniform(y0, y1, 1000)
            jac, fd_jac = fam.jacobian(phi, y), fd_jacobian(fam, phi, y)
            scale = np.maximum(np.max(np.abs(fd_jac), axis=(-2, -1)), 1.0)
            assert np.max(np.abs(jac - fd_jac) / scale[..., None, None]) < 1e-6
            hess, fd_hess = fam.hessian(phi, y), fd_hessian(fam, phi, y)
            scale = np.maximum(np.max(np.abs(fd_hess), axis=(-3, -2, -1)), 1.0)
            assert np.max(
                np.abs(hess - fd_hess) / scale[..., None, None, None]) < 1e-5


def test_criterion_7_degeneration_continuity():
    with criterion(7, "cusps converge monotonically onto the corank-2 "
                      "points as the platform offset shrinks"):
        r_iso, r_node = [], []
        for d in (3.0, 1.0, 0.3, 0.1):
            fam = make_family("rpr2pr_offset", a1=3.0, a2=7.0, b1=6.0, b2=5.0,
                              d=d)
            points = find_special_points(fam, PAPER_BOX)
            cusps = [p for p in points if p.kind == PointKind.CUSP]
            assert len(points) == 4 and len(cusps) == 4
            ordered = sorted(cusps,
                             key=lambda p: pdist(p.location, (math.pi, 0.0)))
            r_iso.append(max(pdist(p.location, (math.pi, 0.0))
                             for p in ordered[:3]))
            r_node.append(pdist(ordered[3].location, (0.0, 0.0)))
        assert r_iso[0] > r_iso[1] > r_iso[2] > r_iso[3]
        assert r_node[0] > r_node[1] > r_node[2] > r_node[3]

        limit = make_family("rpr2pr_offset", a1=3.0, a2=7.0, b1=6.0, b2=5.0,
                            d=0.0)
        points = find_special_points(limit, PAPER_BOX)
        kinds = sorted(p.kind.value for p in points)
        assert kinds == ["corank2_elliptic", "corank2_hyperbolic"]


def test_criterion_8_reproduction_figures(tmp_path):
    with criterion(8, "reproduction figures carry the reference branch, "
                      "cusp-marker, and isolated-point structure"):
        out = tmp_path / "figures"
        assert cli_main(["reproduce-paper", "--out", str(out)]) == 0

        def svg_stats(name):
            root = ET.parse(out / name).getroot()
            paths = root.findall(".//s:path[@class='singularity']", SVG_NS)
            closed = sum(1 for p in paths if p.get("d").rstrip().endswith("Z"))
            cusps = len(root.findall(".//s:circle[@class='cusp']", SVG_NS))
            isolated = len(root.findall(".//s:circle[@class='isolated']", SVG_NS))
            return len(paths), closed, cusps, isolated

        assert svg_stats("exact_workspace.svg") == (4, 0, 0, 1)
        n_paths, n_closed, n_cusps, n_iso = svg_stats("offset_workspace.svg")
        assert n_paths >= 2 and n_closed == 1 and n_cusps == 4 and n_iso == 0
        assert svg_stats("square_workspace.svg") == (1, 1, 3, 0)
        assert svg_stats("quarto_workspace.svg") == (2, 0, 1, 0)
        for name in ("exact_joint.svg", "offset_joint.svg",
                     "square_joint.svg", "quarto_joint.svg"):
            root = ET.parse(out / name).getroot()
            assert root.tag.endswith("svg")
            assert root.findall(".//s:path[@class='singularity']", SVG_NS)
