"""Correctness checks run on the benchmark's outputs after the timed passes.

Each check returns a list of error strings (empty when the output is right).
The references are made apart from the code under test: closed-form cusp
loci and the marching-cell solution count from ``tests/gridscan.py``,
finite-difference Jacobians, the paper's published coordinates, and
properties the method must have (even counts away from the fold image,
characteristic curves tangent to the singular curve at every cusp).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from gridscan import (
    complex_square_cusp_locations,
    fd_jacobian,
    grid_count,
    quarto_cusp_location,
)

PAPER_CHECKS = 17
INLINE_NODE_DELTA = 13489.0
OFFSET_PAPER_CUSPS = [(-0.0023, 2.9069), (2.6492, -2.2190), (-2.7368, -1.2968),
                      (3.0855, 2.6935)]
PAPER_CUSP_TOL = 1e-3
CLOSED_FORM_CUSP_TOL = 1e-7
ON_CURVE_REL_TOL = 1e-6
VERTEX_SAMPLE = 40
ORACLE_CELLS = 8
CHAIN_REACH_STEPS = 10.0
TANGENT_TOL_RAD = 0.05
IMAGE_REL_TOL = 1e-4


def _wrapped(family, delta):
    delta = np.array(delta, dtype=float)
    if family.periodic:
        delta[..., 0] = np.mod(delta[..., 0] + math.pi, 2.0 * math.pi) - math.pi
    return delta


def _point(p):
    return tuple(round(float(x), 6) for x in p)


def _segment_distance(points, vertices):
    """Distance from each of the (n, 2) points to the polyline."""
    p = np.asarray(points, float)[:, None, :]
    a, b = vertices[None, :-1], vertices[None, 1:]
    ab = b - a
    t = np.clip(np.sum((p - a) * ab, axis=-1) / np.maximum(np.sum(ab * ab, axis=-1), 1e-300),
                0.0, 1.0)
    return np.min(np.linalg.norm(p - (a + t[..., None] * ab), axis=-1), axis=1)


def _fd_det(family, phi, y):
    jac = fd_jacobian(family, np.asarray(phi, float), np.asarray(y, float))
    return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]


def _det_scale(family, box):
    (x0, x1), (y0, y1) = box
    gx, gy = np.meshgrid(np.linspace(x0, x1, 33), np.linspace(y0, y1, 33), indexing="ij")
    return float(np.median(np.abs(_fd_det(family, gx, gy))))


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cusps(rows):
    return [(float(r["phi"]), float(r["y"])) for r in rows if r["kind"] == "Cusp"]


def check_paper(stdout: str, outdir: Path, instances: dict, rng) -> list[str]:
    """``reproduce-paper`` output: report lines and the written CSV files.

    ``instances`` maps the file prefix (exact, offset, square, quarto) to
    (family, workspace box).  The printed total is not trusted; the PASS
    lines are counted.
    """
    errors = []
    lines = stdout.splitlines()
    n_pass = sum(1 for line in lines if line.startswith("PASS"))
    n_fail = sum(1 for line in lines if line.startswith("FAIL"))
    if n_pass != PAPER_CHECKS or n_fail:
        errors.append(f"paper: {n_pass} PASS and {n_fail} FAIL lines, "
                      f"expected {PAPER_CHECKS} and 0")

    square = sorted(_cusps(_read_rows(outdir / "square_points.csv")))
    want = complex_square_cusp_locations(1.0, -1.0)
    if len(square) != len(want) or any(
            math.dist(g, w) > CLOSED_FORM_CUSP_TOL for g, w in zip(square, want)):
        errors.append(f"paper: square cusps {square} differ from the closed form {want}")

    quarto = _cusps(_read_rows(outdir / "quarto_points.csv"))
    want_q = quarto_cusp_location(1.0, 1.0)
    if len(quarto) != 1 or math.dist(quarto[0], want_q) > CLOSED_FORM_CUSP_TOL:
        errors.append(f"paper: quarto cusps {quarto} differ from the closed form {want_q}")

    offset_family = instances["offset"][0]
    offset = _cusps(_read_rows(outdir / "offset_points.csv"))
    matched = set()
    for ref in OFFSET_PAPER_CUSPS:
        dists = [float(np.linalg.norm(_wrapped(offset_family, np.subtract(c, ref))))
                 for c in offset]
        hit = [i for i, d in enumerate(dists) if d < PAPER_CUSP_TOL and i not in matched]
        if hit:
            matched.add(hit[0])
    if len(offset) != 4 or len(matched) != 4:
        errors.append(f"paper: offset cusps {offset} are not the paper's four "
                      f"within {PAPER_CUSP_TOL}")

    nodes = [r for r in _read_rows(outdir / "exact_points.csv")
             if r["kind"] == "Corank2Hyperbolic"]
    if len(nodes) != 1 or abs(float(nodes[0]["delta"]) - INLINE_NODE_DELTA) > (
            1e-6 * INLINE_NODE_DELTA):
        errors.append(f"paper: in-line node discriminant is not {INLINE_NODE_DELTA:g}")

    # A seeded sample of traced vertices must lie on {det J = 0}, with the
    # Jacobian taken by finite differences of the map values.
    for prefix, (family, box) in instances.items():
        rows = _read_rows(outdir / f"{prefix}_workspace.csv")
        pts = np.array([[float(r["phi"] if "phi" in r else r["x"]), float(r["y"])]
                        for r in rows])
        if len(pts) == 0:
            errors.append(f"paper: {prefix}_workspace.csv has no vertices")
            continue
        pick = rng.choice(len(pts), size=min(VERTEX_SAMPLE, len(pts)), replace=False)
        det = np.abs(_fd_det(family, pts[pick, 0], pts[pick, 1]))
        worst = float(det.max()) / _det_scale(family, box)
        if worst > ON_CURVE_REL_TOL:
            errors.append(f"paper: {prefix} traced vertex off the singular curve "
                          f"(|det J| = {worst:.2e} of scale)")
    return errors


def cell_centers(window, shape):
    """(n, 2) centers of the count-map cells, in row-major cell order."""
    (u0, u1), (v0, v1) = window
    nu, nv = shape
    us = u0 + (np.arange(nu) + 0.5) * (u1 - u0) / nu
    vs = v0 + (np.arange(nv) + 0.5) * (v1 - v0) / nv
    return np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1).reshape(-1, 2)


def far_cells(centers, image_curves, margin):
    """Indices of the cell centers farther than ``margin`` from the image."""
    dist = np.full(len(centers), np.inf)
    for poly in image_curves.curves:
        if len(poly.vertices) > 1:
            dist = np.minimum(dist, _segment_distance(centers, poly.vertices))
    for p in image_curves.isolated_points:
        dist = np.minimum(dist, np.linalg.norm(centers - np.asarray(p), axis=1))
    return np.flatnonzero(dist > margin)


def check_count_map(family, window, box, counts, image_curves, margin, rng) -> list[str]:
    """One count map: no failed cell; away from the fold image every count
    is even, and a seeded sample of those cells matches the grid scan."""
    errors = []
    counts = np.asarray(counts)
    if np.any(counts < 0):
        errors.append(f"regions {family.kind}: {int(np.sum(counts < 0))} failed cell(s)")
    centers = cell_centers(window, counts.shape)
    far = far_cells(centers, image_curves, margin)
    flat = counts.reshape(-1)
    odd = far[flat[far] % 2 != 0]
    if odd.size:
        errors.append(f"regions {family.kind}: odd count away from the fold image at "
                      f"{[_point(c) for c in centers[odd[:3]]]}")
    for i in rng.choice(far, size=min(ORACLE_CELLS, far.size), replace=False):
        target = (float(centers[i, 0]), float(centers[i, 1]))
        oracle = grid_count(family, target, box=box)
        if flat[i] != oracle:
            errors.append(f"regions {family.kind}: count {flat[i]} at {target}, "
                          f"grid scan gives {oracle}")
    return errors


def check_characteristics(family, singular_cs, characteristics, fine_image,
                          loci) -> list[str]:
    """Characteristic curves of one instance.

    ``singular_cs`` is the traced singular set the curves were computed
    from, ``fine_image`` the joint image of the same set traced at a finer
    step, and ``loci`` the independently known cusp locations.
    """
    errors = []
    kind = family.kind
    step = float(np.median(np.concatenate(
        [np.linalg.norm(_wrapped(family, np.diff(c.vertices, axis=0)), axis=1)
         for c in singular_cs.curves if len(c) > 1])))
    cusps = [c.vertices[i] for c in singular_cs.curves for i in c.cusp_indices]
    if len(cusps) != len(loci):
        errors.append(f"characteristics {kind}: {len(cusps)} cusp vertices, "
                      f"expected {len(loci)}")
    for cusp in cusps:
        if min(float(np.linalg.norm(_wrapped(family, cusp - np.asarray(w))))
               for w in loci) > PAPER_CUSP_TOL:
            errors.append(f"characteristics {kind}: cusp {_point(cusp)} is not a known locus")

    chains = [c.vertices for c in characteristics.curves if len(c) > 0]
    if not chains:
        return errors + [f"characteristics {kind}: empty characteristic set"]
    cloud = np.concatenate(chains)

    # At a cusp the characteristic curve leaves the cusp along the kernel of
    # the Jacobian, which is where the singular curve is tangent too.  The
    # chain's direction is read off the secant to its vertex nearest the cusp.
    for cusp in cusps:
        rel = _wrapped(family, cloud - cusp)
        dist = np.linalg.norm(rel, axis=1)
        k = int(np.argmin(dist))
        if dist[k] > CHAIN_REACH_STEPS * step:
            errors.append(f"characteristics {kind}: no chain within {CHAIN_REACH_STEPS:g} "
                          f"steps of cusp {_point(cusp)}")
            continue
        _, _, vt = np.linalg.svd(fd_jacobian(family, float(cusp[0]), float(cusp[1])))
        cos = abs(float(rel[k] @ vt[1])) / max(float(dist[k]), 1e-300)
        angle = math.acos(min(1.0, cos))
        if angle > TANGENT_TOL_RAD:
            errors.append(f"characteristics {kind}: chain meets cusp {_point(cusp)} at "
                          f"{angle:.3f} rad from the singular tangent")

    u, v = family.evaluate(cloud[:, 0], cloud[:, 1])
    images = np.column_stack([u, v])
    fine = [c.vertices for c in fine_image.curves if len(c) > 1]
    allfine = np.concatenate(fine)
    extent = float(np.max(np.ptp(allfine, axis=0)))
    dist = np.full(len(images), np.inf)
    for verts in fine:
        dist = np.minimum(dist, _segment_distance(images, verts))
    worst = float(dist.max()) / extent
    if worst > IMAGE_REL_TOL:
        errors.append(f"characteristics {kind}: chain vertex maps {worst:.2e} of the image "
                      "extent off the fold image")
    return errors
