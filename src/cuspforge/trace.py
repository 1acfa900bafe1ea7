"""Tracing of the singularity curve {J = 0} and of characteristic curves.

The tracer is a predictor-corrector walker: the predictor steps along the
rotated determinant gradient (-J_y, J_phi), the corrector pulls back onto
{J = 0} with Newton steps along the gradient.  Branches are terminated on a
small disk around every corank-2 point, where the curve itself is singular
and the tangent field is undefined, and the corank-2 point is appended as a
tagged endpoint.  Characteristic curves are computed pointwise as the extra
direct-kinematics solutions over the images of the traced singularity
vertices, then chained by nearest-neighbor continuation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dkp import solve_dkp
from .errors import CuspforgeError
from .maps import (
    TWO_PI,
    JointPoint,
    MapFamily,
    WorkspacePoint,
    canonical_phi,
    dedup_mask,
    point_distances,
    reference_scales,
)
from .singular import PointKind, SpecialPoint, _correct, find_special_points

log = logging.getLogger(__name__)

KIND_SINGULARITY = "singularity"
KIND_CHARACTERISTIC = "characteristic"

NODE_STOP_RADIUS = 1e-4
MIN_STEP = 1e-12
CHAIN_JUMP_FACTOR = 3.0
ISOLATION_RADIUS_FACTOR = 10.0


@dataclass
class Polyline:
    """One traced branch: an ordered vertex list with topology flags."""

    vertices: np.ndarray
    closed: bool
    kind: str
    cusp_indices: list[int] = field(default_factory=list)
    corank2_endpoints: tuple[bool, bool] = (False, False)
    truncated: bool = False

    def __len__(self):
        return len(self.vertices)


@dataclass
class CurveSet:
    """Workspace curves plus isolated singular points with no curve through them."""

    curves: list[Polyline]
    isolated_points: list[WorkspacePoint] = field(default_factory=list)

    def by_kind(self, kind):
        return [c for c in self.curves if c.kind == kind]


@dataclass
class JointCurveSet:
    """Joint-space images of a workspace curve set."""

    curves: list[Polyline]
    isolated_points: list[JointPoint] = field(default_factory=list)

    def by_kind(self, kind):
        return [c for c in self.curves if c.kind == kind]


def _tangent(family, q, prev=None):
    gphi, gy = family.jdet_grad(q[0], q[1])
    t = np.array([-float(gy), float(gphi)])
    norm = np.linalg.norm(t)
    if norm < 1e-300:
        return None
    t /= norm
    if prev is not None and float(t @ prev) < 0.0:
        t = -t
    return t


def _correct_on_edge(family, frozen_axis, frozen_value, free_guess, jtol):
    """1-D Newton for J = 0 along a box edge (one coordinate frozen)."""
    w = float(free_guess)
    for _ in range(30):
        q = (frozen_value, w) if frozen_axis == 0 else (w, frozen_value)
        j = float(family.jdet(q[0], q[1]))
        if abs(j) <= jtol:
            break
        gphi, gy = (float(v) for v in family.jdet_grad(q[0], q[1]))
        g = gy if frozen_axis == 0 else gphi
        if abs(g) < 1e-300:
            break
        w -= j / g
    return np.array((frozen_value, w) if frozen_axis == 0 else (w, frozen_value))


class _Tracer:
    def __init__(self, family, box, step, jtol, barriers):
        self.family = family
        self.box = box
        self.step = step
        self.jtol = jtol
        self.barriers = barriers  # (m, 2) corank-2 locations, may be empty
        (self.x0, self.x1), (self.y0, self.y1) = box
        self.periodic_x = family.periodic and (self.x1 - self.x0) >= 2.0 * math.pi - 1e-9

    def barrier_distance(self, q):
        if not len(self.barriers):
            return math.inf
        return float(np.min(point_distances(self.family, self.barriers, q)))

    def nearest_barrier(self, q):
        return self.barriers[int(np.argmin(point_distances(self.family, self.barriers, q)))]

    def outside(self, q):
        if q[1] < self.y0 or q[1] > self.y1:
            return True
        if not self.periodic_x and (q[0] < self.x0 or q[0] > self.x1):
            return True
        return False

    def clip_to_box(self, q_in, q_out):
        """On-curve point where the segment q_in -> q_out leaves the box."""
        best_t, axis, value = 2.0, None, None
        for bound in (self.y0, self.y1):
            d = q_out[1] - q_in[1]
            if d != 0.0:
                t = (bound - q_in[1]) / d
                if 0.0 <= t < best_t:
                    best_t, axis, value = t, 1, bound
        if not self.periodic_x:
            for bound in (self.x0, self.x1):
                d = q_out[0] - q_in[0]
                if d != 0.0:
                    t = (bound - q_in[0]) / d
                    if 0.0 <= t < best_t:
                        best_t, axis, value = t, 0, bound
        if axis is None:
            return None
        guess = q_in + best_t * (q_out - q_in)
        free = guess[1] if axis == 0 else guess[0]
        frozen_axis = 0 if axis == 0 else 1
        q = _correct_on_edge(self.family, frozen_axis, value, free, self.jtol)
        return q

    def run(self, start, direction):
        """Trace one direction; returns (vertices, status) where status is one
        of 'open', 'closed', 'node', 'collapse'."""
        vertices = [np.array(start, float)]
        prev_dir = np.array(direction, float)
        h = self.step
        max_vertices = max(int(40.0 * (self.x1 - self.x0 + self.y1 - self.y0) / self.step), 1000)
        while len(vertices) < max_vertices:
            q = vertices[-1]
            t = _tangent(self.family, q, prev_dir)
            if t is None:
                return vertices, "collapse"
            dist = self.barrier_distance(q)
            if dist < max(NODE_STOP_RADIUS, 2.0 * MIN_STEP):
                vertices.append(self.nearest_barrier(q).copy())
                return vertices, "node"
            h_eff = min(h, 0.5 * dist)
            accepted = None
            while accepted is None:
                pred = q + h_eff * t
                corr, ok = _correct(self.family, pred, self.jtol)
                if ok:
                    moved = np.linalg.norm(corr - pred)
                    seg = np.linalg.norm(corr - q)
                    if moved <= 0.5 * h_eff and 1e-3 * h_eff < seg <= 2.0 * h_eff:
                        accepted = corr
                        break
                h_eff *= 0.5
                if h_eff < MIN_STEP:
                    log.warning("tracing step collapsed near (%g, %g)", q[0], q[1])
                    return vertices, "collapse"
            if self.outside(accepted):
                clipped = self.clip_to_box(q, accepted)
                if clipped is not None and np.linalg.norm(clipped - q) <= 2.0 * self.step:
                    vertices.append(clipped)
                return vertices, "open"
            vertices.append(accepted)
            prev_dir = accepted - q
            prev_dir /= max(np.linalg.norm(prev_dir), 1e-300)
            h = min(self.step, h_eff * 1.7)
            if len(vertices) > 5:
                gap = point_distances(self.family, accepted, vertices[0])
                if gap < 0.9 * min(h_eff, self.step):
                    vertices[-1] = vertices[0].copy()
                    return vertices, "closed"
        log.warning("tracing hit the vertex budget; branch truncated")
        return vertices, "collapse"


def _sign_change_seeds(family, box, n):
    """Midpoints of grid edges where J changes sign, refined by bisection."""
    (x0, x1), (y0, y1) = box
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    j = np.asarray(family.jdet(gx, gy))
    pos = j > 0.0

    # Both ends of every grid edge where J changes sign, x-edges first.
    cx = np.argwhere(pos[:-1, :] != pos[1:, :])
    cy = np.argwhere(pos[:, :-1] != pos[:, 1:])
    ax = np.concatenate([xs[cx[:, 0]], xs[cy[:, 0]]])
    ay = np.concatenate([ys[cx[:, 1]], ys[cy[:, 1]]])
    bx = np.concatenate([xs[cx[:, 0] + 1], xs[cy[:, 0]]])
    by = np.concatenate([ys[cx[:, 1]], ys[cy[:, 1] + 1]])

    fa = family.jdet(ax, ay)
    for _ in range(20):
        mx = 0.5 * (ax + bx)
        my = 0.5 * (ay + by)
        fm = family.jdet(mx, my)
        left = fa * fm <= 0.0
        bx, by = np.where(left, mx, bx), np.where(left, my, by)
        ax, ay = np.where(left, ax, mx), np.where(left, ay, my)
        fa = np.where(left, fa, fm)
    return np.column_stack([0.5 * (ax + bx), 0.5 * (ay + by)])


def trace_singularity_curves(
    family: MapFamily,
    box=None,
    step: float | None = None,
    *,
    seed_grid: int = 128,
    specials: list[SpecialPoint] | None = None,
    special_grid: int = 64,
) -> CurveSet:
    """Trace all branches of {J = 0} inside the box.

    Branches are split at corank-2 points (emitted as tagged endpoints),
    cusp vertices are snapped onto the located cusps, and corank-2 elliptic
    points with no nearby sign change of J are reported as isolated points.
    """
    if box is None:
        box = family.default_box()
    (x0, x1), (y0, y1) = box
    if not (x1 > x0 and y1 > y0):
        raise ValueError("box must be non-degenerate")
    diag = math.hypot(x1 - x0, y1 - y0)
    if step is None:
        step = diag / 1000.0
    if step <= 0.0:
        raise ValueError("step must be positive")

    if specials is None:
        specials = find_special_points(family, box, grid=special_grid)
    corank2_kinds = (PointKind.CORANK2_ELLIPTIC, PointKind.CORANK2_HYPERBOLIC,
                     PointKind.DEGENERATE)
    barriers = np.array(
        [[p.location.phi, p.location.y] for p in specials if p.kind in corank2_kinds]
    ).reshape(-1, 2)
    cusps = [p for p in specials if p.kind == PointKind.CUSP]

    scales = reference_scales(family, box)
    jtol = 1e-10 * max(1.0, scales.jdet)
    tracer = _Tracer(family, box, step, jtol, barriers)
    seeds = _sign_change_seeds(family, box, seed_grid)

    polylines: list[Polyline] = []
    traced = np.empty((0, 2))

    def near_traced(q, radius):
        return len(traced) > 0 and np.min(point_distances(family, traced, q)) < radius

    projected, converged = _correct(family, seeds, jtol)
    for q0 in projected[converged]:
        if tracer.outside(q0):
            continue
        if tracer.barrier_distance(q0) < 2.0 * NODE_STOP_RADIUS:
            continue
        if near_traced(q0, 0.9 * step):
            continue
        t0 = _tangent(family, q0)
        if t0 is None:
            continue
        fwd, fwd_status = tracer.run(q0, t0)
        if fwd_status == "closed":
            verts = np.array(fwd)
            poly = Polyline(verts, True, KIND_SINGULARITY)
        else:
            bwd, bwd_status = tracer.run(q0, -t0)
            verts = np.array(list(reversed(bwd[1:])) + fwd)
            poly = Polyline(
                verts, False, KIND_SINGULARITY,
                corank2_endpoints=(bwd_status == "node", fwd_status == "node"),
                truncated=(fwd_status == "collapse" or bwd_status == "collapse"),
            )
        if len(poly.vertices) < 2:
            continue
        polylines.append(poly)
        traced = np.concatenate([traced, poly.vertices])

    if family.periodic:
        for poly in polylines:
            poly.vertices = np.column_stack(
                [canonical_phi(poly.vertices[:, 0]), poly.vertices[:, 1]])

    # Snap each located cusp onto its nearest traced vertex and flag it.
    for cusp in cusps:
        loc = np.array([cusp.location.phi, cusp.location.y])
        best = None
        for ci, poly in enumerate(polylines):
            dists = point_distances(family, poly.vertices, loc)
            vi = int(np.argmin(dists))
            if best is None or dists[vi] < best[0]:
                best = (float(dists[vi]), ci, vi)
        if best is None or best[0] > 3.0 * step:
            log.warning("cusp at (%g, %g) is not on any traced branch",
                        loc[0], loc[1])
            continue
        _, ci, vi = best
        poly = polylines[ci]
        if vi in poly.cusp_indices:
            continue
        poly.vertices[vi] = loc
        if poly.closed and vi == 0:
            poly.vertices[-1] = loc
        poly.cusp_indices.append(vi)
    for poly in polylines:
        poly.cusp_indices.sort()

    isolation_radius = ISOLATION_RADIUS_FACTOR * step
    isolated: list[WorkspacePoint] = []
    for p in specials:
        if p.kind != PointKind.CORANK2_ELLIPTIC:
            continue
        loc = np.array([p.location.phi, p.location.y])
        if len(seeds) and np.min(point_distances(family, seeds, loc)) < isolation_radius:
            continue
        if near_traced(loc, isolation_radius):
            continue
        isolated.append(p.location)

    polylines.sort(key=lambda c: (round(c.vertices[0, 0], 9), round(c.vertices[0, 1], 9)))
    isolated.sort()
    return CurveSet(polylines, isolated)


def image_curves(family: MapFamily, cs: CurveSet) -> JointCurveSet:
    """Push a traced curve set forward to the joint space, vertex by vertex."""
    out = []
    for poly in cs.curves:
        u, v = family.evaluate(poly.vertices[:, 0], poly.vertices[:, 1])
        out.append(Polyline(
            np.column_stack([u, v]),
            poly.closed,
            poly.kind,
            cusp_indices=list(poly.cusp_indices),
            corank2_endpoints=poly.corank2_endpoints,
            truncated=poly.truncated,
        ))
    images = [JointPoint(*(float(w) for w in family.evaluate(p.phi, p.y)))
              for p in cs.isolated_points]
    return JointCurveSet(out, images)


def _sorted_window(family, xs, x, radius):
    """Indices, in increasing order, of the ascending coordinates xs within
    radius of x, the angle taken modulo 2*pi for the periodic families."""
    idx = np.arange(np.searchsorted(xs, x - radius), np.searchsorted(xs, x + radius, "right"))
    if family.periodic:
        below = np.arange(np.searchsorted(xs, x + radius - TWO_PI, "right"))
        above = np.arange(np.searchsorted(xs, x - radius + TWO_PI), len(xs))
        idx = np.unique(np.concatenate([below, idx, above]))
    return idx


def characteristic_curves(
    family: MapFamily,
    cs: CurveSet,
    *,
    step: float | None = None,
    dkp_box=None,
) -> CurveSet:
    """Characteristic curves: the other preimages of the singular images.

    For every vertex p of every singularity branch, the direct kinematic
    problem is solved at eval_map(p) and all solutions that do not lie on
    the singularity curve itself (the ones not flagged as multiple roots)
    are collected, then chained into polylines by nearest-neighbor
    continuation (maximum jump 3x the tracing step).
    With ``dkp_box=None`` every real preimage counts; with an explicit box,
    vertices with a preimage outside it are skipped and logged.
    """
    singular = cs.by_kind(KIND_SINGULARITY)
    if not singular:
        return CurveSet([], [])
    if step is None:
        spacing = [np.median(np.linalg.norm(np.diff(c.vertices, axis=0), axis=1))
                   for c in singular if len(c) > 1]
        step = float(np.median(spacing)) if spacing else 1e-2

    scales = reference_scales(family, dkp_box)
    jtol = 1e-10 * max(1.0, scales.jdet)

    def source_points(poly):
        # The partner preimage recedes from a cusp about twice as fast as
        # the fold point approaches it, so refine the source sampling near
        # the cusp vertices to populate the characteristic there.
        points = list(poly.vertices)
        for vi in poly.cusp_indices:
            for nb in (vi - 1, vi + 1):
                if not (0 <= nb < len(poly.vertices)):
                    continue
                a, b = poly.vertices[vi], poly.vertices[nb]
                fracs = np.linspace(0.125, 0.875, 7)[:, None]
                refined, ok = _correct(family, a + fracs * (b - a), jtol)
                points.extend(refined[ok])
        return points

    cloud = []
    for poly in singular:
        for vertex in source_points(poly):
            target = family.evaluate(vertex[0], vertex[1])
            try:
                sols = solve_dkp(family, (float(target[0]), float(target[1])), box=dkp_box)
            except CuspforgeError as exc:
                log.debug("characteristic solve skipped at (%g, %g): %s",
                          vertex[0], vertex[1], exc)
                continue
            # The vertex's own preimage is a double root, reported once and
            # flagged; so is every other preimage on the singularity curve.
            cloud.extend([sol.phi, sol.y] for sol, on_curve
                         in zip(sols.solutions, sols.multiplicity_flags) if not on_curve)
    if not cloud:
        return CurveSet([], [])
    cloud = np.array(cloud)

    # Deduplicate near-identical points contributed by adjacent vertices.
    cloud = cloud[np.lexsort((cloud[:, 1], cloud[:, 0]))]
    cloud = cloud[dedup_mask(family, cloud, 0.05 * step)]

    max_jump = CHAIN_JUMP_FACTOR * step
    unused = np.ones(len(cloud), dtype=bool)
    chains: list[Polyline] = []
    while np.any(unused):
        idx = int(np.flatnonzero(unused)[0])
        unused[idx] = False
        chain = [idx]
        for grow_head in (False, True):
            while True:
                end = cloud[chain[0] if grow_head else chain[-1]]
                cand = _sorted_window(family, cloud[:, 0], end[0], max_jump)
                cand = cand[unused[cand]]
                if cand.size == 0:
                    break
                dists = point_distances(family, cloud[cand], end)
                best = int(np.argmin(dists))
                if dists[best] > max_jump:
                    break
                nxt = int(cand[best])
                unused[nxt] = False
                if grow_head:
                    chain.insert(0, nxt)
                else:
                    chain.append(nxt)
        verts = cloud[chain]
        closed = False
        if len(chain) > 3:
            closed = bool(point_distances(family, verts[-1], verts[0]) < max_jump)
        chains.append(Polyline(verts, closed, KIND_CHARACTERISTIC))

    chains.sort(key=lambda c: (round(c.vertices[0, 0], 9), round(c.vertices[0, 1], 9)))
    return CurveSet(chains, [])
