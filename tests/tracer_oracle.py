"""Predictor-corrector oracle for the singularity curves.

This is the tracer the library used before its closed-form construction:
sign changes of J on a seed lattice, bisected and projected onto {J = 0},
seed a walker whose predictor steps along the rotated determinant gradient
(-J_y, J_phi) and whose corrector pulls back onto {J = 0} with Newton steps
along the gradient.  Branches stop on a small disk around every corank-2
point, which is appended as a tagged endpoint, and at the box, where the
last vertex is clipped onto the edge.  It shares no construction code with
``cuspforge.trace`` (only the projection ``_correct`` and the point
kernel) and serves the tests as an independent polyline set.
"""

import math

import numpy as np

from cuspforge.maps import canonical_phi, point_distances, reference_scales
from cuspforge.singular import PointKind, _correct, find_special_points
from cuspforge.trace import KIND_SINGULARITY, CurveSet, Polyline

NODE_STOP_RADIUS = 1e-4
MIN_STEP = 1e-12
ISOLATION_RADIUS_FACTOR = 10.0


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
        return _correct_on_edge(self.family, frozen_axis, value, free, self.jtol)

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


def oracle_trace(family, box=None, step=None, *, seed_grid=128, specials=None):
    """Trace all branches of {J = 0} inside the box by predictor-corrector
    walks, with the library's cusp snap, isolated-point report and sort.
    Each Polyline gains a ``truncated`` attribute: a walk collapsed or ran
    out of its vertex budget."""
    if box is None:
        box = family.default_box()
    (x0, x1), (y0, y1) = box
    if step is None:
        step = math.hypot(x1 - x0, y1 - y0) / 1000.0
    if specials is None:
        specials = find_special_points(family, box)
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

    polylines = []
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
            poly = Polyline(np.array(fwd), True, KIND_SINGULARITY)
            poly.truncated = False
        else:
            bwd, bwd_status = tracer.run(q0, -t0)
            poly = Polyline(
                np.array(list(reversed(bwd[1:])) + fwd), False, KIND_SINGULARITY,
                corank2_endpoints=(bwd_status == "node", fwd_status == "node"))
            poly.truncated = "collapse" in (fwd_status, bwd_status)
        if len(poly.vertices) < 2:
            continue
        polylines.append(poly)
        traced = np.concatenate([traced, poly.vertices])

    if family.periodic:
        for poly in polylines:
            poly.vertices = np.column_stack(
                [canonical_phi(poly.vertices[:, 0]), poly.vertices[:, 1]])

    for cusp in cusps:
        loc = np.array([cusp.location.phi, cusp.location.y])
        best = None
        for ci, poly in enumerate(polylines):
            dists = point_distances(family, poly.vertices, loc)
            vi = int(np.argmin(dists))
            if best is None or dists[vi] < best[0]:
                best = (float(dists[vi]), ci, vi)
        if best is None or best[0] > 3.0 * step:
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
    isolated = []
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
