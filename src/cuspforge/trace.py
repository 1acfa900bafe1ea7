"""Singularity curves {J = 0} in closed form, and characteristic curves.

J is quadratic in y: J = A(x) y^2 + B(x) y + C(x), with A, B, C from ``jdet``
at y = -1, 0, 1.  Its real roots q / A and C / q, with
q = -(B + sign(B) sqrt(B^2 - 4AC)) / 2, are smooth between breakpoints (C / q
stays finite where A = 0, as for the quarto): zeros of the discriminant
(turning points, corank-2 points), of B (where the two swap) and of J on the
horizontal box edges, found as roots of exact low-degree Fourier fits, plus
the special points and the box ends.  Each root inside the box between two
breakpoints is a piece, sampled finely with a parameter that clusters at its
ends (a root has a square-root profile at a turning point).  Pieces whose
ends meet are chained (at turning points, across the periodic seam), chains
end at corank-2 points as tagged endpoints, and each chain is resampled
evenly in arc length, oriented along (-J_y, J_x) and, with all others,
projected onto {J = 0} by one batched Newton call.  A chain passing a
special point has a vertex there, which records the point's index; a cusp's
vertex is then set to the located cusp.  The elliptic corank-2 points are
isolated in {J = 0} and are reported as such.

Characteristic curves are the extra direct-kinematics solutions over the
images of the singular vertices, followed along each branch in order: a
root continues to the root at the next source that is its mutual nearest,
and the chains that a cusp interrupts are joined across it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dkp import solve_dkp
from .errors import ConfigError
from .maps import (
    TWO_PI,
    JointPoint,
    MapFamily,
    WorkspacePoint,
    _nearest,
    canonical_phi,
    coord_deltas,
    dedup_mask,
    point_distances,
    reference_scales,
)
from .singular import (
    COEFF_FLOOR,
    PointKind,
    SpecialPoint,
    _abc,
    _correct,
    _disc,
    _roots,
    _zeros,
    find_special_points,
)

log = logging.getLogger(__name__)

KIND_SINGULARITY = "singularity"
KIND_CHARACTERISTIC = "characteristic"

#: Degree bound of the fitted breakpoint functions (the manipulators'
#: discriminant has trigonometric degree 3) and the samples fitting them.
FIT_DEGREE = 4
FIT_SAMPLES = 16
#: Fitted roots this close to the unit circle are real zeros.
ROOT_RING = 1e-6
#: Breakpoints closer than this share of the box width are one (a double
#: zero splits into two roots about 1e-8 apart); a point closer than
#: NODE_RADIUS times the box diagonal to a special point lies on it.
BREAK_MERGE = 1e-7
NODE_RADIUS = 1e-6
#: Fine samples per vertex, from which vertices are spaced in arc length.
ARC_OVERSAMPLING = 4
#: Source points on each side of a cusp vertex (:func:`_sources`).
CUSP_REFINEMENT = 7
#: The special points at which branches end.
CORANK2_KINDS = (PointKind.CORANK2_ELLIPTIC, PointKind.CORANK2_HYPERBOLIC,
                 PointKind.DEGENERATE)


@dataclass
class Polyline:
    """One branch: an ordered vertex list with topology flags."""

    vertices: np.ndarray
    closed: bool
    kind: str
    cusp_indices: list[int] = field(default_factory=list)
    corank2_endpoints: tuple[bool, bool] = (False, False)

    def __len__(self):
        return len(self.vertices)


@dataclass
class CurveSet:
    """Curves plus isolated singular points with no curve through them, in the
    workspace or, as images, in the joint space."""

    curves: list[Polyline]
    isolated_points: list[WorkspacePoint | JointPoint] = field(default_factory=list)

    def by_kind(self, kind):
        return [c for c in self.curves if c.kind == kind]


def _branches(family, box, step, specials):
    """Vertices, closed flag, corank-2 end tags and special marks of every
    branch of {J = 0} in the box, before the final projection.  The special
    points become breakpoints and, where a branch passes, cut vertices with
    evenly spaced neighbors; the marks map each cut vertex on a special point
    to that point's index.  Branches end at the corank-2 points."""
    (x0, x1), (y0, y1) = box
    wrap = family.periodic and x1 - x0 >= TWO_PI - 1e-9
    width = TWO_PI if wrap else x1 - x0
    node_radius = NODE_RADIUS * math.hypot(x1 - x0, y1 - y0)
    locs = np.array([p.location for p in specials]).reshape(-1, 2)
    corank2 = np.array([p.kind in CORANK2_KINDS for p in specials], dtype=bool)

    ref = np.max(np.abs(_abc(family, x0 + width * np.arange(FIT_SAMPLES) / FIT_SAMPLES)))
    # Double zeros of the discriminant come out about 1e-8 off, so its zeros
    # come last and lose the merge to an exact breakpoint nearby.
    fns = ((lambda x: _abc(family, x)[1], ref), (lambda x: family.jdet(x, y0), ref),
           (lambda x: family.jdet(x, y1), ref), (lambda x: _disc(*_abc(family, x)), ref * ref))
    brk = np.concatenate([[x0, x0 + width], locs[:, 0]]
                         + [_zeros(family, f, x0, width, r, FIT_DEGREE, ROOT_RING)
                            for f, r in fns])
    if family.periodic:
        brk = x0 + np.mod(brk - x0, TWO_PI)
    # The box ends and the special points come first, so they win the merge.
    brk = brk[dedup_mask(family, np.column_stack([brk, 0.0 * brk]), BREAK_MERGE * width)]
    brk = np.sort(brk[(brk >= x0) & (brk <= x0 + width)])
    edges = np.append(brk, brk[0] + TWO_PI) if wrap else brk

    # Root candidates at the breakpoints; at a zero of the discriminant both
    # are the double root, so the ends meeting there compare equal.
    a, b, c = _abc(family, brk)
    cand = np.column_stack(_roots(a, b, c, b))
    touch = (np.abs(_disc(a, b, c)) <= COEFF_FLOOR * ref * ref) & (a != 0.0)
    cand[touch] = (-0.5 * b[touch] / a[touch])[:, None]

    a, b, c = _abc(family, 0.5 * (edges[:-1] + edges[1:]))
    ys = np.column_stack(_roots(a, b, c, b))
    # Piece p is root root[p] of J(x, .) between edges i[p] and i[p] + 1.
    i, root = np.nonzero((_disc(a, b, c) > 0.0)[:, None] & (ys > y0) & (ys < y1))
    xl, xr, sign = edges[i], edges[i + 1], b[i]

    def at(t, p):
        """Piece p at x = xl + (xr - xl) (1 - cos(pi t)) / 2."""
        x = xl[p] + (xr[p] - xl[p]) * (0.5 - 0.5 * np.cos(math.pi * t))
        return x, np.where(root[p] == 0, *_roots(*_abc(family, x), sign[p]))

    # All pieces are sampled together: 65 coarse samples each for its length,
    # then the fine samples of every piece in one evaluation.
    x, y = at(np.linspace(0.0, 1.0, 65), np.arange(len(i))[:, None])
    coarse = np.cumsum(np.hypot(np.diff(x, axis=1), np.diff(y, axis=1)), axis=1)[:, -1]
    counts = 65 + ARC_OVERSAMPLING * np.ceil(coarse / step).astype(int)
    stop = np.cumsum(counts)
    start = stop - counts
    t = np.concatenate([np.empty(0)] + [np.linspace(0.0, 1.0, n) for n in counts.tolist()])
    fine = np.column_stack(at(t, np.repeat(np.arange(len(i)), counts)))
    # End e of piece e // 2 (its start if e is even) takes the candidate
    # nearest to the piece, and the ends are grouped where they meet.
    bis = np.column_stack([i, (i + 1) % len(brk)])
    near = fine[np.column_stack([start + 1, stop - 2]), 1]
    gap = np.abs(cand[bis] - near[..., None])
    finite = np.isfinite(gap)
    pick = np.argmin(np.where(finite, gap, np.inf), axis=-1)[..., None]
    y_end = np.where(finite.any(axis=-1), np.take_along_axis(cand[bis], pick, -1)[..., 0], near)
    fine[start] = np.column_stack([xl, y_end[:, 0]])
    fine[stop - 1] = np.column_stack([xr, y_end[:, 1]])
    pieces = [fine[lo:hi] for lo, hi in zip(start, stop)]
    ends = {}
    for e, key in enumerate(zip(bis.ravel().tolist(), y_end.ravel().tolist())):
        ends.setdefault(key, []).append(e)
    # The special point within node_radius of each end, or -1 (the column of
    # inf keeps argmin defined where the box holds no special point).
    q = np.column_stack([brk[bis.ravel()], y_end.ravel()])
    dist = np.column_stack([point_distances(family, locs, q[:, None]), np.full(len(q), np.inf)])
    nearest = np.argmin(dist, axis=1)
    special = np.where(dist[np.arange(len(q)), nearest] < node_radius, nearest, -1).tolist()

    # Ends at a corank-2 point stop there, two other ends that meet join (at
    # a turning point, the seam, or another root's breakpoint), and three or
    # more stop.
    link, tagged = {}, set()
    for group in ends.values():
        k = special[group[0]]
        at_corank2 = k >= 0 and corank2[k]
        if at_corank2:
            for e in group:
                pieces[e // 2][-(e % 2)] = locs[k]
        if at_corank2 or len(group) > 2:
            tagged.update(group)
        elif len(group) == 2:
            link[group[0]], link[group[1]] = group[1], group[0]

    # Chains of pieces, sampled evenly in arc length between their ends and
    # the special points on them, with half intervals next to those points
    # (so a cusp sits midway between its neighbors) and the vertex count of
    # even steps.  The final projection puts the vertices, interpolated
    # along the fine samples, back onto the curve.
    branches, used = [], set()
    for e0 in sorted(range(2 * len(pieces)), key=lambda e: e in link):
        if e0 // 2 in used:
            continue
        fine, cuts, at_special, e = np.empty((0, 2)), [0], [special[e0]], e0
        while True:
            used.add(e // 2)
            part = pieces[e // 2][::-1] if e % 2 else pieces[e // 2]
            if len(fine):  # continue across the periodic seam
                part = part + [TWO_PI * np.round((fine[-1, 0] - part[0, 0]) / TWO_PI), 0.0]
                if special[e] >= 0:
                    cuts.append(len(fine) - 1)
                    at_special.append(special[e])
            fine = np.concatenate([fine, part[1:] if len(fine) else part])
            nxt = link.get(e ^ 1)
            if nxt is None or nxt // 2 in used:
                break
            e = nxt
        cuts.append(len(fine) - 1)
        at_special.append(special[e ^ 1])
        verts = [fine[:1]]
        for lo, hi, k0, k1 in zip(cuts, cuts[1:], at_special, at_special[1:]):
            h0, h1 = float(k0 >= 0), float(k1 >= 0)
            s = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(fine[lo:hi + 1], axis=0).T))])
            n = math.ceil(s[-1] / step)
            at = np.append((np.arange(1, n) - 0.5 * h0) * s[-1] / (n - 0.5 * (h0 + h1) * (n > 1)),
                           s[-1])
            verts.append(np.column_stack([np.interp(at, s, fine[lo:hi + 1, j]) for j in (0, 1)]))
        cut_vertices = np.cumsum([len(v) for v in verts]) - 1
        closed = nxt == e0
        branches.append((np.concatenate(verts), closed,
                         (False, False) if closed else (e0 in tagged, e ^ 1 in tagged),
                         {int(i): k for i, k in zip(cut_vertices, at_special) if k >= 0}))

    # Where A = B = C = 0 the vertical line is singular (the quarto with
    # ab = 0); it is split at its corank-2 points.
    for xv in brk[np.max(np.abs(_abc(family, brk)), axis=0) <= COEFF_FLOOR * ref]:
        on = (corank2 & (np.abs(locs[:, 0] - xv) < node_radius)
              & (locs[:, 1] > y0) & (locs[:, 1] < y1))
        cuts = np.concatenate([[y0], np.sort(locs[on, 1]), [y1]])
        for j in range(len(cuts) - 1):
            yv = np.linspace(cuts[j], cuts[j + 1], math.ceil((cuts[j + 1] - cuts[j]) / step) + 1)
            branches.append((np.column_stack([np.full_like(yv, xv), yv]), False,
                             (j > 0, j < len(cuts) - 2), {}))

    # Every branch runs along the rotated gradient (-J_y, J_x).
    for i, (verts, closed, tags, marks) in enumerate(branches):
        m = (len(verts) - 1) // 2
        gx, gy = family.jdet_grad(*(0.5 * (verts[m] + verts[m + 1])))
        if (verts[m + 1] - verts[m]) @ np.array([-gy, gx]) < 0.0:
            n = len(verts) - 1
            branches[i] = verts[::-1], closed, tags[::-1], {n - vi: k for vi, k in marks.items()}
    return branches


def trace_singularity_curves(
    family: MapFamily,
    box=None,
    step: float | None = None,
    *,
    specials: list[SpecialPoint] | None = None,
) -> CurveSet:
    """Construct all branches of {J = 0} inside the box, vertices about
    ``step`` apart in arc length.

    Branches are split at corank-2 points (emitted as tagged endpoints).
    Each located cusp that a branch passes is a vertex of it, equal to the
    cusp and listed in ``cusp_indices``; a cusp that no branch passes is
    logged.  The corank-2 elliptic points, where J is definite, are the
    isolated points.
    """
    if box is None:
        box = family.default_box()
    (x0, x1), (y0, y1) = box
    if not (x1 > x0 and y1 > y0):
        raise ConfigError("box must be non-degenerate")
    if step is None:
        step = math.hypot(x1 - x0, y1 - y0) / 1000.0
    if not step > 0.0:
        raise ConfigError("step must be positive")

    if specials is None:
        specials = find_special_points(family, box)
    jtol = 1e-10 * max(1.0, reference_scales(family, box).jdet)
    branches = _branches(family, box, step, specials)
    traced = np.empty((0, 2))
    if branches:  # one projection for all vertices
        traced, _ = _correct(family, np.concatenate([b[0] for b in branches]), jtol)
        if family.periodic:
            traced[:, 0] = canonical_phi(traced[:, 0])

    # A cusp's cut vertex is set to the located cusp; on a closed branch the
    # last vertex repeats vertex 0.
    polylines, on_branch = [], set()
    ends = np.cumsum([len(b[0]) for b in branches])
    for verts, (_, closed, tags, marks) in zip(np.split(traced, ends[:-1]), branches):
        poly = Polyline(verts.copy(), closed, KIND_SINGULARITY, corank2_endpoints=tags)
        for vi, k in sorted(marks.items()):
            if specials[k].kind == PointKind.CUSP and not (closed and vi == len(verts) - 1):
                poly.vertices[vi] = specials[k].location
                poly.cusp_indices.append(vi)
                on_branch.add(k)
        if closed:
            poly.vertices[-1] = poly.vertices[0]
        polylines.append(poly)
    for k, p in enumerate(specials):
        if p.kind == PointKind.CUSP and k not in on_branch:
            log.warning("cusp at (%g, %g) is not on any traced branch", *p.location)

    # J is definite at an elliptic corank-2 point, so no branch passes it.
    isolated = sorted(p.location for p in specials if p.kind == PointKind.CORANK2_ELLIPTIC)
    polylines.sort(key=lambda c: (round(c.vertices[0, 0], 9), round(c.vertices[0, 1], 9)))
    return CurveSet(polylines, isolated)


def image_curves(family: MapFamily, cs: CurveSet) -> CurveSet:
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
        ))
    images = [JointPoint(*(float(w) for w in family.evaluate(p.phi, p.y)))
              for p in cs.isolated_points]
    return CurveSet(out, images)


def _sources(family, poly, jtol):
    """The source points of a singular branch in branch order: its vertices
    (a closed branch's last, which repeats vertex 0, left out) and, between
    each cusp vertex and its neighbors, CUSP_REFINEMENT points projected onto
    {J = 0}.  The partner preimage recedes from a cusp about twice as fast
    as the fold point approaches it, so these populate the characteristic
    there.  Returns the points and the indices of the cusps among them."""
    verts = poly.vertices[:-1] if poly.closed else poly.vertices
    n = len(verts)
    fracs = np.linspace(0.125, 0.875, CUSP_REFINEMENT)
    at, pts = [np.arange(n, dtype=float)], [verts]  # positions along the branch
    for vi in poly.cusp_indices:
        for side in (-1, 1):
            if poly.closed or 0 <= vi + side < n:
                delta = coord_deltas(family, verts[(vi + side) % n], verts[vi])
                refined, ok = _correct(family, verts[vi] + fracs[:, None] * delta, jtol)
                at.append(np.mod(vi + side * fracs, n)[ok])
                pts.append(refined[ok])
    at = np.concatenate(at)
    order = np.argsort(at, kind="stable")
    return np.concatenate(pts)[order], np.searchsorted(at[order], poly.cusp_indices)


def characteristic_curves(family: MapFamily, cs: CurveSet) -> CurveSet:
    """Characteristic curves: the other preimages of the singular images.

    Each singularity branch is walked in order over its source points
    (:func:`_sources`).  At each, the direct kinematic problem is solved at
    its image; the roots there are the real solutions not flagged as
    multiple roots (the source's own preimage is one, and so is every other
    preimage on the singularity curve).  A root links to a root at the next
    source when each is the other's nearest, and the last source of a closed
    branch links back to the first.  At a cusp the partner root merges into
    the cusp, where the solver also splits the merging roots into spurious
    ones: a root next to the cusp that links to neither neighbor is dropped,
    and the chain ending nearest the cusp before it is joined to the chain
    starting nearest the cusp after it.  The links form the chains, closed
    where they return to their first root.
    """
    jtol = 1e-10 * max(1.0, reference_scales(family).jdet)
    chains: list[Polyline] = []
    for poly in cs.by_kind(KIND_SINGULARITY):
        sources, cusps = _sources(family, poly, jtol)
        roots = []
        for vertex in sources:
            target = family.evaluate(vertex[0], vertex[1])
            sols = solve_dkp(family, (float(target[0]), float(target[1])))
            roots.append([[sol.phi, sol.y] for sol, on_curve
                          in zip(sols.solutions, sols.multiplicity_flags) if not on_curve])
        # Root i at source k is row k * m + i of a NaN-padded table.
        n, m = len(roots), max([2, *map(len, roots)])
        table = np.array([r + [[np.nan, np.nan]] * (m - len(r)) for r in roots])
        here, after = ~np.isnan(table[..., 0]), np.roll(table, -1, axis=0)
        ahead, back = _nearest(family, table, after)[0], _nearest(family, after, table)[0]
        mutual = (here & np.take_along_axis(np.roll(here, -1, axis=0), ahead, axis=1)
                  & (np.take_along_axis(back, ahead, axis=1) == np.arange(m)))
        mutual[-1] &= poly.closed
        k, i = np.nonzero(mutual)
        succ, pred = np.full(n * m, -1), np.full(n * m, -1)
        succ[k * m + i] = (k + 1) % n * m + ahead[k, i]
        pred[succ[k * m + i]] = k * m + i

        pts, keep = table.reshape(-1, 2), here.ravel()
        for c in cusps:
            d = np.arange(n * m) // m - c  # source offset from the cusp
            if poly.closed:
                d = (d + n // 2) % n - n // 2
            near = keep & (np.abs(d) <= CUSP_REFINEMENT + 1)
            keep &= ~(near & (succ < 0) & (pred < 0))
            ends = (np.flatnonzero(near & (d < 0) & (succ < 0) & (pred >= 0)),
                    np.flatnonzero(near & (d > 0) & (pred < 0) & (succ >= 0)))
            if all(len(e) for e in ends):
                tail, head = (e[np.argmin(point_distances(family, pts[e], sources[c]))]
                              for e in ends)
                succ[tail], pred[head] = head, tail

        # Chains run from every root without a predecessor; what is left
        # are the closed chains, each from its first root.
        seen = ~keep
        for first in np.concatenate([np.flatnonzero(pred < 0), np.arange(n * m)]):
            chain, j = [], first
            while j >= 0 and not seen[j]:
                seen[j] = True
                chain.append(j)
                j = succ[j]
            if chain:
                chains.append(Polyline(pts[chain], bool(j == first), KIND_CHARACTERISTIC))

    chains.sort(key=lambda c: (round(c.vertices[0, 0], 9), round(c.vertices[0, 1], 9)))
    return CurveSet(chains, [])
