"""Direct kinematic problem: all real workspace solutions for a joint target.

One exact elimination serves every family.  A combination w . (u, v) of the
equations is L1(x) y + L0(x) = s, s = w . (tu, tv), and the other equation
is c2 y^2 + P1(x) y + P0(x) = t; at y = (s - L0) / L1, L1^2 times it is
K0 + s K1 + s^2 K2 + t K3, with the K derived once per family:

* manipulators, x = phi: u - v, L1 = 2 (b1 + b2) sin phi, and the
  u-equation; the K are trigonometric cubics, held per quarter turn theta as
  polynomials of degree 6 in tan((phi - theta) / 2), and the one with the
  largest leading coefficient is solved: at most six modes.
* quadratic maps (the unfoldings are presets): w drops y^2, the K are
  quartics in x, and the coordinate whose L1 has the larger coefficients is
  eliminated: y = v / (2x + 4b) for the complex square, y = (u - x^2) / (2a)
  for the quarto, or x = (v - y^2) / (2b) when |a| < |b|.

Where L1 vanishes (sin phi = 0, 2x + 4b = 0, everywhere for the quarto near
a = b = 0) the roots in y of the other equation are candidates too.  A batch
of targets is solved at once: the roots are eigenvalues of stacked real
companion matrices, polished by the Newton kernel of :mod:`cuspforge.maps`
and accepted by residual.  Only a target with two accepted solutions within
MERGE_RADIUS is searched for coinciding ones, such as the double root over a
point of the fold image, which are reported once, flagged where |J| is small
on the family's own scale.  A workspace box given to :func:`solve_dkp` or
:func:`count_map` only decides which of the solutions escape it.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxTooSmall, ConfigError, PreconditionViolated
from .maps import (
    JointPoint,
    MapFamily,
    QuadraticMap,
    WorkspacePoint,
    canonical_phi,
    in_box,
    newton,
    reference_scales,
    wrap_delta,
)
from .singular import _roots

log = logging.getLogger(__name__)

#: Residual, relative to 1 + the target's larger coordinate, below which a
#: candidate solves the system; loop lifting accepts its Newton steps by it too.
DKP_TOL = 1e-9
#: |J|, relative to max(1, the family's |J| scale), below which a solution is
#: flagged singular; a loop lift that comes this close to {J = 0} aborts.
SINGULAR_FLAG_FACTOR = 1e-6
#: Roots this close to real (relative to their size for the quartics, in
#: |Im phi| for the manipulators) are polished as real candidates.
ROOT_RING = 1e-3
#: Sample angles of the manipulators' trigonometric cubic, and quarter turns.
_NODES = 2.0 * math.pi * np.arange(7) / 7.0
_TURNS = 0.5 * math.pi * np.arange(4)
#: Solutions farther apart than this are never merged.
MERGE_RADIUS = 1e-2
#: Newton steps at most per candidate, which polishes with no tolerance:
#: until a step no longer lowers its residual.
POLISH_STEPS = 12
#: Relative distance of the target from a division-by-zero line (of the
#: quarto's coefficients from zero) within which the line's own candidates
#: (the solutions of the a = b = 0 quarto) are polished too.
LINE_BAND = 1e-6


@dataclass(frozen=True)
class DkpSolutionSet:
    """All real solutions of f(q) = target, sorted by (phi, y).

    ``multiplicity_flags`` marks the solutions where |J| vanishes: multiple
    roots, which lie on the singularity curve.
    """

    target: JointPoint
    solutions: list[WorkspacePoint]
    residuals: list[float]
    multiplicity_flags: list[bool]

    def __len__(self):
        return len(self.solutions)


@dataclass(frozen=True)
class CountMap:
    """Per-cell solution counts over a joint-space rectangle.

    ``counts[i, j]`` is the count at the center of cell (i, j); -1 marks a
    cell with a solution outside the explicit workspace box.  Counts never
    exceed 6, so they are stored as int8.
    """

    bounds: tuple[tuple[float, float], tuple[float, float]]
    resolution: tuple[int, int]
    counts: np.ndarray = field(repr=False)

    def cell_centers(self):
        (u0, u1), (v0, v1) = self.bounds
        nu, nv = self.resolution
        us = u0 + (np.arange(nu) + 0.5) * (u1 - u0) / nu
        vs = v0 + (np.arange(nv) + 0.5) * (v1 - v0) / nv
        return us, vs


def _real_roots(coeffs, ring=lambda x: np.abs(x.imag) / (1.0 + np.abs(x.real))):
    """Roots of real polynomials (n, k + 1), highest first, with ``ring`` below
    ROOT_RING; NaN elsewhere.  A non-finite companion raises PreconditionViolated."""
    k = coeffs.shape[1] - 1
    comp = np.zeros((len(coeffs), k, k))
    comp[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    comp[:, 1:, :-1] = np.eye(k - 1)
    if not np.all(np.isfinite(comp[:, 0])):
        raise PreconditionViolated("elimination polynomial out of the floating-point range")
    x = np.linalg.eigvals(comp)
    return np.where(ring(x) < ROOT_RING, x.real, np.nan)


def _half_angle_basis(theta):
    """B with B @ g(_NODES) the coefficients, t^6 first, of (1 + t^2)^3 g(theta + 2 arctan t)
    for a trigonometric cubic g; e^(ik phi) (1 + t^2)^3 = e^(ik theta) (1+it)^(3+k) (1-it)^(3-k)."""
    powers = np.array([[sum(math.comb(3 + k, r) * math.comb(3 - k, n - r) * 1j ** (2 * r - n)
                            for r in range(n + 1)) for n in range(7)] for k in range(-3, 4)])
    waves = np.exp(1j * np.arange(-3, 4)[:, None] * (theta - _NODES))
    return np.real(np.sum(powers[:, ::-1, None] * waves[:, None, :], axis=0)) / 7.0


_HALF_ANGLE = np.array([_half_angle_basis(theta + math.pi) for theta in _TURNS])


def _eliminant(mul, c2, l0, l1, p1, p0):
    """K0, K1, K2, K3 from the terms, ``mul`` their product: L1^2 times
    c2 y^2 + P1 y + P0 - t at y = (s - L0) / L1."""
    l1l1 = mul(l1, l1)
    return (c2 * mul(l0, l0) - mul(mul(p1, l0), l1) + mul(p0, l1l1),
            mul(p1, l1) - 2.0 * c2 * l0, c2, -l1l1)


#: s = w . (tu, tv), t = (tu, tv)[other]; ``lin(x)`` gives L0 and L1; ``k``
#: the K (turn, K, power, highest first); ``zeros`` the roots of L1, or None
#: for a constant L1, and ``at_zeros`` L0, L1, P1, P0 there; ``poly`` a
#: quadratic map's L0, L1, P1, P0; ``swap`` eliminates its x, not y.
_Elimination = namedtuple("_Elimination", "swap w other c2 lin k zeros at_zeros poly")


@functools.lru_cache(maxsize=64)
def _elimination(family):
    """The family's elimination record.  A quadratic map eliminates y, or x
    where ``swap``: of the two, the one whose divisor L1 has the larger
    coefficients, y on a tie, by the combination that drops its square,
    scaled to a unit Hessian."""
    if not isinstance(family, QuadraticMap):
        def terms(phi):
            p1, _, p2, _ = axes = family._axes(phi)
            u0, v0 = family._legs(axes, 0.0)
            return u0 - v0, 2.0 * (p1 + p2), 2.0 * p1, u0

        k = np.array(np.broadcast_arrays(*_eliminant(np.multiply, 1.0, *terms(_NODES))))
        zeros = np.array([0.0, math.pi])
        return _Elimination(False, np.array([1.0, -1.0]), 0, 1.0, lambda phi: terms(phi)[:2],
                            np.sum(_HALF_ANGLE[:, None] * k[None, :, None], axis=-1),
                            zeros, terms(zeros), None)
    options = []
    for swap in (False, True):
        c = np.array(family.coefficients, dtype=float)[:, [2, 1, 0, 4, 3] if swap else slice(5)]
        w = np.array([c[1, 2], -c[0, 2]])
        m = w[0] * c[0] + w[1] * c[1]
        scale = max(2.0 * abs(m[0]), abs(m[1]))
        if scale > 0.0:
            options.append((np.max(np.abs(m[[1, 4]])) / scale, swap, c, w / scale, m / scale))
    if not options:
        raise PreconditionViolated("no combination of u and v drops just one of x^2, y^2")
    _, swap, c, w, m = max(options, key=lambda option: option[0])
    other = int(abs(c[1, 2]) > abs(c[0, 2]))
    r = c[other]  # the other equation
    poly = (np.array([m[0], m[3], 0.0]), m[[1, 4]], r[[1, 4]], np.array([r[0], r[3], 0.0]))
    k = np.zeros((1, 4, 5))
    for i, row in enumerate(_eliminant(np.convolve, r[2], *poly)):
        k[0, i, 5 - np.size(row):] = row
    zeros = None if m[1] == 0.0 else np.array([-m[4] / m[1]])
    return _Elimination(swap, w, other, r[2],
                        lambda x: (np.polyval(poly[0], x), np.polyval(poly[1], x)), k, zeros,
                        None if zeros is None else [np.polyval(p, zeros) for p in poly], poly)


def _lift(family, q, tu, tv):
    """The points q with their eliminated coordinate put on L1 y + L0 = s."""
    e = _elimination(family)
    x = q[..., int(e.swap)]
    l0, l1 = e.lin(x)
    y = (e.w[0] * tu + e.w[1] * tv - l0) / l1
    return np.stack([y, x] if e.swap else [x, y], axis=-1)


def _lines(e, s, t, tu, tv):
    """The candidates (n, k, 2), x first, where L1 vanishes: each line x with
    the two roots in y of the other equation, tried only for targets with
    L0 = s there to within the band (far from it the line holds no solution,
    and the roots near it are accurate).  A constant L1 near zero (the quarto
    near a = b = 0) loses y everywhere, and the roots of L0 = s are tried."""
    scale = 1.0 + np.abs(tu) + np.abs(tv)
    if e.zeros is None:
        far = (np.abs(e.poly[1][1]) > LINE_BAND * np.sqrt(scale))[:, None]
    else:
        far = np.abs(e.at_zeros[0] - s[:, None]) > LINE_BAND * np.max(np.abs(e.w)) * scale[:, None]
    if far.all():
        return np.empty((len(s), 0, 2))
    if e.zeros is None:
        l0, _, p1, p0 = e.poly
        x = np.column_stack(_roots(l0[0], l0[1], l0[2] - s, l0[1]))
        p1, p0 = np.polyval(p1, x), np.polyval(p0, x)
    else:
        (_, _, p1, p0), x = e.at_zeros, np.broadcast_to(e.zeros, far.shape)
    y = np.where(far[..., None], np.nan, np.stack(_roots(e.c2, p1, p0 - t[:, None], p1), axis=-1))
    return np.stack([np.repeat(x, 2, axis=1), y.reshape(len(s), -1)], axis=-1)


def _candidates(family, tu, tv):
    """The candidate solutions (n, k, 2) of the targets (tu, tv): the real
    roots of the eliminant, lifted, and the candidates of the lines."""
    e = _elimination(family)
    s, t = e.w[0] * tu + e.w[1] * tv, tv if e.other else tu
    s3, t3 = s[:, None, None], t[:, None, None]
    poly = e.k[:, 0] + s3 * e.k[:, 1] + (s3 * s3) * e.k[:, 2] + t3 * e.k[:, 3]
    if family.periodic:
        # Of the polynomials, one per turn, the one with the largest leading
        # coefficient is solved.
        turn = np.argmax(np.abs(poly[:, :, 0]), axis=1)
        tau = _real_roots(poly[np.arange(len(s)), turn],
                          lambda tau: np.abs(np.imag(2.0 * np.arctan(tau))))
        x = _TURNS[turn, None] + math.pi + 2.0 * np.arctan(tau)
    else:
        x = _real_roots(poly[:, 0])
    l0, l1 = e.lin(x)
    q = np.concatenate([np.stack([x, (s[:, None] - l0) / l1], axis=-1),
                        _lines(e, s, t, tu, tv)], axis=1)
    return q[..., ::-1] if e.swap else q


def _residual(family, q, tu, tv):
    u, v = family.evaluate(q[..., 0], q[..., 1])
    return np.maximum(np.abs(u - tu), np.abs(v - tv))


def _merge(family, q, resid, ok, tu, tv, tol_abs, jbar):
    """Merge coinciding solutions per target.

    Two accepted solutions coincide when they are closer than MERGE_RADIUS
    and a point between them also solves the system within the tolerance:
    the target is then on the fold image to within the tolerance and the
    pair is one double root (or, at a cusp image, one triple root).  The
    point tried is their midpoint, or the midpoint with its eliminated
    coordinate lifted back onto the linear equation, which follows the
    curved fiber of a triple root where the straight midpoint leaves it.
    Tried from either end, the two points can differ in rounding, so the
    pair coincides when either solves the system.

    Returns the mask of one solution per cluster (n, m), and for it the
    representative point, its residual (both written over ``q`` and
    ``resid``) and whether it is singular: of the cluster's points and
    accepted in-between points, the one closest to singular where its |J| is
    below ``jbar``, which for a multiple root is an in-between point, and
    else the cluster's point of least residual.  Only the targets with two
    accepted solutions within MERGE_RADIUS are clustered: on the others each
    is a cluster of its own, and entries outside the mask are unspecified.
    """
    m = ok.shape[1]
    diag = np.eye(m, dtype=bool)
    dx, dy = (c[:, :, None] - c[:, None, :] for c in (q[..., 0], q[..., 1]))
    dx = wrap_delta(dx) if family.periodic else dx
    near = (ok[:, :, None] & ok[:, None, :] & ~diag
            & (np.abs(dx) < MERGE_RADIUS) & (np.abs(dy) < MERGE_RADIUS))
    paired = np.any(near, axis=(1, 2))
    rows, first = np.flatnonzero(paired), ok & ~paired[:, None]
    flags = np.zeros_like(ok)
    if first.any():  # empty for paired targets only, such as one fold-image target
        flags[first] = np.abs(family.jdet(q[first][:, 0], q[first][:, 1])) < jbar
    if rows.size == 0:
        return first, q, resid, flags

    # The paired targets from here on: between[b, i, j] is the point tried
    # between solutions i and j, and solution i itself on the diagonal.
    b, i, j = np.nonzero(near[rows])
    t = rows[b]
    mid = q[t, j] + 0.5 * np.stack([dx[t, i, j], dy[t, i, j]], axis=-1)
    lifted = _lift(family, mid, tu[t], tv[t])
    mid_resid = _residual(family, mid, tu[t], tv[t])
    lifted_resid = _residual(family, lifted, tu[t], tv[t])
    use_lifted = lifted_resid < mid_resid

    between = np.repeat(q[rows, :, None, :], m, axis=2)
    between_resid = np.where(diag, resid[rows, :, None], np.inf)
    between[b, i, j] = np.where(use_lifted[:, None], lifted, mid)
    between_resid[b, i, j] = np.where(use_lifted, lifted_resid, mid_resid)
    link = between_resid < tol_abs[rows]
    reach = link | np.swapaxes(link, 1, 2)
    for _ in range(math.ceil(math.log2(m))):
        reach = np.matmul(reach.astype(np.int8), reach.astype(np.int8)) > 0
    first[rows] = ok[rows] & (np.argmax(reach, axis=-1) == np.arange(m))

    jdet = np.full(link.shape, np.inf)
    jdet[link] = np.abs(family.jdet(between[link][:, 0], between[link][:, 1]))
    # For each cluster, a row of reach: the member whose linked point is
    # closest to singular, that point, and the member of least residual.
    at = np.arange(len(rows))[:, None]
    closest = np.argmin(jdet, axis=-1)
    least_j = np.min(jdet, axis=-1)
    singular = np.argmin(np.where(reach, least_j[:, None, :], np.inf), axis=-1)
    best = np.argmin(np.where(reach, resid[rows, None, :], np.inf), axis=-1)
    k = closest[at, singular]
    flags[rows] = least_j[at, singular] < jbar
    q[rows] = np.where(flags[rows, :, None], between[at, singular, k], q[rows][at, best])
    resid[rows] = np.where(flags[rows], between_resid[at, singular, k], resid[rows][at, best])
    return first, q, resid, flags


def _solve_batch(family: MapFamily, targets):
    """Solve f(q) = t for every row t of ``targets`` (n, 2).

    Returns the mask of solutions (n, m) and, under it, their points
    (n, m, 2), residuals and multiplicity flags.  m is the largest number of
    candidates a row accepted, and each row holds its accepted candidates
    first, in order.  The flags, and so the representatives of merged
    solutions, are decided by the family's |J| scale alone: a caller's box
    only decides which of the solutions escape it.
    """
    tu, tv = targets[:, 0], targets[:, 1]
    # Candidates off the real line or on a division-by-zero line are NaN or
    # infinite, left unpolished and rejected; _real_roots raises on overflow.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = _candidates(family, tu, tv)
        finite = np.all(np.isfinite(q), axis=-1)
        row, _ = np.nonzero(finite)
        resid = np.full(finite.shape, np.inf)
        q[finite], resid[finite], _ = newton(family.evaluate, family.jacobian, q[finite],
                                             targets[row], 0.0, POLISH_STEPS)
        tol_abs = DKP_TOL * (1.0 + np.maximum(np.abs(tu), np.abs(tv)))[:, None]
        ok = resid < tol_abs
        # Candidates not accepted never link; the stable order keeps each
        # cluster's first member.
        order = np.argsort(~ok, axis=1, kind="stable")[:, :np.max(np.sum(ok, axis=1), initial=0)]
        at = (np.arange(len(ok))[:, None], order)
        jbar = SINGULAR_FLAG_FACTOR * max(1.0, reference_scales(family).jdet)
        keep, q, resid, flags = _merge(family, q[at], resid[at], ok[at], tu, tv,
                                       tol_abs[:, :, None], jbar)
    if family.periodic:
        q[..., 0] = canonical_phi(q[..., 0])
    return keep, q, resid, flags


def solve_dkp(family: MapFamily, target, *, box=None) -> DkpSolutionSet:
    """Find all real workspace solutions of f(q) = target.

    With ``box=None`` every real solution is returned.  With an explicit box
    the solutions must lie inside it, for a periodic family with the angle
    window taken modulo 2*pi: :class:`BoxTooSmall` is raised, reporting the
    escaping points, when one does not.  The box changes nothing else: the
    solutions and flags returned are those of the call without it.
    """
    target = JointPoint(float(target[0]), float(target[1]))
    if not (math.isfinite(target.u) and math.isfinite(target.v)):
        raise ConfigError("target must be finite")
    keep, q, resid, flags = _solve_batch(family, np.array([target]))
    idx = np.flatnonzero(keep[0])
    if box is not None:
        escaped = q[0, idx][~in_box(family, q[0, idx], box)]
        if len(escaped):
            pts = sorted({(round(p[0], 9), round(p[1], 9)) for p in escaped})
            raise BoxTooSmall(
                f"{len(pts)} solution(s) of target {tuple(target)} escaped the box",
                escaped=[WorkspacePoint(*p) for p in pts])
    idx = idx[np.lexsort((q[0, idx, 1], q[0, idx, 0]))]
    return DkpSolutionSet(
        target,
        [WorkspacePoint(float(q[0, i, 0]), float(q[0, i, 1])) for i in idx],
        [float(resid[0, i]) for i in idx],
        [bool(flags[0, i]) for i in idx])


def count_map(family: MapFamily, bounds, resolution: int, *, box=None) -> CountMap:
    """Solution counts at the cell centers of a joint-space grid of
    ``resolution`` cells per axis.

    All cells are solved in one batch.  With an explicit box, a cell with a
    solution outside it is recorded as -1 rather than aborting the sweep.
    """
    if resolution < 8:
        raise ConfigError("resolution must be at least 8 per axis")
    (u0, u1), (v0, v1) = bounds
    if not (0.0 < u1 - u0 < math.inf and 0.0 < v1 - v0 < math.inf):
        raise ConfigError("joint window must be finite, with u1 > u0 and v1 > v0")
    cm = CountMap(((float(u0), float(u1)), (float(v0), float(v1))), (resolution, resolution),
                  np.zeros((resolution, resolution), dtype=np.int8))
    gu, gv = np.meshgrid(*cm.cell_centers(), indexing="ij")
    keep, q, _, _ = _solve_batch(family, np.column_stack([gu.ravel(), gv.ravel()]))
    cm.counts[...] = np.sum(keep.reshape(resolution, resolution, -1), axis=-1)
    if box is not None:
        escaped = np.zeros_like(keep)
        escaped[keep] = ~in_box(family, q[keep], box)
        failed = np.any(escaped, axis=-1).reshape(resolution, resolution)
        if np.any(failed):
            log.debug("%d cell(s) have solutions outside the box", int(np.sum(failed)))
        cm.counts[failed] = -1
    return cm
