"""Direct kinematic problem: all real workspace solutions for a joint target.

The solver eliminates one coordinate exactly.  In every family one equation
is linear in y, and substituting it into the other leaves one polynomial:

* manipulators: u - v gives y = N(phi) / (2 (b1 + b2) sin phi), and the
  u-equation times 4 (b1 + b2)^2 sin^2 phi, a trigonometric cubic, has degree
  6 in t = tan((phi - theta) / 2), theta a quarter turn: at most six modes;
* quadratic maps (the unfoldings are presets): the combination of u and v
  that drops y^2 gives y = (s - L0(x)) / L1(x), and the other equation times
  L1^2 a quartic in x, both derived once per family from the coefficients.
  Of x and y, the coordinate whose L1 has the larger coefficients is
  eliminated: y = v / (2x + 4b) for the complex square; for the quarto
  y = (u - x^2) / (2a), or x = (v - y^2) / (2b) when |a| < |b|.  Where L1
  vanishes the solutions on its root (the square's 2x + 4b = 0), or near
  a = b = 0 those of the quarto's u = x^2, v = y^2, are added as candidates.

A batch of targets is solved at once: the roots are the eigenvalues of
stacked real companion matrices (one routine for all families), the finite
real roots are polished on the original system by the Newton kernel of
:mod:`cuspforge.maps` and accepted by residual, and the lines where the
elimination divides by zero add explicit candidates.  Only accepted ones
are merged where they coincide, such as the double root over a point of the
fold image, so each solution is reported once, flagged where |J| = 0.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxTooSmall, PreconditionViolated
from .maps import (
    JointPoint,
    MapFamily,
    QuadraticMap,
    WorkspacePoint,
    canonical_phi,
    coord_deltas,
    in_box,
    newton,
    reference_scales,
)

log = logging.getLogger(__name__)

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


def _manipulator_terms(family, phi, tu, tv):
    """At the angles phi: D and N of the u - v equation D y = N, and p, c of
    the u-equation y^2 + 2 p y + c = 0."""
    a1, a2, b1, b2 = family.a1, family.a2, family.b1, family.b2
    d = family.d
    s, c = np.sin(phi), np.cos(phi)
    cap1 = b1 * c + d * s
    k1 = a1 * a1 + b1 * b1 + d * d
    k2 = a2 * a2 + b2 * b2 + d * d
    num = tu - tv - (k1 - k2) + 2.0 * a1 * cap1 - 2.0 * a2 * (b2 * c - d * s)
    return 2.0 * (b1 + b2) * s, num, b1 * s - d * c, k1 - 2.0 * a1 * cap1 - tu


def _manipulator_lift(family, q, tu, tv):
    den, num, _, _ = _manipulator_terms(family, q[..., 0], tu, tv)
    return np.stack([q[..., 0], num / den], axis=-1)


def _half_angle_basis(theta):
    """B with B @ g(_NODES) the coefficients, t^6 first, of (1 + t^2)^3 g(theta + 2 arctan t)
    for a trigonometric cubic g; e^(ik phi) (1 + t^2)^3 = e^(ik theta) (1+it)^(3+k) (1-it)^(3-k)."""
    powers = np.array([[sum(math.comb(3 + k, r) * math.comb(3 - k, n - r) * 1j ** (2 * r - n)
                            for r in range(n + 1)) for n in range(7)] for k in range(-3, 4)])
    waves = np.exp(1j * np.arange(-3, 4)[:, None] * (theta - _NODES))
    return np.real(np.sum(powers[:, ::-1, None] * waves[:, None, :], axis=0)) / 7.0


_HALF_ANGLE = np.array([_half_angle_basis(theta + math.pi) for theta in _TURNS])


def _manipulator_candidates(family, tu, tv):
    tu, tv = tu[:, None], tv[:, None]
    # D^2 times the u-equation at y = N / D is a trigonometric cubic g; times
    # (1 + t^2)^3 it has degree 6 in t = tan((phi - theta) / 2), led by
    # g(theta + pi), the largest |g| at a quarter turn (no matmul: no row
    # depends on its batch).
    den, num, p, c = _manipulator_terms(family, np.concatenate([_NODES, _TURNS]), tu, tv)
    g = num * num + 2.0 * num * p * den + c * den * den
    turn = np.argmax(np.abs(g[:, 7:]), axis=1)
    t = _real_roots(np.sum(g[:, None, :7] * _HALF_ANGLE[turn], axis=-1),
                    lambda t: np.abs(np.imag(2.0 * np.arctan(t))))
    phi = _TURNS[turn, None] + math.pi + 2.0 * np.arctan(t)
    roots = _manipulator_lift(family, phi[..., None], tu, tv)
    # On sin(phi) = 0 the u - v equation no longer involves y, and where N
    # vanishes there too the solutions are the roots of the u-equation, a
    # quadratic in y.  With N far from zero the line holds no solution and
    # the roots near it are accurate, so these candidates are tried only
    # for targets close to it.
    num, p, c = num[:, [7, 7, 9, 9]], p[[7, 7, 9, 9]], c[:, [7, 7, 9, 9]]  # phi = 0, 0, pi, pi
    y = -p + np.sqrt(np.maximum(p * p - c, 0.0)) * np.array([1.0, -1.0, 1.0, -1.0])
    y[np.abs(num) > LINE_BAND * (1.0 + np.abs(tu) + np.abs(tv))] = np.nan
    line = np.stack(np.broadcast_arrays(_TURNS[[0, 0, 2, 2]], y), axis=-1)
    return np.concatenate([roots, line], axis=1)


_Elimination = namedtuple("_Elimination", "swap w other l0 l1 c2 p1 p0 k")


@functools.lru_cache(maxsize=64)
def _quadratic_elimination(family):
    """The elimination of y, or of x where ``swap``: of the two, the one whose
    divisor L1 has the larger coefficients, y on a tie.

    The combination w . (u, v) of the two equations that drops y^2, scaled
    to a unit Hessian, reads L1(x) y + L0(x) = s, s = w . (tu, tv).  Put
    into the other equation, c2 y^2 + P1(x) y + P0(x) = t, it leaves the
    quartic K0 + s K1 + s^2 K2 + t K3 in x.  Polynomials are coefficient
    arrays, highest power first.
    """
    best = None
    for swap in (False, True):
        c = np.array(family.coefficients, dtype=float)[:, [2, 1, 0, 4, 3] if swap else slice(5)]
        w = np.array([c[1, 2], -c[0, 2]])
        m = w[0] * c[0] + w[1] * c[1]
        scale = max(2.0 * abs(m[0]), abs(m[1]))
        if scale == 0.0:
            continue
        w, m, other = w / scale, m / scale, int(abs(c[1, 2]) > abs(c[0, 2]))
        if best is not None and np.max(np.abs(m[[1, 4]])) <= np.max(np.abs(best.l1)):
            continue
        l0, l1, r = np.array([m[0], m[3], 0.0]), m[[1, 4]], c[other]
        p1, p0, l1l1 = r[[1, 4]], np.array([r[0], r[3], 0.0]), np.convolve(l1, l1)
        k = np.zeros((4, 5))
        k[0] = (r[2] * np.convolve(l0, l0) - np.convolve(np.convolve(p1, l0), l1)
                + np.convolve(p0, l1l1))
        k[1, 2:], k[2, 4], k[3, 2:] = np.convolve(p1, l1) - 2.0 * r[2] * l0, r[2], -l1l1
        best = _Elimination(swap, w, other, l0, l1, r[2], p1, p0, k)
    if best is None:
        raise PreconditionViolated("no combination of u and v drops just one of x^2, y^2")
    return best


def _horner(p, x):
    out = p[0]
    for c in p[1:]:
        out = out * x + c
    return out


def _pair_roots(a, b, c):
    """The two roots, larger first, of a z^2 + b z + c (a a scalar) on a new
    last axis, the discriminant clipped at zero."""
    root = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))[..., None] * np.array([1.0, -1.0])
    return (root * np.sign(a) - b[..., None]) / (2.0 * a)


def _quadratic_lift(family, q, tu, tv):
    e = _quadratic_elimination(family)
    x = q[..., int(e.swap)]
    y = (e.w[0] * tu + e.w[1] * tv - _horner(e.l0, x)) / _horner(e.l1, x)
    return np.stack([y, x] if e.swap else [x, y], axis=-1)


def _quadratic_candidates(family, tu, tv):
    e = _quadratic_elimination(family)
    s, t = e.w[0] * tu + e.w[1] * tv, tv if e.other else tu
    x = _real_roots(e.k[0] + s[:, None] * e.k[1] + (s * s)[:, None] * e.k[2]
                    + t[:, None] * e.k[3])
    q = np.stack([x, (s[:, None] - _horner(e.l0, x)) / _horner(e.l1, x)], axis=-1)
    # Where L1 vanishes the combination loses y.  On the root of L1, as for
    # the manipulators, candidates are tried only for targets with L0 = s
    # there to within the band.  A constant L1 near zero (the quarto near
    # a = b = 0) loses y everywhere, and the roots of L0 = s are tried.  Each
    # line x takes the two roots in y of the other equation.
    if e.l1[0] != 0.0:
        line_x = np.full((len(s), 1), -e.l1[1] / e.l1[0])
        far = (np.abs(_horner(e.l0, line_x[0, 0]) - s)
               > LINE_BAND * np.max(np.abs(e.w)) * (1.0 + np.abs(tu) + np.abs(tv)))
    else:
        far = abs(e.l1[1]) > LINE_BAND * np.sqrt(1.0 + np.abs(tu) + np.abs(tv))
        line_x = None if far.all() else _pair_roots(e.l0[0], np.full_like(s, e.l0[1]), e.l0[2] - s)
    if not far.all():
        line_x[far] = np.nan
        line_y = _pair_roots(e.c2, _horner(e.p1, line_x), _horner(e.p0, line_x) - t[:, None])
        line = np.stack([np.repeat(line_x, 2, axis=1), line_y.reshape(len(s), -1)], axis=-1)
        q = np.concatenate([q, line], axis=1)
    return q[..., ::-1] if e.swap else q


def _residual(family, q, tu, tv):
    u, v = family.evaluate(q[..., 0], q[..., 1])
    return np.maximum(np.abs(u - tu), np.abs(v - tv))


def _merge(family, q, resid, ok, tu, tv, tol_abs):
    """Merge coinciding solutions per target.

    Two accepted solutions coincide when they are closer than MERGE_RADIUS
    and a point between them also solves the system within the tolerance:
    the target is then on the fold image to within the tolerance and the
    pair is one double root (or, at a cusp image, one triple root).  The
    point tried is their midpoint, or the midpoint with its eliminated
    coordinate lifted back onto the linear equation, which follows the
    curved fiber of a triple root where the straight midpoint leaves it.

    Returns the mask of one solution per cluster (n, m), and for it the
    representative point, its residual and its |J|: of the cluster's points
    and accepted in-between points, the one closest to singular, which for a
    multiple root is the in-between point.
    """
    n, m = ok.shape
    if m == 0:
        return ok, q, resid, resid
    diag = np.eye(m, dtype=bool)
    delta = coord_deltas(family, q[:, :, None, :], q[:, None, :, :])
    near = ok[:, :, None] & ok[:, None, :] & (np.max(np.abs(delta), axis=-1) < MERGE_RADIUS)
    b, i, j = np.nonzero(near & ~diag)
    mid = q[b, j] + 0.5 * delta[b, i, j]
    lift = _quadratic_lift if isinstance(family, QuadraticMap) else _manipulator_lift
    lifted = lift(family, mid, tu[b], tv[b])
    mid_resid = _residual(family, mid, tu[b], tv[b])
    lifted_resid = _residual(family, lifted, tu[b], tv[b])
    use_lifted = lifted_resid < mid_resid

    # between[b, i, j] is the point tried between solutions i and j, and
    # solution i itself on the diagonal.
    between = np.repeat(q[:, :, None, :], m, axis=2)
    between_resid = np.where(diag, resid[:, :, None], np.inf)
    between[b, i, j] = np.where(use_lifted[:, None], lifted, mid)
    between_resid[b, i, j] = np.where(use_lifted, lifted_resid, mid_resid)
    link = between_resid < tol_abs
    reach = link
    for _ in range(math.ceil(math.log2(m))):
        reach = np.matmul(reach.astype(np.int8), reach.astype(np.int8)) > 0
    first = ok & (np.argmax(reach, axis=-1) == np.arange(m))

    jdet = np.full((n, m, m), np.inf)
    jdet[link] = np.abs(family.jdet(between[link][:, 0], between[link][:, 1]))
    k = np.argmin(jdet, axis=-1)[..., None]
    rep = np.take_along_axis(between, k[..., None], axis=2)[:, :, 0]
    rep_resid = np.take_along_axis(between_resid, k, axis=2)[..., 0]
    return first, rep, rep_resid, np.take_along_axis(jdet, k, axis=2)[..., 0]


def _solve_batch(family: MapFamily, targets, box, tol):
    """Solve f(q) = t for every row t of ``targets`` (n, 2).

    Returns the mask of solutions (n, m) and, under it, their points
    (n, m, 2), residuals and multiplicity flags, plus the mask of those
    outside an explicit box (its angle window taken modulo 2*pi).  m is the
    largest number of candidates a row accepted, and each row holds its
    accepted candidates first, in order.
    """
    tu, tv = targets[:, 0], targets[:, 1]
    candidates = (_quadratic_candidates if isinstance(family, QuadraticMap)
                  else _manipulator_candidates)
    # Candidates off the real line or on a division-by-zero line are NaN or
    # infinite, left unpolished and rejected; _real_roots raises on overflow.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = candidates(family, tu, tv)
        finite = np.all(np.isfinite(q), axis=-1)
        row, _ = np.nonzero(finite)
        resid = np.full(finite.shape, np.inf)
        q[finite], resid[finite], _ = newton(family.evaluate, family.jacobian, q[finite],
                                             targets[row], 0.0, POLISH_STEPS)
        tol_abs = tol * (1.0 + np.maximum(np.abs(tu), np.abs(tv)))[:, None]
        ok = resid < tol_abs
        # Candidates not accepted never link; the stable order keeps each
        # cluster's first member and representative.
        order = np.argsort(~ok, axis=1, kind="stable")[:, :np.max(np.sum(ok, axis=1), initial=0)]
        at = (np.arange(len(ok))[:, None], order)
        keep, q, resid, jdet = _merge(family, q[at], resid[at], ok[at], tu, tv, tol_abs[:, :, None])
    scales = reference_scales(family, box)
    flags = jdet < SINGULAR_FLAG_FACTOR * max(1.0, scales.jdet)
    if family.periodic:
        q[..., 0] = canonical_phi(q[..., 0])

    escaped = np.zeros_like(keep)
    if box is not None:
        escaped[keep] = ~in_box(family, q[keep], box)
    return keep, q, resid, flags, escaped


def solve_dkp(
    family: MapFamily,
    target,
    *,
    box=None,
    tol: float = 1e-9,
) -> DkpSolutionSet:
    """Find all real workspace solutions of f(q) = target.

    With ``box=None`` every real solution is returned.  With an explicit box
    the solutions must lie inside it, for a periodic family with the angle
    window taken modulo 2*pi: :class:`BoxTooSmall` is raised, reporting the
    escaping points, when one does not.
    """
    target = JointPoint(float(target[0]), float(target[1]))
    if not (math.isfinite(target.u) and math.isfinite(target.v)):
        raise ValueError("target must be finite")
    keep, q, resid, flags, escaped = _solve_batch(family, np.array([target]), box, tol)
    if np.any(escaped):
        pts = sorted({(round(p[0], 9), round(p[1], 9)) for p in q[escaped]})
        raise BoxTooSmall(
            f"{len(pts)} solution(s) of target {tuple(target)} escaped the box",
            escaped=[WorkspacePoint(*p) for p in pts])
    idx = np.flatnonzero(keep[0])
    idx = idx[np.lexsort((q[0, idx, 1], q[0, idx, 0]))]
    return DkpSolutionSet(
        target,
        [WorkspacePoint(float(q[0, i, 0]), float(q[0, i, 1])) for i in idx],
        [float(resid[0, i]) for i in idx],
        [bool(flags[0, i]) for i in idx])


def count_map(
    family: MapFamily,
    bounds,
    resolution,
    *,
    box=None,
    tol: float = 1e-9,
) -> CountMap:
    """Solution counts at the cell centers of a joint-space grid.

    All cells are solved in one batch.  With an explicit box, a cell with a
    solution outside it is recorded as -1 rather than aborting the sweep.
    """
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    nu, nv = resolution
    if nu < 8 or nv < 8:
        raise ValueError("resolution must be at least 8 per axis")
    (u0, u1), (v0, v1) = bounds
    if not (0.0 < u1 - u0 < math.inf and 0.0 < v1 - v0 < math.inf):
        raise ValueError("bounds must be finite, with u1 > u0 and v1 > v0")
    us = u0 + (np.arange(nu) + 0.5) * (u1 - u0) / nu
    vs = v0 + (np.arange(nv) + 0.5) * (v1 - v0) / nv
    gu, gv = np.meshgrid(us, vs, indexing="ij")
    keep, _, _, _, escaped = _solve_batch(
        family, np.column_stack([gu.ravel(), gv.ravel()]), box, tol)
    counts = np.sum(keep.reshape(nu, nv, -1), axis=-1, dtype=np.int8)
    failed = np.any(escaped.reshape(nu, nv, -1), axis=-1)
    if np.any(failed):
        log.debug("%d cell(s) have solutions outside the box", int(np.sum(failed)))
    counts[failed] = -1
    return CountMap(((float(u0), float(u1)), (float(v0), float(v1))), (nu, nv), counts)
