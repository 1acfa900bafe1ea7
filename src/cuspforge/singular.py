"""Location and classification of special points of the singularity set.

Special points are the solutions of the overdetermined detection system

    J = 0,   Jac . (-J_y, J_phi)^T = (0, 0)

whose three residual components vanish exactly at cusps and at corank-2
points.  The vector (-J_y, J_phi) is the tangent of the fold curve {J = 0},
so the extra equations say that this tangent lies in the kernel of the
Jacobian (or that the fold curve itself is singular).

J is quadratic and k cubic in y, so every special point lies over a real
zero of the resultants Res_y(J, k_i) or, for a corank-2 point, of the
discriminant of J in y, from which Newton solves the square systems (J, k1)
and (J, k2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, PreconditionViolated
from .maps import (
    TWO_PI,
    JointPoint,
    MapFamily,
    WorkspacePoint,
    _sym22,
    canonical_phi,
    dedup_mask,
    eval_map,
    in_box,
    newton,
    reference_scales,
)

RANK_RATIO_THRESHOLD = 1e-7      # sigma2 / sigma1 below this -> rank <= 1
RANK_ZERO_FACTOR = 1e-7          # sigma1 below this * jac scale -> rank 0
DELTA_DEGENERATE_FACTOR = 1e-8   # |Delta| below this * coeff scale^2 -> degenerate
CUSP_TEST_REL_THRESHOLD = 1e-6
#: Relative size below which a fitted coefficient, or all of A, B, C, is zero.
COEFF_FLOOR = 1e-12
#: Degree bound of Res_y(J, k_i) in the angle or in x (measured: 9 for the
#: manipulators, 4 or 5 for the unfoldings), and the distance from the unit
#: circle within which its roots seed: loose, as corank-2 points are
#: multiple roots, scattered by about 1e-4.
RESULTANT_DEGREE = 12
SEED_RING = 1e-3
#: Newton steps on (J, k1) and (J, k2) from each resultant seed: a seed lies
#: close to its point, and a regular system converges quadratically.
DETECTION_STEPS = 5
#: Detection residual below which a Newton candidate is kept.
DETECTION_TOL = 1e-10
#: |J| and kernel-alignment residual, relative to their scales, within
#: which a point is classified: on the singularity set, and a cusp.
CLASSIFY_TOL = 1e-8


class PointKind(enum.Enum):
    CUSP = "cusp"
    CORANK2_ELLIPTIC = "corank2_elliptic"
    CORANK2_HYPERBOLIC = "corank2_hyperbolic"
    FOLD_ONLY = "fold_only"
    DEGENERATE = "degenerate"


DISPLAY_NAMES = {
    PointKind.CUSP: "Cusp",
    PointKind.CORANK2_ELLIPTIC: "Corank2Elliptic",
    PointKind.CORANK2_HYPERBOLIC: "Corank2Hyperbolic",
    PointKind.FOLD_ONLY: "FoldOnly",
    PointKind.DEGENERATE: "Degenerate",
}


class DetectionResidual(NamedTuple):
    """Residual of the detection system: determinant and kernel alignment."""

    j: float
    k1: float
    k2: float


@dataclass(frozen=True)
class SpecialPoint:
    """A located singularity with classification and diagnostics.

    ``delta`` is the discriminant of the quadratic part of the determinant,
    meaningful only for the corank-2 kinds (NaN otherwise).  ``residual`` is
    the max-norm of the detection system at the reported location.
    """

    location: WorkspacePoint
    image: JointPoint
    kind: PointKind
    delta: float
    residual: float


@dataclass(frozen=True)
class QuadraticExpansion:
    """Second-order Taylor data at a corank-2 point, in centered coordinates.

    Coefficient triples are (c_yy, c_yphi, c_phiphi) for the form
    c_yy*y^2 + c_yphi*y*phi + c_phiphi*phi^2.  ``outputs`` holds the forms of
    the two map components shifted by their value at the point.
    """

    jdet: tuple[float, float, float]
    outputs: tuple[tuple[float, float, float], tuple[float, float, float]]


def _alignment(jac, jphi, jy):
    """The kernel alignment k = Jac . t, (..., 2), with t = (-J_y, J_phi) the
    tangent of the fold curve."""
    t0, t1 = -np.asarray(jy)[..., None], np.asarray(jphi)[..., None]
    return jac[..., :, 0] * t0 + jac[..., :, 1] * t1


def _residual(family: MapFamily, pts):
    """The detection residual (J, k1, k2) at (..., 2) points, from first
    derivatives only."""
    phi, y = pts[..., 0], pts[..., 1]
    k = _alignment(family.jacobian(phi, y), *family.jdet_grad(phi, y))
    return np.concatenate([np.asarray(family.jdet(phi, y))[..., None], k], axis=-1)


def _detection_batch(family: MapFamily, pts):
    """Residual 3-vectors, their analytic Jacobians and the map Jacobians at
    (n, 2) points."""
    phi = pts[..., 0]
    y = pts[..., 1]
    jphi, jy = family.jdet_grad(phi, y)
    jpp, jpy, jyy = family.jdet_hess(phi, y)
    jac = family.jacobian(phi, y)
    hess = family.hessian(phi, y)

    # d k / d x = hess . t + Jac . R . (hess of J), with R the quarter turn.
    t0, t1 = -jy, jphi
    r = np.empty(pts.shape[:-1] + (3,))
    r[..., 0] = family.jdet(phi, y)
    r[..., 1:] = _alignment(jac, jphi, jy)
    a = np.empty(pts.shape[:-1] + (3, 2))
    a[..., 0, 0] = jphi
    a[..., 0, 1] = jy
    for i in range(2):
        for col, (d0, d1) in enumerate(((-jpy, jpp), (-jyy, jpy))):
            a[..., 1 + i, col] = (hess[..., i, 0, col] * t0 + hess[..., i, 1, col] * t1
                                  + (jac[..., i, 0] * d0 + jac[..., i, 1] * d1))
    return r, a, jac


def detection_system(family: MapFamily, q) -> DetectionResidual:
    """Evaluate the cusp/higher-order detection system at one point."""
    r = _residual(family, np.asarray([q[0], q[1]], dtype=float))
    return DetectionResidual(float(r[0]), float(r[1]), float(r[2]))


def _solve_detection(family: MapFamily, seeds):
    """Newton from every seed on the square systems (J, k1) and (J, k2),
    DETECTION_STEPS steps at most.  At a cusp grad J != 0 and k_i changes
    along the fold with the i-th component of the image direction, so one of
    them is regular there.  At a corank-2 point both are singular, and
    grad J = 0 is regular: Newton on it runs from every end point, and each
    row keeps whichever point has the smaller detection residual, so a cusp
    next to an unfolded corank-2 point stays put.  Returns the points whose
    residual is below DETECTION_TOL, and their residuals."""
    def system(i):
        def f(x, y):
            r = _residual(family, np.column_stack([x, y]))
            return r[:, 0], r[:, i]
        return f, lambda x, y: _detection_batch(family, np.column_stack([x, y]))[1][:, [0, i]]

    q = np.concatenate([newton(*system(i), seeds, (0.0, 0.0), 0.0, DETECTION_STEPS)[0]
                        for i in (1, 2)])
    # A seed at a pole of q / A (A = 0) can stay out of range; it is dropped.
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.max(np.abs(_residual(family, q)), axis=-1)
        polished = newton(family.jdet_grad, lambda x, y: _sym22(*family.jdet_hess(x, y)),
                          q, (0.0, 0.0), 0.0, 40)[0]
        polished_res = np.max(np.abs(_residual(family, polished)), axis=-1)
        better = polished_res < res
        q[better], res[better] = polished[better], polished_res[better]
        low = res < DETECTION_TOL
    return q[low], res[low]


def _correct(family: MapFamily, pts, jtol, max_iter=10):
    """Newton along the determinant gradient back onto {J = 0}, row by row.

    ``pts`` holds points of shape (..., 2); a single (2,) point runs on
    scalars.  A row stops when |J| <= jtol, which marks it converged, or when
    its gradient vanishes; the others take up to ``max_iter`` steps.  Returns
    the last iterates and the converged mask.
    """
    q = np.array(pts, dtype=float)
    live = np.ones(q.shape[:-1], dtype=bool)
    ok = ~live
    for it in range(max_iter + 1):
        j = family.jdet(q[..., 0], q[..., 1])
        hit = live & (np.abs(j) <= jtol)
        ok, live = ok | hit, live & ~hit
        if it == max_iter or not live.any():
            break
        gphi, gy = family.jdet_grad(q[..., 0], q[..., 1])
        g2 = gphi * gphi + gy * gy
        live = live & ~(g2 < 1e-300)
        s = j / np.where(live, g2, 1.0)
        q[..., 0] = np.where(live, q[..., 0] - s * gphi, q[..., 0])
        q[..., 1] = np.where(live, q[..., 1] - s * gy, q[..., 1])
    return q, ok


def _whitney_term(a, jac):
    """From the detection Jacobian ``a`` (rows grad J, grad k1, grad k2):
    the derivative u1 . (grad k) . t of the kernel alignment k along the
    fold curve's unit tangent t = (-J_y, J_phi) / |grad J|, and its local
    scale |Jac| |grad J|.  Along the curve k stays in the 1-d image of the
    rank-1 Jacobian, so it is measured on the unit image direction u1."""
    gnorm = math.hypot(a[0, 0], a[0, 1])
    u, sing, _ = np.linalg.svd(jac)
    tangent = np.array([-a[0, 1], a[0, 0]]) / gnorm
    return float(u[:, 0] @ a[1:] @ tangent), float(sing[0]) * gnorm


def _cusp_nondegenerate(a, jac, scales):
    """Whitney test: the kernel alignment must change at first order along
    the fold curve (:func:`_whitney_term`)."""
    if math.hypot(a[0, 0], a[0, 1]) < 1e-12 * max(1.0, scales.jdet):
        return False
    derivative, local_scale = _whitney_term(a, jac)
    return abs(derivative) > CUSP_TEST_REL_THRESHOLD * max(local_scale, 1e-12)


def quadratic_expansion(family: MapFamily, q) -> QuadraticExpansion:
    """Order-2 Taylor coefficients of the determinant and the map outputs
    at a corank-2 point, in displacement coordinates centered at the point."""
    q = np.asarray([q[0], q[1]], dtype=float)
    jac = np.asarray(family.jacobian(q[0], q[1]), float)
    scales = reference_scales(family)
    sing = np.linalg.svd(jac, compute_uv=False)
    if sing[0] > 1e-5 * scales.jac_entry:
        raise PreconditionViolated(
            f"quadratic expansion requires a corank-2 point; |Jac| = {sing[0]:.3e}")
    jpp, jpy, jyy = (float(v) for v in family.jdet_hess(q[0], q[1]))
    hess = np.asarray(family.hessian(q[0], q[1]), float)
    outputs = tuple(
        (hess[i, 1, 1] / 2.0, hess[i, 0, 1], hess[i, 0, 0] / 2.0) for i in range(2)
    )
    return QuadraticExpansion(jdet=(jyy / 2.0, jpy, jpp / 2.0), outputs=outputs)


def discriminant(expansion: QuadraticExpansion) -> float:
    cyy, cyphi, cphiphi = expansion.jdet
    return cyphi * cyphi - 4.0 * cyy * cphiphi


def classify_point(family: MapFamily, q) -> SpecialPoint:
    """Classify a point of the singularity set.

    The point must satisfy J = 0 within CLASSIFY_TOL (PreconditionViolated
    otherwise).  Rank-1 points are cusps when the Whitney nondegeneracy test
    passes and the full detection residual is small; rank-1 points with a
    large kernel-alignment residual are plain folds.  Rank-0 points are
    classified by the sign of the discriminant of the determinant's
    quadratic part.
    """
    q = np.asarray([q[0], q[1]], dtype=float)
    scales = reference_scales(family)
    r, a, jac = _detection_batch(family, q)
    j_res = abs(float(r[0]))
    k_res = float(np.max(np.abs(r[1:])))
    jtol = CLASSIFY_TOL * max(1.0, scales.jdet)
    if j_res > jtol:
        raise PreconditionViolated(
            f"point is not on the singularity set: |J| = {j_res:.3e} > {jtol:.3e}")

    residual = float(np.max(np.abs(r)))
    sing = np.linalg.svd(jac, compute_uv=False)
    location = WorkspacePoint(
        float(canonical_phi(q[0])) if family.periodic else float(q[0]), float(q[1]))
    image = eval_map(family, q)

    if sing[0] < RANK_ZERO_FACTOR * scales.jac_entry:
        expansion = quadratic_expansion(family, q)
        delta = discriminant(expansion)
        coeff_scale = max(abs(c) for c in expansion.jdet)
        if abs(delta) < DELTA_DEGENERATE_FACTOR * coeff_scale**2:
            kind = PointKind.DEGENERATE
        elif delta > 0.0:
            kind = PointKind.CORANK2_HYPERBOLIC
        else:
            kind = PointKind.CORANK2_ELLIPTIC
        return SpecialPoint(location, image, kind, float(delta), residual)

    ktol = CLASSIFY_TOL * max(1.0, scales.jac_entry * scales.jdet)
    ratio = sing[1] / max(sing[0], 1e-300)
    if k_res > ktol or ratio >= RANK_RATIO_THRESHOLD:
        return SpecialPoint(location, image, PointKind.FOLD_ONLY, float("nan"), residual)
    if _cusp_nondegenerate(a, jac, scales):
        kind = PointKind.CUSP
    else:
        kind = PointKind.DEGENERATE
    return SpecialPoint(location, image, kind, float("nan"), residual)


def _abc(family: MapFamily, x):
    """A, B and C of J = A y^2 + B y + C at the abscissae x, from J at y = -1, 0, 1."""
    j = family.jdet(np.asarray(x, dtype=float)[..., None], np.array([-1.0, 0.0, 1.0]))
    jm, j0, jp = np.moveaxis(j, -1, 0)
    return 0.5 * (jp + jm) - j0, 0.5 * (jp - jm), j0


def _disc(a, b, c):
    return b * b - 4.0 * a * c


def _roots(a, b, c, sign):
    """q / a and c / q with the sign of q taken from ``sign`` (that of b
    between its zeros), a negative discriminant taken as zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(_disc(a, b, c), 0.0)), sign))
        return q / a, np.where(q == 0.0, 0.0, c / q)


def _zeros(family: MapFamily, f, x0, width, ref, degree, ring):
    """Real zeros of f, of magnitude ``ref``: a trigonometric polynomial of
    degree <= ``degree`` in the angle x0 + theta (periodic families; all its
    zeros, in [x0, x0 + 2 pi)), or a polynomial of that degree in
    x = x0 + width (1 - cos theta) / 2 (zeros in [x0, x0 + width]), hence one
    in theta too.  They are the roots within ``ring`` of the unit circle of
    z^degree times its Fourier series in exp(i theta), fitted on the least
    power of two of at least 4 degree samples.  Where f gives a column per
    function, the zeros of each column follow those of the one before."""
    def to_x(theta):
        if family.periodic:
            return x0 + np.mod(theta, TWO_PI)
        return x0 + 0.5 * width * (1.0 - np.cos(theta))

    n = 1 << (4 * degree - 1).bit_length()
    spec = np.fft.fft(f(to_x(TWO_PI * np.arange(n) / n)), axis=0) / n
    z = [np.empty(0, dtype=complex)]
    for col in spec.reshape(n, -1).T:
        coef = col[np.arange(degree, -degree - 1, -1)]  # c_degree .. c_-degree
        scale = max(np.max(np.abs(coef)), ref)
        if np.max(np.abs(col[degree + 1:n - degree])) > 1e-9 * scale:
            raise PreconditionViolated(f"{family.kind}: J is not quadratic in y with "
                                       f"coefficients of low degree (fit degree > {degree})")
        big = np.flatnonzero(np.abs(coef) > COEFF_FLOOR * scale)
        if big.size:
            z.append(np.roots(coef[big[0]:len(coef) - big[0]]))
    z = np.concatenate(z)
    return to_x(np.angle(z[np.abs(np.abs(z) - 1.0) < ring]))


def _coefficients(family: MapFamily, x):
    """(A, B, C) of J and the coefficients (k3, k2, k1, k0), each (n, 2), of
    the cubic k = Jac . (-J_y, J_x) in y at the abscissae x, from k at
    y = -1, 0, 1, 2."""
    pts = np.stack(np.broadcast_arrays(x, np.array([[-1.0], [0.0], [1.0], [2.0]])), axis=-1)
    km, k0, k1, k2 = _residual(family, pts)[..., 1:]
    c3 = (k2 - 3.0 * k1 + 3.0 * k0 - km) / 6.0
    return _abc(family, x), (c3, 0.5 * (k1 + km) - k0, 0.5 * (k1 - km) - c3, k0)


def _resultant_seeds(family: MapFamily, box):
    """Both roots y of J(x, .) = 0 at every real zero x of the resultants
    Res_y(J, k_i), i = 1, 2: Sylvester determinants of J and the cubic k_i,
    5 x 5, or 4 x 4 where A vanishes identically (the quarto), which is then
    sum_j k_j (-C)^j B^(3-j); and of the discriminant B^2 - 4AC of J in y,
    as a corank-2 point is a double root of J in y, also where both
    resultants vanish identically (as for u = (x + y)^2, v = (x - y)^2).
    Seeds more than the box height outside the box in y (q / A, where A is
    a rounding residue) are dropped."""
    (x0, x1), (y0, y1) = box
    (a, b, c), k = _coefficients(family, x0 + (x1 - x0) * np.arange(16) / 16.0)
    jref = np.max(np.abs([a, b, c]))
    m = 1 if np.max(np.abs(a)) <= COEFF_FLOOR * jref else 2  # the degree of J in y
    kref = np.max(np.abs(k)) ** m
    ref = jref ** 3 * kref

    def resultants(x):
        jc, k = _coefficients(family, x)
        s = np.zeros((len(x), 2, m + 3, m + 3))
        for r in range(3):
            s[:, :, r, r:r + m + 1] = np.column_stack(jc[2 - m:])[:, None]
        for r in range(m):
            s[:, :, 3 + r, r:r + 4] = np.stack(k, axis=-1)
        return np.column_stack([np.linalg.det(s), _disc(*jc) * jref * kref])

    x = _zeros(family, resultants, x0, x1 - x0, ref, RESULTANT_DEGREE, SEED_RING)
    a, b, c = _abc(family, x)
    seeds = np.column_stack([np.repeat(x, 2), np.column_stack(_roots(a, b, c, b)).ravel()])
    return seeds[(seeds[:, 1] > 2.0 * y0 - y1) & (seeds[:, 1] < 2.0 * y1 - y0)]


def _special_points(family: MapFamily, box, candidates, residuals):
    """The candidates in the box, deduplicated at radius 1e-6 times the box
    diagonal (max-norm, angle modulo 2*pi for the periodic families), each
    cluster keeping its candidate of least detection residual, and
    classified; periodic angles are reported canonical."""
    (x0, x1), (y0, y1) = box
    if family.periodic:
        candidates[:, 0] = canonical_phi(candidates[:, 0])
    inside = in_box(family, candidates, box)
    candidates = candidates[inside]
    if candidates.size == 0:
        return []

    candidates = candidates[np.lexsort((candidates[:, 1], candidates[:, 0], residuals[inside]))]
    radius = 1e-6 * math.hypot(x1 - x0, y1 - y0)
    points = [classify_point(family, q) for q in candidates[dedup_mask(family, candidates, radius)]]
    return sorted(points, key=lambda p: (p.location.phi, p.location.y))


def find_special_points(family: MapFamily, box=None) -> list[SpecialPoint]:
    """Find all special points in a workspace box, from the resultant seeds."""
    if box is None:
        box = family.default_box()
    (x0, x1), (y0, y1) = box
    if not (x1 > x0 and y1 > y0):
        raise ConfigError("box must be non-degenerate")
    return _special_points(family, box, *_solve_detection(family, _resultant_seeds(family, box)))
