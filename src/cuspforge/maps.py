"""Catalog of planar map families with closed-form first and second derivatives.

Each family is a smooth map from workspace coordinates (phi, y) -- or (x, y)
for the quadratic maps -- to joint coordinates (u, v).  The two unfoldings
are coefficient presets of one quadratic map core, whose jets follow from
the coefficients.  All evaluation methods accept scalars or broadcastable
numpy arrays and return float64 arrays of the broadcast shape, so solvers
can run vectorized over seed grids.

``jdet`` and friends return the determinant of the Jacobian divided by 4
(``DET_NORMALIZATION``): the manipulators' squared lengths put a factor 2 in
each row, and the quadratic maps divide by the same constant, so that the
presets keep J = (x + a + b)^2 + y^2 - (a - b)^2 (the square) and
J = xy - ab (the quarto).  Only zero sets and sign patterns of the
determinant matter downstream, and the constant is the same at every point
of a family, so signs are globally consistent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi
PHI_WINDOW = (-0.5 * math.pi, 1.5 * math.pi)

#: Every family's raw Jacobian determinant equals DET_NORMALIZATION * jdet().
DET_NORMALIZATION = 4.0


class WorkspacePoint(NamedTuple):
    """Workspace coordinates: platform angle (rad) and height, or (x, y)."""

    phi: float
    y: float


class JointPoint(NamedTuple):
    """Joint coordinates: squared leg lengths for manipulators, (u, v) else."""

    u: float
    v: float


def canonical_phi(phi):
    """Reduce an angle into the reporting window [-pi/2, 3*pi/2)."""
    return np.mod(np.asarray(phi, dtype=float) + 0.5 * math.pi, TWO_PI) - 0.5 * math.pi


def wrap_delta(dphi):
    """Wrap an angle difference into [-pi, pi)."""
    return np.mod(np.asarray(dphi, dtype=float) + math.pi, TWO_PI) - math.pi


def _sincos(phi):
    # fmod is exact, so evaluation is exactly periodic at the float level
    # (the correction to [0, 2*pi) keeps one representative per residue).
    r = np.fmod(np.asarray(phi, dtype=float), TWO_PI)
    r = np.where(r < 0.0, r + TWO_PI, r)
    return np.sin(r), np.cos(r)


def _pack22(a00, a01, a10, a11):
    shape = np.broadcast_shapes(np.shape(a00), np.shape(a01), np.shape(a10), np.shape(a11))
    out = np.empty(shape + (2, 2))
    out[..., 0, 0] = a00
    out[..., 0, 1] = a01
    out[..., 1, 0] = a10
    out[..., 1, 1] = a11
    return out


def _sym22(aa, ab, bb):
    return _pack22(aa, ab, ab, bb)


@dataclass(frozen=True)
class Rpr2PrOffset:
    """Planar 2RPR-PR manipulator whose moving joint is offset from the anchor line.

    Base anchors sit at (a1, 0) and (-a2, 0); the platform anchors sit at
    signed offsets +b1 and -b2 from the joint along the platform axis, on a
    line displaced by d from the joint along the platform normal.  The joint
    slides on the vertical axis at height y while the platform turns by phi.
    The outputs are the squared leg lengths.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    d: float

    kind = "rpr2pr_offset"
    periodic = True
    input_names = ("phi", "y")
    output_names = ("l1_sq", "l2_sq")

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be strictly positive")
        if not self.d >= 0.0:
            raise ConfigError("d must be non-negative")

    @property
    def reach(self):
        return self.a1 + self.a2 + self.b1 + self.b2 + self.d

    def default_box(self):
        return (PHI_WINDOW, (-self.reach, self.reach))

    def _axes(self, phi):
        s, c = _sincos(phi)
        p1 = self.b1 * s - self.d * c
        cap1 = self.b1 * c + self.d * s
        p2 = self.b2 * s + self.d * c
        cap2 = self.b2 * c - self.d * s
        return p1, cap1, p2, cap2

    def evaluate(self, phi, y):
        return self._legs(self._axes(phi), y)

    def _legs(self, axes, y):
        p1, cap1, p2, cap2 = axes
        y = np.asarray(y, dtype=float)
        k1 = self.a1**2 + self.b1**2 + self.d**2
        k2 = self.a2**2 + self.b2**2 + self.d**2
        u = y * y + 2.0 * y * p1 + k1 - 2.0 * self.a1 * cap1
        v = y * y - 2.0 * y * p2 + k2 - 2.0 * self.a2 * cap2
        return u, v

    def jacobian(self, phi, y):
        p1, cap1, p2, cap2 = self._axes(phi)
        y = np.asarray(y, dtype=float)
        return _pack22(
            2.0 * (y * cap1 + self.a1 * p1),
            2.0 * (y + p1),
            2.0 * (-y * cap2 + self.a2 * p2),
            2.0 * (y - p2),
        )

    def hessian(self, phi, y):
        p1, cap1, p2, cap2 = self._axes(phi)
        y = np.asarray(y, dtype=float)
        two = np.full(np.broadcast_shapes(p1.shape, y.shape), 2.0)
        h0 = _sym22(-2.0 * y * p1 + 2.0 * self.a1 * cap1, 2.0 * cap1, two)
        h1 = _sym22(2.0 * y * p2 + 2.0 * self.a2 * cap2, -2.0 * cap2, two)
        return np.stack([h0, h1], axis=-3)

    # The axes turn with phi, p' = cap and cap' = -p, so that
    # p1 cap2 - cap1 p2 = -(b1 + b2) d at every angle.
    def jdet(self, phi, y):
        p1, cap1, p2, cap2 = self._axes(phi)
        y = np.asarray(y, dtype=float)
        lin = self.a1 * p1 - self.a2 * p2 - (self.b1 + self.b2) * self.d
        return (cap1 + cap2) * y * y + lin * y - (self.a1 + self.a2) * p1 * p2

    def jdet_grad(self, phi, y):
        p1, cap1, p2, cap2 = self._axes(phi)
        y = np.asarray(y, dtype=float)
        jphi = (-(p1 + p2) * y * y + (self.a1 * cap1 - self.a2 * cap2) * y
                - (self.a1 + self.a2) * (cap1 * p2 + p1 * cap2))
        jy = 2.0 * (cap1 + cap2) * y + self.a1 * p1 - self.a2 * p2 - (self.b1 + self.b2) * self.d
        return jphi, jy

    def jdet_hess(self, phi, y):
        p1, cap1, p2, cap2 = self._axes(phi)
        y = np.asarray(y, dtype=float)
        jpp = (-(cap1 + cap2) * y * y - (self.a1 * p1 - self.a2 * p2) * y
               - 2.0 * (self.a1 + self.a2) * (cap1 * cap2 - p1 * p2))
        jpy = -2.0 * (p1 + p2) * y + self.a1 * cap1 - self.a2 * cap2
        jyy = 2.0 * (cap1 + cap2) * np.ones_like(y)
        return jpp, jpy, jyy


@dataclass(frozen=True)
class Rpr2PrExact:
    """The in-line 2RPR-PR manipulator: :class:`Rpr2PrOffset` at d = 0.

    The moving joint lies on the line through the platform anchors.  This is
    the non-generic member of the offset family, so it shares that family's
    formulas; ``d`` is a class constant, not a parameter.
    """

    a1: float
    a2: float
    b1: float
    b2: float

    kind = "rpr2pr_exact"
    periodic = True
    input_names = ("phi", "y")
    output_names = ("l1_sq", "l2_sq")
    d = 0.0

    __post_init__, reach = Rpr2PrOffset.__post_init__, Rpr2PrOffset.reach
    default_box, _axes, _legs = Rpr2PrOffset.default_box, Rpr2PrOffset._axes, Rpr2PrOffset._legs
    evaluate, jacobian, hessian = Rpr2PrOffset.evaluate, Rpr2PrOffset.jacobian, Rpr2PrOffset.hessian
    jdet, jdet_grad, jdet_hess = Rpr2PrOffset.jdet, Rpr2PrOffset.jdet_grad, Rpr2PrOffset.jdet_hess


def _form(row, x, y):
    """The sum row[0] x^2 + row[1] xy + row[2] y^2 + row[3] x + row[4] y + row[5],
    in that order."""
    return row[0] * (x * x) + row[1] * (x * y) + row[2] * (y * y) + row[3] * x + row[4] * y + row[5]


def _gradient(rows):
    """The gradients (d/dx, d/dy) of the ``_form`` of each of ``rows`` as
    ``_affine`` coefficients (3, len(rows), 2); the first two are the constant
    Hessians."""
    return np.array([[[2.0 * r[0], r[1]] for r in rows], [[r[1], 2.0 * r[2]] for r in rows],
                     [[r[3], r[4]] for r in rows]])


def _affine(coef, x, y):
    """coef[0] x + coef[1] y + coef[2] for coef (3, k, 2): (..., k, 2) over x, y."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x[..., None, None] * coef[0] + y[..., None, None] * coef[1] + coef[2]


class QuadraticMap:
    """Core of the quadratic maps (x, y) -> (u, v), u and v each a quadratic
    form plus a linear part: the germs of multiplicity 4 and their unfoldings.

    A subclass is a frozen dataclass with ``kind``, ``default_box`` and
    ``coefficients``, the rows of u and v on x^2, xy, y^2, x and y.  Every jet
    reads one table, derived once per instance: the rows of u, v and J on
    x^2, xy, y^2, x, y and 1, each summed by ``_form`` and differentiated by
    ``_gradient``.  Each subclass binds the jets in its own body, so that
    every family class holds its own jets.
    """

    periodic = False
    input_names = ("x", "y")
    output_names = ("u", "v")

    def __post_init__(self):
        if not np.all(np.isfinite(self.coefficients)):
            raise ConfigError("quadratic map coefficients must be finite")

    @functools.cached_property
    def _table(self):
        """The rows of u, v and J on x^2, xy, y^2, x, y and 1, as lists of
        Python floats, which ``_form`` indexes faster than an array."""
        uv = [list(row) + [0.0] for row in self.coefficients]
        jac = _gradient(uv).reshape(3, 4)  # J00, J01, J10, J11
        # J00 J11 - J01 J10 is the quadratic form of m on (x, y, 1).
        m = np.outer(jac[:, 0], jac[:, 3]) - np.outer(jac[:, 1], jac[:, 2])
        m = (m + m.T) / (2.0 * DET_NORMALIZATION)
        jdet = [m[0, 0], 2.0 * m[0, 1], m[1, 1], 2.0 * m[0, 2], 2.0 * m[1, 2], m[2, 2]]
        return np.array(uv + [jdet]).tolist()

    def evaluate(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return _form(self._table[0], x, y), _form(self._table[1], x, y)

    def jdet(self, x, y):
        return _form(self._table[2], np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def jacobian(self, x, y):
        return _affine(_gradient(self._table[:2]), x, y)

    def jdet_grad(self, x, y):
        grad = _affine(_gradient(self._table[2:]), x, y)
        return grad[..., 0, 0], grad[..., 0, 1]

    def hessian(self, x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        hess = _gradient(self._table[:2])[:2].swapaxes(0, 1)
        return np.broadcast_to(hess, shape + (2, 2, 2)).copy()

    def jdet_hess(self, x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        (hxx, hxy), (_, hyy) = _gradient(self._table[2:])[:2, 0]
        return np.full(shape, hxx), np.full(shape, hxy), np.full(shape, hyy)


def _unfolding_box(self):
    r = 3.0 * max(1.0, abs(self.a), abs(self.b))
    return ((-2.0 * r, 2.0 * r), (-2.0 * r, 2.0 * r))


@dataclass(frozen=True)
class ComplexSquareUnfolded(QuadraticMap):
    """Unfolding (x, y) -> (x^2 - y^2 + 4ax, 2xy + 4by) of the complex square
    z -> z*z.  At a = b = 0 the only singular point is the origin; for a != b
    the singular set is the circle of radius |a - b| centered at (-a - b, 0),
    carrying three cusps."""

    a: float
    b: float

    kind = "complex_square_unfolded"
    default_box = _unfolding_box
    # perfbench/layers.py wraps the jets in each map class's own __dict__, so
    # these bindings (and the quarto's) cannot go without a harness change.
    evaluate, jacobian, hessian = QuadraticMap.evaluate, QuadraticMap.jacobian, QuadraticMap.hessian
    jdet, jdet_grad, jdet_hess = QuadraticMap.jdet, QuadraticMap.jdet_grad, QuadraticMap.jdet_hess

    @property
    def coefficients(self):
        return ((1.0, 0.0, -1.0, 4.0 * self.a, 0.0), (0.0, 2.0, 0.0, 0.0, 4.0 * self.b))


@dataclass(frozen=True)
class QuartoUnfolded(QuadraticMap):
    """Unfolding (x, y) -> (x^2 + 2ay, y^2 + 2bx) of the coordinate-squaring
    (quarto) map.  At a = b = 0 the singular set is the two axes; for ab != 0
    it is the hyperbola xy = ab, carrying one cusp."""

    a: float
    b: float

    kind = "quarto_unfolded"
    default_box = _unfolding_box
    evaluate, jacobian, hessian = QuadraticMap.evaluate, QuadraticMap.jacobian, QuadraticMap.hessian
    jdet, jdet_grad, jdet_hess = QuadraticMap.jdet, QuadraticMap.jdet_grad, QuadraticMap.jdet_hess

    @property
    def coefficients(self):
        return ((1.0, 0.0, 0.0, 0.0, 2.0 * self.a), (0.0, 0.0, 1.0, 2.0 * self.b, 0.0))


MapFamily = Rpr2PrExact | Rpr2PrOffset | QuadraticMap

FAMILY_KINDS = {
    "rpr2pr_exact": Rpr2PrExact,
    "rpr2pr_offset": Rpr2PrOffset,
    "complex_square_unfolded": ComplexSquareUnfolded,
    "quarto_unfolded": QuartoUnfolded,
}


def make_family(kind: str, **params) -> MapFamily:
    """Construct a family by kind name; raises ConfigError on unknown kinds."""
    try:
        cls = FAMILY_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(FAMILY_KINDS))
        raise ConfigError(f"unknown family kind {kind!r} (known: {known})") from None
    return cls(**params)


def eval_map(family: MapFamily, q) -> JointPoint:
    """Evaluate the map at a workspace point."""
    u, v = family.evaluate(q[0], q[1])
    return JointPoint(float(u), float(v))


def coord_deltas(family: MapFamily, pts, ref):
    """Coordinate differences pts - ref with the angle wrapped mod 2*pi.

    ``pts`` is (n, 2); ``ref`` broadcasts against it.
    """
    delta = np.asarray(pts, dtype=float) - np.asarray(ref, dtype=float)
    if family.periodic:
        delta = delta.copy()
        delta[..., 0] = wrap_delta(delta[..., 0])
    return delta


def point_distances(family: MapFamily, pts, ref):
    """Distances pts - ref in the family's periodic metric, over the last axis."""
    return np.linalg.norm(coord_deltas(family, pts, ref), axis=-1)


def _nearest(family: MapFamily, pts, roots):
    """For each point of ``pts`` (..., r, 2): the index of its nearest root
    in ``roots`` (..., m, 2, NaN rows absent, padded to two), and the ratio
    of the distances to that root and to the second-nearest (NaN if both are 0)."""
    if roots.shape[-2] < 2:
        pad = np.full(roots.shape[:-2] + (2 - roots.shape[-2], 2), np.nan)
        roots = np.concatenate([roots, pad], axis=-2)
    d = point_distances(family, pts[..., :, None, :], roots[..., None, :, :])
    d = np.nan_to_num(d, nan=np.finfo(float).max)  # absent roots are far away
    two = np.partition(d, 1, axis=-1)
    with np.errstate(invalid="ignore"):
        return np.argmin(d, axis=-1), two[..., 0] / two[..., 1]


def in_box(family: MapFamily, pts, box):
    """Mask of the points (..., 2) inside ``box``, to a slack of 1e-9 times
    its longest side (at least 1e-9).  A periodic family's angle is taken
    modulo 2*pi, so a box and its shift by 2*pi hold the same points, and a
    window a full period wide holds every angle."""
    (x0, x1), (y0, y1) = box
    slack = 1e-9 * max(1.0, x1 - x0, y1 - y0)
    dx = pts[..., 0] - x0 + slack
    if family.periodic:
        dx = np.mod(dx, TWO_PI)
    return ((dx >= 0.0) & (dx <= x1 - x0 + 2.0 * slack)
            & (pts[..., 1] >= y0 - slack) & (pts[..., 1] <= y1 + slack))


def newton(f, jac, q, target, tol, max_iter):
    """Newton on f(q) = target from the rows of q (k, 2), each row on its own.

    ``f(x, y)`` gives the two components and ``jac(x, y)`` their (k, 2, 2)
    Jacobian; ``target`` broadcasts against q.  A row keeps a step only if
    it lowers the row's max-norm residual, and stops at a residual <= tol,
    at its first step that does not, or after ``max_iter`` steps.  A zero
    determinant or a step off the finite numbers never lowers the residual,
    so it ends the row where it stands.  Returns the points, their
    residuals (inf where not finite) and the number of steps each row kept.
    """
    q = np.array(q, dtype=float, order="F")
    (x, y), (tu, tv) = q.T, np.broadcast_to(np.asarray(target, dtype=float), q.shape).T
    with np.errstate(all="ignore"):
        u, v = f(x, y)
        r0, r1 = u - tu, v - tv
        resid = np.maximum(np.abs(r0), np.abs(r1))
        live = np.isfinite(resid) & (resid > tol)
        resid[~np.isfinite(resid)] = np.inf
        kept = np.zeros(len(q), dtype=int)
        for _ in range(max_iter):
            idx = np.flatnonzero(live)
            if idx.size == 0:
                break
            xi, yi, s0, s1 = x[idx], y[idx], r0[idx], r1[idx]
            a = jac(xi, yi)
            det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
            tx = xi - (a[:, 1, 1] * s0 - a[:, 0, 1] * s1) / det
            ty = yi - (a[:, 0, 0] * s1 - a[:, 1, 0] * s0) / det
            u, v = f(tx, ty)
            t0, t1 = u - tu[idx], v - tv[idx]
            trial_resid = np.maximum(np.abs(t0), np.abs(t1))
            better = trial_resid < resid[idx]
            moved = idx[better]
            x[moved], y[moved], resid[moved] = tx[better], ty[better], trial_resid[better]
            r0[moved], r1[moved] = t0[better], t1[better]
            kept[moved] += 1
            live[idx] = better & (trial_resid > tol)
    return q, resid, kept


def dedup_mask(family: MapFamily, pts, radius):
    """Mask of the rows of the (n, 2) ``pts`` kept by a greedy pass in input
    order: a row is dropped when it lies within ``radius`` (max-norm, angle
    modulo 2*pi) of an earlier kept row, so each cluster keeps its first row."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    near = np.max(np.abs(coord_deltas(family, pts[:, None], pts[None])), axis=-1) < radius
    kept = np.zeros(len(pts), dtype=bool)
    for i in range(len(pts)):
        kept[i] = not np.any(near[i, :i] & kept[:i])
    return kept


class FamilyScales(NamedTuple):
    """Magnitude scales sampled over a reference grid, for thresholding."""

    jac_entry: float
    jdet: float


@functools.lru_cache(maxsize=64)
def _scales_cached(family: MapFamily, box_key) -> FamilyScales:
    (x0, x1), (y0, y1) = box_key
    xs = np.linspace(x0, x1, 33)
    ys = np.linspace(y0, y1, 33)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    jac = family.jacobian(gx, gy)
    jdet = family.jdet(gx, gy)
    return FamilyScales(
        jac_entry=max(float(np.median(np.abs(jac))), 1e-12),
        jdet=max(float(np.median(np.abs(jdet))), 1e-12),
    )


def reference_scales(family: MapFamily, box=None) -> FamilyScales:
    """Median |Jacobian entry| and |determinant| over a 33 x 33 grid on ``box``."""
    if box is None:
        box = family.default_box()
    box_key = ((float(box[0][0]), float(box[0][1])), (float(box[1][0]), float(box[1][1])))
    return _scales_cached(family, box_key)
