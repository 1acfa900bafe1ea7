"""Multistart oracle for the special points.

This is the search the library used before its resultant seeds and square
Newton solves: damped Gauss-Newton on the three-equation detection system,
with its own switch to Newton on grad J = 0 near corank-2 points, starts from
every node of a ``grid`` x ``grid`` lattice over the workspace box.  Plain
Newton on (J, k1) and (J, k2) from the lattice nodes is not robust enough
for an oracle.  What follows the iteration (inside-box filter, dedup,
classification) is the library's, so an agreement test compares the seeds
and iterations alone.
"""

import math

import numpy as np

from cuspforge.maps import _sym22, newton, reference_scales
from cuspforge.singular import DETECTION_TOL, _detection_batch, _special_points

#: Gauss-Newton iterations without halving the best residual, above
#: DETECTION_TOL, after which a seed is given up.
STALL_ITERATIONS = 10
#: Share of the Jacobian scale below which |Jac| marks a corank-2 point,
#: which Newton on grad J = 0 polishes.
CORANK2_POLISH_FACTOR = 1e-3


def _gauss_newton(family, seeds, step_cap, jac_floor, max_iter=80):
    """Damped Gauss-Newton on the 3-equation detection system, vectorized.

    A row stops when its step vanishes or leaves the finite numbers, or
    when its residual has stayed above DETECTION_TOL without halving its best
    for STALL_ITERATIONS iterations.  A row with residual below DETECTION_TOL and
    |Jac| below ``jac_floor`` is near a corank-2 point, where Gauss-Newton
    is only linear; Newton on grad J = 0 with Jacobian Hess J finishes it
    (a regular zero of the gradient there), unless that pulls it
    off {J = 0} to a residual above DETECTION_TOL (a cusp next to an unfolded
    corank-2 point), when Gauss-Newton goes on.
    """
    q = np.array(seeds, dtype=float)
    active = np.ones(len(q), dtype=bool)
    may_polish = np.ones(len(q), dtype=bool)
    best = np.full(len(q), np.inf)
    best_at = np.zeros(len(q), dtype=int)  # the iteration that set each row's best
    for it in range(max_iter):
        idx = np.flatnonzero(active)
        r, a, jac = _detection_batch(family, q[idx])
        res = np.max(np.abs(r), axis=-1)
        low = may_polish[idx] & (res < DETECTION_TOL)
        low[low] = np.linalg.norm(jac[low], 2, axis=(1, 2)) < jac_floor
        flat = idx[low]
        if flat.size:
            may_polish[flat] = False
            polished = newton(family.jdet_grad, lambda x, y: _sym22(*family.jdet_hess(x, y)),
                              q[flat], (0.0, 0.0), 0.0, 40)[0]
            ok = np.max(np.abs(_detection_batch(family, polished)[0]), axis=-1) < DETECTION_TOL
            q[flat[ok]], active[flat[ok]] = polished[ok], False
            keep = active[idx]
            idx, r, a, res = idx[keep], r[keep], a[keep], res[keep]
        better = res <= 0.5 * best[idx]
        best[idx[better]], best_at[idx[better]] = res[better], it
        # Normal equations M dq = -g with M = A^T A and g = A^T r.
        a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
        m00 = a0[:, 0] * a0[:, 0] + a1[:, 0] * a1[:, 0] + a2[:, 0] * a2[:, 0]
        m01 = a0[:, 0] * a0[:, 1] + a1[:, 0] * a1[:, 1] + a2[:, 0] * a2[:, 1]
        m11 = a0[:, 1] * a0[:, 1] + a1[:, 1] * a1[:, 1] + a2[:, 1] * a2[:, 1]
        g0 = a0[:, 0] * r[:, 0] + a1[:, 0] * r[:, 1] + a2[:, 0] * r[:, 2]
        g1 = a0[:, 1] * r[:, 0] + a1[:, 1] * r[:, 1] + a2[:, 1] * r[:, 2]
        det = m00 * m11 - m01 * m01
        det = np.where(np.abs(det) < 1e-300, 1e-300, det)
        dq = np.empty((len(det), 2))
        dq[:, 0] = -(m11 * g0 - m01 * g1) / det
        dq[:, 1] = -(-m01 * g0 + m00 * g1) / det
        norms = np.linalg.norm(dq, axis=1)
        over = norms > step_cap
        if np.any(over):
            dq[over] *= (step_cap / norms[over])[:, None]
        q[idx] += dq
        still = ((norms > 1e-15) & np.all(np.isfinite(q[idx]), axis=1)
                 & ((best[idx] < DETECTION_TOL) | (it - best_at[idx] < STALL_ITERATIONS)))
        active[idx[~still]] = False
        if not np.any(active):
            break
    res = np.max(np.abs(_detection_batch(family, q)[0]), axis=-1)
    return q, res


def multistart_special_points(family, box=None, *, grid=64):
    """Special points found by Gauss-Newton from a ``grid`` x ``grid``
    lattice of seeds, with steps capped at 1/8 of the box diagonal."""
    if box is None:
        box = family.default_box()
    (x0, x1), (y0, y1) = box
    gx, gy = np.meshgrid(np.linspace(x0, x1, grid), np.linspace(y0, y1, grid), indexing="ij")
    seeds = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    jac_floor = CORANK2_POLISH_FACTOR * reference_scales(family, box).jac_entry
    # A seed can diverge; it is dropped here.
    with np.errstate(over="ignore", invalid="ignore"):
        converged, residuals = _gauss_newton(family, seeds, math.hypot(x1 - x0, y1 - y0) / 8.0,
                                             jac_floor)
    ok = (residuals < DETECTION_TOL) & np.all(np.isfinite(converged), axis=1)
    return _special_points(family, box, converged[ok], residuals[ok])
