"""Multistart Newton oracle for the direct kinematic problem.

This is the brute-force solver the library used before its exact
elimination: Newton is run from every node of a seed lattice over the
workspace box, converged seeds are kept by residual, and points closer than
``DEDUP_RADIUS`` (angle modulo 2*pi) are merged.  It shares no code with
``cuspforge.dkp`` and serves the tests only as an independent count.
"""

import math

import numpy as np

from cuspforge.errors import BoxTooSmall
from cuspforge.maps import canonical_phi, coord_deltas

DEDUP_RADIUS = 1e-5


def _newton_batch(family, seeds, target, *, max_iter=60, step_cap=2.0):
    """Vectorized Newton on f(q) = target from all seeds simultaneously."""
    q = np.array(seeds, dtype=float)
    tu, tv = float(target[0]), float(target[1])
    active = np.ones(len(q), dtype=bool)
    target_scale = 1.0 + max(abs(tu), abs(tv))
    for _ in range(max_iter):
        qa = q[active]
        if qa.size == 0:
            break
        u, v = family.evaluate(qa[:, 0], qa[:, 1])
        r0 = u - tu
        r1 = v - tv
        jac = family.jacobian(qa[:, 0], qa[:, 1])
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        det = np.where(np.abs(det) < 1e-300, np.where(det < 0, -1e-300, 1e-300), det)
        d0 = -(jac[:, 1, 1] * r0 - jac[:, 0, 1] * r1) / det
        d1 = -(-jac[:, 1, 0] * r0 + jac[:, 0, 0] * r1) / det
        norms = np.hypot(d0, d1)
        over = norms > step_cap
        if np.any(over):
            scale = step_cap / norms[over]
            d0[over] *= scale
            d1[over] *= scale
        qa[:, 0] += d0
        qa[:, 1] += d1
        q[active] = qa
        resid = np.maximum(np.abs(r0), np.abs(r1))
        still = (norms > 1e-14) & (resid > 1e-14 * target_scale)
        still &= np.all(np.isfinite(qa), axis=1)
        idx = np.flatnonzero(active)
        active[idx[~still]] = False
        if not np.any(active):
            break
    u, v = family.evaluate(q[:, 0], q[:, 1])
    resid = np.maximum(np.abs(u - tu), np.abs(v - tv))
    return q, resid


def multistart_solutions(family, target, *, box=None, seed_grid=64, tol=1e-9):
    """Solutions of f(q) = target found from a seed_grid x seed_grid lattice,
    as an (n, 2) array sorted by (phi, y).  Raises BoxTooSmall when a
    converged seed lies outside the box."""
    if box is None:
        box = family.default_box()
    (x0, x1), (y0, y1) = box
    xs = x0 + (np.arange(seed_grid) + 0.5) * (x1 - x0) / seed_grid
    ys = y0 + (np.arange(seed_grid) + 0.5) * (y1 - y0) / seed_grid
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    seeds = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    cap = 0.5 * math.hypot(x1 - x0, y1 - y0)

    q, resid = _newton_batch(family, seeds, target, step_cap=cap)
    target_scale = 1.0 + max(abs(target[0]), abs(target[1]))
    ok = resid < tol * target_scale
    q, resid = q[ok], resid[ok]
    if q.size == 0:
        return np.zeros((0, 2))

    if family.periodic:
        q[:, 0] = canonical_phi(q[:, 0])
        margin = 1e-9 * max(1.0, abs(y1 - y0))
        escaped = (q[:, 1] < y0 - margin) | (q[:, 1] > y1 + margin)
        if (x1 - x0) < 2.0 * math.pi - 1e-9:
            escaped |= (q[:, 0] < x0 - margin) | (q[:, 0] > x1 + margin)
    else:
        margin = 1e-9 * max(1.0, abs(x1 - x0), abs(y1 - y0))
        escaped = ((q[:, 0] < x0 - margin) | (q[:, 0] > x1 + margin)
                   | (q[:, 1] < y0 - margin) | (q[:, 1] > y1 + margin))
    if np.any(escaped):
        raise BoxTooSmall(f"{int(np.sum(escaped))} seed(s) converged outside the box")

    # Greedy dedup in (phi, y, residual) order: keep the first remaining
    # point and drop everything within DEDUP_RADIUS of it.
    q = q[np.lexsort((resid, q[:, 1], q[:, 0]))]
    kept = []
    while len(q):
        kept.append(q[0])
        far = np.max(np.abs(coord_deltas(family, q, q[0])), axis=1) >= DEDUP_RADIUS
        q = q[far]
    return np.array(kept).reshape(-1, 2)
