"""Reference Newton kernel.

This is the loop ``cuspforge.maps.newton`` ran before it kept the two
residual components as separate arrays: each step stacks the residuals and
the step, and reduces the stacked residual with ``np.max``.  A test requires
the kernel to give bitwise the same points, residuals and kept steps.
"""

import numpy as np


def newton(f, jac, q, target, tol, max_iter):
    q = np.array(q, dtype=float)
    target = np.broadcast_to(np.asarray(target, dtype=float), q.shape)
    with np.errstate(all="ignore"):
        r = np.stack(f(q[:, 0], q[:, 1]), axis=-1) - target
        resid = np.max(np.abs(r), axis=-1)
        live = np.isfinite(resid) & (resid > tol)
        resid[~np.isfinite(resid)] = np.inf
        kept = np.zeros(len(q), dtype=int)
        for _ in range(max_iter):
            idx = np.flatnonzero(live)
            if idx.size == 0:
                break
            a = jac(q[idx, 0], q[idx, 1])
            r0, r1 = r[idx, 0], r[idx, 1]
            det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
            trial = q[idx] - np.stack([a[:, 1, 1] * r0 - a[:, 0, 1] * r1,
                                       a[:, 0, 0] * r1 - a[:, 1, 0] * r0], axis=-1) / det[:, None]
            trial_r = np.stack(f(trial[:, 0], trial[:, 1]), axis=-1) - target[idx]
            trial_resid = np.max(np.abs(trial_r), axis=-1)
            better = trial_resid < resid[idx]
            moved = idx[better]
            q[moved], r[moved], resid[moved] = trial[better], trial_r[better], trial_resid[better]
            kept[moved] += 1
            live[idx] = better & (trial_resid > tol)
    return q, resid, kept
