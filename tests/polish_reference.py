"""Reference Newton polish for the direct kinematic problem.

This is the polish loop ``cuspforge.dkp`` ran on its candidates before the
batched Newton kernel of ``cuspforge.maps`` took its place.  A test swaps
it back in and requires the solver's output to stay bitwise the same.
"""

import numpy as np

POLISH_STEPS = 12


def polish(family, q, tu, tv):
    """Newton on f(q) = target for flat candidates q (m, 2); a step is taken
    only while it lowers the residual, so a candidate never gets worse."""
    u, v = family.evaluate(q[:, 0], q[:, 1])
    r = np.stack([u - tu, v - tv], axis=-1)
    resid = np.max(np.abs(r), axis=-1)
    active = np.isfinite(resid)
    resid[~active] = np.inf
    for _ in range(POLISH_STEPS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        jac = family.jacobian(q[idx, 0], q[idx, 1])
        r0, r1 = r[idx, 0], r[idx, 1]
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        trial = q[idx] - np.stack([jac[:, 1, 1] * r0 - jac[:, 0, 1] * r1,
                                   jac[:, 0, 0] * r1 - jac[:, 1, 0] * r0], axis=-1) / det[:, None]
        u, v = family.evaluate(trial[:, 0], trial[:, 1])
        trial_r = np.stack([u - tu[idx], v - tv[idx]], axis=-1)
        trial_resid = np.max(np.abs(trial_r), axis=-1)
        better = trial_resid < resid[idx]
        moved = idx[better]
        q[moved], r[moved], resid[moved] = trial[better], trial_r[better], trial_resid[better]
        active[idx[~better]] = False
    return q, resid
