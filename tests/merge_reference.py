"""Reference merge of coinciding solutions for the direct kinematic problem.

This is the all-pairs ``_merge`` that ``cuspforge.dkp`` ran on every target
before it ran its cluster work only on the targets with two accepted
solutions within ``MERGE_RADIUS``.  A test swaps it back in and requires the
solver's output to stay bitwise the same under the mask of kept solutions.
"""

import math

import numpy as np
import pytest

from cuspforge import dkp
from cuspforge.dkp import MERGE_RADIUS, _lift, _residual
from cuspforge.maps import coord_deltas


def merge(family, q, resid, ok, tu, tv, tol_abs, jbar):
    """Mask of one solution per cluster (n, m), and for it the representative
    point, its residual and whether it is singular, from the pairwise
    closure of every row's accepted solutions."""
    n, m = ok.shape
    if m == 0:
        return ok, q, resid, ok
    diag = np.eye(m, dtype=bool)
    delta = coord_deltas(family, q[:, :, None, :], q[:, None, :, :])
    near = ok[:, :, None] & ok[:, None, :] & (np.max(np.abs(delta), axis=-1) < MERGE_RADIUS)
    b, i, j = np.nonzero(near & ~diag)
    mid = q[b, j] + 0.5 * delta[b, i, j]
    lifted = _lift(family, mid, tu[b], tv[b])
    mid_resid = _residual(family, mid, tu[b], tv[b])
    lifted_resid = _residual(family, lifted, tu[b], tv[b])
    use_lifted = lifted_resid < mid_resid

    between = np.repeat(q[:, :, None, :], m, axis=2)
    between_resid = np.where(diag, resid[:, :, None], np.inf)
    between[b, i, j] = np.where(use_lifted[:, None], lifted, mid)
    between_resid[b, i, j] = np.where(use_lifted, lifted_resid, mid_resid)
    link = between_resid < tol_abs
    reach = link | np.swapaxes(link, 1, 2)
    for _ in range(math.ceil(math.log2(m))):
        reach = np.matmul(reach.astype(np.int8), reach.astype(np.int8)) > 0
    first = ok & (np.argmax(reach, axis=-1) == np.arange(m))

    jdet = np.full((n, m, m), np.inf)
    jdet[link] = np.abs(family.jdet(between[link][:, 0], between[link][:, 1]))
    at = np.arange(n)[:, None]
    closest = np.argmin(jdet, axis=-1)
    least_j = np.min(jdet, axis=-1)
    singular = np.argmin(np.where(reach, least_j[:, None, :], np.inf), axis=-1)
    best = np.argmin(np.where(reach, resid[:, None, :], np.inf), axis=-1)
    k = closest[at, singular]
    flags = least_j[at, singular] < jbar
    rep = np.where(flags[..., None], between[at, singular, k], q[at, best])
    rep_resid = np.where(flags, between_resid[at, singular, k], resid[at, best])
    return first, rep, rep_resid, flags


def assert_merge_matches_reference(family, targets):
    """_solve_batch keeps the same solutions with ``merge`` swapped in, and
    gives bitwise the same points, residuals and flags under the keep mask.
    Returns the solver's own output."""
    targets = np.array(targets, dtype=float)
    got = dkp._solve_batch(family, targets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dkp, "_merge", merge)
        want = dkp._solve_batch(family, targets)
    keep = got[0]
    assert keep.shape == want[0].shape and np.array_equal(keep, want[0])
    for g, w in zip(got[1:], want[1:], strict=True):
        assert g[keep].tobytes() == w[keep].tobytes()
    return got
