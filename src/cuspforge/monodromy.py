"""Lifting of closed joint-space loops and the induced solution permutations.

A loop is lifted by continuation: each sample of the loop is reached by
Newton correction from the previous lifted point, with adaptive sub-stepping
whenever Newton works too hard.  A lift that comes too close to the
singularity set is aborted loudly (continuation across a fold silently
merges solution sheets), carrying the partial path for diagnosis.  The base
solutions of a loop are lifted together, one array row each; every row
converges, sub-steps and fails on its own, exactly as a lift of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dkp import DkpSolutionSet, solve_dkp
from .errors import (
    DivergedLift,
    PermutationInconsistent,
    PreconditionViolated,
    SingularEncounter,
)
from .maps import (
    JointPoint,
    MapFamily,
    WorkspacePoint,
    point_distances,
    reference_scales,
)

SINGULAR_CLEARANCE_FACTOR = 1e-6
FOLD_ZONE_FACTOR = 1e-2
DEFAULT_SAMPLES_PER_TURN = 720
MAX_SUBDIVISION = 14


@dataclass(frozen=True)
class JointLoop:
    """A closed joint-space path given by ordered samples (first == last)."""

    samples: np.ndarray
    min_singular_clearance: float = float("nan")

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 2 or len(samples) < 3:
            raise ValueError("loop needs at least 3 samples of shape (n, 2)")
        if not np.array_equal(samples[0], samples[-1]):
            raise ValueError("loop must be closed: first and last samples must coincide")
        object.__setattr__(self, "samples", samples)

    @property
    def base(self) -> JointPoint:
        return JointPoint(float(self.samples[0, 0]), float(self.samples[0, 1]))

    def refined(self, factor: int) -> "JointLoop":
        """Insert factor-1 linear subdivisions between consecutive samples."""
        pts = [self.samples[0]]
        for a, b in zip(self.samples[:-1], self.samples[1:]):
            for k in range(1, factor + 1):
                pts.append(a + (b - a) * (k / factor))
        out = np.array(pts)
        out[-1] = self.samples[0]
        return JointLoop(out, self.min_singular_clearance)


def circle_loop(center, radius, *, turns: int = 1,
                samples_per_turn: int = DEFAULT_SAMPLES_PER_TURN,
                start_angle: float = 0.0) -> JointLoop:
    """Parametric circle loop; the closure sample repeats the start exactly."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if turns < 1:
        raise ValueError("turns must be at least 1")
    n = turns * samples_per_turn
    theta = start_angle + np.linspace(0.0, turns * 2.0 * math.pi, n + 1)
    samples = np.column_stack([
        center[0] + radius * np.cos(theta),
        center[1] + radius * np.sin(theta),
    ])
    samples[-1] = samples[0]
    return JointLoop(samples)


def loop_clearance(loop: JointLoop, joint_curves) -> JointLoop:
    """Attach the smallest distance from the loop to the image curves."""
    best = math.inf
    for poly in joint_curves.curves:
        v = poly.vertices
        if len(v) < 2:
            continue
        p = loop.samples[:, None, :]
        a, b = v[None, :-1, :], v[None, 1:, :]
        ab = b - a
        denom = np.maximum(np.sum(ab * ab, axis=-1), 1e-300)
        t = np.clip(np.sum((p - a) * ab, axis=-1) / denom, 0.0, 1.0)
        proj = a + t[..., None] * ab
        best = min(best, float(np.min(np.linalg.norm(p - proj, axis=-1))))
    return JointLoop(loop.samples, best)


@dataclass(frozen=True)
class LoopLift:
    """Result of lifting one loop from one start solution."""

    start: WorkspacePoint
    end: WorkspacePoint
    path: np.ndarray = field(repr=False)
    crossed_singularity: bool


@dataclass(frozen=True)
class Permutation:
    """Permutation induced on the base solutions by a loop.

    ``mapping[i]`` is the index of the solution that solution i lands on,
    and ``lifts[i]`` the lift that took it there (empty for a composition).
    """

    mapping: tuple[int, ...]
    solutions: list[WorkspacePoint]
    lifts: tuple[LoopLift, ...] = field(default=(), compare=False, repr=False)

    def is_identity(self) -> bool:
        return all(m == i for i, m in enumerate(self.mapping))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other (apply ``other`` first)."""
        if len(self.mapping) != len(other.mapping):
            raise ValueError("permutation sizes differ")
        return Permutation(tuple(self.mapping[m] for m in other.mapping), self.solutions)

    def cycles(self) -> list[tuple[int, ...]]:
        seen, out = set(), []
        for i in range(len(self.mapping)):
            if i in seen:
                continue
            cyc, j = [], i
            while j not in seen:
                seen.add(j)
                cyc.append(j)
                j = self.mapping[j]
            out.append(tuple(cyc))
        return out


def _newton_to_target(family, q, target, tol_abs, max_iter=12):
    """Newton on (u, v) = target from the (k, 2) rows of q, each row stopping
    on its own.  Returns the last iterates, the iteration count at which each
    row converged and the mask of the rows that converged."""
    q = np.array(q, dtype=float)
    iters = np.full(len(q), max_iter)
    live = np.ones(len(q), dtype=bool)
    ok = ~live
    for it in range(max_iter + 1):
        u, v = family.evaluate(q[:, 0], q[:, 1])
        r0, r1 = u - target[0], v - target[1]
        hit = live & (np.maximum(np.abs(r0), np.abs(r1)) <= tol_abs)
        ok, live = ok | hit, live & ~hit
        iters[hit] = it
        if it == max_iter or not live.any():
            break
        jac = family.jacobian(q[:, 0], q[:, 1])
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        live &= ~(np.abs(det) < 1e-300)
        det = np.where(live, det, 1.0)
        nxt = np.column_stack([q[:, 0] - (jac[:, 1, 1] * r0 - jac[:, 0, 1] * r1) / det,
                               q[:, 1] - (-jac[:, 1, 0] * r0 + jac[:, 0, 0] * r1) / det])
        # A row whose step leaves the finite numbers fails where it stands.
        live &= np.all(np.isfinite(nxt), axis=1)
        q = np.where(live[:, None], nxt, q)
    return q, iters, ok


def _lift_batch(family: MapFamily, loop: JointLoop, starts, tol: float = 1e-9) -> list:
    """Continue every start solution along the loop, all rows together.

    Each row runs the same Newton continuation, sub-stepping and checks as a
    lift of its own.  Returns, for each start in order, its :class:`LoopLift`
    or the error that ended it (with the partial path where there is one).
    """
    scales = reference_scales(family)
    jbar = SINGULAR_CLEARANCE_FACTOR * max(1.0, scales.jdet)
    fold_zone = FOLD_ZONE_FACTOR * max(1.0, scales.jdet)
    base = loop.base
    tol_abs = tol * (1.0 + max(abs(base.u), abs(base.v)))

    q = np.array([[s[0], s[1]] for s in starts], dtype=float).reshape(-1, 2)
    begin = [WorkspacePoint(float(p[0]), float(p[1])) for p in q]
    errors: list = [None] * len(q)
    u, v = family.evaluate(q[:, 0], q[:, 1])
    off_base = np.maximum(np.abs(u - base.u), np.abs(v - base.v)) > tol_abs
    singular = np.abs(family.jdet(q[:, 0], q[:, 1])) < jbar
    rejected = off_base | singular
    for row in np.flatnonzero(rejected):
        errors[row] = PreconditionViolated(
            "start point does not solve the DKP at the loop base" if off_base[row]
            else "start point is singular; the lift is not defined")

    paths = np.empty((len(loop.samples),) + q.shape)
    paths[0] = q
    step = 0

    def singular_abort(row, q_at, jval, note):
        partial = LoopLift(begin[row], WorkspacePoint(float(q_at[0]), float(q_at[1])),
                           paths[:step, row].copy(), True)
        errors[row] = SingularEncounter(
            f"{note}: |J| = {jval:.3e} (clearance {jbar:.3e})", partial=partial)

    def advance(rows, q_from, t_from, t_to, depth):
        # Returns the rows that reach t_to and their points there.
        if not rows.size:
            return rows, q_from
        target = tuple(t_to)
        cand, iters, ok = _newton_to_target(family, q_from, target, tol_abs)
        jval = np.full(len(rows), math.inf)
        if ok.any():
            jval[ok] = np.abs(family.jdet(cand[ok, 0], cand[ok, 1]))
        crossed = jval < jbar
        for r in np.flatnonzero(crossed):
            singular_abort(rows[r], cand[r], float(jval[r]), "lift crossed the clearance threshold")
        last = depth >= MAX_SUBDIVISION
        done = ok & ~crossed & ((iters <= 4) | last)
        rest = ~done & ~crossed
        if last:
            for r in np.flatnonzero(rest):
                jfrom = abs(float(family.jdet(q_from[r, 0], q_from[r, 1])))
                if jfrom < fold_zone:
                    # The target slipped off the current sheet: the path ran
                    # into the fold image rather than genuinely diverging.
                    singular_abort(rows[r], q_from[r], jfrom, "lift ran into the fold image")
                else:
                    errors[rows[r]] = DivergedLift(
                        f"Newton failed near joint point ({target[0]:.6g}, {target[1]:.6g})")
        if last or not rest.any():
            return rows[done], cand[done]
        mid = 0.5 * (np.asarray(t_from) + np.asarray(t_to))
        mid_rows, q_mid = advance(rows[rest], q_from[rest], t_from, mid, depth + 1)
        end_rows, q_end = advance(mid_rows, q_mid, mid, t_to, depth + 1)
        return np.concatenate([rows[done], end_rows]), np.concatenate([cand[done], q_end])

    rows = np.flatnonzero(~rejected)
    q = q[rows]
    for step in range(1, len(loop.samples)):
        rows, q = advance(rows, q, loop.samples[step - 1], loop.samples[step], 0)
        paths[step, rows] = q

    return [LoopLift(begin[r], WorkspacePoint(*(float(w) for w in paths[-1, r])),
                     paths[:, r].copy(), False) if errors[r] is None else errors[r]
            for r in range(len(begin))]


def lift_loop(family: MapFamily, loop: JointLoop, start, *,
              tol: float = 1e-9) -> LoopLift:
    """Continue the start solution along the loop back to the base fiber.

    Raises :class:`SingularEncounter` (with the partial path attached) when
    any continuation point gets within the clearance threshold of {J = 0},
    and :class:`DivergedLift` when Newton fails despite sub-stepping.
    """
    (lift,) = _lift_batch(family, loop, [start], tol=tol)
    if isinstance(lift, Exception):
        raise lift
    return lift


def loop_permutation(family: MapFamily, loop: JointLoop, *,
                     solutions: DkpSolutionSet | None = None,
                     tol: float = 1e-9, **dkp_kwargs) -> Permutation:
    """Lift every base solution around the loop and match the endpoints;
    the lifts are kept in the result.

    Endpoints are matched to base solutions by nearest neighbor; a match is
    rejected (PermutationInconsistent) when the nearest distance exceeds half
    the minimum pairwise distance between base solutions, or when two lifts
    land on the same solution.
    """
    if solutions is None:
        solutions = solve_dkp(family, loop.base, **dkp_kwargs)
    sols = solutions.solutions
    if len(sols) == 0:
        raise PreconditionViolated("the loop base has no DKP solutions")
    pts = np.array([[s.phi, s.y] for s in sols])

    pairwise = point_distances(family, pts[:, None, :], pts[None, :, :])
    np.fill_diagonal(pairwise, math.inf)
    reject_radius = 0.5 * float(np.min(pairwise))

    lifts = _lift_batch(family, loop, sols, tol=tol)
    mapping = []
    for i, lift in enumerate(lifts):
        # The lowest-index failure is raised, as a lift of its own would.
        if isinstance(lift, Exception):
            raise lift
        dists = point_distances(family, pts, lift.end)
        j = int(np.argmin(dists))
        if float(dists[j]) > reject_radius:
            raise PermutationInconsistent(
                f"lift of solution {i} ended {dists[j]:.3e} from every base solution")
        mapping.append(j)
    if len(set(mapping)) != len(mapping):
        raise PermutationInconsistent("two lifts landed on the same base solution")
    return Permutation(tuple(mapping), list(sols), tuple(lifts))
