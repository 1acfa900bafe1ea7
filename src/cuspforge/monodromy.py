"""Lifting of closed joint-space loops and the induced solution permutations.

A loop is lifted by continuation: each sample of the loop is reached by
Newton correction from the previous lifted point, with adaptive sub-stepping
whenever Newton works too hard.  A lift that comes too close to the
singularity set is aborted loudly (continuation across a fold silently
merges solution sheets), carrying the partial path for diagnosis.
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
    q = np.array(q, dtype=float)
    for it in range(max_iter):
        u, v = family.evaluate(q[0], q[1])
        r = np.array([float(u) - target[0], float(v) - target[1]])
        if float(np.max(np.abs(r))) <= tol_abs:
            return q, it
        jac = np.asarray(family.jacobian(q[0], q[1]), float)
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if abs(det) < 1e-300:
            return None, it
        dq = np.array([jac[1, 1] * r[0] - jac[0, 1] * r[1],
                       -jac[1, 0] * r[0] + jac[0, 0] * r[1]]) / det
        q -= dq
        if not np.all(np.isfinite(q)):
            return None, it
    u, v = family.evaluate(q[0], q[1])
    if max(abs(float(u) - target[0]), abs(float(v) - target[1])) <= tol_abs:
        return q, max_iter
    return None, max_iter


def lift_loop(family: MapFamily, loop: JointLoop, start, *,
              tol: float = 1e-9) -> LoopLift:
    """Continue the start solution along the loop back to the base fiber.

    Raises :class:`SingularEncounter` (with the partial path attached) when
    any continuation point gets within the clearance threshold of {J = 0},
    and :class:`DivergedLift` when Newton fails despite sub-stepping.
    """
    scales = reference_scales(family)
    jbar = SINGULAR_CLEARANCE_FACTOR * max(1.0, scales.jdet)
    base = loop.base
    tol_abs = tol * (1.0 + max(abs(base.u), abs(base.v)))

    q = np.array([start[0], start[1]], dtype=float)
    u, v = family.evaluate(q[0], q[1])
    if max(abs(float(u) - base.u), abs(float(v) - base.v)) > tol_abs:
        raise PreconditionViolated("start point does not solve the DKP at the loop base")
    if abs(float(family.jdet(q[0], q[1]))) < jbar:
        raise PreconditionViolated("start point is singular; the lift is not defined")

    path = [q.copy()]
    fold_zone = FOLD_ZONE_FACTOR * max(1.0, scales.jdet)

    def singular_abort(q_at, jval, note):
        partial = LoopLift(
            WorkspacePoint(float(start[0]), float(start[1])),
            WorkspacePoint(float(q_at[0]), float(q_at[1])),
            np.array(path), True)
        raise SingularEncounter(
            f"{note}: |J| = {jval:.3e} (clearance {jbar:.3e})", partial=partial)

    def advance(q_from, t_from, t_to, depth):
        target = tuple(t_to)
        cand, iters = _newton_to_target(family, q_from, target, tol_abs)
        if cand is not None:
            jval = abs(float(family.jdet(cand[0], cand[1])))
            if jval < jbar:
                singular_abort(cand, jval, "lift crossed the clearance threshold")
        if cand is not None and iters <= 4:
            return cand
        if depth >= MAX_SUBDIVISION:
            if cand is not None:
                return cand
            jval = abs(float(family.jdet(q_from[0], q_from[1])))
            if jval < fold_zone:
                # The target slipped off the current sheet: the path ran into
                # the fold image rather than genuinely diverging.
                singular_abort(q_from, jval, "lift ran into the fold image")
            raise DivergedLift(
                f"Newton failed near joint point ({target[0]:.6g}, {target[1]:.6g})")
        mid = 0.5 * (np.asarray(t_from) + np.asarray(t_to))
        q_mid = advance(q_from, t_from, mid, depth + 1)
        return advance(q_mid, mid, t_to, depth + 1)

    for i in range(1, len(loop.samples)):
        q = advance(q, loop.samples[i - 1], loop.samples[i], 0)
        path.append(q.copy())

    return LoopLift(
        WorkspacePoint(float(start[0]), float(start[1])),
        WorkspacePoint(float(q[0]), float(q[1])),
        np.array(path), False)


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

    mapping, lifts = [], []
    for i, sol in enumerate(sols):
        lift = lift_loop(family, loop, sol, tol=tol)
        dists = point_distances(family, pts, lift.end)
        j = int(np.argmin(dists))
        if float(dists[j]) > reject_radius:
            raise PermutationInconsistent(
                f"lift of solution {i} ended {dists[j]:.3e} from every base solution")
        mapping.append(j)
        lifts.append(lift)
    if len(set(mapping)) != len(mapping):
        raise PermutationInconsistent("two lifts landed on the same base solution")
    return Permutation(tuple(mapping), list(sols), tuple(lifts))
