"""Lifting of closed joint-space loops and the induced solution permutations.

The loop samples are solved exactly, in one batch, by the elimination core
of :mod:`cuspforge.dkp`, and the roots flagged singular are dropped.  Match
tables pair each root with its nearest root at the next sample; a step is
clean when every such match is much closer than the second-nearest root, no
two roots share a target and the root count stays the same.  Each start is
lifted on its own over the loop's shared tables: a lift on a root follows
the tables by index across the whole run of clean steps from there, and
the run's roots are written into its path in one indexing step.  A lift's
outcome is built at the step that decides it: the finished lift, or the
error with the partial path taken so far; either path has its angle
unwrapped there, so it is continuous across the seam of the canonical angle
window.

Across any other step a lift falls back to continuation, one point at a
time: Newton correction from the previous lifted point, with the step
halved whenever Newton works too hard or stops short, after which the lift
attaches to the roots again.  A lift that comes too close to the
singularity set is aborted loudly (continuation across a fold silently
merges solution sheets), carrying the partial path for diagnosis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dkp import DKP_TOL, SINGULAR_FLAG_FACTOR, _residual, _solve_batch, solve_dkp
from .errors import (
    ConfigError,
    DivergedLift,
    PermutationInconsistent,
    PreconditionViolated,
    SingularEncounter,
)
from .maps import (
    JointPoint,
    MapFamily,
    WorkspacePoint,
    _nearest,
    coord_deltas,
    newton,
    point_distances,
    reference_scales,
)

FOLD_ZONE_FACTOR = 1e-2
DEFAULT_SAMPLES_PER_TURN = 720
MAX_SUBDIVISION = 14
#: Newton steps at most per continuation step.
LIFT_NEWTON_STEPS = 12
#: A root follows its nearest root at the next sample only when that is
#: closer than this share of the distance to the second-nearest.
MATCH_RATIO = 0.25
#: Loop segments that ``loop_clearance`` measures against a curve at once.
CLEARANCE_BLOCK = 32


@dataclass(frozen=True)
class JointLoop:
    """A closed joint-space path given by ordered samples (first == last)."""

    samples: np.ndarray
    min_singular_clearance: float = float("nan")

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 2 or len(samples) < 3:
            raise ConfigError("loop needs at least 3 samples of shape (n, 2)")
        if not np.all(np.isfinite(samples)):
            raise ConfigError("loop samples must be finite")
        if not np.array_equal(samples[0], samples[-1]):
            raise ConfigError("loop must be closed: first and last samples must coincide")
        object.__setattr__(self, "samples", samples)

    @property
    def base(self) -> JointPoint:
        return JointPoint(float(self.samples[0, 0]), float(self.samples[0, 1]))

    def refined(self, factor: int) -> "JointLoop":
        """Insert factor-1 linear subdivisions between consecutive samples."""
        a, b = self.samples[:-1, None], self.samples[1:, None]
        steps = a + (b - a) * (np.arange(1, factor + 1) / factor)[:, None]
        out = np.concatenate([self.samples[:1], steps.reshape(-1, 2)])
        out[-1] = self.samples[0]
        return JointLoop(out, self.min_singular_clearance)


def circle_loop(center, radius, *, turns: int = 1,
                samples_per_turn: int = DEFAULT_SAMPLES_PER_TURN,
                start_angle: float = 0.0) -> JointLoop:
    """Parametric circle loop; the closure sample repeats the start exactly."""
    if not 0.0 < radius < math.inf:
        raise ConfigError("radius must be positive and finite")
    if turns < 1 or samples_per_turn < 2:
        raise ConfigError("turns must be at least 1, and samples per turn at least 2")
    n = turns * samples_per_turn
    theta = start_angle + np.linspace(0.0, turns * 2.0 * math.pi, n + 1)
    samples = np.column_stack([
        center[0] + radius * np.cos(theta),
        center[1] + radius * np.sin(theta),
    ])
    samples[-1] = samples[0]
    return JointLoop(samples)


def _point_segment_distance(p, v):
    """Distance from each of the points p (k, 2) to each segment of the
    polyline v (s, 2): (k, s - 1)."""
    (ax, ay), (bx, by) = v[:-1].T, np.diff(v, axis=0).T
    dx, dy = p[:, None, 0] - ax, p[:, None, 1] - ay
    t = np.clip((dx * bx + dy * by) / np.maximum(bx * bx + by * by, 1e-300), 0.0, 1.0)
    return np.sqrt((dx - t * bx) ** 2 + (dy - t * by) ** 2)


def loop_clearance(loop: JointLoop, joint_curves) -> JointLoop:
    """Attach the smallest distance between a segment of the loop and one of
    the image curves: 0 where the loop crosses a curve.

    The loop is measured CLEARANCE_BLOCK segments at a time, so no
    temporary holds more than that many times a curve's segments."""
    p, best = loop.samples, math.inf
    curves = [poly.vertices for poly in joint_curves.curves if len(poly.vertices) > 1]
    for i in range(0, len(p) - 1, CLEARANCE_BLOCK):
        q = p[i:i + CLEARANCE_BLOCK + 1]
        (px, py), (rx, ry) = q[:-1].T[:, :, None], np.diff(q, axis=0).T[:, :, None]
        for v in curves:
            # q + s r meets v + t w where 0 <= s, t <= 1; parallel segments
            # give NaN, and meet only where an end point lies on the other.
            (wx, wy), dx, dy = np.diff(v, axis=0).T, v[:-1, 0] - px, v[:-1, 1] - py
            with np.errstate(divide="ignore", invalid="ignore"):
                den = rx * wy - ry * wx
                s = (dx * wy - dy * wx) / den
                t = (dx * ry - dy * rx) / den
            if np.any((s >= 0.0) & (s <= 1.0) & (t >= 0.0) & (t <= 1.0)):
                return JointLoop(p, 0.0)
            best = min(best, float(np.min(_point_segment_distance(q, v))),
                       float(np.min(_point_segment_distance(v, q))))
    return JointLoop(p, best)


@dataclass(frozen=True)
class LoopLift:
    """Result of lifting one loop from one start solution: ``path`` is the
    lifted point at each loop sample, with a continuous angle.  A lift that
    met {J = 0} is only ever the ``partial`` of a SingularEncounter."""

    start: WorkspacePoint
    end: WorkspacePoint
    path: np.ndarray = field(repr=False)


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


# perfbench/layers.py counts the lift steps by patching this function by name,
# so it cannot be folded into its callers without a change to the harness.
def _newton_to_target(family, q, target, tol_abs):
    """Newton on (u, v) = target from the (k, 2) rows of q, by the kernel of
    :mod:`cuspforge.maps`, for at most LIFT_NEWTON_STEPS steps.  Returns the
    last iterates, the steps each row kept and the mask of the rows that
    converged."""
    q, resid, iters = newton(family.evaluate, family.jacobian, q, target, tol_abs,
                             LIFT_NEWTON_STEPS)
    return q, iters, resid <= tol_abs


def _root_tables(family, samples):
    """The real non-singular roots at every loop sample (n, m, 2, NaN rows
    absent), and for every step k -> k + 1 the index at k + 1 of each root's
    nearest root (n - 1, m) and whether the step is clean: every root's
    match passes the ratio test, no two share a target and the root count
    does not change.  All samples are solved and matched at once."""
    keep, q, _, flags = _solve_batch(family, samples)
    roots = np.where((keep & ~flags)[..., None], q, np.nan)
    here = ~np.isnan(roots[..., 0])
    near, ratio = _nearest(family, roots[:-1], roots[1:])
    sure = ratio < MATCH_RATIO
    pair = here[:-1, :, None] & here[:-1, None, :] & ~np.eye(roots.shape[1], dtype=bool)
    clean = (np.all(sure | ~here[:-1], axis=1)
             & ~np.any(pair & (near[:, :, None] == near[:, None, :]), axis=(1, 2))
             & (np.sum(here[:-1], axis=1) == np.sum(here[1:], axis=1)))
    return roots, near, clean


def _unwrapped(family, path):
    """A copy of the lifted path (k, 2) with a continuous angle: the roots
    come with canonical angles, and summing the wrapped steps undoes that."""
    path = path.copy()
    if family.periodic:
        steps = coord_deltas(family, path[1:], path[:-1])[:, 0]
        path[1:, 0] = path[0, 0] + np.cumsum(steps)
    return path


def _continue(family, q, t_from, t_to, tol_abs, jbar, fold_zone, depth=0):
    """Continue the lifted point q (2,) from t_from to t_to by Newton, halving
    the step up to MAX_SUBDIVISION times while Newton takes more than 4 steps
    or fails.  Returns the point reached, the (note, point, |J|) of a singular
    encounter (|J| < jbar, or a failure at the last depth from inside the
    fold zone, which the target slipped off), or a :class:`DivergedLift`."""
    cand, iters, ok = _newton_to_target(family, q[None], tuple(t_to), tol_abs)
    if ok[0]:
        jval = abs(float(family.jdet(cand[:, 0], cand[:, 1])[0]))
        if jval < jbar:
            return "lift crossed the clearance threshold", cand[0], jval
        if iters[0] <= 4 or depth >= MAX_SUBDIVISION:
            return cand[0]
    if depth >= MAX_SUBDIVISION:
        jfrom = abs(float(family.jdet(q[0], q[1])))
        if jfrom < fold_zone:
            return "lift ran into the fold image", q, jfrom
        return DivergedLift(f"Newton failed near joint point ({t_to[0]:.6g}, {t_to[1]:.6g})")
    mid = 0.5 * (np.asarray(t_from) + np.asarray(t_to))
    reached = _continue(family, q, t_from, mid, tol_abs, jbar, fold_zone, depth + 1)
    if not isinstance(reached, np.ndarray):
        return reached
    return _continue(family, reached, mid, t_to, tol_abs, jbar, fold_zone, depth + 1)


def _lift_batch(family: MapFamily, loop: JointLoop, starts) -> list:
    """Continue every start solution along the loop, each on its own.

    A lift on a root crosses the whole run of clean steps of the match
    tables from there at once.  Across any other step it is continued by
    :func:`_continue`, and then attaches to a root again.  Returns, for each
    start in order, its :class:`LoopLift` or the error that ended it (with
    the partial path where there is one).
    """
    scales = reference_scales(family)
    jbar = SINGULAR_FLAG_FACTOR * max(1.0, scales.jdet)
    fold_zone = FOLD_ZONE_FACTOR * max(1.0, scales.jdet)
    base = loop.base
    tol_abs = DKP_TOL * (1.0 + max(abs(base.u), abs(base.v)))
    samples = loop.samples
    roots, nxt, clean = _root_tables(family, samples)
    # The step that ends the run of clean steps from each step on.
    run_end = np.append(np.flatnonzero(~clean) + 1, len(samples))

    def attach(q, k):
        """The root at sample k that q is on, -1 for none."""
        near, ratio = _nearest(family, q[None], roots[k])
        return int(near[0]) if ratio[0] < MATCH_RATIO else -1

    def lift(q):
        begin = WorkspacePoint(float(q[0]), float(q[1]))
        if not _residual(family, q, base.u, base.v) <= tol_abs:
            return PreconditionViolated("start point does not solve the DKP at the loop base")
        if abs(family.jdet(q[0], q[1])) < jbar:
            return PreconditionViolated("start point is singular; the lift is not defined")
        path = np.full(samples.shape, np.nan)
        path[0] = q
        at, step = attach(q, 0), 1
        while step < len(samples):
            if at >= 0 and clean[step - 1]:
                end = run_end[np.searchsorted(run_end, step)]
                ats = np.empty(end - step, dtype=int)
                for k in range(step, end):
                    ats[k - step] = at = nxt[k - 1, at]
                path[step:end] = roots[np.arange(step, end), ats]
                step = end
                continue
            reached = _continue(family, path[step - 1], samples[step - 1], samples[step],
                                tol_abs, jbar, fold_zone)
            if isinstance(reached, DivergedLift):
                return reached
            if not isinstance(reached, np.ndarray):
                # A lift that meets {J = 0} stops here, at the point it reached.
                note, q_at, jhit = reached
                partial = _unwrapped(family, path[:step])
                end = partial[-1] + coord_deltas(family, q_at, partial[-1])
                return SingularEncounter(
                    f"{note}: |J| = {jhit:.3e} (clearance {jbar:.3e})",
                    partial=LoopLift(begin, WorkspacePoint(*map(float, end)), partial))
            path[step] = reached
            at, step = attach(reached, step), step + 1
        path = _unwrapped(family, path)
        return LoopLift(begin, WorkspacePoint(*map(float, path[-1])), path)

    return [lift(np.array([s[0], s[1]], dtype=float)) for s in starts]


def lift_loop(family: MapFamily, loop: JointLoop, start) -> LoopLift:
    """Continue the start solution along the loop back to the base fiber.

    Raises :class:`SingularEncounter` (with the partial path attached) when
    any continuation point gets within the clearance threshold of {J = 0},
    and :class:`DivergedLift` when Newton fails despite sub-stepping.
    """
    (lift,) = _lift_batch(family, loop, [start])
    if isinstance(lift, Exception):
        raise lift
    return lift


def loop_permutation(family: MapFamily, loop: JointLoop) -> Permutation:
    """Lift every real solution of the loop base (``solve_dkp`` with no box)
    around the loop and match the endpoints; the lifts are kept in the result.

    Endpoints are matched to base solutions by nearest neighbor; a match is
    rejected (PermutationInconsistent) when the nearest distance exceeds half
    the minimum pairwise distance between base solutions, or when two lifts
    land on the same solution.
    """
    sols = solve_dkp(family, loop.base).solutions
    if len(sols) == 0:
        raise PreconditionViolated("the loop base has no DKP solutions")
    pts = np.array([[s.phi, s.y] for s in sols])

    pairwise = point_distances(family, pts[:, None, :], pts[None, :, :])
    np.fill_diagonal(pairwise, math.inf)
    reject_radius = 0.5 * float(np.min(pairwise))

    lifts = _lift_batch(family, loop, sols)
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
