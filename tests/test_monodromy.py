import math
import tracemalloc
import zlib

import numpy as np
import pytest

from cuspforge import (
    CuspforgeError,
    DivergedLift,
    JointLoop,
    LoopLift,
    PermutationInconsistent,
    PreconditionViolated,
    SingularEncounter,
    circle_loop,
    eval_map,
    image_curves,
    lift_loop,
    loop_clearance,
    loop_permutation,
    make_family,
    monodromy,
    solve_dkp,
    trace_singularity_curves,
)
from cuspforge.cli import main
from cuspforge.maps import point_distances
from merge_reference import assert_merge_matches_reference


@pytest.fixture(scope="module")
def inline_loop_setup(exact_family, exact_trace):
    jcs = image_curves(exact_family, exact_trace)
    pts = np.concatenate([c.vertices for c in jcs.curves])
    clearance = float(np.min(np.linalg.norm(pts - np.array([81.0, 144.0]), axis=1)))
    loop = loop_clearance(circle_loop((81.0, 144.0), 0.4 * clearance), jcs)
    return exact_family, loop


class TestInlineManipulatorMonodromy:
    def test_loop_clears_the_image_curves(self, inline_loop_setup):
        _, loop = inline_loop_setup
        assert loop.min_singular_clearance > 1.0

    def test_permutation_swaps_the_adjacent_pair(self, inline_loop_setup):
        family, loop = inline_loop_setup
        perm = loop_permutation(family, loop)
        assert len(perm.solutions) == 4
        assert not perm.is_identity()
        assert perm.compose(perm).is_identity()
        sizes = sorted(len(c) for c in perm.cycles())
        assert sizes == [1, 1, 2]

    def test_double_traversal_returns_to_start(self, inline_loop_setup):
        family, loop = inline_loop_setup
        perm = loop_permutation(family, loop)
        moved = next(i for i, m in enumerate(perm.mapping) if m != i)
        start = perm.solutions[moved]
        double = circle_loop((81.0, 144.0),
                             float(np.linalg.norm(loop.samples[0] - [81.0, 144.0])),
                             turns=2)
        lift = lift_loop(family, double, start)
        assert math.hypot(lift.end.phi - start.phi, lift.end.y - start.y) < 1e-6
        assert lift.start == start

    def test_lift_tracks_every_sample(self, inline_loop_setup):
        family, loop = inline_loop_setup
        start = solve_dkp(family, loop.base).solutions[0]
        lift = lift_loop(family, loop, start)
        assert len(lift.path) == len(loop.samples)
        u, v = family.evaluate(lift.path[:, 0], lift.path[:, 1])
        resid = np.maximum(np.abs(u - loop.samples[:, 0]),
                           np.abs(v - loop.samples[:, 1]))
        assert np.max(resid) < 1e-9 * (1.0 + 144.0)

    def test_refining_the_loop_keeps_the_permutation(self, inline_loop_setup):
        family, loop = inline_loop_setup
        perm = loop_permutation(family, loop)
        refined = loop_permutation(family, loop.refined(4))
        assert perm.mapping == refined.mapping

    def test_forward_then_backward_is_identity(self, inline_loop_setup):
        family, loop = inline_loop_setup
        back = JointLoop(loop.samples[::-1].copy())
        perm = loop_permutation(family, loop)
        perm_back = loop_permutation(family, back)
        assert perm_back.compose(perm).is_identity()

    def test_concatenation_composes_permutations(self, inline_loop_setup):
        family, loop = inline_loop_setup
        glued = JointLoop(np.vstack([loop.samples[:-1], loop.samples]))
        perm = loop_permutation(family, loop)
        perm_glued = loop_permutation(family, glued)
        assert perm_glued.mapping == perm.compose(perm).mapping

    def test_contractible_loop_is_identity(self, exact_family):
        base_point = eval_map(exact_family, (0.6, 1.0))
        loop = circle_loop(tuple(np.asarray(base_point) + [2.0, 0.0]), 2.0,
                           start_angle=math.pi, samples_per_turn=180)
        perm = loop_permutation(exact_family, loop)
        assert perm.is_identity()


@pytest.fixture(scope="module")
def deltoid_loop(square_family, square_trace):
    jcs = image_curves(square_family, square_trace)
    deltoid = jcs.curves[0].vertices
    centroid = deltoid.mean(axis=0)
    radius = 1.2 * float(np.max(np.linalg.norm(deltoid - centroid, axis=1)))
    return loop_clearance(circle_loop(tuple(centroid), radius), jcs)


class TestNormalFormMonodromy:
    def test_complex_square_deltoid_swaps_outer_preimages(self, square_family,
                                                          deltoid_loop):
        loop = deltoid_loop
        assert loop.min_singular_clearance > 0.0
        perm = loop_permutation(square_family, loop)
        # Every real solution takes part; both lie in the window |x|, |y| <= 10.
        assert np.all(np.abs([tuple(s) for s in perm.solutions]) <= 10.0)
        assert len(perm.solutions) == 2
        assert perm.mapping == (1, 0)

    def test_quarto_loop_around_origin_hits_the_fold(self):
        fam = make_family("quarto_unfolded", a=0.0, b=0.0)
        loop = circle_loop((0.0, 0.0), math.sqrt(2.0), start_angle=math.pi / 4,
                           samples_per_turn=360)
        with pytest.raises(SingularEncounter) as err:
            lift_loop(fam, loop, (1.0, 1.0))
        assert isinstance(err.value.partial, LoopLift)


def assert_same_lifts(family, loop, perm):
    for sol, lift in zip(perm.solutions, perm.lifts):
        single = lift_loop(family, loop, sol)
        assert (lift.start, lift.end) == (single.start, single.end)
        assert lift.path.tobytes() == single.path.tobytes()


class TestBatchedLifts:
    def test_four_solutions_lift_as_one_start_lifts(self, inline_loop_setup):
        family, loop = inline_loop_setup
        perm = loop_permutation(family, loop)
        assert len(perm.lifts) == 4
        assert_same_lifts(family, loop, perm)

    def test_two_solutions_lift_as_one_start_lifts(self, square_family, deltoid_loop):
        perm = loop_permutation(square_family, deltoid_loop)
        assert len(perm.lifts) == 2
        assert_same_lifts(square_family, deltoid_loop, perm)

    def test_failure_is_the_lowest_failing_one_start_lift(self, square_family):
        # The loop crosses a fold edge of the deltoid: two of the four base
        # solutions meet there and two lift cleanly.
        center = eval_map(square_family, (2.0 * math.cos(1.3), 2.0 * math.sin(1.3)))
        loop = circle_loop(tuple(center), 0.5, start_angle=math.pi / 2, samples_per_turn=360)
        errors = []
        for sol in solve_dkp(square_family, loop.base).solutions:
            try:
                lift_loop(square_family, loop, sol)
                errors.append(None)
            except SingularEncounter as exc:
                errors.append(exc)
        assert errors[0] is None and any(e is None for e in errors[2:])
        first = next(e for e in errors if e is not None)
        with pytest.raises(SingularEncounter) as err:
            loop_permutation(square_family, loop)
        assert str(err.value) == str(first)
        got, want = err.value.partial, first.partial
        assert (got.start, got.end) == (want.start, want.end)
        assert got.path.tobytes() == want.path.tobytes()


def newton_only(fn, *args, **kwargs):
    """fn with the match ratio at 0, which sends every step of every lift
    through the Newton continuation."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monodromy, "MATCH_RATIO", 0.0)
        return fn(*args, **kwargs)


def outcome(family, loop):
    try:
        return loop_permutation(family, loop)
    except CuspforgeError as exc:
        return exc


def assert_close_lifts(got, want):
    assert got.start == want.start
    assert got.path.shape == want.path.shape
    assert np.max(np.abs(got.path - want.path)) < 1e-7
    assert np.max(np.abs(np.subtract(got.end, want.end))) < 1e-7


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, Exception):
        # |J| in a SingularEncounter message is read at a Newton iterate.
        assert str(got).split(":")[0] == str(want).split(":")[0]
        if getattr(want, "partial", None) is not None:
            assert_close_lifts(got.partial, want.partial)
        return
    assert got.mapping == want.mapping
    for a, b in zip(got.lifts, want.lifts, strict=True):
        assert_close_lifts(a, b)


@pytest.fixture(scope="module")
def paper_loops(tmp_path_factory):
    """The loops that reproduce-paper lifts, and its count of Newton solves."""
    loops, solves = [], []
    lift_batch, to_target = monodromy._lift_batch, monodromy._newton_to_target

    def recording(family, loop, starts, **kwargs):
        loops.append((family, loop))
        return lift_batch(family, loop, starts, **kwargs)

    def counting(*args, **kwargs):
        solves.append(1)
        return to_target(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monodromy, "_lift_batch", recording)
        mp.setattr(monodromy, "_newton_to_target", counting)
        assert main(["reproduce-paper", "--out", str(tmp_path_factory.mktemp("paper"))]) == 0
    return loops, len(solves)


def random_circles(family, count=4):
    """Seeded circles over the image of the family's reach box, with the
    image curves."""
    jcs = image_curves(family, trace_singularity_curves(family))
    pts = np.concatenate([c.vertices for c in jcs.curves])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    rng = np.random.default_rng(zlib.crc32(family.kind.encode()))
    for _ in range(count):
        center = lo + (hi - lo) * rng.uniform(0.2, 0.8, 2)
        radius = float(np.max(hi - lo)) * rng.uniform(0.05, 0.3)
        yield loop_clearance(circle_loop(tuple(center), radius, samples_per_turn=360), jcs), jcs


def crosses(loop, jcs):
    """Whether a segment of the loop crosses a segment of an image curve:
    each segment's end points lie strictly on opposite sides of the other."""
    def side(a, b, c):
        return np.sign((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                       - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))

    p, q = loop.samples[:-1, None], loop.samples[1:, None]
    for curve in jcs.curves:
        a, b = curve.vertices[None, :-1], curve.vertices[None, 1:]
        if np.any((side(p, q, a) * side(p, q, b) < 0) & (side(a, b, p) * side(a, b, q) < 0)):
            return True
    return False


class TestExactRootLifts:
    """Lifts that follow the exact roots of the loop samples agree with the
    Newton continuation: the same permutations and errors, paths within
    1e-7."""

    def test_paper_loops_make_no_newton_solve(self, paper_loops):
        loops, solves = paper_loops
        assert len(loops) == 3
        assert solves == 0

    def test_paper_lifts_step_the_match_tables(self, paper_loops):
        # Every step of the paper loops is clean, so each lift is the chain
        # of nearest-root matches from its start's root, one sample at a time.
        loops, _ = paper_loops
        for family, loop in loops:
            perm = loop_permutation(family, loop)
            roots, nxt, clean = monodromy._root_tables(family, loop.samples)
            assert clean.all()
            for lift in perm.lifts:
                at = int(np.nanargmin(point_distances(family, roots[0], lift.path[0])))
                want = [roots[0, at]]
                for step in range(len(nxt)):
                    at = nxt[step, at]
                    want.append(roots[step + 1, at])
                assert np.max(point_distances(family, lift.path, np.array(want))) < 1e-12

    def test_paper_loop_samples_match_the_reference_merge(self, paper_loops):
        # No sample has two solutions within MERGE_RADIUS, so every row keeps
        # its accepted solutions as they are; the all-pairs merge agrees.
        loops, _ = paper_loops
        for family, loop in loops:
            assert len(loop.samples) == 721
            assert_merge_matches_reference(family, loop.samples)

    def test_paper_loops_agree_with_newton(self, paper_loops):
        loops, _ = paper_loops
        mappings = []
        for family, loop in loops:
            perm = loop_permutation(family, loop)
            assert_same_outcome(perm, newton_only(loop_permutation, family, loop))
            mappings.append(perm.mapping)
        assert mappings == [(0, 1, 3, 2), (0, 1, 3, 2), (1, 0)]

    @pytest.mark.parametrize("name", ["exact", "offset", "square", "quarto"])
    def test_random_circles_agree_with_newton(self, request, name):
        family = request.getfixturevalue(f"{name}_family")
        for loop, jcs in random_circles(family):
            if crosses(loop, jcs):
                assert loop.min_singular_clearance == 0.0
            else:
                assert loop.min_singular_clearance > 0.0
            assert_same_outcome(outcome(family, loop), newton_only(outcome, family, loop))

    def test_fold_crossing_fails_as_newton_does(self, square_family):
        center = eval_map(square_family, (2.0 * math.cos(1.3), 2.0 * math.sin(1.3)))
        loop = circle_loop(tuple(center), 0.5, start_angle=math.pi / 2, samples_per_turn=360)
        starts = solve_dkp(square_family, loop.base).solutions + [(0.0, 1.0)]
        got = monodromy._lift_batch(square_family, loop, starts)
        want = newton_only(monodromy._lift_batch, square_family, loop, starts)
        assert [type(w) for w in want] == [monodromy.LoopLift, SingularEncounter,
                                           SingularEncounter, monodromy.LoopLift,
                                           PreconditionViolated]
        for g, w in zip(got, want, strict=True):
            if isinstance(w, monodromy.LoopLift):
                assert_close_lifts(g, w)
            else:
                assert_same_outcome(g, w)

    def test_lift_across_the_angle_seam_is_continuous(self, exact_family):
        # A small loop around the image of (-pi/2, 2): the lifted angle
        # crosses the seam of the canonical window [-pi/2, 3 pi/2) twice.
        center = eval_map(exact_family, (-0.5 * math.pi, 2.0))
        loop = circle_loop(tuple(center), 2.0, samples_per_turn=360)
        sols = solve_dkp(exact_family, loop.base).solutions
        start = min(sols, key=lambda s: math.hypot(math.remainder(s.phi + 0.5 * math.pi,
                                                                  2.0 * math.pi), s.y - 2.0))
        lift = lift_loop(exact_family, loop, start)
        phi = lift.path[:, 0]
        assert np.max(np.abs(np.diff(phi))) < 0.01
        seam = start.phi + math.remainder(-0.5 * math.pi - start.phi, 2.0 * math.pi)
        assert np.min(phi) < seam < np.max(phi)
        assert (lift.end.phi, lift.end.y) == pytest.approx((start.phi, start.y), abs=1e-9)
        assert_close_lifts(lift, newton_only(lift_loop, exact_family, loop, start))


@pytest.fixture(scope="module")
def offset_reach_loops(offset_family):
    """The offset manipulator's image over its reach box (2247 vertices),
    a 721-sample circle between the deltoid and the outer branches, as
    reproduce-paper lifts it, and one that crosses the deltoid."""
    jcs = image_curves(offset_family, trace_singularity_curves(offset_family))
    oval = [c for c in jcs.curves if c.closed][0].vertices
    centroid = oval.mean(axis=0)
    radii = np.linalg.norm(oval - centroid, axis=1)
    r_out = min(float(np.min(np.linalg.norm(c.vertices - centroid, axis=1)))
                for c in jcs.curves if not c.closed)
    clear = circle_loop(tuple(centroid), math.sqrt(float(np.max(radii)) * r_out))
    crossing = circle_loop(tuple(centroid), float(np.mean(radii[[radii.argmin(),
                                                                radii.argmax()]])))
    return jcs, clear, crossing


class TestLoopClearance:
    """The loop is measured against the curves a block of segments at a
    time: the same value as one pass over all segments, in little memory."""

    @pytest.mark.parametrize("block", [1, 7, monodromy.CLEARANCE_BLOCK])
    def test_blocks_give_the_unblocked_value(self, monkeypatch, offset_reach_loops, block):
        jcs, clear, crossing = offset_reach_loops

        def clearances():
            return [loop_clearance(loop, jcs).min_singular_clearance for loop in (clear, crossing)]

        monkeypatch.setattr(monodromy, "CLEARANCE_BLOCK", len(clear.samples))
        want = clearances()
        monkeypatch.setattr(monodromy, "CLEARANCE_BLOCK", block)
        assert clearances() == want
        assert want[0] > 1.0 and want[1] == 0.0

    def test_peak_memory_is_bounded(self, offset_reach_loops):
        # One pass over all 720 segments peaks at about 63 MB.
        jcs, clear, _ = offset_reach_loops
        assert len(clear.samples) == 721
        tracemalloc.start()
        try:
            loop_clearance(clear, jcs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestLiftFailures:
    """Each way a lift or a permutation fails, reached by a loop."""

    def test_lift_into_a_corank2_point_crosses_the_threshold(self):
        # z -> z^2 is singular only at 0.  Both roots are lost at the sample
        # on the origin, so the lift takes the Newton continuation there, and
        # it converges onto the origin, where |J|, a multiple of |z|^2, falls
        # below the flag.
        family = make_family("complex_square_unfolded", a=0.0, b=0.0)
        corners = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        t = np.linspace(0.0, 1.0, 51)[1:, None]
        samples = np.concatenate([corners[:1]] + [a + (b - a) * t
                                                   for a, b in zip(corners, corners[1:])])
        with pytest.raises(SingularEncounter, match="crossed the clearance threshold") as err:
            lift_loop(family, JointLoop(samples), (1.0, 0.0))
        assert isinstance(err.value.partial, LoopLift)
        assert np.max(np.abs(err.value.partial.end)) < 1e-4

    def test_step_too_long_for_the_sub_steps_diverges(self):
        # u = x^2, v = y^2 from (1, 1) to (1, 1e6) in one step, whose four
        # roots fail the match ratio test.  After MAX_SUBDIVISION halvings the
        # first sub-step still takes v from 1 to 62, and Newton's first step
        # from y = 1 (to y = 31.5) raises the residual.  |J| at (1, 1) is
        # far above the fold zone, so the lift diverges.
        family = make_family("quarto_unfolded", a=0.0, b=0.0)
        loop = JointLoop(np.array([[1.0, 1.0], [1.0, 1e6], [1.0, 1.0]]))
        with pytest.raises(DivergedLift, match=r"near joint point \(1, 62.0351\)"):
            lift_loop(family, loop, (1.0, 1.0))

    def test_coarse_loop_lands_two_lifts_on_one_solution(self, exact_family):
        # Three samples, far apart and 48 from every image curve: the
        # continuation steps to other sheets (ROADMAP item 7), and two of the
        # four lifts end on one base solution.
        loop = JointLoop(np.array([[80.0, 150.0], [200.0, 200.0], [50.0, 70.0], [80.0, 150.0]]))
        with pytest.raises(PermutationInconsistent, match="two lifts landed on the same"):
            loop_permutation(exact_family, loop)

    def test_lift_ending_off_every_base_solution(self, inline_loop_setup, monkeypatch):
        # Every lift ends on a solution of the base, so no loop reaches this
        # check while solve_dkp finds them all; a lift is moved instead.
        family, loop = inline_loop_setup
        lift_batch = monodromy._lift_batch

        def moved(family, loop, starts):
            lifts = lift_batch(family, loop, starts)
            lift = lifts[1]
            lifts[1] = monodromy.LoopLift(lift.start, (lift.end[0], lift.end[1] + 100.0),
                                          lift.path)
            return lifts

        monkeypatch.setattr(monodromy, "_lift_batch", moved)
        with pytest.raises(PermutationInconsistent, match="lift of solution 1 ended"):
            loop_permutation(family, loop)


class TestValidation:
    def test_loop_must_be_closed(self):
        with pytest.raises(ValueError):
            JointLoop(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))

    def test_loop_needs_samples(self):
        with pytest.raises(ValueError):
            JointLoop(np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_circle_loop_parameters(self):
        with pytest.raises(ValueError):
            circle_loop((0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            circle_loop((0.0, 0.0), 1.0, turns=0)

    def test_start_must_solve_the_base(self, exact_family):
        loop = circle_loop((81.0, 144.0), 5.0, samples_per_turn=90)
        with pytest.raises(PreconditionViolated):
            lift_loop(exact_family, loop, (0.0, 1.0))

    def test_loop_off_the_image(self, exact_family):
        # No sample of this loop has a root.
        loop = circle_loop((-100.0, -100.0), 5.0, samples_per_turn=90)
        with pytest.raises(PreconditionViolated):
            lift_loop(exact_family, loop, (0.0, 1.0))

    def test_permutations_of_different_sizes_do_not_compose(self):
        with pytest.raises(ValueError, match="permutation sizes differ"):
            monodromy.Permutation((1, 0), []).compose(monodromy.Permutation((0, 2, 1), []))

    def test_base_without_solutions_has_no_permutation(self):
        # u = x^2, v = y^2 has no real solution at a negative target.
        family = make_family("quarto_unfolded", a=0.0, b=0.0)
        loop = circle_loop((-5.0, -5.0), 1.0, samples_per_turn=90)
        with pytest.raises(PreconditionViolated, match="the loop base has no DKP solutions"):
            loop_permutation(family, loop)

    def test_singular_start_is_rejected(self, exact_family):
        base = eval_map(exact_family, (0.0, 0.0))
        loop = circle_loop(tuple(np.asarray(base) + [1.0, 0.0]), 1.0,
                           start_angle=math.pi, samples_per_turn=90)
        with pytest.raises(PreconditionViolated):
            lift_loop(exact_family, loop, (0.0, 0.0))
