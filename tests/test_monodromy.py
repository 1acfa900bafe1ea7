import math

import numpy as np
import pytest

from cuspforge import (
    JointLoop,
    PreconditionViolated,
    SingularEncounter,
    circle_loop,
    eval_map,
    image_curves,
    lift_loop,
    loop_clearance,
    loop_permutation,
    make_family,
    solve_dkp,
)

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
        assert not lift.crossed_singularity

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
        perm = loop_permutation(square_family, loop,
                                box=((-10.0, 10.0), (-10.0, 10.0)))
        assert len(perm.solutions) == 2
        assert perm.mapping == (1, 0)

    def test_quarto_loop_around_origin_hits_the_fold(self):
        fam = make_family("quarto_unfolded", a=0.0, b=0.0)
        loop = circle_loop((0.0, 0.0), math.sqrt(2.0), start_angle=math.pi / 4,
                           samples_per_turn=360)
        with pytest.raises(SingularEncounter) as err:
            lift_loop(fam, loop, (1.0, 1.0))
        assert err.value.partial is not None
        assert err.value.partial.crossed_singularity


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
        assert (got.start, got.end, got.crossed_singularity) == (
            want.start, want.end, want.crossed_singularity)
        assert got.path.tobytes() == want.path.tobytes()


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

    def test_singular_start_is_rejected(self, exact_family):
        base = eval_map(exact_family, (0.0, 0.0))
        loop = circle_loop(tuple(np.asarray(base) + [1.0, 0.0]), 1.0,
                           start_angle=math.pi, samples_per_turn=90)
        with pytest.raises(PreconditionViolated):
            lift_loop(exact_family, loop, (0.0, 0.0))
