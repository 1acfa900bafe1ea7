import math
import zlib

import numpy as np
import pytest

from cuspforge import (
    BoxTooSmall,
    PointKind,
    PreconditionViolated,
    count_map,
    dkp,
    eval_map,
    find_special_points,
    image_curves,
    make_family,
    solve_dkp,
    trace_singularity_curves,
)
from cuspforge import trace as trace_module
from cuspforge.maps import TWO_PI, coord_deltas, in_box, reference_scales
from cuspforge.trace import KIND_SINGULARITY

from conftest import NORMAL_BOX, PAPER_BOX
from dkp_reference import manipulator_candidates, manipulator_lift, manipulator_terms
from gridscan import grid_count, quarto_cusp_location
from merge_reference import assert_merge_matches_reference
from multistart import multistart_solutions
from polish_reference import polish

WIDE_BOX = ((-10.0, 10.0), (-10.0, 10.0))
#: Joint windows whose 32 x 32 count-map grids are solved against the
#: reference polish and the reference merge.
GRID_WINDOWS = [
    ("exact", ((0.0, 230.0), (0.0, 230.0))), ("offset", ((0.0, 230.0), (0.0, 230.0))),
    ("square", ((-15.0, 15.0), (-15.0, 15.0))), ("quarto", ((-15.0, 15.0), (-15.0, 15.0)))]


def grid_targets(family, window, resolution=32):
    """The cell centers of the count map over ``window``, as (n, 2) targets."""
    us, vs = dkp.CountMap(window, (resolution, resolution), None).cell_centers()
    gu, gv = np.meshgrid(us, vs, indexing="ij")
    return np.column_stack([gu.ravel(), gv.ravel()])


def assert_polish_matches_reference(family, targets):
    """_solve_batch gives bitwise the same keep masks, points, residuals
    and flags with the Newton kernel as with the reference polish loop."""
    def reference(f, jac, q, target, tol, max_iter):
        assert (tol, max_iter) == (0.0, dkp.POLISH_STEPS)
        q, resid = polish(f.__self__, q, target[:, 0], target[:, 1])
        return q, resid, None

    targets = np.array(targets, dtype=float)
    got = dkp._solve_batch(family, targets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dkp, "newton", reference)
        want = dkp._solve_batch(family, targets)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def assert_matches_reference_elimination(family, targets, within=1e-12):
    """_solve_batch gives the same counts and flags with the half-angle
    elimination as with the complex one of ``dkp_reference``, and the same
    solutions to within ``within`` (max-norm, angles modulo 2*pi)."""
    targets = np.array(targets, dtype=float)
    got = dkp._solve_batch(family, targets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dkp, "_candidates", manipulator_candidates)
        mp.setattr(dkp, "_lift", manipulator_lift)
        want = dkp._solve_batch(family, targets)
    assert np.array_equal(np.sum(got[0], axis=1), np.sum(want[0], axis=1))
    for row, target in enumerate(targets):
        q, q_ref = got[1][row, got[0][row]], want[1][row, want[0][row]]
        if len(q) == 0:
            continue
        dist = np.max(np.abs(coord_deltas(family, q[:, None], q_ref[None])), axis=-1)
        match = np.argmin(dist, axis=1)
        assert sorted(match) == list(range(len(q))), f"target {target}"
        assert np.all(dist[np.arange(len(q)), match] < within), f"target {target}"
        assert np.array_equal(got[3][row, got[0][row]], want[3][row, want[0][row]][match])


def image_distance(jcs, target):
    t = np.asarray(target, float)
    best = math.inf
    for poly in jcs.curves:
        v = poly.vertices
        a, b = v[:-1], v[1:]
        ab = b - a
        denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
        s = np.clip(((t - a) * ab).sum(-1) / denom, 0.0, 1.0)
        proj = a + s[:, None] * ab
        best = min(best, float(np.min(np.linalg.norm(t - proj, axis=1))))
    return best


class TestReferenceSolves:
    def test_four_solutions_inside_the_image_curve(self, exact_family):
        target = eval_map(exact_family, (0.6, 1.0))
        sols = solve_dkp(exact_family, target)
        assert len(sols) == 4
        deltas = coord_deltas(
            exact_family,
            np.array([[s.phi, s.y] for s in sols.solutions]),
            np.array([0.6, 1.0]))
        assert np.min(np.linalg.norm(deltas, axis=1)) < 1e-9
        assert grid_count(exact_family, target) == 4

    def test_quarto_four_symmetric_solutions(self):
        fam = make_family("quarto_unfolded", a=0.0, b=0.0)
        sols = solve_dkp(fam, (1.0, 1.0), box=WIDE_BOX)
        found = sorted((round(s.phi, 9), round(s.y, 9)) for s in sols.solutions)
        assert found == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]

    def test_quarto_axis_preimages_are_symmetric_pair(self):
        # (2.25, 0) sits on the fold image: y = 0 is a double root, so the
        # y coordinate is only sqrt-of-tolerance accurate and gets flagged.
        fam = make_family("quarto_unfolded", a=0.0, b=0.0)
        sols = solve_dkp(fam, (2.25, 0.0), box=WIDE_BOX)
        assert sorted(round(s.phi, 9) for s in sols.solutions) == [-1.5, 1.5]
        assert all(abs(s.y) < 1e-4 for s in sols.solutions)
        assert sols.multiplicity_flags == [True, True]

    def test_complex_square_origin_multiple_root(self):
        fam = make_family("complex_square_unfolded", a=0.0, b=0.0)
        sols = solve_dkp(fam, (0.0, 0.0), box=WIDE_BOX)
        assert len(sols) == 1
        assert math.hypot(*sols.solutions[0]) < 1e-5
        assert sols.multiplicity_flags == [True]

    def test_six_solutions_inside_the_deltoid(self, offset_family, offset_trace):
        jcs = image_curves(offset_family, offset_trace)
        oval = [c for c in jcs.curves if c.closed][0]
        cusp_images = oval.vertices[oval.cusp_indices]
        centroid = cusp_images.mean(axis=0)
        sols = solve_dkp(offset_family, tuple(centroid))
        assert len(sols) == 6
        assert grid_count(offset_family, tuple(centroid)) == 6


class TestSolutionQuality:
    def test_round_trip_residuals(self, offset_family):
        rng = np.random.default_rng(40)
        for _ in range(10):
            target = (rng.uniform(0, 200), rng.uniform(0, 200))
            sols = solve_dkp(offset_family, target)
            scale = 1.0 + max(abs(target[0]), abs(target[1]))
            for s, r in zip(sols.solutions, sols.residuals):
                u, v = eval_map(offset_family, s)
                assert max(abs(u - target[0]), abs(v - target[1])) < 1e-9 * scale
                assert r < 1e-9 * scale

    def test_solutions_pairwise_separated(self, exact_family):
        rng = np.random.default_rng(41)
        for _ in range(10):
            target = (rng.uniform(0, 200), rng.uniform(0, 200))
            sols = solve_dkp(exact_family, target)
            pts = np.array([[s.phi, s.y] for s in sols.solutions])
            for i in range(len(pts)):
                deltas = coord_deltas(exact_family, np.delete(pts, i, axis=0), pts[i])
                if len(deltas):
                    assert np.min(np.max(np.abs(deltas), axis=1)) > 1e-5

    def test_no_box_returns_every_real_solution(self):
        # (30, 5) has a preimage near (-7.84, -0.25), outside the default
        # (-6, 6)^2 box of this square but inside WIDE_BOX.
        fam = make_family("complex_square_unfolded", a=1.0, b=-1.0)
        sols = solve_dkp(fam, (30.0, 5.0))
        assert len(sols) == grid_count(fam, (30.0, 5.0), box=WIDE_BOX) > 0
        with pytest.raises(BoxTooSmall):
            solve_dkp(fam, (30.0, 5.0), box=fam.default_box())

    def test_escaping_solution_raises_box_too_small(self):
        fam = make_family("quarto_unfolded", a=0.0, b=0.0)
        with pytest.raises(BoxTooSmall) as err:
            solve_dkp(fam, (4.0, 4.0), box=((-0.5, 0.5), (-0.5, 0.5)))
        assert err.value.escaped

    @pytest.mark.parametrize("target", [(11.996254745709416, 2.2054037786933822e-05),
                                        (11.980474006083494, -0.00026259941744238846),
                                        (11.939637627574731, 0.001427941612899719)])
    def test_box_changes_neither_solutions_nor_flags(self, square_family, target):
        # A box only decides which solutions escape.  Next to the cusp image
        # (12, 0) two of the roots of these targets have |J| just above the
        # flag threshold, which a |J| scale taken over WIDE_BOX would pass.
        # The roots themselves are not pinned: the solver is unreliable this
        # close to a cusp.
        boxed = solve_dkp(square_family, target, box=WIDE_BOX)
        free = solve_dkp(square_family, target)
        assert len(free) > 0
        assert (boxed.solutions, boxed.multiplicity_flags) == (
            free.solutions, free.multiplicity_flags)

    def test_target_must_be_finite(self, exact_family):
        with pytest.raises(ValueError):
            solve_dkp(exact_family, (math.inf, 1.0))


class TestFoldImage:
    def test_double_root_is_reported_once_and_flagged(self, offset_family,
                                                       offset_specials):
        # Over a singular vertex p the two preimages near p coincide: the
        # solver must return that double root once, flagged, not a ring of
        # near-copies.
        cs = trace_singularity_curves(offset_family, PAPER_BOX, 0.8,
                                      specials=offset_specials)
        vertices = np.concatenate([c.vertices for c in cs.curves])
        assert len(vertices) > 50
        for p in vertices:
            sols = solve_dkp(offset_family, eval_map(offset_family, p))
            pts = np.array([[s.phi, s.y] for s in sols.solutions])
            near = np.flatnonzero(
                np.linalg.norm(coord_deltas(offset_family, pts, p), axis=1) < 1e-3)
            assert len(near) == 1, f"vertex {p}"
            assert sols.multiplicity_flags[near[0]], f"vertex {p}"


class TestDegenerateLines:
    """Targets whose solutions lie where the elimination divides by zero."""

    @staticmethod
    def _assert_found(family, q, box=None):
        target = eval_map(family, q)
        sols = solve_dkp(family, target, box=box)
        pts = np.array([[s.phi, s.y] for s in sols.solutions])
        assert np.min(np.linalg.norm(coord_deltas(family, pts, np.array(q)), axis=1)) < 1e-9
        assert len(sols) == grid_count(family, target, box=box)

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_manipulators_at_sin_phi_zero(self, exact_family, offset_family, phi):
        for family in (exact_family, offset_family):
            for y in (-4.0, 1.3, 6.5):
                self._assert_found(family, (phi, y))

    def test_complex_square_on_its_division_line(self, square_family):
        # x = -2b = 2 makes 2x + 4b vanish; (2, y) and (2, -y) share an image.
        for y in (0.5, 1.5, 3.0):
            self._assert_found(square_family, (2.0, y), WIDE_BOX)

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.0, 0.7), (0.0, -1.3), (1e-9, 1e-9)])
    def test_quarto_at_and_near_a_zero(self, a, b):
        family = make_family("quarto_unfolded", a=a, b=b)
        for q in ((1.2, 0.8), (-0.6, 2.1), (2.0, -1.5)):
            self._assert_found(family, q, WIDE_BOX)


class TestBatchCompaction:
    """A batch keeps as many candidates per row as its row with the most
    accepted ones; every row still gives what a solve of its own gives."""

    @staticmethod
    def _widths_of_rows_solved_alone(family, targets):
        keep, q, resid, flags = dkp._solve_batch(family, np.array(targets))
        widths = []
        for i, target in enumerate(targets):
            alone = dkp._solve_batch(family, np.array([target]))
            k = alone[0][0]
            widths.append(len(k))
            assert np.array_equal(keep[i], np.pad(k, (0, keep.shape[1] - len(k))))
            for got, want in zip((q, resid, flags), alone[1:4]):
                assert got[i][keep[i]].tobytes() == want[0][k].tobytes()
        assert keep.shape[1] == max(widths)
        assert_polish_matches_reference(family, targets)
        assert_merge_matches_reference(family, targets)
        return widths

    def test_manipulator(self, offset_family, offset_specials, offset_trace):
        cusp = next(p.location for p in offset_specials if p.kind is PointKind.CUSP)
        fold = offset_trace.curves[0].vertices[300]
        line = eval_map(offset_family, (math.pi, -4.0))  # on sin(phi) = 0
        widths = self._widths_of_rows_solved_alone(offset_family, [
            (-100.0, -100.0), eval_map(offset_family, fold), eval_map(offset_family, cusp),
            (line.u, line.v - 1e-7)])
        assert widths == [0, 2, 4, 8]

    def test_quarto(self, quarto_family, quarto_trace):
        specials = find_special_points(quarto_family, NORMAL_BOX)
        cusp = next(p.location for p in specials if p.kind is PointKind.CUSP)
        fold = quarto_trace.curves[0].vertices[200]
        widths = self._widths_of_rows_solved_alone(quarto_family, [
            (-100.0, -100.0), eval_map(quarto_family, fold), eval_map(quarto_family, cusp)])
        assert widths == [0, 2, 4]
        # Near a = b = 0 the solutions of u = x^2, v = y^2 are candidates
        # too, for the targets far enough from the origin.
        small = make_family("quarto_unfolded", a=3e-6, b=3e-6)
        widths = self._widths_of_rows_solved_alone(small, [
            (-1.0, -1.0), eval_map(small, (2.0, 4.5e-12)), eval_map(small, (1.2, 0.8)),
            eval_map(small, (3.0, -4.0))])
        assert widths == [0, 2, 4, 8]


    def test_in_line_manipulator(self, exact_family, exact_trace):
        # At d = 0 the polynomials of the turns pi/2 and 3pi/2 have equal
        # leading coefficients; at (139.5, 167.8) they are equal to the last
        # bit and the largest, so the choice between them is a tie.
        tie = (139.5, 167.8)
        e, s, t = dkp._elimination(exact_family), tie[0] - tie[1], tie[0]
        lead = np.abs(e.k[:, 0, 0] + s * e.k[:, 1, 0] + s * s * e.k[:, 2, 0] + t * e.k[:, 3, 0])
        assert lead[1] == lead[3] == np.max(lead)
        fold = exact_trace.curves[0].vertices[100]
        line = eval_map(exact_family, (math.pi, -4.0))  # on sin(phi) = 0
        widths = self._widths_of_rows_solved_alone(exact_family, [
            (-100.0, -100.0), tie, eval_map(exact_family, fold), (line.u, line.v - 1e-7)])
        assert widths == [0, 4, 4, 4]

    def test_quarto_eliminating_x(self):
        # With |a| < |b| the quarto eliminates x; xy = ab is its fold.
        family = make_family("quarto_unfolded", a=0.3, b=1.2)
        assert dkp._elimination(family).swap
        widths = self._widths_of_rows_solved_alone(family, [
            (-100.0, -100.0), eval_map(family, (0.6, 0.6)),
            eval_map(family, quarto_cusp_location(0.3, 1.2)), (1.0, 1.0)])
        assert widths == [0, 4, 4, 2]

    def test_complex_square_on_its_division_line(self, square_family):
        # x = -2b = 2 makes 2x + 4b vanish: (2, 1.5) and (2, -1.5) share an
        # image, and the cusp (2, 0) lies on the line too.
        widths = self._widths_of_rows_solved_alone(square_family, [
            (-100.0, -100.0), eval_map(square_family, (2.0, 1.5)),
            eval_map(square_family, (2.0, 0.0)), eval_map(square_family, (0.3, 0.2))])
        assert widths == [2, 6, 6, 4]


class TestHalfAngleElimination:
    """The manipulators' cubic solved as a real polynomial in a half-angle
    tangent gives what the complex polynomial in exp(i phi) gave."""

    @pytest.mark.parametrize("theta", dkp._TURNS + math.pi)
    def test_basis_change(self, theta):
        rng = np.random.default_rng(zlib.crc32(b"half-angle basis"))
        a0, a, b = rng.normal(size=(3, 4))
        def g(phi):
            return a0[0] + sum(a[k] * np.cos(k * phi) + b[k] * np.sin(k * phi) for k in (1, 2, 3))
        t = np.linspace(-3.0, 3.0, 13)
        poly = np.polyval(dkp._half_angle_basis(theta) @ g(dkp._NODES), t)
        assert np.allclose(poly, (1.0 + t * t) ** 3 * g(theta + 2.0 * np.arctan(t)),
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", ["exact", "offset"])
    def test_count_maps(self, name, request):
        family = request.getfixturevalue(f"{name}_family")
        us, vs = count_map(family, ((0.0, 230.0), (0.0, 230.0)), 64).cell_centers()
        gu, gv = np.meshgrid(us, vs, indexing="ij")
        assert_matches_reference_elimination(family, np.column_stack([gu.ravel(), gv.ravel()]))

    @pytest.mark.parametrize("d", [0.0, 0.003, 0.3, 3.0])
    def test_offset_draws(self, d):
        rng = np.random.default_rng(zlib.crc32(f"half-angle d={d}".encode()))
        for _ in range(4):
            family = make_family("rpr2pr_offset", **dict(zip(
                ("a1", "a2", "b1", "b2"), rng.uniform(1.0, 8.0, 4))), d=d)
            q = np.column_stack([rng.uniform(-0.5 * math.pi, 1.5 * math.pi, 32),
                                 rng.uniform(-0.5, 0.5, 32) * family.reach])
            images = np.column_stack(family.evaluate(q[:, 0], q[:, 1]))
            targets = rng.uniform(0.0, family.reach ** 2, (32, 2))
            assert_matches_reference_elimination(family, np.concatenate([images, targets]))

    @pytest.mark.parametrize("kind, d", [("rpr2pr_exact", 0.0), ("rpr2pr_offset", 1.5)])
    def test_both_end_coefficients_vanish(self, kind, d):
        # With a1 b1 = a2 b2 and tu - tv = k1 - k2, N vanishes at phi = 0
        # and at phi = pi, and the cubic doubly: a polynomial in
        # tan(phi / 2) or in its inverse would lose two leading coefficients.
        family = make_family(kind, a1=3.0, a2=5.0, b1=10.0, b2=6.0, **({"d": d} if d else {}))
        shift = (9.0 + 100.0) - (25.0 + 36.0)
        targets = [(tu, tu - shift) for tu in (20.0, 60.0, 100.0, 150.0, 200.0)]
        _, num, _, _ = manipulator_terms(
            family, np.array([0.0, math.pi]), *np.array(targets).T[:, :, None])
        assert np.all(np.abs(num) < 1e-13)
        # The reference finds the double roots at phi = 0 and pi as pairs
        # about 1e-8 off the line; at (100, 52) on the in-line geometry one
        # such pair polishes onto (1.42, 0) and links only one way to the
        # candidate found there as well.  The merge links both ways and
        # reports a regular cluster at its member of least residual, so the
        # reference gives the polished solutions too.
        assert_matches_reference_elimination(family, targets)
        for t in targets:
            assert max(solve_dkp(family, t).residuals, default=0.0) < 1e-13 * (1.0 + max(t))
        assert [len(solve_dkp(family, t)) for t in targets] == [
            grid_count(family, t) for t in targets]

    @pytest.mark.parametrize("phi", [0.0, math.pi, -0.5 * math.pi, 0.5 * math.pi])
    def test_images_of_the_turns(self, exact_family, offset_family, phi):
        for family in (exact_family, offset_family):
            assert_matches_reference_elimination(
                family, [eval_map(family, (phi, y)) for y in (-4.0, 1.3, 6.5)])


class TestLargeTargets:
    """Far targets give their count, or a typed error where the elimination
    polynomial leaves the floating-point range; a RuntimeWarning is an error
    in this suite."""

    @pytest.mark.parametrize("name, target, count", [
        ("exact", (1e100, 5.0), 0), ("offset", (1e100, 5.0), 0),
        ("exact", (1e160, 1e160), 4), ("offset", (1e160, 1e160), 4),
        ("square", (1e100, 5.0), 2), ("square", (1e300, 0.0), 2)])
    def test_count(self, name, target, count, request):
        family = request.getfixturevalue(f"{name}_family")
        assert len(solve_dkp(family, target)) == count

    @pytest.mark.parametrize("name, target", [
        ("exact", (1e300, 0.0)), ("offset", (1e300, 0.0)), ("quarto", (1e300, 0.0)),
        ("square", (1e160, 1e160)), ("quarto", (1e160, 1e160))])
    def test_overflow_is_a_typed_error(self, name, target, request):
        family = request.getfixturevalue(f"{name}_family")
        with pytest.raises(PreconditionViolated, match="floating-point range"):
            solve_dkp(family, target)


class TestNewtonPolish:
    @pytest.mark.parametrize("name, window", GRID_WINDOWS)
    def test_count_map_cells_match_the_reference_polish(self, name, window, request):
        family = request.getfixturevalue(f"{name}_family")
        assert_polish_matches_reference(family, grid_targets(family, window))


class TestMergeReference:
    """Only the targets with two accepted solutions within MERGE_RADIUS are
    clustered; every target gives what the all-pairs merge of
    ``merge_reference`` gives (the loop samples are in test_monodromy)."""

    @pytest.mark.parametrize("name, window", GRID_WINDOWS)
    def test_count_map_cells(self, name, window, request):
        family = request.getfixturevalue(f"{name}_family")
        box = NORMAL_BOX if name in ("square", "quarto") else PAPER_BOX
        keep, q, _, _ = assert_merge_matches_reference(family, grid_targets(family, window))
        escaped = ~in_box(family, q[keep], box)
        assert np.any(keep) and (name == "offset" or np.any(escaped))

    def test_characteristic_sources(self, offset_family, offset_specials):
        # The sources of the characteristic curves at step 0.8 lie on {J = 0},
        # so each image holds a double root: two accepted solutions within
        # MERGE_RADIUS, merged into one flagged solution.
        cs = trace_singularity_curves(offset_family, PAPER_BOX, 0.8, specials=offset_specials)
        jtol = 1e-10 * max(1.0, reference_scales(offset_family).jdet)
        sources = np.concatenate([trace_module._sources(offset_family, poly, jtol)[0]
                                  for poly in cs.by_kind(KIND_SINGULARITY)])
        targets = np.column_stack(offset_family.evaluate(sources[:, 0], sources[:, 1]))
        keep, _, _, flags = assert_merge_matches_reference(offset_family, targets)
        assert len(targets) > 100 and np.all(np.any(keep & flags, axis=1))


class TestPeriodicBox:
    """An explicit box's angle window counts modulo 2*pi."""

    LOW = ((5.5 - TWO_PI, 7.0 - TWO_PI), (-8.0, 8.0))
    HIGH = ((5.5, 7.0), (-8.0, 8.0))

    def test_shifted_windows_give_the_same_solutions(self, offset_family):
        low = solve_dkp(offset_family, (18.0, 14.0), box=self.LOW)
        high = solve_dkp(offset_family, (18.0, 14.0), box=self.HIGH)
        assert len(high) == 4
        assert (high.solutions, high.residuals, high.multiplicity_flags) == (
            low.solutions, low.residuals, low.multiplicity_flags)

    def test_shifted_windows_give_the_same_counts(self, offset_family):
        bounds = ((10.0, 30.0), (5.0, 25.0))
        low = count_map(offset_family, bounds, 8, box=self.LOW).counts
        high = count_map(offset_family, bounds, 8, box=self.HIGH).counts
        assert np.array_equal(low, high)
        assert 0 < np.sum(high == -1) < high.size


class TestOracleAgreement:
    @staticmethod
    def _off_image_solves(family, trace, rng, count):
        """(target, box, solver count) for ``count`` random targets farther
        than 1e-3 from the fold image whose solutions stay in the box."""
        jcs = image_curves(family, trace)
        if family.periodic:
            window, box = ((0.0, 230.0), (0.0, 230.0)), None
        else:
            window, box = ((-15.0, 15.0), (-15.0, 15.0)), WIDE_BOX
        found = 0
        while found < count:
            target = (rng.uniform(*window[0]), rng.uniform(*window[1]))
            if image_distance(jcs, target) < 1e-3:
                continue
            try:
                n_solver = len(solve_dkp(family, target, box=box))
            except BoxTooSmall:
                continue
            found += 1
            yield target, box, n_solver

    @pytest.mark.parametrize("name", ["exact", "offset", "square", "quarto"])
    def test_counts_match_grid_scan(self, name, request, exact_trace, offset_trace,
                                    square_trace, quarto_trace):
        family = request.getfixturevalue(f"{name}_family")
        trace = {"exact": exact_trace, "offset": offset_trace,
                 "square": square_trace, "quarto": quarto_trace}[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for target, box, n_solver in self._off_image_solves(family, trace, rng, 10):
            n_oracle = grid_count(family, target, box=box)
            assert n_solver == n_oracle, f"target {target}"
            assert n_solver % 2 == 0

    @pytest.mark.parametrize("seed, name", enumerate(["exact", "offset", "square", "quarto"]))
    def test_elimination_matches_multistart_and_grid_scan(
            self, seed, name, request, exact_trace, offset_trace, square_trace, quarto_trace):
        family = request.getfixturevalue(f"{name}_family")
        trace = {"exact": exact_trace, "offset": offset_trace,
                 "square": square_trace, "quarto": quarto_trace}[name]
        rng = np.random.default_rng(seed)
        for target, box, n_solver in self._off_image_solves(family, trace, rng, 6):
            assert n_solver == len(multistart_solutions(family, target, box=box)), target
            assert n_solver == grid_count(family, target, box=box), target

    @staticmethod
    def _counts_across_curve(family, jcs, curve_index, fraction, offset):
        curve = jcs.curves[curve_index].vertices
        k = int(fraction * (len(curve) - 2))
        a, b = curve[k], curve[k + 1]
        tangent = (b - a) / np.linalg.norm(b - a)
        normal = np.array([-tangent[1], tangent[0]])
        mid = 0.5 * (a + b)
        return [len(solve_dkp(family, tuple(mid + side * offset * normal)))
                for side in (1.0, -1.0)]

    def test_count_changes_by_two_across_the_offset_image_curve(
            self, offset_family, offset_trace):
        jcs = image_curves(offset_family, offset_trace)
        oval_index = next(i for i, c in enumerate(jcs.curves) if c.closed)
        counts = self._counts_across_curve(offset_family, jcs, oval_index,
                                           0.15, 0.5)
        assert abs(counts[0] - counts[1]) == 2

    def test_inline_image_curve_is_doubly_covered(self, exact_family, exact_trace):
        # The d = 0 manipulator is invariant under (phi, y) -> (-phi, -y), so
        # each image arc carries two fold pairs and a crossing kills four
        # solutions at once (two double solutions above each image point).
        jcs = image_curves(exact_family, exact_trace)
        longest = int(np.argmax([len(c) for c in jcs.curves]))
        counts = self._counts_across_curve(exact_family, jcs, longest, 0.33, 0.5)
        assert sorted(counts) == [0, 4]


class TestCountMap:
    def test_cells_match_individual_solves(self, exact_family):
        bounds = ((0.0, 200.0), (0.0, 200.0))
        cm = count_map(exact_family, bounds, 8)
        us, vs = cm.cell_centers()
        rng = np.random.default_rng(50)
        for _ in range(6):
            i, j = rng.integers(0, 8, 2)
            assert cm.counts[i, j] == len(
                solve_dkp(exact_family, (us[i], vs[j])))

    def test_counts_in_expected_range(self, exact_family):
        cm = count_map(exact_family, ((0.0, 200.0), (0.0, 200.0)), 8)
        assert set(np.unique(cm.counts)).issubset({-1, 0, 1, 2, 3, 4, 5, 6})

    def test_resolution_validation(self, exact_family):
        with pytest.raises(ValueError):
            count_map(exact_family, ((0.0, 1.0), (0.0, 1.0)), 4)

    @pytest.mark.parametrize("bounds", [((50.0, 50.0), (0.0, 100.0)),
                                        ((100.0, 0.0), (0.0, 100.0)),
                                        ((0.0, 100.0), (100.0, 0.0))])
    def test_degenerate_window(self, exact_family, bounds):
        with pytest.raises(ValueError, match="u1 > u0 and v1 > v0"):
            count_map(exact_family, bounds, 8)
