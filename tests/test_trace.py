import dataclasses
import logging
import math
import zlib

import numpy as np
import pytest

from cuspforge import (
    KIND_CHARACTERISTIC,
    KIND_SINGULARITY,
    characteristic_curves,
    find_special_points,
    image_curves,
    make_family,
    reference_scales,
    trace_singularity_curves,
)
from cuspforge import singular
from cuspforge import trace as trace_module
from cuspforge.errors import ConfigError, PreconditionViolated
from cuspforge.maps import TWO_PI, JointPoint, WorkspacePoint, coord_deltas, point_distances
from cuspforge.singular import PointKind, SpecialPoint, _correct
from tracer_oracle import _sign_change_seeds, oracle_trace

from conftest import NORMAL_BOX, PAPER_BOX


def vertex_spacings(family, poly):
    deltas = coord_deltas(family, poly.vertices[1:], poly.vertices[:-1])
    return np.linalg.norm(deltas, axis=1)


def default_step(box):
    (x0, x1), (y0, y1) = box
    return math.hypot(x1 - x0, y1 - y0) / 1000.0


def segment_distances(family, points, curves, reach):
    """Distance from each of the (n, 2) points to the nearest segment of the
    curves where it is below ``reach`` (inf elsewhere).  Segments are
    unwrapped across the periodic seam and also shifted by one period each
    way, so plain Euclidean distances apply; points are grouped in tiles so
    that each tile meets only the segments near it."""
    a = np.concatenate([c.vertices[:-1] for c in curves])
    b = a + coord_deltas(family, np.concatenate([c.vertices[1:] for c in curves]), a)
    if family.periodic:
        shifts = [0.0, -TWO_PI, TWO_PI]
        a = np.concatenate([a + [s, 0.0] for s in shifts])
        b = np.concatenate([b + [s, 0.0] for s in shifts])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    points = np.asarray(points, float)
    tiles = np.floor((points - points.min(axis=0)) / (8.0 * reach)).astype(int)
    _, tile_of = np.unique(tiles, axis=0, return_inverse=True)
    out = np.full(len(points), np.inf)
    for t in range(tile_of.max() + 1):
        idx = np.flatnonzero(tile_of.ravel() == t)
        p = points[idx]
        near = np.all((hi >= p.min(axis=0) - reach) & (lo <= p.max(axis=0) + reach), axis=1)
        if not near.any():
            continue
        sa, sb = a[near], b[near]
        ab = sb - sa
        ap = p[:, None, :] - sa[None]
        u = np.clip(np.sum(ap * ab, axis=-1) / np.maximum(np.sum(ab * ab, axis=-1), 1e-300),
                    0.0, 1.0)
        out[idx] = np.min(np.linalg.norm(ap - u[..., None] * ab, axis=-1), axis=1)
    return out


def curve_signature(cs):
    """Topology of a curve set: per curve the closed flag, the corank-2 end
    tags (unordered) and the cusp count, as a sorted list."""
    return sorted((c.closed, tuple(sorted(c.corank2_endpoints)), len(c.cusp_indices))
                  for c in cs.curves)


class TestInlineManipulatorTrace:
    def test_node_splits_into_branches_with_isolated_point(self, exact_trace):
        node_ends = sum(sum(p.corank2_endpoints) for p in exact_trace.curves)
        assert node_ends == 4
        assert len(exact_trace.isolated_points) == 1
        iso = exact_trace.isolated_points[0]
        assert abs(iso.phi - math.pi) < 1e-9 and abs(iso.y) < 1e-9
        assert sum(len(c.cusp_indices) for c in exact_trace.curves) == 0

    def test_vertices_lie_on_the_determinant_zero_set(self, exact_family, exact_trace):
        scale = reference_scales(exact_family, PAPER_BOX).jdet
        for poly in exact_trace.curves:
            j = exact_family.jdet(poly.vertices[:, 0], poly.vertices[:, 1])
            assert np.max(np.abs(j)) < 1e-9 * scale

    def test_vertex_spacing_bound(self, exact_family, exact_trace):
        step = default_step(PAPER_BOX)
        for poly in exact_trace.curves:
            assert np.max(vertex_spacings(exact_family, poly)) < 2.0 * step

    def test_node_branch_image_passes_through_node_image(self, exact_family,
                                                         exact_trace):
        jcs = image_curves(exact_family, exact_trace)
        best = min(
            float(np.min(np.linalg.norm(c.vertices - np.array([9.0, 4.0]), axis=1)))
            for c in jcs.curves)
        assert best < 1e-6

    def test_image_vertices_are_exact_pushforwards(self, exact_family, exact_trace):
        jcs = image_curves(exact_family, exact_trace)
        for wp, jp in zip(exact_trace.curves, jcs.curves):
            u, v = exact_family.evaluate(wp.vertices[:, 0], wp.vertices[:, 1])
            assert np.array_equal(np.column_stack([u, v]), jp.vertices)


class TestOffsetManipulatorTrace:
    def test_oval_with_three_cusps_and_branch_with_one(self, offset_trace):
        closed = [c for c in offset_trace.curves if c.closed]
        assert len(closed) == 1
        assert len(closed[0].cusp_indices) == 3
        open_cusps = sorted(len(c.cusp_indices) for c in offset_trace.curves
                            if not c.closed)
        assert open_cusps.count(1) == 1 and sum(open_cusps) == 1
        assert offset_trace.isolated_points == []

    def test_cusp_vertices_coincide_with_special_points(self, offset_trace,
                                                        offset_specials):
        cusp_locs = np.array([[p.location.phi, p.location.y]
                              for p in offset_specials])
        flagged = []
        for poly in offset_trace.curves:
            for vi in poly.cusp_indices:
                flagged.append(poly.vertices[vi])
        assert len(flagged) == 4
        for v in flagged:
            assert np.min(np.linalg.norm(cusp_locs - v, axis=1)) < 1e-12

    def test_closed_curve_closes(self, offset_family, offset_trace):
        step = default_step(PAPER_BOX)
        oval = [c for c in offset_trace.curves if c.closed][0]
        gap = coord_deltas(offset_family, oval.vertices[-1][None, :],
                           oval.vertices[0])[0]
        assert float(np.linalg.norm(gap)) < 2.0 * step


class TestBatchedProjections:
    def test_sign_change_seeds_equal_scalar_bisection(self, offset_family):
        n = 64
        (x0, x1), (y0, y1) = PAPER_BOX
        xs, ys = np.linspace(x0, x1, n), np.linspace(y0, y1, n)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pos = offset_family.jdet(gx, gy) > 0.0
        edges = [((xs[i], ys[k]), (xs[i + 1], ys[k]))
                 for i, k in np.argwhere(pos[:-1, :] != pos[1:, :])]
        edges += [((xs[i], ys[k]), (xs[i], ys[k + 1]))
                  for i, k in np.argwhere(pos[:, :-1] != pos[:, 1:])]
        expected = []
        for a, b in edges:
            a, b = np.array(a), np.array(b)
            fa = float(offset_family.jdet(a[0], a[1]))
            for _ in range(20):
                mid = 0.5 * (a + b)
                fm = float(offset_family.jdet(mid[0], mid[1]))
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            expected.append(0.5 * (a + b))
        seeds = _sign_change_seeds(offset_family, PAPER_BOX, n)
        assert len(expected) > 100
        assert seeds.tobytes() == np.array(expected).tobytes()

    def test_batched_correction_equals_row_by_row(self, quarto_family):
        # The gradient (y, x) of J = xy - 1 vanishes at the origin, whose row
        # must fail without stopping the others.
        rng = np.random.default_rng(7)
        pts = np.vstack([[0.0, 0.0], rng.uniform(-4.0, 4.0, size=(40, 2))])
        converged = []
        for max_iter in (3, 10):
            q, ok = _correct(quarto_family, pts, 1e-10, max_iter=max_iter)
            rows = [_correct(quarto_family, p, 1e-10, max_iter=max_iter) for p in pts]
            assert q.tobytes() == np.array([r[0] for r in rows]).tobytes()
            assert ok.tolist() == [bool(r[1]) for r in rows]
            assert not ok[0] and np.array_equal(q[0], [0.0, 0.0])
            converged.append(int(ok.sum()))
        # Three steps leave rows unconverged at the cap; ten reach every row
        # but the origin.
        assert 0 < converged[0] < converged[1] == len(pts) - 1


class TestNormalFormTraces:
    def test_complex_square_circle(self, square_family, square_trace):
        assert len(square_trace.curves) == 1
        circle = square_trace.curves[0]
        assert circle.closed
        assert len(circle.cusp_indices) == 3
        radii = np.linalg.norm(circle.vertices, axis=1)
        assert np.max(np.abs(radii - 2.0)) < 1e-6
        assert square_trace.isolated_points == []

    def test_quarto_two_branches_one_cusp(self, quarto_trace):
        assert len(quarto_trace.curves) == 2
        assert all(not c.closed for c in quarto_trace.curves)
        assert sorted(len(c.cusp_indices) for c in quarto_trace.curves) == [0, 1]
        for poly in quarto_trace.curves:
            assert np.max(np.abs(poly.vertices[:, 0] * poly.vertices[:, 1] - 1.0)) < 1e-6

    def test_degenerate_quarto_is_both_axes(self):
        # J = xy: besides y = 0, where J is linear in y, the singular set holds
        # the vertical line x = 0, where A = B = C = 0.  Without special
        # points the two axes cross at the origin; with a corank-2 point
        # there, the four half-axes end at it, tagged.
        fam = make_family("quarto_unfolded", a=0.0, b=0.0)
        origin = SpecialPoint(WorkspacePoint(0.0, 0.0), JointPoint(0.0, 0.0),
                              PointKind.CORANK2_HYPERBOLIC, 1.0, 0.0)
        for specials, n_curves in (([], 2), ([origin], 4)):
            cs = trace_singularity_curves(fam, NORMAL_BOX, 0.05, specials=specials)
            assert len(cs.curves) == n_curves
            ends = []
            for poly in cs.curves:
                assert np.max(np.min(np.abs(poly.vertices), axis=1)) < 1e-12
                assert np.max(vertex_spacings(fam, poly)) < 1.01 * 0.05
                for end, tagged in zip(poly.vertices[[0, -1]], poly.corank2_endpoints):
                    assert tagged == (specials != [] and not np.any(np.abs(end) == 4.0))
                    ends.append(tuple(np.round(end, 9) + 0.0))
            assert sorted(e for e in ends if max(map(abs, e)) == 4.0) == [
                (-4.0, 0.0), (0.0, -4.0), (0.0, 4.0), (4.0, 0.0)]

    def test_halving_the_step_converges_to_the_true_curve(self, square_family):
        # Distance from the true circle to the polyline shrinks with the step.
        theta = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        truth = np.column_stack([2.0 * np.cos(theta), 2.0 * np.sin(theta)])
        errors = []
        for step in (0.2, 0.1, 0.05, 0.025):
            cs = trace_singularity_curves(square_family, NORMAL_BOX, step)
            verts = cs.curves[0].vertices
            a, b = verts[:-1], verts[1:]
            ab = b - a
            denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
            t = np.clip(((truth[:, None, :] - a) * ab).sum(-1) / denom, 0.0, 1.0)
            proj = a + t[..., None] * ab
            dist = np.linalg.norm(truth[:, None, :] - proj, axis=-1).min(axis=1)
            errors.append(float(dist.max()))
        assert errors[0] > errors[1] > errors[2] > errors[3]


class TestSpecialPointPlacement:
    """Cusps and isolated points are placed by the tracer, at any step."""

    @pytest.mark.parametrize("step", [0.02, 0.05, 0.2, 0.4, 0.8])
    def test_inline_isolated_point_at_every_step(self, exact_family, exact_specials, step):
        cs = trace_singularity_curves(exact_family, PAPER_BOX, step, specials=exact_specials)
        assert len(cs.isolated_points) == 1
        assert math.dist(cs.isolated_points[0], (math.pi, 0.0)) < 1e-12

    @pytest.mark.parametrize("step", [None, 0.8, 0.05], ids=["default", "0.8", "0.05"])
    @pytest.mark.parametrize("name", ["offset", "square", "quarto"])
    def test_cusp_vertices_are_the_nearest_vertices(self, name, step, request):
        family = request.getfixturevalue(f"{name}_family")
        box = PAPER_BOX if name == "offset" else NORMAL_BOX
        specials = find_special_points(family, box)
        cusps = [p for p in specials if p.kind == PointKind.CUSP]
        cs = trace_singularity_curves(family, box, step, specials=specials)
        flagged = sorted((ci, vi) for ci, c in enumerate(cs.curves) for vi in c.cusp_indices)
        assert len(flagged) == len(cusps)
        located = {tuple(p.location) for p in cusps}
        assert all(tuple(cs.curves[ci].vertices[vi]) in located for ci, vi in flagged)

        # With the cusps unmarked, the trace keeps the projected vertices;
        # the nearest-vertex rule (within 3 steps) picks the flagged ones,
        # and every other vertex is the same.
        plain = trace_singularity_curves(family, box, step, specials=[
            dataclasses.replace(p, kind=PointKind.FOLD_ONLY) if p in cusps else p
            for p in specials])
        picked = []
        for p in cusps:
            dists = [point_distances(family, c.vertices, p.location) for c in plain.curves]
            ci = int(np.argmin([np.min(d) for d in dists]))
            vi = int(np.argmin(dists[ci]))
            assert dists[ci][vi] <= 3.0 * (step or default_step(box))
            picked.append((ci, vi))
        assert sorted(picked) == flagged
        for c, c0 in zip(cs.curves, plain.curves):
            kept = np.ones(len(c), dtype=bool)
            kept[c.cusp_indices] = False
            kept[-1] &= not (c.closed and 0 in c.cusp_indices)
            assert np.array_equal(c.vertices[kept], c0.vertices[kept])

    def test_cusp_off_every_branch_is_logged(self, square_family, caplog):
        specials = find_special_points(square_family, NORMAL_BOX)
        stray = SpecialPoint(WorkspacePoint(0.5, 0.25), JointPoint(0.0, 0.0),
                             PointKind.CUSP, math.nan, 0.0)
        with caplog.at_level(logging.WARNING, logger="cuspforge.trace"):
            cs = trace_singularity_curves(square_family, NORMAL_BOX, specials=specials + [stray])
        flagged = [tuple(c.vertices[vi]) for c in cs.curves for vi in c.cusp_indices]
        assert len(flagged) == 3 and tuple(stray.location) not in flagged
        assert "cusp at (0.5, 0.25) is not on any traced branch" in caplog.text


class TestCharacteristicCurves:
    def test_tangency_at_cusps_complex_square_without_box(self, square_family):
        # Every real preimage counts, including the partner (-6, 0) of the
        # cusp (2, 0), which lies on the edge of the family's default box.
        step = 0.05
        cs = trace_singularity_curves(square_family, NORMAL_BOX, step)
        chars = characteristic_curves(square_family, cs)
        assert chars.curves and all(c.kind == KIND_CHARACTERISTIC
                                    for c in chars.curves)
        self._assert_cusp_tangency(square_family, cs, chars, step)

    def test_tangency_at_cusps_offset_manipulator(self, offset_family):
        step = 0.06
        cs = trace_singularity_curves(offset_family, PAPER_BOX, step)
        chars = characteristic_curves(offset_family, cs)
        self._assert_cusp_tangency(offset_family, cs, chars, step)

    @staticmethod
    def _assert_cusp_tangency(family, cs, chars, step):
        checked = 0
        for poly in cs.by_kind(KIND_SINGULARITY):
            for vi in poly.cusp_indices:
                cusp = poly.vertices[vi]
                lo, hi = max(vi - 1, 0), min(vi + 1, len(poly.vertices) - 1)
                t_sing = poly.vertices[hi] - poly.vertices[lo]
                t_sing = t_sing / np.linalg.norm(t_sing)
                best = None
                for chain in chars.curves:
                    if len(chain) < 2:
                        continue
                    a, b = chain.vertices[:-1], chain.vertices[1:]
                    ab = b - a
                    denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
                    t = np.clip(((cusp - a) * ab).sum(-1) / denom, 0.0, 1.0)
                    proj = a + t[:, None] * ab
                    dist = np.linalg.norm(cusp - proj, axis=1)
                    k = int(np.argmin(dist))
                    if best is None or dist[k] < best[0]:
                        best = (float(dist[k]), ab[k] / np.linalg.norm(ab[k]))
                assert best is not None and best[0] < 10.0 * step
                angle = math.acos(min(1.0, abs(float(best[1] @ t_sing))))
                assert angle < 0.05
                checked += 1
        assert checked > 0

    def test_chain_jump_bound(self, square_family):
        step = 0.05
        cs = trace_singularity_curves(square_family, NORMAL_BOX, step)
        chars = characteristic_curves(square_family, cs)
        for chain in chars.curves:
            if len(chain) > 1:
                gaps = np.linalg.norm(np.diff(chain.vertices, axis=0), axis=1)
                assert np.max(gaps) <= 3.0 * step + 1e-9

    # Chains at the default step, and why each open one ends.
    @pytest.mark.parametrize("name, chains, closed", [
        # The oval's four partner roots close up: two go round once, and the
        # two that merge into its cusps, joined there, go round twice.  The
        # open branch with the cusp carries two partners from its end on the
        # box edge y = 8 until they meet on {J = 0} above the box and turn
        # complex; the other branch has no partner in the family's box.
        ("offset", 5, 3),
        # One partner goes round the circle, joined at each of the 3 cusps.
        ("square", 1, 1),
        # The branch with the cusp carries two partners from one box edge
        # to the other, the one merging into the cusp joined there; the
        # other branch has none.
        ("quarto", 2, 0),
    ])
    def test_chains_at_the_default_step(self, name, chains, closed, request, monkeypatch):
        family, cs = (request.getfixturevalue(f"{name}_{what}") for what in ("family", "trace"))
        solves = []

        def recording(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        solve = trace_module.solve_dkp
        monkeypatch.setattr(trace_module, "solve_dkp", recording)
        chars = characteristic_curves(family, cs)
        assert (len(chars.curves), sum(c.closed for c in chars.curves)) == (chains, closed)
        # Every vertex is a root the solver reported, and not flagged.
        unflagged = {(sol.phi, sol.y) for sols in solves
                     for sol, flag in zip(sols.solutions, sols.multiplicity_flags) if not flag}
        vertices = np.concatenate([c.vertices for c in chars.curves])
        assert all((phi, y) in unflagged for phi, y in vertices.tolist())

    def test_cusp_at_the_start_of_a_closed_branch(self, square_family, square_trace):
        # The same circle, started at its cusp (2, 0): the cusp is refined
        # and joined across the wrap too, and the same closed chain results.
        (poly,) = square_trace.curves
        start = next(vi for vi in poly.cusp_indices
                     if np.allclose(poly.vertices[vi], (2.0, 0.0)))
        verts = np.roll(poly.vertices[:-1], -start, axis=0)
        rolled = dataclasses.replace(
            poly, vertices=np.vstack([verts, verts[:1]]),
            cusp_indices=sorted((vi - start) % (len(poly) - 1) for vi in poly.cusp_indices))
        chains = [characteristic_curves(square_family, dataclasses.replace(square_trace, curves=c))
                  .curves for c in ([poly], [rolled])]
        assert [(len(c), c.closed) for c in chains[1]] == [(len(c), c.closed) for c in chains[0]]
        assert set(map(tuple, chains[1][0].vertices)) == set(map(tuple, chains[0][0].vertices))

    def test_degenerate_quarto_characteristic_is_empty(self):
        # All preimages of the fold images lie on the singular axes
        # themselves, which the characteristic set excludes by definition.
        fam = make_family("quarto_unfolded", a=0.0, b=0.0)
        cs = trace_singularity_curves(fam, NORMAL_BOX, 0.05)
        chars = characteristic_curves(fam, cs)
        assert chars.curves == []


class TestOracleAgreement:
    """The closed-form curves against the predictor-corrector oracle of
    ``tests/tracer_oracle.py``, in the paper box and in the reach box."""

    @pytest.mark.parametrize("reach", [False, True], ids=["paper_box", "reach_box"])
    @pytest.mark.parametrize("name", ["exact", "offset", "square", "quarto"])
    def test_matches_predictor_corrector_oracle(self, name, reach, request):
        family = request.getfixturevalue(f"{name}_family")
        box = family.default_box() if reach else PAPER_BOX if family.periodic else NORMAL_BOX
        step = default_step(box)
        specials = find_special_points(family, box)
        cs = trace_singularity_curves(family, box, specials=specials)
        oracle = oracle_trace(family, box, specials=specials)
        assert not any(c.truncated for c in oracle.curves)

        scale = reference_scales(family, box).jdet
        for poly in cs.curves:
            j = family.jdet(poly.vertices[:, 0], poly.vertices[:, 1])
            assert np.max(np.abs(j)) <= 1e-9 * scale
            # Every segment runs along the rotated gradient (-J_y, J_x), as
            # the oracle's walks do.
            seg = coord_deltas(family, poly.vertices[1:], poly.vertices[:-1])
            gx, gy = family.jdet_grad(*(poly.vertices[:-1] + 0.5 * seg).T)
            assert np.all(seg[:, 0] * -gy + seg[:, 1] * gx > 0.0)

        ours = np.concatenate([c.vertices for c in cs.curves])
        theirs = np.concatenate([c.vertices for c in oracle.curves])
        assert np.max(segment_distances(family, ours, oracle.curves, step)) < step
        assert np.max(segment_distances(family, theirs, cs.curves, step)) < step

        assert curve_signature(cs) == curve_signature(oracle)
        assert len(cs.isolated_points) == len(oracle.isolated_points)
        for p, q in zip(cs.isolated_points, oracle.isolated_points):
            assert math.dist(p, q) < 1e-12


    @pytest.mark.parametrize("box", [((0.0, 3.0), (-8.0, 8.0)), ((-3.0, 7.0), (-5.0, 5.0))],
                             ids=["partial_window", "window_over_a_period"])
    def test_angle_windows_other_than_one_period(self, offset_family, box):
        # Box ends inside the period are exits; a window wider than one
        # period is traced once around.
        specials = find_special_points(offset_family, box)
        cs = trace_singularity_curves(offset_family, box, specials=specials)
        oracle = oracle_trace(offset_family, box, specials=specials)
        step = default_step(box)
        ours = np.concatenate([c.vertices for c in cs.curves])
        assert np.max(segment_distances(offset_family, ours, oracle.curves, step)) < step
        assert curve_signature(cs) == curve_signature(oracle)

    @pytest.mark.parametrize("box", [((1.0, 1.0), (-1.0, 1.0)), ((-1.0, 1.0), (2.0, -2.0))])
    def test_degenerate_box_is_refused(self, square_family, box):
        with pytest.raises(ConfigError, match="box must be non-degenerate"):
            trace_singularity_curves(square_family, box)

    def test_determinant_of_higher_degree_is_refused(self, exact_family):
        # The breakpoints assume coefficients of low trigonometric degree; a
        # determinant outside that class raises instead of giving wrong curves.
        class Wavy(type(exact_family)):
            def jdet(self, phi, y):
                return super().jdet(phi, y) + np.cos(6.0 * np.asarray(phi))

        with pytest.raises(PreconditionViolated):
            trace_singularity_curves(Wavy(3.0, 7.0, 6.0, 5.0), PAPER_BOX, specials=[])


def random_geometries():
    """Seeded draws: 12 offset manipulators, then 8 unfoldings with a != b
    and ab != 0, alternating complex square and quarto."""
    rng = np.random.default_rng(61018)
    draws = []
    for _ in range(12):
        a1, a2, b1, b2 = rng.uniform(1.0, 8.0, 4)
        draws.append(("rpr2pr_offset",
                      dict(a1=a1, a2=a2, b1=b1, b2=b2, d=rng.uniform(0.05, 3.0))))
    while len(draws) < 20:
        a, b = rng.uniform(-2.0, 2.0, 2)
        if abs(a - b) < 0.1 or abs(a * b) < 0.05:
            continue
        kind = ("complex_square_unfolded", "quarto_unfolded")[len(draws) % 2]
        draws.append((kind, dict(a=a, b=b)))
    return draws


class TestRandomGeometryCoverage:
    """Coverage both ways against a 1024^2 sign-change scan of J over the
    family's reach box, an oracle that shares nothing with either tracer."""

    N = 1024

    @pytest.mark.parametrize("kind, params", random_geometries())
    def test_closed_form_covers_the_sign_changes(self, kind, params):
        family = make_family(kind, **params)
        box = family.default_box()
        (x0, x1), (y0, y1) = box
        specials = find_special_points(family, box)
        cs = trace_singularity_curves(family, box, specials=specials)
        assert cs.curves

        xs, ys = np.linspace(x0, x1, self.N + 1), np.linspace(y0, y1, self.N + 1)
        pos = family.jdet(*np.meshgrid(xs, ys, indexing="ij")) > 0.0
        corner = pos[:-1, :-1]
        mixed = ((pos[1:, :-1] != corner) | (pos[:-1, 1:] != corner)
                 | (pos[1:, 1:] != corner))
        hx, hy = (x1 - x0) / self.N, (y1 - y0) / self.N
        cell = math.hypot(hx, hy)

        # Every sign-change cell lies within one cell diagonal of a segment.
        i, j = np.nonzero(mixed)
        centers = np.column_stack([x0 + (i + 0.5) * hx, y0 + (j + 0.5) * hy])
        assert np.all(segment_distances(family, centers, cs.curves, cell) <= cell)

        # Every vertex lies in or next to a sign-change cell, or at a
        # corank-2 point.
        rows = mixed.copy()
        rows[1:] |= mixed[:-1]
        rows[:-1] |= mixed[1:]
        near = rows.copy()
        near[:, 1:] |= rows[:, :-1]
        near[:, :-1] |= rows[:, 1:]
        verts = np.concatenate([c.vertices for c in cs.curves])
        vx = x0 + np.mod(verts[:, 0] - x0, TWO_PI) if family.periodic else verts[:, 0]
        vi = np.clip(((vx - x0) / hx).astype(int), 0, self.N - 1)
        vj = np.clip(((verts[:, 1] - y0) / hy).astype(int), 0, self.N - 1)
        covered = near[vi, vj]
        corank2 = np.array([p.location for p in specials
                            if p.kind != PointKind.CUSP]).reshape(-1, 2)
        if len(corank2):
            covered |= np.min(np.linalg.norm(
                coord_deltas(family, verts[:, None, :], corank2[None]), axis=-1), axis=1) < cell
        assert np.all(covered)


class TestTraceWork:
    """The closed-form tracer samples every piece of {J = 0} in two batched
    evaluations, however many pieces the box holds."""

    @pytest.mark.parametrize("name, box", [("offset", PAPER_BOX), ("square", NORMAL_BOX)])
    def test_coefficient_evaluations(self, name, box, request, monkeypatch):
        # Six evaluations find the breakpoints and the root candidates, one
        # samples every piece coarsely for its length and one finely.  One
        # evaluation per piece and sample set made it 6 + 2 * 18 = 42 for
        # the offset instance and 6 + 2 * 4 = 14 for the square.
        family = request.getfixturevalue(f"{name}_family")
        specials = find_special_points(family, box)
        abc, calls = trace_module._abc, []

        def counted(*args):
            calls.append(1)
            return abc(*args)

        monkeypatch.setattr(trace_module, "_abc", counted)
        cs = trace_singularity_curves(family, box, specials=specials)
        assert cs.curves and len(calls) == 8

    @pytest.mark.parametrize("name", ["exact", "offset", "square", "quarto"])
    def test_one_evaluation_equals_three(self, name, request):
        # A, B and C from J evaluated once over y = -1, 0, 1 are, to the last
        # bit, those from three evaluations at one y each.
        family = request.getfixturevalue(f"{name}_family")
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for x in (rng.uniform(-7.0, 7.0, 257), rng.uniform(-7.0, 7.0, (3, 5)), 0.3, -2.5):
            jm, j0, jp = (family.jdet(x, y) for y in (-1.0, 0.0, 1.0))
            want = (0.5 * (jp + jm) - j0, 0.5 * (jp - jm), j0)
            for got, w in zip(singular._abc(family, x), want):
                assert np.shape(got) == np.shape(w)
                assert np.array_equal(np.asarray(got, dtype=float).view(np.int64),
                                      np.asarray(w, dtype=float).view(np.int64))
