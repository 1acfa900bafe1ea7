import math

import numpy as np

from cuspforge import (
    KIND_CHARACTERISTIC,
    KIND_SINGULARITY,
    characteristic_curves,
    image_curves,
    make_family,
    reference_scales,
    trace_singularity_curves,
)
from cuspforge.maps import coord_deltas
from cuspforge.singular import _correct
from cuspforge.trace import _sign_change_seeds

from conftest import NORMAL_BOX, PAPER_BOX


def vertex_spacings(family, poly):
    deltas = coord_deltas(family, poly.vertices[1:], poly.vertices[:-1])
    return np.linalg.norm(deltas, axis=1)


def default_step(box):
    (x0, x1), (y0, y1) = box
    return math.hypot(x1 - x0, y1 - y0) / 1000.0


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


class TestCharacteristicCurves:
    def test_tangency_at_cusps_complex_square(self, square_family):
        step = 0.05
        cs = trace_singularity_curves(square_family, NORMAL_BOX, step)
        chars = characteristic_curves(square_family, cs,
                                      dkp_box=((-10.0, 10.0), (-10.0, 10.0)))
        assert chars.curves and all(c.kind == KIND_CHARACTERISTIC
                                    for c in chars.curves)
        self._assert_cusp_tangency(square_family, cs, chars, step)

    def test_tangency_at_cusps_complex_square_without_box(self, square_family):
        # Without a dkp_box every real preimage counts, including the partner
        # (-6, 0) of the cusp (2, 0), which lies on the edge of the family's
        # default box.
        step = 0.05
        cs = trace_singularity_curves(square_family, NORMAL_BOX, step)
        chars = characteristic_curves(square_family, cs)
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
        chars = characteristic_curves(square_family, cs,
                                      dkp_box=((-10.0, 10.0), (-10.0, 10.0)))
        for chain in chars.curves:
            if len(chain) > 1:
                gaps = np.linalg.norm(np.diff(chain.vertices, axis=0), axis=1)
                assert np.max(gaps) <= 3.0 * step + 1e-9

    def test_degenerate_quarto_characteristic_is_empty(self):
        # All preimages of the fold images lie on the singular axes
        # themselves, which the characteristic set excludes by definition.
        fam = make_family("quarto_unfolded", a=0.0, b=0.0)
        cs = trace_singularity_curves(fam, NORMAL_BOX, 0.05)
        chars = characteristic_curves(fam, cs)
        assert chars.curves == []
