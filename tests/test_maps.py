import dataclasses
import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge import DET_NORMALIZATION, Rpr2PrExact, eval_map, make_family
from cuspforge.maps import canonical_phi, dedup_mask, newton, point_distances, wrap_delta

from gridscan import fd_hessian, fd_jacobian, fd_jdet_grad
from newton_reference import newton as reference_newton

ALL_FAMILIES = [
    ("rpr2pr_exact", dict(a1=3.0, a2=7.0, b1=6.0, b2=5.0)),
    ("rpr2pr_offset", dict(a1=3.0, a2=7.0, b1=6.0, b2=5.0, d=3.0)),
    ("complex_square_unfolded", dict(a=1.0, b=-1.0)),
    ("quarto_unfolded", dict(a=1.0, b=1.0)),
]


def random_points(family, n, seed=0):
    rng = np.random.default_rng(seed)
    (x0, x1), (y0, y1) = family.default_box()
    return rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)


class TestReferenceValues:
    def test_inline_leg_lengths_at_zero(self, exact_family):
        assert eval_map(exact_family, (0.0, 0.0)) == (9.0, 4.0)

    def test_inline_leg_lengths_at_pi(self, exact_family):
        u, v = eval_map(exact_family, (math.pi, 0.0))
        assert abs(u - 81.0) < 1e-12 and abs(v - 144.0) < 1e-12

    def test_complex_square_origin(self):
        fam = make_family("complex_square_unfolded", a=0.0, b=0.0)
        assert eval_map(fam, (0.0, 0.0)) == (0.0, 0.0)

    def test_offset_values_at_zero(self, offset_family):
        # Closed-form values at phi = 0, y = 0: 54 - 36 = 18 and 83 - 70 = 13.
        u, v = eval_map(offset_family, (0.0, 0.0))
        assert abs(u - 18.0) < 1e-12 and abs(v - 13.0) < 1e-12

    def test_inline_jacobian_vanishes_at_corank2_points(self, exact_family):
        for phi in (0.0, math.pi):
            assert np.max(np.abs(exact_family.jacobian(phi, 0.0))) < 1e-12

    def test_quarto_jacobian_is_diagonal(self):
        fam = make_family("quarto_unfolded", a=0.0, b=0.0)
        assert np.allclose(fam.jacobian(1.0, 1.0), np.diag([2.0, 2.0]))

    def test_offset_jacobian_matches_finite_differences(self, offset_family):
        jac = offset_family.jacobian(0.3, 1.7)
        fd = fd_jacobian(offset_family, 0.3, 1.7)
        assert np.max(np.abs(jac - fd)) / np.max(np.abs(fd)) < 1e-6

    def test_complex_square_det_is_shifted_circle(self):
        fam = make_family("complex_square_unfolded", a=1.0, b=-1.0)
        theta = np.linspace(0.0, 2.0 * math.pi, 37)
        on_circle = fam.jdet(2.0 * np.cos(theta), 2.0 * np.sin(theta))
        assert np.max(np.abs(on_circle)) < 1e-12
        assert abs(fam.jdet(1.0, 1.0) - (1.0 + 1.0 - 4.0)) < 1e-12

    def test_quarto_det_is_hyperbola(self):
        fam = make_family("quarto_unfolded", a=1.0, b=1.0)
        assert fam.jdet(2.0, 0.5) == 0.0
        assert fam.jdet(2.0, 1.0) == 1.0

    def test_inline_det_vanishes_at_origin(self, exact_family):
        assert exact_family.jdet(0.0, 0.0) == 0.0


class TestDerivativeConsistency:
    @pytest.mark.parametrize("kind,params", ALL_FAMILIES)
    def test_jacobian_against_finite_differences(self, kind, params):
        fam = make_family(kind, **params)
        phi, y = random_points(fam, 1000, seed=11)
        jac = fam.jacobian(phi, y)
        fd = fd_jacobian(fam, phi, y)
        scale = np.maximum(np.max(np.abs(fd), axis=(-2, -1)), 1.0)
        assert np.max(np.abs(jac - fd) / scale[..., None, None]) < 1e-6

    @pytest.mark.parametrize("kind,params", ALL_FAMILIES)
    def test_hessian_against_differenced_jacobian(self, kind, params):
        fam = make_family(kind, **params)
        phi, y = random_points(fam, 1000, seed=12)
        hess = fam.hessian(phi, y)
        fd = fd_hessian(fam, phi, y)
        scale = np.maximum(np.max(np.abs(fd), axis=(-3, -2, -1)), 1.0)
        assert np.max(np.abs(hess - fd) / scale[..., None, None, None]) < 1e-5

    @pytest.mark.parametrize("kind,params", ALL_FAMILIES)
    def test_hessian_symmetry(self, kind, params):
        fam = make_family(kind, **params)
        phi, y = random_points(fam, 200, seed=13)
        hess = fam.hessian(phi, y)
        assert np.array_equal(hess[..., 0, 1], hess[..., 1, 0])

    @pytest.mark.parametrize("kind,params", ALL_FAMILIES)
    def test_normalized_determinant_factor(self, kind, params):
        fam = make_family(kind, **params)
        phi, y = random_points(fam, 500, seed=14)
        raw = np.linalg.det(fam.jacobian(phi, y))
        normalized = fam.jdet(phi, y)
        scale = np.maximum(np.abs(raw), 1.0)
        assert np.max(np.abs(raw - DET_NORMALIZATION * normalized) / scale) < 1e-12

    @pytest.mark.parametrize("kind,params", ALL_FAMILIES)
    def test_determinant_gradient(self, kind, params):
        fam = make_family(kind, **params)
        phi, y = random_points(fam, 400, seed=15)
        gx, gy = fam.jdet_grad(phi, y)
        fx, fy = fd_jdet_grad(fam, phi, y)
        scale = np.maximum(np.maximum(np.abs(fx), np.abs(fy)), 1.0)
        assert np.max(np.abs(gx - fx) / scale) < 1e-6
        assert np.max(np.abs(gy - fy) / scale) < 1e-6

    @pytest.mark.parametrize("kind,params", ALL_FAMILIES)
    def test_determinant_hessian(self, kind, params):
        fam = make_family(kind, **params)
        phi, y = random_points(fam, 300, seed=16)
        h = 1e-5
        jpp, jpy, jyy = fam.jdet_hess(phi, y)
        fpp = (fam.jdet(phi + h, y) - 2 * fam.jdet(phi, y) + fam.jdet(phi - h, y)) / h**2
        fyy = (fam.jdet(phi, y + h) - 2 * fam.jdet(phi, y) + fam.jdet(phi, y - h)) / h**2
        fpy = (fam.jdet(phi + h, y + h) - fam.jdet(phi + h, y - h)
               - fam.jdet(phi - h, y + h) + fam.jdet(phi - h, y - h)) / (4 * h**2)
        scale = np.maximum(np.abs(fpp) + np.abs(fpy) + np.abs(fyy), 1.0)
        assert np.max(np.abs(jpp - fpp) / scale) < 1e-4
        assert np.max(np.abs(jpy - fpy) / scale) < 1e-4
        assert np.max(np.abs(jyy - fyy) / scale) < 1e-4

    def test_scalar_wrappers_match_vector_methods(self, offset_family):
        # At a scalar point the methods give one value, a 2x2 Jacobian, a
        # 2x2x2 Hessian tensor, a determinant and its two partials.
        q = (0.37, -2.1)
        u, v = offset_family.evaluate(*q)
        assert eval_map(offset_family, q) == (float(u), float(v))
        assert np.shape(offset_family.jacobian(*q)) == (2, 2)
        assert np.shape(offset_family.hessian(*q)) == (2, 2, 2)
        assert np.shape(offset_family.jdet(*q)) == ()
        assert np.shape(offset_family.jdet_grad(*q)) == (2,)


class TestOffsetSpecializesToInline:
    def test_values_jacobians_hessians_agree_at_d_zero(self, exact_family):
        degenerate = make_family("rpr2pr_offset", a1=3.0, a2=7.0, b1=6.0, b2=5.0, d=0.0)
        rng = np.random.default_rng(21)
        phi = rng.uniform(-math.pi / 2, 3 * math.pi / 2, 1000)
        y = rng.uniform(-21.0, 21.0, 1000)
        for attr in ("evaluate", "jacobian", "hessian", "jdet", "jdet_grad", "jdet_hess"):
            got = np.asarray(getattr(degenerate, attr)(phi, y))
            want = np.asarray(getattr(exact_family, attr)(phi, y))
            assert np.array_equal(got, want), attr
        assert degenerate.reach == exact_family.reach
        assert degenerate.default_box() == exact_family.default_box()

    def test_inline_family_takes_the_four_lengths_only(self):
        assert [f.name for f in dataclasses.fields(Rpr2PrExact)] == ["a1", "a2", "b1", "b2"]
        with pytest.raises(TypeError):
            Rpr2PrExact(3.0, 7.0, 6.0, 5.0, d=1.0)
        assert make_family("rpr2pr_exact", a1=3.0, a2=7.0, b1=6.0, b2=5.0).kind == "rpr2pr_exact"


class TestPeriodicity:
    def test_bitwise_periodicity_on_addition_exact_angles(self, exact_family):
        rng = np.random.default_rng(31)
        phi = rng.integers(-2**20, 2**20, size=4000).astype(float) * 2.0**-18
        y = rng.uniform(-8, 8, size=4000)
        shifted = phi + 2.0 * math.pi
        assert np.array_equal(exact_family.evaluate(phi, y)[0],
                              exact_family.evaluate(shifted, y)[0])
        assert np.array_equal(exact_family.evaluate(phi, y)[1],
                              exact_family.evaluate(shifted, y)[1])
        assert np.array_equal(exact_family.jdet(phi, y),
                              exact_family.jdet(shifted, y))

    @settings(max_examples=100, deadline=None)
    @given(phi=st.floats(-50.0, 50.0), y=st.floats(-8.0, 8.0))
    def test_near_periodicity_for_arbitrary_angles(self, phi, y):
        fam = make_family("rpr2pr_offset", a1=3.0, a2=7.0, b1=6.0, b2=5.0, d=3.0)
        u1, v1 = fam.evaluate(phi, y)
        u2, v2 = fam.evaluate(phi + 2.0 * math.pi, y)
        assert abs(float(u1) - float(u2)) < 1e-11
        assert abs(float(v1) - float(v2)) < 1e-11

    def test_canonical_window(self):
        phi = np.linspace(-20.0, 20.0, 1001)
        c = canonical_phi(phi)
        assert np.all(c >= -math.pi / 2 - 1e-12) and np.all(c < 3 * math.pi / 2)
        assert np.max(np.abs(wrap_delta(c - phi))) < 1e-9


class TestPointKernel:
    SEAM = np.array([[-0.5 * math.pi + 1e-7, 1.0], [1.5 * math.pi - 1e-7, 1.0]])

    def test_dedup_merges_across_the_seam_only_for_angles(self, exact_family):
        assert dedup_mask(exact_family, self.SEAM, 1e-4).tolist() == [True, False]
        square = make_family("complex_square_unfolded", a=1.0, b=-1.0)
        assert dedup_mask(square, self.SEAM, 1e-4).tolist() == [True, True]

    def test_dedup_keeps_first_row_of_each_cluster(self, offset_family):
        pts = np.array([[1.0, 2.0], [3.0, 0.0], [1.0 + 3e-5, 2.0], [3.0, 3e-5],
                        [1.0, 2.0 - 3e-5], [1.0, 2.0 + 5e-4]])
        assert dedup_mask(offset_family, pts, 1e-4).tolist() == [
            True, True, False, False, False, True]
        assert dedup_mask(offset_family, pts[::-1], 1e-4).tolist() == [
            True, True, True, False, False, False]

    def test_distances_wrap_the_angle(self, exact_family, quarto_family):
        d = point_distances(exact_family, self.SEAM, self.SEAM[0])
        assert d[0] == 0.0 and d[1] < 1e-6
        assert point_distances(quarto_family, self.SEAM[1], self.SEAM[0]) > 6.0


def assert_newton_matches_reference(*args):
    """newton gives bitwise the points, residuals and kept steps of the
    stacked loop of ``newton_reference``.  Returns its own output."""
    got, want = newton(*args), reference_newton(*args)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    return got


class TestNewtonKernel:
    def test_dead_rows_stop_where_they_stand(self):
        # Rows 1 and 2 of the a = b = 0 quarto: the Jacobian diag(2x, 2y)
        # vanishes at the origin, and at 1e-161 its determinant is so small
        # that the step overflows.  Neither may warn or disturb the others.
        family = make_family("quarto_unfolded", a=0.0, b=0.0)
        q0 = np.array([[1.3, 0.7], [0.0, 0.0], [1e-161, 1e-161], [-0.8, 2.2]])
        target = np.array([[1.0, 1.0], [1.0, 1.0], [1e200, 1e200], [0.5, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, resid, kept = newton(family.evaluate, family.jacobian, q0, target, 1e-12, 20)
        assert q[1:3].tobytes() == q0[1:3].tobytes()
        assert kept[1:3].tolist() == [0, 0]
        assert resid[1:3].tolist() == [1.0, 1e200]
        for i in (0, 3):
            aq, ar, ak = newton(family.evaluate, family.jacobian, q0[i:i + 1], target[i], 1e-12, 20)
            assert q[i].tobytes() == aq[0].tobytes()
            assert (resid[i], kept[i]) == (ar[0], ak[0])
            assert resid[i] <= 1e-12 and kept[i] > 0
        assert_newton_matches_reference(family.evaluate, family.jacobian, q0, target, 1e-12, 20)

    @pytest.mark.parametrize("name", ["exact", "offset", "square", "quarto"])
    def test_matches_the_stacked_reference(self, name, request):
        # Points of the default box, and seeds moved off them by 1e-4 to 1
        # times the box: at a positive tolerance some rows converge, some
        # stall, and with two steps some are still live when the steps run out.
        family = request.getfixturevalue(f"{name}_family")
        (x0, x1), (y0, y1) = family.default_box()
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        at = rng.uniform((x0, y0), (x1, y1), (256, 2))
        scale = np.logspace(-4.0, 0.0, len(at))[:, None] * (x1 - x0, y1 - y0)
        q0 = at + scale * rng.normal(size=at.shape)
        target = np.column_stack(family.evaluate(at[:, 0], at[:, 1]))
        for tol, max_iter in ((1e-9, 20), (1e-9, 2)):
            _, resid, kept = assert_newton_matches_reference(
                family.evaluate, family.jacobian, q0, target, tol, max_iter)
            assert np.any(resid <= tol)
            assert max_iter == 20 or np.any((kept == max_iter) & (resid > tol))


class TestValidation:
    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            make_family("rpr2pr_exact", a1=0.0, a2=7.0, b1=6.0, b2=5.0)
        with pytest.raises(ValueError):
            make_family("rpr2pr_offset", a1=3.0, a2=7.0, b1=6.0, b2=5.0, d=-1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_family("nope")

    def test_rejects_nonfinite_unfolding(self):
        with pytest.raises(ValueError):
            make_family("quarto_unfolded", a=math.nan, b=1.0)
