import math
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from cuspforge import (
    ConfigError,
    PointKind,
    PreconditionViolated,
    classify_point,
    detection_system,
    discriminant,
    find_special_points,
    make_family,
    quadratic_expansion,
    reference_scales,
    singular,
    trace_singularity_curves,
)
from cuspforge.maps import wrap_delta
from cuspforge.singular import _correct, _detection_batch, _whitney_term

from conftest import NORMAL_BOX, PAPER_BOX
from gridscan import complex_square_cusp_locations, quarto_cusp_location
from special_multistart import multistart_special_points


def periodic_dist(p, q):
    return math.hypot(wrap_delta(p[0] - q[0]), p[1] - q[1])


@dataclass(frozen=True)
class SwappedOutputs:
    """Same map with (u, v) exchanged, which negates the determinant."""

    base: object

    @property
    def periodic(self):
        return self.base.periodic

    @property
    def input_names(self):
        return self.base.input_names

    kind = "swapped"

    def default_box(self):
        return self.base.default_box()

    def evaluate(self, x, y):
        u, v = self.base.evaluate(x, y)
        return v, u

    def jacobian(self, x, y):
        return np.asarray(self.base.jacobian(x, y))[..., ::-1, :]

    def hessian(self, x, y):
        return np.asarray(self.base.hessian(x, y))[..., ::-1, :, :]

    def jdet(self, x, y):
        return -np.asarray(self.base.jdet(x, y))

    def jdet_grad(self, x, y):
        gx, gy = self.base.jdet_grad(x, y)
        return -np.asarray(gx), -np.asarray(gy)

    def jdet_hess(self, x, y):
        jpp, jpy, jyy = self.base.jdet_hess(x, y)
        return -np.asarray(jpp), -np.asarray(jpy), -np.asarray(jyy)


class TestDetectionSystem:
    def test_vanishes_at_inline_corank2_points(self, exact_family):
        for phi in (0.0, math.pi):
            r = detection_system(exact_family, (phi, 0.0))
            assert max(abs(v) for v in r) < 1e-12

    def test_quarto_hand_computed_value(self):
        fam = make_family("quarto_unfolded", a=0.0, b=0.0)
        r = detection_system(fam, (1.0, 0.0))
        assert r == (0.0, -2.0, 0.0)

    @pytest.mark.parametrize("name", ["exact", "offset", "square", "quarto"])
    def test_products_equal_einsum_reference(self, request, name):
        # The residual k = Jac . t and its Jacobian hess . t + Jac . dt, with
        # t = (-J_y, J_phi), summed in the same order as the explicit products.
        family = request.getfixturevalue(f"{name}_family")
        (x0, x1), (y0, y1) = family.default_box()
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(x0, x1, 200), rng.uniform(y0, y1, 200)])
        phi, y = pts[:, 0], pts[:, 1]
        jphi, jy = family.jdet_grad(phi, y)
        jpp, jpy, jyy = family.jdet_hess(phi, y)
        jac, hess = family.jacobian(phi, y), family.hessian(phi, y)
        t = np.stack([-jy, jphi], axis=-1)
        dt = np.stack([np.stack([-jpy, -jyy], -1), np.stack([jpp, jpy], -1)], -2)
        k = np.einsum("...ij,...j->...i", jac, t)
        dk = (np.einsum("...ijl,...j->...il", hess, t)
              + np.einsum("...ij,...jl->...il", jac, dt))
        r, a, jac_out, jdet_hess = _detection_batch(family, pts)
        assert np.array_equal(jac_out, jac)
        assert all(np.array_equal(got, want) for got, want in zip(jdet_hess, (jpp, jpy, jyy)))
        assert np.array_equal(r[:, 0], family.jdet(phi, y))
        assert np.array_equal(r[:, 1:], k)
        assert np.array_equal(a[:, 0], np.column_stack([jphi, jy]))
        assert np.array_equal(a[:, 1:], dk)


class TestInlineManipulator:
    def test_exactly_two_special_points(self, exact_specials):
        assert len(exact_specials) == 2
        locs = [p.location for p in exact_specials]
        assert periodic_dist(locs[0], (0.0, 0.0)) < 1e-9
        assert periodic_dist(locs[1], (math.pi, 0.0)) < 1e-9

    def test_kinds_and_discriminants(self, exact_specials):
        node, isolated = exact_specials
        assert node.kind == PointKind.CORANK2_HYPERBOLIC
        assert abs(node.delta - 13489.0) < 1e-6
        assert isolated.kind == PointKind.CORANK2_ELLIPTIC
        assert abs(isolated.delta - (-12911.0)) < 1e-6

    def test_residuals_below_tolerance(self, exact_specials, offset_specials):
        for p in list(exact_specials) + list(offset_specials):
            assert p.residual < 1e-10

    def test_quadratic_expansion_at_node(self, exact_family):
        exp = quadratic_expansion(exact_family, (0.0, 0.0))
        assert np.allclose(exp.jdet, (11.0, -17.0, -300.0), rtol=1e-12)
        assert np.allclose(exp.outputs[0], (1.0, 12.0, 18.0), rtol=1e-12)
        assert np.allclose(exp.outputs[1], (1.0, -10.0, 35.0), rtol=1e-12)
        assert discriminant(exp) == 13489.0

    def test_quadratic_expansion_at_isolated_point(self, exact_family):
        exp = quadratic_expansion(exact_family, (math.pi, 0.0))
        assert np.allclose(exp.jdet, (-11.0, 17.0, -300.0), atol=1e-9)
        assert np.allclose(exp.outputs[0], (1.0, -12.0, -18.0), atol=1e-9)
        assert np.allclose(exp.outputs[1], (1.0, 10.0, -35.0), atol=1e-9)

    def test_quadratic_expansion_rejects_rank_one_points(self, offset_family,
                                                         offset_specials):
        cusp = offset_specials[0].location
        with pytest.raises(PreconditionViolated):
            quadratic_expansion(offset_family, cusp)

    def test_corank2_points_take_one_jet_evaluation_and_one_svd(
            self, monkeypatch, exact_family, exact_specials):
        # Δ comes from the Hessian of J that the detection batch already
        # holds, so a corank-2 point costs no more than a cusp.
        reference_scales(exact_family)  # sampled once per family, not per point
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        jets = ("evaluate", "jacobian", "hessian", "jdet", "jdet_grad", "jdet_hess")
        for name in jets:
            monkeypatch.setattr(type(exact_family), name,
                                counting(name, getattr(type(exact_family), name)))
        for p in exact_specials:
            calls.clear()
            assert classify_point(exact_family, p.location) == p
            assert calls == Counter(dict.fromkeys(jets + ("svd",), 1))

    def test_image_values(self, exact_specials):
        node, isolated = exact_specials
        assert abs(node.image.u - 9.0) < 1e-9 and abs(node.image.v - 4.0) < 1e-9
        assert abs(isolated.image.u - 81.0) < 1e-6
        assert abs(isolated.image.v - 144.0) < 1e-6


class TestOffsetManipulator:
    PAPER_CUSPS = [(-0.0023, 2.9069), (2.6492, -2.2190),
                   (-2.7368, -1.2968), (3.0855, 2.6935)]

    def test_four_cusps_at_reference_coordinates(self, offset_specials):
        assert len(offset_specials) == 4
        assert all(p.kind == PointKind.CUSP for p in offset_specials)
        for ref in self.PAPER_CUSPS:
            best = min(periodic_dist(p.location, ref) for p in offset_specials)
            assert best < 1e-3

    def test_classification_stable_under_grid_doubling(self, offset_family,
                                                       offset_specials):
        # A coarse 32 x 32 multistart lattice finds the same points.
        halved = multistart_special_points(offset_family, PAPER_BOX, grid=32)
        assert len(halved) == len(offset_specials)
        for a, b in zip(halved, offset_specials):
            assert a.kind == b.kind
            assert periodic_dist(a.location, b.location) < 1e-8

    def test_window_past_the_canonical_range(self, offset_family):
        # (6.0, 6.5) is (-0.28, 0.22) shifted by 2 pi: the same cusp, still
        # reported with its canonical angle, and flagged on the trace.
        box = ((6.0, 6.5), (-8.0, 8.0))
        (shifted,) = find_special_points(offset_family, box)
        (near_zero,) = find_special_points(offset_family, ((-0.5, 0.5), (-8.0, 8.0)))
        assert shifted.kind == near_zero.kind == PointKind.CUSP
        assert periodic_dist(shifted.location, near_zero.location) < 1e-12
        assert -0.5 * math.pi <= shifted.location.phi < 1.5 * math.pi
        cs = trace_singularity_curves(offset_family, box)
        flagged = [c.vertices[i] for c in cs.curves for i in c.cusp_indices]
        assert len(flagged) == 1
        assert periodic_dist(flagged[0], shifted.location) < 1e-12


def mirror_draws():
    """Quarto parameters (a, b): four with ab = 0, then eight seeded draws
    from U(-2, 2)^2."""
    rng = np.random.default_rng(zlib.crc32(b"mirror"))
    return ([(0.0, 0.0), (1.0, 0.0), (0.7, 0.0), (0.0, -1.3)]
            + [tuple(float(v) for v in rng.uniform(-2.0, 2.0, 2)) for _ in range(8)])


MIRROR_DRAWS = mirror_draws()


class TestNormalForms:
    def test_complex_square_cusps_on_circle(self, square_family):
        points = find_special_points(square_family, NORMAL_BOX)
        assert len(points) == 3
        assert all(p.kind == PointKind.CUSP for p in points)
        for p in points:
            assert abs(math.hypot(*p.location) - 2.0) < 1e-8
        expected = complex_square_cusp_locations(1.0, -1.0)
        found = sorted((p.location.phi, p.location.y) for p in points)
        assert np.allclose(found, expected, atol=1e-8)

    def test_quarto_single_cusp_on_hyperbola(self, quarto_family):
        points = find_special_points(quarto_family, NORMAL_BOX)
        assert len(points) == 1
        assert points[0].kind == PointKind.CUSP
        x, y = points[0].location
        assert abs(x * y - 1.0) < 1e-8
        assert np.allclose((x, y), quarto_cusp_location(1.0, 1.0), atol=1e-8)

    def test_quarto_cusp_classified_directly(self, quarto_family):
        assert classify_point(quarto_family, (1.0, 1.0)).kind == PointKind.CUSP

    def test_degenerate_unfoldings_are_corank2(self):
        square0 = make_family("complex_square_unfolded", a=0.0, b=0.0)
        point = classify_point(square0, (0.0, 0.0))
        assert point.kind == PointKind.CORANK2_ELLIPTIC and point.delta < 0
        quarto0 = make_family("quarto_unfolded", a=0.0, b=0.0)
        point = classify_point(quarto0, (0.0, 0.0))
        assert point.kind == PointKind.CORANK2_HYPERBOLIC and point.delta > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_complex_square_cusp_circle(self, seed):
        rng = np.random.default_rng(100 + seed)
        a, b = rng.uniform(-2.0, 2.0, 2)
        while abs(a - b) < 0.1:
            a, b = rng.uniform(-2.0, 2.0, 2)
        fam = make_family("complex_square_unfolded", a=a, b=b)
        points = find_special_points(fam, ((-9.0, 9.0), (-9.0, 9.0)))
        assert len(points) == 3
        center, radius = (-a - b, 0.0), abs(a - b)
        for p in points:
            assert p.kind == PointKind.CUSP
            dist = math.hypot(p.location.phi - center[0], p.location.y - center[1])
            assert abs(dist - radius) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_random_quarto_cusp_hyperbola(self, seed):
        rng = np.random.default_rng(200 + seed)
        a, b = rng.uniform(-2.0, 2.0, 2)
        while abs(a * b) < 0.05:
            a, b = rng.uniform(-2.0, 2.0, 2)
        fam = make_family("quarto_unfolded", a=a, b=b)
        points = find_special_points(fam, ((-9.0, 9.0), (-9.0, 9.0)))
        assert len(points) == 1
        p = points[0]
        assert p.kind == PointKind.CUSP
        assert abs(p.location.phi * p.location.y - a * b) < 1e-8

    @pytest.mark.parametrize("a, b", MIRROR_DRAWS, ids=[f"{a:.3g},{b:.3g}" for a, b in MIRROR_DRAWS])
    def test_quarto_mirror_symmetry(self, a, b):
        # (x, y) -> (x^2 + 2ay, y^2 + 2bx) is the quarto with a and b swapped,
        # read with x and y, and u and v, swapped: the same kinds, at swapped
        # locations.
        points = find_special_points(make_family("quarto_unfolded", a=a, b=b), NORMAL_BOX)
        mirror = find_special_points(make_family("quarto_unfolded", a=b, b=a), NORMAL_BOX)
        mirror.sort(key=lambda p: (p.location.y, p.location.phi))
        assert [p.kind for p in points] == [p.kind for p in mirror]
        for p, m in zip(points, mirror):
            assert abs(p.location.phi - m.location.y) < 1e-12
            assert abs(p.location.y - m.location.phi) < 1e-12


class TestClassifyEdgeCases:
    def test_rejects_points_off_the_singular_set(self, exact_family):
        with pytest.raises(PreconditionViolated):
            classify_point(exact_family, (0.5, 0.5))

    @pytest.mark.parametrize("q", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
    def test_rejects_non_finite_points(self, square_family, q):
        with pytest.raises(ConfigError, match="point must be finite"):
            classify_point(square_family, q)

    @pytest.mark.parametrize("q", [(1e200, 1e200), (1e200, 0.0), (0.0, 1e300)])
    def test_rejects_points_whose_jets_overflow(self, square_family, offset_family, q):
        # The dense quadratic sum gives J = NaN there (0 * inf), and a NaN is
        # no point of the singular set; nothing warns on the way.
        for family in (square_family, offset_family):
            with pytest.raises(PreconditionViolated, match="not on the singularity set"):
                classify_point(family, q)

    def test_plain_fold_is_fold_only(self, exact_family):
        # A point on {J = 0} away from the special points: solve the
        # quadratic in y at phi = 0.8.
        phi = 0.8
        s, c = math.sin(phi), math.cos(phi)
        kbb, kab, kprod = 11.0, -17.0, 300.0
        disc = (kab * s) ** 2 + 4.0 * kbb * c * kprod * s * s
        y = (-kab * s + math.sqrt(disc)) / (2.0 * kbb * c)
        assert abs(float(exact_family.jdet(phi, y))) < 1e-9
        point = classify_point(exact_family, (phi, y))
        assert point.kind == PointKind.FOLD_ONLY

    def test_classification_invariant_under_determinant_negation(
            self, exact_family, offset_family, square_family):
        for fam, box in ((exact_family, PAPER_BOX), (offset_family, PAPER_BOX),
                         (square_family, NORMAL_BOX)):
            original = find_special_points(fam, box)
            flipped = find_special_points(SwappedOutputs(fam), box)
            assert [p.kind for p in original] == [p.kind for p in flipped]
            for a, b in zip(original, flipped):
                assert periodic_dist(a.location, b.location) < 1e-8
                if not math.isnan(a.delta):
                    assert abs(a.delta - b.delta) < 1e-6 * max(1.0, abs(a.delta))

    def test_box_validation(self, exact_family):
        with pytest.raises(ValueError):
            find_special_points(exact_family, ((0.0, 0.0), (-1.0, 1.0)))

    @pytest.mark.parametrize("box", [((50.0, 51.0), (50.0, 51.0)), ((0.5, 0.6), (-0.1, 0.1))])
    def test_box_without_special_points(self, quarto_family, box):
        # The quarto's one cusp, and every detection candidate, lies outside.
        assert find_special_points(quarto_family, box) == []


def fd_whitney_derivative(family, q, jac):
    """The Whitney derivative by central differences at +-1e-4 along the
    fold tangent, each end projected back onto {J = 0}: the cusp test as it
    was before it read the detection Jacobian."""
    scales = reference_scales(family)
    gphi, gy = (float(v) for v in family.jdet_grad(q[0], q[1]))
    tangent = np.array([-gy, gphi]) / math.hypot(gphi, gy)
    image_dir = np.linalg.svd(jac)[0][:, 0]
    h = 1e-4
    jtol = 1e-12 * max(1.0, scales.jdet)
    (plus, minus), _ = _correct(family, [q + h * tangent, q - h * tangent], jtol, max_iter=12)
    plus, minus = (float(image_dir @ _detection_batch(family, p)[0][1:]) for p in (plus, minus))
    return (plus - minus) / (2.0 * h)


class TestWhitneyTest:
    @pytest.mark.parametrize("name, box, count", [
        ("offset", PAPER_BOX, 4), ("square", NORMAL_BOX, 3), ("quarto", NORMAL_BOX, 1)])
    def test_closed_form_matches_finite_differences(self, name, box, count, request):
        family = request.getfixturevalue(f"{name}_family")
        cusps = [p for p in find_special_points(family, box) if p.kind is PointKind.CUSP]
        assert len(cusps) == count
        for p in cusps:
            q = np.array(p.location)
            _, a, jac, _ = _detection_batch(family, q)
            derivative = _whitney_term(a, np.linalg.svd(jac)[0][:, 0])
            want = fd_whitney_derivative(family, q, jac)
            assert abs(derivative - want) <= 1e-5 * abs(want)

    @pytest.mark.parametrize("b", [0.7, -1.3, 1.0])
    def test_crossing_axes_of_the_quarto_stay_degenerate(self, b):
        # Where ab = 0 the singular set of the quarto is the two axes, and
        # their crossing is the one special point, on both mirror sides
        # (a, b) = (0, b) and (b, 0).
        for a_side, b_side in ((0.0, b), (b, 0.0)):
            family = make_family("quarto_unfolded", a=a_side, b=b_side)
            [point] = find_special_points(family, NORMAL_BOX)
            assert tuple(point.location) == (0.0, 0.0)
            assert point.kind == PointKind.DEGENERATE

    def test_quarto_germ_origin_is_hyperbolic(self):
        # At a = b = 0 the crossing of the axes is the quarto germ itself, a
        # hyperbolic corank-2 point.
        [point] = find_special_points(make_family("quarto_unfolded", a=0.0, b=0.0), NORMAL_BOX)
        assert tuple(point.location) == (0.0, 0.0)
        assert point.kind == PointKind.CORANK2_HYPERBOLIC and point.delta > 0


MANIPULATOR = dict(a1=3.0, a2=7.0, b1=6.0, b2=5.0)
INSTANCES = (("rpr2pr_exact", MANIPULATOR, PAPER_BOX),
             ("rpr2pr_offset", dict(MANIPULATOR, d=3.0), PAPER_BOX),
             ("complex_square_unfolded", dict(a=1.0, b=-1.0), NORMAL_BOX),
             ("quarto_unfolded", dict(a=1.0, b=1.0), NORMAL_BOX))


def random_draws():
    """Seeded draws: 16 offset manipulators with a_i, b_i in [1, 8], four for
    each offset d, then 8 unfoldings with a != b and ab != 0, alternating
    complex square and quarto."""
    rng = np.random.default_rng(zlib.crc32(b"special points"))
    draws = []
    for i in range(16):
        a1, a2, b1, b2 = rng.uniform(1.0, 8.0, 4)
        draws.append(("rpr2pr_offset",
                      dict(a1=a1, a2=a2, b1=b1, b2=b2, d=(0.003, 0.03, 0.3, 3.0)[i % 4])))
    while len(draws) < 24:
        a, b = rng.uniform(-2.0, 2.0, 2)
        if abs(a - b) >= 0.1 and abs(a * b) >= 0.05:
            kind = ("complex_square_unfolded", "quarto_unfolded")[len(draws) % 2]
            draws.append((kind, dict(a=a, b=b)))
    return draws


class TestOracleAgreement:
    """The resultant seeds find what the 64 x 64 multistart lattice finds:
    the same count, the same kinds, locations within 1e-8."""

    @staticmethod
    def assert_agree(family, box):
        found = find_special_points(family, box)
        oracle = multistart_special_points(family, box)
        assert [p.kind for p in found] == [p.kind for p in oracle]
        for a, b in zip(found, oracle):
            assert periodic_dist(a.location, b.location) < 1e-8

    @pytest.mark.parametrize("reach", [False, True], ids=["paper_box", "reach_box"])
    @pytest.mark.parametrize("kind, params, box", INSTANCES, ids=[i[0] for i in INSTANCES])
    def test_reference_instances(self, kind, params, box, reach):
        self.assert_agree(make_family(kind, **params), None if reach else box)

    @pytest.mark.parametrize("d", [3.0, 1.0, 0.3, 0.1, 0.01, 0.0])
    def test_offset_family(self, d):
        self.assert_agree(make_family("rpr2pr_offset", **MANIPULATOR, d=d), PAPER_BOX)

    @pytest.mark.parametrize("kind, params", random_draws(),
                             ids=[f"{k}-{i}" for i, (k, _) in enumerate(random_draws())])
    def test_random_draws(self, kind, params):
        self.assert_agree(make_family(kind, **params), None)

    @pytest.mark.parametrize("params", [
        # An unguarded polish leaves |J| = 1.1e-5, and classify_point raises.
        dict(a1=6.589663420642738, a2=2.358178332049312, b1=3.733212396584051,
             b2=6.585537202679147, d=0.003),
        # An unguarded polish leaves |J| = 1.1e-6, within classify_point's
        # tolerance, at a point 3.4e-4 off the cusp, which reads FoldOnly.
        dict(a1=5.443687275173407, a2=7.98714054014419, b1=4.985242709468212,
             b2=5.132546990659622, d=0.003),
    ], ids=["raised", "fold_only"])
    def test_polish_keeps_small_offset_cusps(self, params):
        # Near an unfolded corank-2 point the corank-2 polish pulls a true
        # cusp onto the nearby zero of grad J; the Newton point is kept
        # instead.  The split is the paper's: three cusps at the elliptic
        # point (pi, 0), one at the hyperbolic point (0, 0).
        points = find_special_points(make_family("rpr2pr_offset", **params))
        assert [p.kind for p in points] == [PointKind.CUSP] * 4
        near = [min((0.0, 0.0), (math.pi, 0.0), key=lambda c: periodic_dist(p.location, c))
                for p in points]
        assert sorted(near) == [(0.0, 0.0)] + [(math.pi, 0.0)] * 3
        assert all(periodic_dist(p.location, c) < 0.01 for p, c in zip(points, near))

    def test_resultant_of_higher_degree_is_refused(self, exact_family):
        # A determinant outside the quadratic-in-y class raises instead of
        # giving a wrong seed set.
        class Wavy(type(exact_family)):
            def jdet(self, phi, y):
                return super().jdet(phi, y) + np.cos(6.0 * np.asarray(phi)) * np.asarray(y) ** 2

        with pytest.raises(PreconditionViolated):
            find_special_points(Wavy(3.0, 7.0, 6.0, 5.0), PAPER_BOX)


class TestSearchWork:
    """Six searches: the four reference instances in their plotting boxes,
    and the two manipulators over their reach boxes (reproduce-paper makes
    one search per instance, over its reach box)."""

    def test_detection_evaluations(self, monkeypatch, exact_family, offset_family,
                                   square_family, quarto_family):
        # Every call of the residual or of the residual with its Jacobian
        # counts.  Each search samples k twice for the resultants, runs two
        # Newton solves of at most 5 steps (one residual at the start, then
        # a Jacobian and a trial residual per step), evaluates the residual
        # before and after the polish on grad J = 0, and classifies each
        # point: at most 26 calls and one per point.  The six searches take
        # 154, 9 of them for the quarto, once the seeds far outside the box
        # are dropped (164 and 21 before).  The damped Gauss-Newton took 180
        # and 21, and 341 and 96 before it switched to Newton on grad J = 0.
        calls = []

        def counting(evaluate):
            def counted(*args):
                calls[-1] += 1
                return evaluate(*args)
            return counted

        for name in ("_residual", "_detection_batch"):
            monkeypatch.setattr(singular, name, counting(getattr(singular, name)))
        found = {}
        for name, family, box in (("exact", exact_family, PAPER_BOX),
                                  ("offset", offset_family, PAPER_BOX),
                                  ("square", square_family, NORMAL_BOX),
                                  ("quarto", quarto_family, NORMAL_BOX),
                                  ("exact_reach", exact_family, None),
                                  ("offset_reach", offset_family, None)):
            calls.append(0)
            found[name] = find_special_points(family, box)
        assert sum(calls) <= 240
        assert calls[3] <= 30

        for name in ("exact", "exact_reach"):
            hyper, elliptic = found[name]
            assert hyper.kind == PointKind.CORANK2_HYPERBOLIC
            assert abs(hyper.location.phi) < 1e-12 and abs(hyper.location.y) < 1e-12
            assert hyper.delta == pytest.approx(13489.0, rel=1e-9)
            assert elliptic.kind == PointKind.CORANK2_ELLIPTIC
            assert periodic_dist(elliptic.location, (math.pi, 0.0)) < 1e-12

    def test_seeds_stay_near_the_box(self):
        # J of the quarto is linear in y, and A is a rounding residue: the
        # second root q / A of J(x, .) = 0 used to seed 8 of 18 points at
        # |y| of about 1.2e16 to 1.7e16 here.
        family = make_family("quarto_unfolded", a=-0.103, b=-0.00105)
        seeds = singular._resultant_seeds(family, NORMAL_BOX)
        assert len(seeds) and np.all(np.abs(seeds) < 12.0)
        (cusp,) = find_special_points(family, NORMAL_BOX)
        assert cusp.kind == PointKind.CUSP
        assert math.dist(cusp.location, quarto_cusp_location(-0.103, -0.00105)) < 1e-12
