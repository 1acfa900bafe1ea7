"""The quadratic map core: its unfolding presets against the hand-written
reference, and the paper's second claim over random germs of the class."""

import math
import zlib
from dataclasses import dataclass, fields

import numpy as np
import pytest

from cuspforge import (
    PointKind,
    PreconditionViolated,
    classify_point,
    dkp,
    find_special_points,
    make_family,
    solve_dkp,
)
from cuspforge.maps import ComplexSquareUnfolded, QuadraticMap, QuartoUnfolded, coord_deltas

from gridscan import grid_count
from unfolding_reference import (
    ComplexSquareReference,
    QuartoReference,
    quarto_candidates,
    quarto_lift,
    square_candidates,
    square_lift,
)

REFERENCE = {
    ComplexSquareUnfolded: (ComplexSquareReference, square_candidates, square_lift),
    QuartoUnfolded: (QuartoReference, quarto_candidates, quarto_lift),
}
KINDS = ("complex_square_unfolded", "quarto_unfolded")
PARAMETERS = [(1.0, -1.0), (1.0, 1.0), (0.0, 0.0), (0.3, 0.7), (0.0, 0.7), (0.7, 0.0),
              (1e-9, 1e-9)]
JETS = ("evaluate", "jacobian", "hessian", "jdet", "jdet_grad", "jdet_hess")
#: The joint windows of the ``regions`` benchmark workload.
WINDOWS = {"complex_square_unfolded": ((-15.0, 15.0), (-15.0, 15.0)),
           "quarto_unfolded": ((-8.0, 20.0), (-8.0, 20.0))}


def assert_matches_reference_elimination(family, targets):
    """_solve_batch gives the same counts and flags with the elimination of
    the quadratic core as with the hand-written one of the preset, and the
    same solutions to within 1e-12 (max-norm)."""
    _, candidates, lift = REFERENCE[type(family)]
    targets = np.array(targets, dtype=float)
    got = dkp._solve_batch(family, targets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dkp, "_candidates", candidates)
        mp.setattr(dkp, "_lift", lift)
        want = dkp._solve_batch(family, targets)
    assert np.array_equal(np.sum(got[0], axis=1), np.sum(want[0], axis=1))
    for row, target in enumerate(targets):
        q, q_ref = got[1][row, got[0][row]], want[1][row, want[0][row]]
        if len(q) == 0:
            continue
        dist = np.max(np.abs(coord_deltas(family, q[:, None], q_ref[None])), axis=-1)
        match = np.argmin(dist, axis=1)
        assert sorted(match) == list(range(len(q))), f"target {target}"
        assert np.all(dist[np.arange(len(q)), match] < 1e-12), f"target {target}"
        assert np.array_equal(got[3][row, got[0][row]], want[3][row, want[0][row]][match])


class TestUnfoldingPresets:
    @pytest.mark.parametrize("kind", KINDS)
    def test_fields_and_kind(self, kind):
        family = make_family(kind, a=0.3, b=0.7)
        assert [f.name for f in fields(family)] == ["a", "b"]
        assert family.kind == kind and isinstance(family, QuadraticMap)
        with pytest.raises(ValueError):
            make_family(kind, a=float("nan"), b=0.0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("a, b", PARAMETERS)
    def test_jets_match_the_reference(self, kind, a, b):
        family = make_family(kind, a=a, b=b)
        reference = REFERENCE[type(family)][0](a, b)
        pts = np.random.default_rng(zlib.crc32(kind.encode())).uniform(-6.0, 6.0, (2, 300))
        for args in (pts, (0.3, -1.2), (pts[0].reshape(3, 100), 0.5)):
            shape = np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))
            for jet in JETS:
                got, want = getattr(family, jet)(*args), getattr(reference, jet)(*args)
                if isinstance(want, tuple):
                    assert all(np.shape(g) == shape for g in got), jet
                    got = np.stack(got)
                    want = np.stack([np.broadcast_to(w, shape) for w in want])
                assert np.shape(got) == np.shape(want), jet
                scale = max(1.0, float(np.max(np.abs(want))))
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale, err_msg=jet)

    @pytest.mark.parametrize("kind", KINDS)
    def test_count_map_windows(self, kind):
        family = make_family(kind, a=1.0, b=-1.0 if kind == KINDS[0] else 1.0)
        (u0, u1), (v0, v1) = WINDOWS[kind]
        us = u0 + (np.arange(64) + 0.5) * (u1 - u0) / 64
        vs = v0 + (np.arange(64) + 0.5) * (v1 - v0) / 64
        gu, gv = np.meshgrid(us, vs, indexing="ij")
        assert_matches_reference_elimination(family, np.column_stack([gu.ravel(), gv.ravel()]))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("a, b", PARAMETERS + [(3e-6, 3e-6), (0.3, 1.2)])
    def test_images_of_random_points(self, kind, a, b):
        family = make_family(kind, a=a, b=b)
        pts = np.random.default_rng(zlib.crc32(f"{kind} {a} {b}".encode())).uniform(-3, 3, (64, 2))
        assert_matches_reference_elimination(
            family, np.column_stack(family.evaluate(pts[:, 0], pts[:, 1])))

    def test_square_on_its_division_line(self, square_family):
        y = np.linspace(-3.0, 3.0, 25)
        x = np.full_like(y, -2.0 * square_family.b)
        assert_matches_reference_elimination(square_family,
                                             np.column_stack(square_family.evaluate(x, y)))


@dataclass(frozen=True)
class Germ(QuadraticMap):
    """A quadratic map with arbitrary coefficients, on the box (-1, 1)^2."""

    coefficients: tuple

    kind = "quadratic_germ"

    def default_box(self):
        return ((-1.0, 1.0), (-1.0, 1.0))


WIDE_BOX = ((-4.0, 4.0), (-4.0, 4.0))
#: The normal forms of the two corank-2 germs as pairs of symmetric
#: matrices: the quarto (x^2, y^2) and the complex square (x^2 - y^2, 2xy).
QUARTO_FORMS = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
SQUARE_FORMS = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])


def linear_image(forms, source, target=np.eye(2)):
    """The germ target . (q o source) of the quadratic forms q (2, 2, 2)."""
    mixed = np.einsum("ij,jkl->ikl", target, source.T @ forms @ source)
    return Germ(tuple((m[0, 0], 2.0 * m[0, 1], m[1, 1], 0.0, 0.0) for m in mixed))


def rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


def test_germ_without_an_elimination_is_a_typed_error():
    # u and v share their quadratic part, so a combination that drops x^2 or
    # y^2 drops both, and no quartic is left.
    germ = Germ(((1.0, 0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 1.0, 1.0, 0.0)))
    with pytest.raises(PreconditionViolated):
        solve_dkp(germ, (1.0, 0.5))


def linear_images():
    rng = np.random.default_rng(zlib.crc32(b"linear images"))
    cases = [pytest.param(linear_image(QUARTO_FORMS, np.array([[1.0, 1.0], [1.0, -1.0]])),
                          id="(x+y)^2, (x-y)^2"),
             pytest.param(linear_image(QUARTO_FORMS, rotation(math.pi / 6)),
                          id="quarto rotated by 30 deg")]
    for name, forms in (("quarto", QUARTO_FORMS), ("square", SQUARE_FORMS)):
        for i in range(4):
            source, target = rng.uniform(-1.0, 1.0, (2, 2, 2))
            cases.append(pytest.param(linear_image(forms, source, target), id=f"{name} {i}"))
            cases.append(pytest.param(linear_image(forms, source), id=f"{name} {i}, source only"))
    return cases


@pytest.mark.parametrize("germ", linear_images())
def test_linear_images_of_the_normal_forms(germ):
    # A linear change of the source keeps u and v squares of linear forms
    # for the quarto; then J shares a factor with each k_i, both resultants
    # Res_y(J, k_i) vanish identically, and only the discriminant of J in y
    # seeds the origin.
    kind = classify_point(germ, (0.0, 0.0)).kind
    assert kind in (PointKind.CORANK2_ELLIPTIC, PointKind.CORANK2_HYPERBOLIC)
    (point,) = find_special_points(germ)
    assert point.kind == kind
    assert max(map(abs, point.location)) < 1e-12


def test_rank_zero_point_with_a_square_determinant_is_degenerate():
    # u = x^2, v = xy: the Jacobian vanishes at the origin, and J = 2 x^2 is
    # a square, so the discriminant of its quadratic part is 0.
    germ = Germ(((1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0)))
    point = classify_point(germ, (0.0, 0.0))
    assert point.kind == PointKind.DEGENERATE and point.delta == 0.0


class TestSecondClaim:
    """Germs of multiplicity 4 with random quadratic parts are corank-2
    points; under a small linear perturbation an elliptic one unfolds into
    the complex square's 3 cusps and a hyperbolic one into the quarto's 1,
    with no other special point nearby."""

    def test_random_germs(self):
        rng = np.random.default_rng(zlib.crc32(b"quadratic germs"))
        cusps = {PointKind.CORANK2_ELLIPTIC: 3, PointKind.CORANK2_HYPERBOLIC: 1}
        box = ((-1.0, 1.0), (-1.0, 1.0))
        kinds = []
        for i in range(60):
            quadratic = rng.uniform(-1.0, 1.0, (2, 3))
            germ = Germ(tuple(map(tuple, np.hstack([quadratic, np.zeros((2, 2))]))))
            kind = classify_point(germ, (0.0, 0.0)).kind
            assert kind in cusps, f"germ {i}: {kind}"
            kinds.append(kind)
            linear = 1e-2 * rng.uniform(-1.0, 1.0, (2, 2))
            unfolded = Germ(tuple(map(tuple, np.hstack([quadratic, linear]))))
            points = find_special_points(unfolded, box)
            assert [p.kind for p in points] == [PointKind.CUSP] * cusps[kind], f"germ {i}"
            # Some preimages of these targets lie outside (-1, 1)^2, none
            # outside the wider box of the count; each grid count takes
            # about 0.4 s, so only every tenth germ is counted.
            target = rng.uniform(-0.05, 0.05, 2)
            if i % 10 == 0:
                assert len(solve_dkp(unfolded, target, box=WIDE_BOX)) == grid_count(
                    unfolded, target, WIDE_BOX), f"germ {i} at {target}"
        assert set(kinds) == set(cusps)
