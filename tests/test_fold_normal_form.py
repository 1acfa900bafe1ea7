"""The Whitney fold normal form as an invariant over the reference instances
and seeded families.

Past a fold point p, with k spanning the kernel of the Jacobian, the number
of real solutions rises by exactly 2 toward d2F(p)(k, k): the normal form
(x, y^2), read off the jets (H. Whitney, Ann. of Math. 62, 1955).  The check
couples ``maps`` (the jets), ``trace`` (the fold points) and ``dkp`` (the
counts).  The in-line manipulator's fold image is covered twice, so there
the count rises by 4: the non-genericity of the paper's first claim.  Next
to a few seeded fold points of each family, ``count_map`` must show the
same rise between every cell on one side of the fold image and every cell
on the other.
"""

import math
import zlib
from collections import Counter

import numpy as np
import pytest

from cuspforge import (PointKind, dkp, find_special_points, make_family,
                       trace_singularity_curves)
from cuspforge.maps import in_box, point_distances
from cuspforge.monodromy import _point_segment_distance
from unfolding_reference import Germ

MANIPULATOR = dict(a1=3.0, a2=7.0, b1=6.0, b2=5.0)
#: Trace steps per diagonal of the family's box.
STEPS = 100
#: Fold points closer than this share of the diagonal to a special point
#: (a cusp, or a corank-2 point where branches end) are not checked: there
#: the offset straddles both arcs of the cusp's image.
SKIP_RADIUS = 0.02
#: The offset off the fold image, as a share of 1 + max|F(p)|; it is never
#: more than a tenth of the distance to any other image segment.
EPSILON = 1e-6
#: Image segments closer than this share of 1 + max|F(p)| pass through F(p).
COVER = dkp.DKP_TOL
#: Seeded fold points per family whose neighbourhood ``count_map`` counts.
COUNT_MAP_POINTS = 8


def families():
    """The reference instances and 40 seeded draws, with the rise of each
    one's count across its fold image."""
    yield "in-line", make_family("rpr2pr_exact", **MANIPULATOR), 4
    yield "offset", make_family("rpr2pr_offset", **MANIPULATOR, d=3.0), 2
    yield "square", make_family("complex_square_unfolded", a=1.0, b=-1.0), 2
    yield "quarto", make_family("quarto_unfolded", a=1.0, b=1.0), 2
    rng = np.random.default_rng(zlib.crc32(b"whitney folds"))
    for i in range(10):
        a1, a2, b1, b2 = rng.uniform(1.0, 8.0, 4).tolist()
        d = float(rng.uniform(0.5, 4.0))
        yield f"offset {i}", make_family("rpr2pr_offset", a1=a1, a2=a2, b1=b1, b2=b2, d=d), 2
        a, b = rng.uniform(-1.0, 1.0, 2).tolist()
        yield f"square {i}", make_family("complex_square_unfolded", a=a, b=b), 2
        a, b = rng.uniform(-1.0, 1.0, 2).tolist()
        yield f"quarto {i}", make_family("quarto_unfolded", a=a, b=b), 2
        yield f"germ {i}", Germ(tuple(map(tuple, rng.uniform(-1.0, 1.0, (2, 5)).tolist()))), 2


def weighted_counts(family, targets):
    """The solutions of each target, a flagged (double) root counted twice."""
    keep, _, _, flags = dkp._solve_batch(family, targets)
    return np.sum(keep, axis=1) + np.sum(keep & flags, axis=1)


def wide_box(family):
    """Three times the family's box (the angle keeps its period), so that the
    special points and image arcs just outside the box count too."""
    (x0, x1), (y0, y1) = family.default_box()
    return ((x0, x1) if family.periodic else (2.0 * x0 - x1, 2.0 * x1 - x0),
            (2.0 * y0 - y1, 2.0 * y1 - y0))


def fold_points(family, specials, cs):
    """The vertices of the trace ``cs`` inside the family's box that lie away
    from the special points, their images, and each image's distance to
    every image segment that does not pass through it (the segments that end
    at it, and on a fold image covered twice those of the other cover)."""
    box = family.default_box()
    (x0, x1), (y0, y1) = box
    diag = math.hypot(x1 - x0, y1 - y0)
    marks = np.reshape([p.location for p in specials], (-1, 2))
    images = [np.column_stack(family.evaluate(*c.vertices.T)) for c in cs.curves]
    images += [np.repeat([family.evaluate(*p)], 2, axis=0) for p in cs.isolated_points]
    found = []
    for own, curve in enumerate(cs.curves):
        n = len(curve) - curve.closed  # a closed branch repeats vertex 0 last
        at = np.flatnonzero(in_box(family, curve.vertices[:n], box)
                            & np.all(point_distances(family, curve.vertices[:n, None], marks)
                                     > SKIP_RADIUS * diag, axis=1))
        image = images[own][at]
        cover = COVER * (1.0 + np.max(np.abs(image), axis=1, keepdims=True))
        dist = np.full(len(at), np.inf)
        for v in images:
            d = _point_segment_distance(image, v)
            d[d < cover] = np.inf
            dist = np.minimum(dist, np.min(d, axis=1, initial=np.inf))
        found.append((curve.vertices[at], image, dist))
    return (np.concatenate(part) for part in zip(*found, strict=True))


@pytest.fixture(scope="module")
def traces():
    """Each family with its rise, its special points over :func:`wide_box`
    and their trace at STEPS vertices per diagonal of the family's box."""
    out = []
    for name, family, rise in families():
        (x0, x1), (y0, y1) = family.default_box()
        specials = find_special_points(family, wide_box(family))
        cs = trace_singularity_curves(family, wide_box(family),
                                      math.hypot(x1 - x0, y1 - y0) / STEPS, specials=specials)
        out.append((name, family, rise, specials, cs))
    return out


@pytest.fixture(scope="module")
def folds(traces):
    """Each family with its rise and its fold points (:func:`fold_points`)."""
    return [(name, family, rise, *fold_points(family, specials, cs))
            for name, family, rise, specials, cs in traces]


@pytest.mark.parametrize("step", ["module", "default"])
def test_every_cusp_is_the_cusp_vertex_of_one_branch(traces, step):
    # At the module's step the traces are reused; the default step (a
    # thousandth of the wide box's diagonal) traces the same boxes again.
    checked = 0
    for name, family, _, specials, cs in traces:
        if step == "default":
            cs = trace_singularity_curves(family, wide_box(family), specials=specials)
        cusps = Counter(tuple(p.location) for p in specials if p.kind is PointKind.CUSP)
        vertices = Counter(tuple(c.vertices[i]) for c in cs.curves for i in c.cusp_indices)
        assert vertices == cusps, f"{name}: cusp vertices {vertices}, located cusps {cusps}"
        checked += len(cusps)
    assert checked >= 100  # the 44 families hold 100 cusps


def offsets(family, p, image, dist):
    """The offset off the fold image at each fold point, and the unit normal
    to the image there, signed toward d2F(p)(k, k)."""
    u, _, vt = np.linalg.svd(family.jacobian(p[:, 0], p[:, 1]))
    k, w = vt[:, 1], u[:, :, 1]  # the kernel, and the normal to the image
    bend = np.einsum("nkij,ni,nj->nk", family.hessian(p[:, 0], p[:, 1]), k, k)
    normal = w * np.sign(np.sum(w * bend, axis=1))[:, None]
    return np.minimum(EPSILON * (1.0 + np.max(np.abs(image), axis=1)), 0.1 * dist), normal


def test_count_rises_by_the_normal_form_across_every_fold(folds):
    checked = 0
    for name, family, rise, p, image, dist in folds:
        eps, normal = offsets(family, p, image, dist)
        off = eps[:, None] * normal
        rises = weighted_counts(family, image + off) - weighted_counts(family, image - off)
        checked += len(rises)
        values, counts = np.unique(rises, return_counts=True)
        assert np.all(rises == rise), f"{name}: rises {dict(zip(values, counts))}"
    assert checked > 3000


def test_count_map_follows_the_normal_form_next_to_the_fold(folds):
    # count_map over the square of half-side eps centred at F(p), at its
    # least resolution: every cell centre farther than eps / 8 from the
    # tangent line counts the rise more on the normal side than on the other.
    rng = np.random.default_rng(zlib.crc32(b"fold count maps"))
    checked = 0
    for name, family, rise, p, image, dist in folds:
        pick = rng.choice(len(p), size=min(COUNT_MAP_POINTS, len(p)), replace=False)
        for f, e, n in zip(image[pick], *offsets(family, p[pick], image[pick], dist[pick])):
            cm = dkp.count_map(family, ((f[0] - e, f[0] + e), (f[1] - e, f[1] + e)), 8)
            us, vs = cm.cell_centers()
            side = (us[:, None] - f[0]) * n[0] + (vs[None, :] - f[1]) * n[1]
            far = np.abs(side) > e / 8.0
            above = np.unique(cm.counts[far & (side > 0.0)])
            below = np.unique(cm.counts[far & (side < 0.0)])
            assert len(above) == 1 and len(below) == 1 and above[0] - below[0] == rise, (
                f"{name} at F(p) = {tuple(f)}: counts {above} on the normal side, {below} "
                "on the other")
            checked += 1
    assert checked > 300
