"""Reference unfoldings: the hand-written jets and eliminations of the
complex square and the quarto.

These are the classes and the candidate generators ``cuspforge`` ran for
the two unfoldings before both became coefficient presets of the quadratic
map core, with one elimination derived from the coefficients.  A test
requires the same jets to within rounding, and, with these eliminations
swapped back in, the same counts, flags and solutions.  ``Germ`` is the
core with arbitrary coefficients.
"""

from dataclasses import dataclass

import numpy as np

from cuspforge.dkp import LINE_BAND, _real_roots
from cuspforge.maps import QuadraticMap, _pack22, _sym22


@dataclass(frozen=True)
class Germ(QuadraticMap):
    """A quadratic map with arbitrary coefficients, on the box (-1, 1)^2."""

    coefficients: tuple

    kind = "quadratic_germ"

    def default_box(self):
        return ((-1.0, 1.0), (-1.0, 1.0))


@dataclass(frozen=True)
class ComplexSquareReference:
    """(x, y) -> (x^2 - y^2 + 4ax, 2xy + 4by)."""

    a: float
    b: float

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return x * x - y * y + 4.0 * self.a * x, 2.0 * x * y + 4.0 * self.b * y

    def jacobian(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return _pack22(2.0 * x + 4.0 * self.a, -2.0 * y, 2.0 * y, 2.0 * x + 4.0 * self.b)

    def hessian(self, x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        two = np.full(shape, 2.0)
        zero = np.zeros(shape)
        return np.stack([_sym22(two, zero, -two), _sym22(zero, two, zero)], axis=-3)

    def jdet(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        w = x + self.a + self.b
        return w * w + y * y - (self.a - self.b) ** 2

    def jdet_grad(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return 2.0 * (x + self.a + self.b), 2.0 * y

    def jdet_hess(self, x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        return np.full(shape, 2.0), np.zeros(shape), np.full(shape, 2.0)


@dataclass(frozen=True)
class QuartoReference:
    """(x, y) -> (x^2 + 2ay, y^2 + 2bx)."""

    a: float
    b: float

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return x * x + 2.0 * self.a * y, y * y + 2.0 * self.b * x

    def jacobian(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        return _pack22(2.0 * x, np.full(shape, 2.0 * self.a), np.full(shape, 2.0 * self.b), 2.0 * y)

    def hessian(self, x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        two = np.full(shape, 2.0)
        zero = np.zeros(shape)
        return np.stack([_sym22(two, zero, zero), _sym22(zero, zero, two)], axis=-3)

    def jdet(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return x * y - self.a * self.b

    def jdet_grad(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return y * np.ones_like(x), x * np.ones_like(y)

    def jdet_hess(self, x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        return np.zeros(shape), np.ones(shape), np.zeros(shape)


def square_lift(family, q, tu, tv):
    x = q[..., 0]
    return np.stack([x, tv / (2.0 * x + 4.0 * family.b)], axis=-1)


def square_candidates(family, tu, tv):
    a, b = family.a, family.b
    one = np.ones_like(tu)
    x = _real_roots(np.stack(
        [one, 4.0 * (a + b) * one, 4.0 * b * b + 16.0 * a * b - tu,
         16.0 * a * b * b - 4.0 * b * tu, -4.0 * b * b * tu - 0.25 * tv * tv], axis=1))
    roots = square_lift(family, x[..., None], tu[:, None], tv[:, None])
    # On 2x + 4b = 0 the v-equation no longer involves y; its candidates are
    # tried only for v close to zero.
    y = np.sqrt(np.maximum(4.0 * b * b - 8.0 * a * b - tu, 0.0))[:, None] * np.array([1.0, -1.0])
    y[np.abs(tv) > LINE_BAND * (1.0 + np.abs(tu) + np.abs(tv))] = np.nan
    line = np.stack(np.broadcast_arrays(-2.0 * b, y), axis=-1)
    return np.concatenate([roots, line], axis=1)


# (x, y) -> (x^2 + 2ay, y^2 + 2bx) is symmetric under swapping x with y, u
# with v and a with b; the quarto eliminates along the larger coefficient.
def quarto_lift(family, q, tu, tv):
    a, b = family.a, family.b
    if abs(a) < abs(b):
        return quarto_lift(QuartoReference(b, a), q[..., ::-1], tv, tu)[..., ::-1]
    x = q[..., 0]
    return np.stack([x, (tu - x * x) / (2.0 * a)], axis=-1)


def quarto_candidates(family, tu, tv):
    a, b = family.a, family.b
    if abs(a) < abs(b):
        return quarto_candidates(QuartoReference(b, a), tv, tu)[..., ::-1]
    one = np.ones_like(tu)
    x = _real_roots(np.stack(
        [one, 0.0 * one, -2.0 * tu, 8.0 * a * a * b * one, tu * tu - 4.0 * a * a * tv], axis=1))
    roots = quarto_lift(family, x[..., None], tu[:, None], tv[:, None])
    # As a and b go to zero the elimination loses y, but the solutions
    # approach those of u = x^2, v = y^2, exact at a = b = 0; for small a
    # and b those are tried too.
    x = np.sqrt(np.maximum(tu, 0.0))[:, None] * np.array([1.0, 1.0, -1.0, -1.0])
    y = np.sqrt(np.maximum(tv, 0.0))[:, None] * np.array([1.0, -1.0, 1.0, -1.0])
    x[abs(a) > LINE_BAND * np.sqrt(1.0 + np.abs(tu) + np.abs(tv))] = np.nan
    return np.concatenate([roots, np.stack([x, y], axis=-1)], axis=1)
