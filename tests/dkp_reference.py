"""Reference elimination for the manipulators' direct kinematic problem.

This is the candidate generator ``cuspforge.dkp`` ran for the two
manipulators before the half-angle polynomial took its place: the
trigonometric cubic solved as a complex polynomial of degree 6 in
z = exp(i phi), whose roots within ``ROOT_RING`` of the unit circle are
candidates.  A test swaps it back in and requires the same counts and flags,
and the same solutions to within rounding.
"""

import math

import numpy as np

from cuspforge.dkp import LINE_BAND, ROOT_RING, _manipulator_lift, _manipulator_terms


def _companion_roots(coeffs):
    """Roots of a batch of polynomials, coefficients (n, k + 1) highest first."""
    k = coeffs.shape[1] - 1
    comp = np.zeros((len(coeffs), k, k), dtype=coeffs.dtype)
    comp[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    comp[:, 1:, :-1] = np.eye(k - 1)
    return np.linalg.eigvals(comp)


def manipulator_candidates(family, tu, tv):
    tu, tv = tu[:, None], tv[:, None]
    # D^2 times the u-equation at y = N / D is a trigonometric polynomial of
    # degree 3; times z^3 its Fourier coefficients C_3 .. C_-3 are a
    # degree-6 polynomial in z = exp(i phi).
    den, num, p, c = _manipulator_terms(family, 2.0 * math.pi * np.arange(7) / 7.0, tu, tv)
    spectrum = np.fft.fft(num * num + 2.0 * num * p * den + c * den * den, axis=1)
    z = _companion_roots(spectrum[:, [3, 2, 1, 0, 6, 5, 4]])
    phi = np.where(np.abs(np.abs(z) - 1.0) < ROOT_RING, np.angle(z), np.nan)
    roots = _manipulator_lift(family, phi[..., None], tu, tv)
    phi = np.array([0.0, 0.0, math.pi, math.pi])
    _, num, p, c = _manipulator_terms(family, phi, tu, tv)
    y = -p + np.sqrt(np.maximum(p * p - c, 0.0)) * np.array([1.0, -1.0, 1.0, -1.0])
    y[np.abs(num) > LINE_BAND * (1.0 + np.abs(tu) + np.abs(tv))] = np.nan
    line = np.stack(np.broadcast_arrays(phi, y), axis=-1)
    return np.concatenate([roots, line], axis=1)
