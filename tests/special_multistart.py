"""Multistart oracle for the special points.

This is the seed generator the library used before its resultant seeds:
damped Gauss-Newton on the detection system starts from every node of a
``grid`` x ``grid`` lattice over the workspace box.  Everything downstream
of the seeds (residual filter, inside-box filter, dedup, corank-2 polish,
classification) is the library's, so an agreement test compares the two
seed generators alone.
"""

import numpy as np

from cuspforge.singular import _from_seeds


def multistart_special_points(family, box=None, *, grid=64):
    """Special points found from a ``grid`` x ``grid`` lattice of seeds."""
    if box is None:
        box = family.default_box()
    (x0, x1), (y0, y1) = box
    gx, gy = np.meshgrid(np.linspace(x0, x1, grid), np.linspace(y0, y1, grid), indexing="ij")
    return _from_seeds(family, box, np.stack([gx.ravel(), gy.ravel()], axis=-1))
