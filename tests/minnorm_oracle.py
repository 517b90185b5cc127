"""Brute-force oracle for the minimum-norm point of a convex hull.

``min_norm_point_naive`` projects onto every affinely independent subset
and keeps the best hull-feasible candidate; it is exponential and exists
only as the independent check of ``tvpm.minnorm.min_norm_point``.
"""

from itertools import combinations

from tvpm.linalg import vdot
from tvpm.minnorm import affine_minimizer


def min_norm_point_naive(points):
    """Oracle: best hull-feasible affine minimizer over all subsets."""
    if not points:
        raise ValueError("need at least one point")
    best = None
    for size in range(1, len(points) + 1):
        for subset in combinations(range(len(points)), size):
            got = affine_minimizer([points[i] for i in subset])
            if got is None:
                continue
            y, w = got
            if any(v < 0 for v in w):
                continue
            normsq = vdot(y, y)
            if best is None or normsq < best[0]:
                best = (normsq, y, {i: v for i, v in zip(subset, w) if v != 0})
    return best[1], best[2]
