"""Brute-force oracle for the minimum-norm point of a convex hull.

``min_norm_point_naive`` projects onto every affinely independent subset
(``affine_minimizer``) and keeps the best hull-feasible candidate; it is
exponential and exists only as the independent check of
``tvpm.minnorm.min_norm_point``.
"""

from fractions import Fraction
from itertools import combinations

from tvpm.linalg import denominator_lcm, to_int, vdot
from tvpm.minnorm import _affine_weights, _gram, _point


def affine_minimizer(points):
    """Minimum-norm point of the affine hull of the given points.

    Returns ``(x, weights)`` with weights summing to 1 (signs free), or
    None when the points are affinely dependent.
    """
    scale = denominator_lcm(points)
    ints = to_int(points, scale)
    got = _affine_weights(_gram(ints), range(len(ints)))
    if got is None:
        return None
    den, nums = got
    x = _point(dict(enumerate(nums)), den, ints, scale)
    return x, tuple(Fraction(v, den) for v in nums)


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
