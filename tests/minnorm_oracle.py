"""Brute-force oracle for the minimum-norm point of a convex hull.

``min_norm_point_naive`` projects onto every affinely independent subset
(``affine_minimizer``) and keeps the best hull-feasible candidate; it is
exponential and exists only as the independent check of
``tvpm.minnorm.min_norm_point``.  ``_affine_weights`` solves each bordered
Gram system afresh, the reference for the incremental adjugate updates
inside ``min_norm_point``.
"""

from fractions import Fraction
from itertools import combinations

from tvpm.kernel import ff_solve
from tvpm.linalg import denominator_lcm, to_int, vdot
from tvpm.minnorm import _gram, _point


def _affine_weights(gram, support):
    # Minimum-norm point of the affine hull of the support points:
    # stationarity of |sum w_i p_i|^2 under sum w_i = 1 is the bordered
    # system [G 1; 1 0] (w, mu) = (0, 1).  Returns (den, nums) with
    # w_i = nums[i] / den and den > 0, or None when the points are
    # affinely dependent.
    k = len(support)
    rows = [[gram[s][t] for t in support] + [1] for s in support]
    rows.append([1] * k + [0])
    den, nums = ff_solve(rows, [0] * k + [1])[:2]
    if not den:
        return None
    if den < 0:
        return -den, [-v for v in nums[:k]]
    return den, nums[:k]


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
