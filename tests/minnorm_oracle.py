"""Brute-force oracle for the minimum-norm point of a convex hull.

``min_norm_point_naive`` projects onto every affinely independent subset
(``affine_minimizer``) and keeps the best hull-feasible candidate; it is
exponential and exists only as the independent check of
``tvpm.minnorm.min_norm_point``, which ``min_norm_point_scaled`` runs on
rational points.  ``_affine_weights`` solves each bordered Gram system
afresh, the reference for the incremental adjugate updates inside
``min_norm_point``.
"""

from fractions import Fraction
from itertools import combinations

from tvpm.kernel import ff_solve
from tvpm.linalg import denominator_lcm, to_int, vdot, weighted_sum
from tvpm.minnorm import Corral, gram, min_norm_point


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
    ints = to_int(points, denominator_lcm(points))
    got = _affine_weights(gram(ints), range(len(ints)))
    if got is None:
        return None
    den, nums = got
    weights = tuple(Fraction(v, den) for v in nums)
    return weighted_sum(weights, points), weights


def min_norm_point_scaled(points):
    """The library's ``min_norm_point`` on rational points: run on the
    points times D, the lcm of their denominators, and read back as ``(w,
    weights)``, with w = y / (q D) for y = sum lam[i] * D points[i], and
    weights {point index: lam[i] / q}, positive and summing to 1."""
    scale = denominator_lcm(points)
    ints = to_int(points, scale)
    corral = Corral(gram(ints))
    min_norm_point(corral)
    lam, q = corral.lam, corral.q
    y = weighted_sum(list(lam.values()), [ints[i] for i in lam])
    return (tuple(Fraction(c, q * scale) for c in y),
            {i: Fraction(c, q) for i, c in lam.items()})


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
