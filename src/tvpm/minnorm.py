"""Exact minimum-norm point in a convex hull of rational points.

Active-set (Wolfe-style) method over corrals: affinely independent
subsets whose affine minimizer has strictly positive weights.  The input
is scaled once to integer points; the method then runs on their integer
Gram matrix alone.  The current point is x = sum lam[i] * p_i / q with
integer lam and one denominator q, so every inner product <x, p_i> and
every norm comparison is an integer operation, and each affine minimizer
is one fraction-free solve of the bordered Gram system.  The result is
the exact closest point to the origin, together with its convex weights;
uniform scaling leaves the weights unchanged.
"""

from fractions import Fraction
from math import gcd

from tvpm.kernel import ff_solve
from tvpm.linalg import denominator_lcm, to_int, vdot


def _gram(points):
    return [[vdot(p, q) for q in points] for p in points]


def _affine_weights(gram, support):
    # Minimum-norm point of the affine hull of the support points:
    # stationarity of |sum w_i p_i|^2 under sum w_i = 1 is the bordered
    # system [G 1; 1 0] (w, mu) = (0, 1).  Returns (den, nums) with
    # w_i = nums[i] / den and den > 0, or None when the points are
    # affinely dependent.
    k = len(support)
    rows = [[gram[s][t] for t in support] + [1] for s in support]
    rows.append([1] * k + [0])
    got = ff_solve(rows, [0] * k + [1])
    if got is None:
        return None
    den, nums = got
    if den < 0:
        return -den, [-v for v in nums[:k]]
    return den, nums[:k]


def _point(lam, q, points, scale):
    # sum lam[i] * points[i] / (q * scale) as a Fraction tuple.
    dim = len(points[0])
    den = q * scale
    return tuple(
        Fraction(sum(w * points[i][c] for i, w in lam.items()), den)
        for c in range(dim))


def min_norm_point(points, gram=None):
    """Exact minimum-norm point of conv(points).

    Returns ``(w, weights)`` where weights is a dict {point index:
    positive Fraction} over an affinely independent support with
    sum(weights) = 1 and w = sum weights[i] * points[i].  ``gram`` is the
    Gram matrix of the points, which must then be integer vectors; a
    caller that changes one point at a time keeps it up to date in one row
    and column instead of rebuilding it here.
    """
    if not points:
        raise ValueError("need at least one point")
    scale = 1
    if gram is None:
        scale = denominator_lcm(points)
        points = to_int(points, scale)
        gram = _gram(points)
    n = len(points)
    start = min(range(n), key=lambda i: (gram[i][i], i))
    support = [start]
    lam = {start: 1}
    q = 1
    prev = None  # (q^2 |x|^2, q^2) of the previous iterate
    while True:
        # v[i] = q <x, p_i>, and nsq = q^2 |x|^2
        v = [sum(lam[s] * gram[s][i] for s in support) for i in range(n)]
        nsq = sum(lam[s] * v[s] for s in support)
        if prev is not None and not nsq * prev[1] < prev[0] * q * q:
            raise AssertionError("norm failed to decrease")
        prev = (nsq, q * q)
        if nsq == 0:
            break
        enter = min(range(n), key=lambda i: (v[i], i))
        if v[enter] * q >= nsq:
            break
        # points[enter] is outside the affine hull of the support (inner
        # products with x are constant = |x|^2 on that hull), so the
        # grown set stays affinely independent.
        support.append(enter)
        lam[enter] = 0
        while True:
            got = _affine_weights(gram, support)
            if got is None:
                raise AssertionError("support must stay affinely independent")
            e, w = got
            if all(x > 0 for x in w):
                g = gcd(e, *w)
                lam = {s: x // g for s, x in zip(support, w)}
                q = e // g
                break
            # Step from lam / q toward the minimizer w / e while every
            # weight stays >= 0: theta = min lam_s / (lam_s - w_s) over
            # w_s <= 0, kept as the fraction tn / td.
            tn, td = None, None
            for s, x in zip(support, w):
                if x <= 0:
                    a = lam[s] * e
                    b = a - x * q
                    if tn is None or a * td < tn * b:
                        tn, td = a, b
            new = {}
            for s, x in zip(support, w):
                val = (td - tn) * lam[s] * e + tn * x * q
                if val > 0:
                    new[s] = val
            den = td * q * e
            g = gcd(den, *new.values())
            lam = {s: x // g for s, x in new.items()}
            q = den // g
            support = [s for s in support if s in lam]
    weights = {s: Fraction(x, q) for s, x in lam.items()}
    return _point(lam, q, points, scale), weights
