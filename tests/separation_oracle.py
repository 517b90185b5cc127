"""The separation test over an explicit pair Gram matrix.

``check_separation_gram`` decides whether conv(M) and conv(A \\ M) meet
as ``tvpm.search.check_separation`` does, by Wolfe's method over the
differences a_i - a_j (i in M, j not), but it builds every difference's
row of their full Gram matrix from the n points' Gram matrix and runs the
explicit-Gram ``Corral`` on it, reading the entering pair from the whole
vector v.  It is the reference that the library's ``PairCorral``, which
keeps only the points, must match step for step: same lam, q and nsq,
and the same result.  ``assert_pair_corral_matches_gram`` checks the
steps and the corral state; ``check_separation_gram`` gives the result.
"""

from fractions import Fraction
from math import gcd

from tvpm.linalg import vdot, weighted_sum
from tvpm.minnorm import Corral, PairCorral, gram, min_norm_point
from tvpm.search import NotSeparated, Separated


def pair_corral_gram(left, right):
    """A fresh ``Corral`` over the Gram matrix of the differences left[a]
    - right[b], pair k = a * len(right) + b."""
    h = len(left)
    g = gram(list(left) + list(right))
    # row (a, b) holds <left[a] - right[b], p> for every point p
    rows = [[x - z for x, z in zip(g[a], g[h + b])]
            for a in range(h) for b in range(len(right))]
    return Corral([[x - z for x in row[:h] for z in row[h:]]
                   for row in rows])


def wolfe_steps(corral):
    """Run ``min_norm_point`` on the corral and return what it tested at
    each major cycle: the ``(nsq, entering index, v there)`` triples."""
    steps = []
    entering = corral.entering

    def logged(lam):
        steps.append(entering(lam))
        return steps[-1]

    corral.entering = logged
    min_norm_point(corral)
    del corral.entering
    return steps


def assert_pair_corral_matches_gram(left, right):
    """PairCorral takes every step of the explicit-Gram corral over the
    differences and leaves the same lam (key order included), q, nsq, and
    y = sum lam[k] (left[a] - right[b])."""
    fast, slow = PairCorral(left, right), pair_corral_gram(left, right)
    assert wolfe_steps(fast) == wolfe_steps(slow)
    assert list(fast.lam.items()) == list(slow.lam.items())
    assert (fast.q, fast.nsq) == (slow.q, slow.nsq)
    width = len(right)
    assert fast.y == tuple(
        sum(c * (left[k // width][t] - right[k % width][t])
            for k, c in fast.lam.items()) for t in range(len(left[0])))
    return fast


def check_separation_gram(config, m_set):
    """``check_separation``'s result, from ``pair_corral_gram``."""
    m_idx = sorted(m_set)
    rest = sorted(frozenset(range(config.n)) - frozenset(m_set))
    scale, points = config.scaled
    corral = pair_corral_gram([points[i] for i in m_idx],
                              [points[j] for j in rest])
    min_norm_point(corral)
    lam, q = corral.lam, corral.q
    pairs = [(i, j) for i in m_idx for j in rest]
    if corral.nsq == 0:
        mw = {i: Fraction(0) for i in m_idx}
        rw = {j: Fraction(0) for j in rest}
        for k, c in lam.items():
            i, j = pairs[k]
            mw[i] += Fraction(c, q)
            rw[j] += Fraction(c, q)
        pt = weighted_sum(list(mw.values()), [config.points[i] for i in mw])
        return NotSeparated(point=pt, m_weights=mw, rest_weights=rw)
    y = weighted_sum(list(lam.values()),
                     [[a - b for a, b in zip(points[i], points[j])]
                      for i, j in (pairs[k] for k in lam)])
    g = gcd(*y)
    normal = [v // g for v in y]
    lo = min(vdot(normal, points[i]) for i in m_idx)
    hi = max(vdot(normal, points[j]) for j in rest)
    assert hi < lo, "nearest point does not separate"
    return Separated(normal=tuple(Fraction(v) for v in normal),
                     offset=Fraction(lo + hi, 2 * scale))
