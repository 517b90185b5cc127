"""Deterministic instance generators.

Random configurations draw coordinates numerator/1000 with numerators in
[-10^6, 10^6] from a seeded PRNG and resample until exact general
position holds (no d+1 points affinely dependent), which
``general_position`` decides with one fraction-free reduction per pivot
prefix (``kernel.every_subset_independent``), not one determinant per
(d+1)-subset.  The two cluster builders realize the classical
impossibility instances: a centroid that cannot be the lone negative
because it is surrounded, and an r-point cluster that is separated yet
only admits the complementary sign alternative.
"""

import random
from fractions import Fraction

from tvpm import linalg
from tvpm.core import PointConfig
from tvpm.kernel import every_subset_independent

MAX_ATTEMPTS = 1000
_NUM_RANGE = 10 ** 6
_DEN = 10 ** 3


def general_position(points, d):
    """No d+1 of the points affinely dependent, checked exactly.

    The points (each of length d) are scaled once to integers and lifted
    to (a, 1); they are in general position exactly when they are
    distinct and every d+1 of the lifted vectors are linearly
    independent, which ``kernel.every_subset_independent`` decides
    without one determinant per subset."""
    if len(set(points)) != len(points):
        return False
    lifted = [p + (1,) for p in linalg.to_int(points,
                                               linalg.denominator_lcm(points))]
    return every_subset_independent(lifted)


def _rand_coord(rng):
    return Fraction(rng.randint(-_NUM_RANGE, _NUM_RANGE), _DEN)


def _general_config(d, r, draw):
    """The configuration of the first ``draw()`` in general position."""
    for _ in range(MAX_ATTEMPTS):
        pts = draw()
        if general_position(pts, d):
            return PointConfig(d=d, r=r, points=tuple(pts))
    raise RuntimeError("could not reach general position in %d attempts"
                       % MAX_ATTEMPTS)


def random_config(d, r, seed):
    """Seeded general-position configuration of full size."""
    if d < 1 or r < 2:
        raise ValueError("need d >= 1 and r >= 2")
    n = (r - 1) * (d + 1) + 1
    rng = random.Random(seed)
    return _general_config(d, r, lambda: [
        tuple(_rand_coord(rng) for _ in range(d)) for _ in range(n)])


def _simplex_vertices(d):
    zero, one = Fraction(0), Fraction(1)
    verts = [tuple(zero for _ in range(d))]
    for h in range(d):
        verts.append(tuple(one if t == h else zero for t in range(d)))
    return verts


def _cluster_point(rng, center, eps):
    return tuple(
        c + eps * Fraction(rng.randint(-_DEN, _DEN), _DEN) for c in center
    )


def example1(d, r, eps=Fraction(1, 100), seed=0):
    """Centroid plus d+1 vertex clusters of r-1 points each.

    Returns ``(config, m_set)`` with m_set = {0}, the centroid index.
    The centroid lies inside the hull of the rest, so the prescribed
    pattern "negative exactly at the centroid" is unattainable.
    """
    eps = Fraction(eps)
    if d < 1 or r < 2 or eps <= 0:
        raise ValueError("need d >= 1, r >= 2, eps > 0")
    verts = _simplex_vertices(d)
    centroid = tuple(
        sum(v[t] for v in verts) / (d + 1) for t in range(d)
    )
    rng = random.Random(seed)
    config = _general_config(d, r, lambda: [centroid] + [
        _cluster_point(rng, v, eps) for v in verts for _ in range(r - 1)])
    return config, frozenset({0})


def example2(d, r, eps=Fraction(1, 100), seed=0):
    """One r-point cluster plus d clusters of r-1 points.

    Returns ``(config, m_set)`` with m_set = the r indices of the first
    cluster, which is separated from the rest for small eps.
    """
    eps = Fraction(eps)
    if d < 1 or r < 2 or eps <= 0:
        raise ValueError("need d >= 1, r >= 2, eps > 0")
    verts = _simplex_vertices(d)
    rng = random.Random(seed)
    config = _general_config(d, r, lambda: [
        _cluster_point(rng, v, eps)
        for v, size in zip(verts, [r] + [r - 1] * d) for _ in range(size)])
    return config, frozenset(range(r))


def separated_subset(config, k, seed):
    """k indices extreme along a random functional; always separated.

    Draws seeded functionals until all n inner products are distinct,
    then returns the top k indices.
    """
    if not 0 <= k <= config.n:
        raise ValueError("k out of range")
    if k == 0:
        return frozenset()
    rng = random.Random(seed)
    for _ in range(MAX_ATTEMPTS):
        u = tuple(_rand_coord(rng) for _ in range(config.d))
        values = [linalg.vdot(u, p) for p in config.points]
        if len(set(values)) != config.n:
            continue
        order = sorted(range(config.n), key=lambda i: values[i], reverse=True)
        return frozenset(order[:k])
    raise RuntimeError("could not find a tie-free functional in %d attempts"
                       % MAX_ATTEMPTS)
