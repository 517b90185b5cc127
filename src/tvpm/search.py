"""Exhaustive partition search and hull-separation testing.

The enumerator generates every unordered r-partition of the index set
with part sizes capped at d+1, exactly once, in a deterministic order
(indices are placed in restricted-growth fashion, so parts are ordered by
their smallest element).  Brute-force scans over this stream serve as the
independent oracle for the constructive solver: "not found" always means
the whole stream was checked.  The scan classifies each partition from
per-part hull equations and one exact integer solve
(``core.common_point``), then reads its signs part by part and stops at
the first part that rules the partition out; a partition stopped early
still counts as scanned.  It builds a certificate (through
``core.intersect_affine_hulls``, which reads the same routine) only for the
partition it returns.

For r = 2 the n = d+2 points have one affine dependence lambda,
sum lambda_i (a_i, 1) = 0, and every bipartition (T, A \\ T) with
lambda(T) != 0 meets in the point with coefficients lambda_i / lambda(T)
on T and -lambda_j / lambda(T) off T (Radon, 1921).  When lambda is
unique with every lambda_i != 0, the scan reads every bipartition's signs
from it and factors no part; otherwise (the points lie in a hyperplane,
or some lambda_i = 0) it reads them from the part hulls as for r > 2.

Separation of conv(M) from conv(A \\ M) is decided by the exact
minimum-norm point of the differences a_i - a_j, i in M, j not in M: zero
gives a common point of the two hulls, anything else the max-margin
separating hyperplane.
"""

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from tvpm.core import common_point, intersect_affine_hulls
from tvpm.kernel import ff_solve
from tvpm.linalg import vdot, weighted_sum


def proper_partitions(n, r, d):
    """Yield all r-partitions of {0..n-1} with part sizes in [1, d+1]."""
    cap = d + 1
    if n < r or n > r * cap:
        return
    parts = []

    def rec(idx):
        if idx == n:
            if len(parts) == r:
                yield tuple(tuple(p) for p in parts)
            return
        used = len(parts)
        remaining = n - idx
        open_slots = sum(cap - len(p) for p in parts) + (r - used) * cap
        if remaining > open_slots or remaining < r - used:
            return
        for p in parts:
            if len(p) < cap:
                p.append(idx)
                yield from rec(idx + 1)
                p.pop()
        if used < r:
            parts.append([idx])
            yield from rec(idx + 1)
            parts.pop()

    yield from rec(0)


class SearchResult(NamedTuple):
    found: bool
    partition: object
    cert: object
    scanned: int
    skipped: int


def _radon_weights(points):
    """The integer Radon dependence of n = d+2 integer points, or None.

    lambda = (nums, den) from one solve of the lifted first d+1 points
    against the last: sum lambda_i (a_i, 1) = 0.  None when that solve is
    singular or some lambda_i is 0, where a bipartition's signs cannot be
    read from lambda alone.
    """
    cols = [tuple(p) + (1,) for p in points]
    rows = [[c[k] for c in cols[:-1]] for k in range(len(cols[0]))]
    den, nums = ff_solve(rows, [-v for v in cols[-1]])[:2]
    if not den:
        return None
    lam = nums + [den]
    return None if 0 in lam else lam


def _radon_signs(lam, partition):
    """``(part, negatives, None)`` for both parts of a bipartition at its
    unique intersection point, read from the Radon dependence
    (``_radon_weights``), or None when lambda(T) = 0, T the first part:
    then T is affinely dependent."""
    first, second = partition
    total = sum(lam[i] for i in first)
    if total == 0:
        return None
    pos = total > 0
    return ((first, [i for i in first if (lam[i] > 0) != pos], None),
            (second, [j for j in second if (lam[j] > 0) == pos], None))


def _scan(config, accept):
    """Scan the proper partitions until ``accept(parts)`` is true for one
    with a unique intersection point; only that one gets a certificate
    (from ``intersect_affine_hulls``).

    ``parts`` yields ``(part, negatives, x)`` lazily, in part order
    (``core.read_parts``), so ``accept`` may return as soon as one part
    rules the partition out; the partition still counts as scanned, never
    as skipped.  The signs come from the part hulls
    (``core.common_point``, with ``memo`` its per-part factor cache).  For
    r = 2 (n = d+2, as every caller requires) they come from
    the Radon dependence instead when it has no zero entry, with x None;
    the input decides which.
    """
    _, points = config.scaled
    lam = _radon_weights(points) if config.r == 2 else None
    # With r = 2 a part fixes its partition, so no part is seen twice.
    memo = {} if config.r > 2 else None
    scanned = 0
    skipped = 0
    for partition in proper_partitions(config.n, config.r, config.d):
        scanned += 1
        if lam is not None:
            parts = _radon_signs(lam, partition)
        else:
            parts = common_point(points, partition, memo).parts
        if parts is None:
            skipped += 1
        elif accept(parts):
            cert = intersect_affine_hulls(config, partition).cert
            return SearchResult(True, partition, cert, scanned, skipped)
    return SearchResult(False, None, None, scanned, skipped)


def search_exact_k(config, k):
    """First proper partition whose certificate has exactly k negatives;
    each partition is dropped once its parts so far hold more than k."""
    if not config.is_full:
        raise ValueError("search needs n = (r-1)(d+1)+1 points")
    if not 0 <= k <= config.n:
        raise ValueError("k out of range")

    def accept(parts):
        count = 0
        for _, negatives, _ in parts:
            count += len(negatives)
            if count > k:
                return False
        return count == k

    return _scan(config, accept)


def search_prescribed(config, m_set):
    """First proper partition whose negatives are exactly m_set; each
    partition is dropped at its first part whose negatives are not
    m_set's indices in that part."""
    if not config.is_full:
        raise ValueError("search needs n = (r-1)(d+1)+1 points")
    target = frozenset(m_set)
    if not target <= frozenset(range(config.n)):
        raise ValueError("m_set out of range")

    def accept(parts):
        for part, negatives, _ in parts:
            if negatives != [i for i in part if i in target]:
                return False
        return True

    return _scan(config, accept)


class SpectrumResult(NamedTuple):
    achievable: frozenset
    scanned: int
    skipped: int


def radon_spectrum(config):
    """Achievable negative counts over all bipartitions, for n = d+2."""
    if config.r != 2:
        raise ValueError("spectrum needs r = 2")
    if config.n != config.d + 2:
        raise ValueError("spectrum needs n = d+2")
    ks = set()

    def collect(parts):
        (_, first, _), (_, second, _) = parts
        ks.add(len(first) + len(second))
        return False

    res = _scan(config, collect)
    return SpectrumResult(frozenset(ks), res.scanned, res.skipped)


class Separated(NamedTuple):
    normal: tuple  # primitive integer entries, as Fractions
    offset: Fraction


class NotSeparated(NamedTuple):
    point: tuple
    m_weights: dict
    rest_weights: dict


def check_separation(config, m_set):
    """Decide whether conv(m_set points) and conv(the rest) are disjoint.

    The two hulls meet exactly when the origin lies in the hull of the
    differences a_i - a_j (i in m_set, j not) of the scaled points, so one
    exact nearest-point computation (``minnorm.min_norm_point``) decides
    it, on a Gram matrix read off the n points' own Gram matrix; it
    leaves the nearest point as y / q, y = sum lam[k] diffs[k].
    Separated: y is nonzero, and y over the gcd of its entries is the
    max-margin normal, with <normal, x> > offset strictly on the m side
    and < offset strictly on the other side; the margin is read in
    integers on the scaled points, <normal, a> = <normal, D a> / D.
    NotSeparated: y = 0, and summing the pair weights lam[k] / q per side
    gives an exact common point with convex weights for both hulls.
    """
    from tvpm.minnorm import Corral, gram, min_norm_point

    m_set = frozenset(m_set)
    if not m_set <= frozenset(range(config.n)):
        raise ValueError("m_set out of range")
    m_idx = sorted(m_set)
    rest = sorted(frozenset(range(config.n)) - m_set)
    if not m_idx or not rest:
        raise ValueError("m_set must be a nonempty proper subset")
    scale, points = config.scaled
    pairs = [(i, j) for i in m_idx for j in rest]
    # <a_i - a_j, a_k - a_l> from the Gram matrix g of the n points, in
    # the order m, rest: row (i, j) holds <a_i - a_j, a_k> for every k.
    h = len(m_idx)
    g = gram([points[k] for k in m_idx + rest])
    rows = [[a - b for a, b in zip(g[i], g[j])]
            for i in range(h) for j in range(h, config.n)]
    corral = Corral([[a - b for a in row[:h] for b in row[h:]]
                     for row in rows])
    min_norm_point(corral)
    lam, q = corral.lam, corral.q
    if corral.nsq == 0:
        mw = {i: Fraction(0) for i in m_idx}
        rw = {j: Fraction(0) for j in rest}
        for k, c in lam.items():
            i, j = pairs[k]
            mw[i] += Fraction(c, q)
            rw[j] += Fraction(c, q)
        pt = weighted_sum(list(mw.values()), [config.points[i] for i in mw])
        return NotSeparated(point=pt, m_weights=mw, rest_weights=rw)
    # <y, a_i - a_j> >= |y|^2 / q > 0 for every pair, so y points from the
    # rest to the m side; scale it to primitive integers.
    diffs = []
    for k in lam:
        i, j = pairs[k]
        diffs.append([a - b for a, b in zip(points[i], points[j])])
    y = weighted_sum(list(lam.values()), diffs)
    g = gcd(*y)
    normal = [v // g for v in y]
    lo = min(vdot(normal, points[i]) for i in m_idx)
    hi = max(vdot(normal, points[j]) for j in rest)
    if not hi < lo:
        raise AssertionError("nearest point does not separate")
    return Separated(normal=tuple(Fraction(v) for v in normal),
                     offset=Fraction(lo + hi, 2 * scale))
