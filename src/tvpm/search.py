"""Exhaustive partition search and hull-separation testing.

The enumerator generates every unordered r-partition of the index set
with part sizes capped at d+1, exactly once, in a deterministic order
(indices are placed in restricted-growth fashion, so parts are ordered by
their smallest element), from one loop with an undo stack rather than one
generator frame per index.  Brute-force scans over this stream serve as
the independent oracle for the constructive solver: "not found" always
means the whole stream was checked.  The scan (``_scan``, one loop for
every search) classifies each partition from one null vector x, of the
other parts' hull equations at the points of its first smallest part
(``core.common_point``), then hands ``accept`` each part's negative
flags, one per index: that part's first, the signs of x; only if it
passes is the common point y built, and each other part's flags are the
signs of one mat-vec of its cached coefficient matrix with y.  The scan
stops at the first part that rules the partition out; a partition
stopped early still counts as scanned.  ``search_exact_k`` sums the
flags, and ``search_prescribed`` compares them with the part's
membership in M, computed once per part.  A certificate is built
(through ``core.intersect_affine_hulls``, which reads the same
classifier) only for the partition the scan returns.

For r = 2 the n = d+2 points have one affine dependence lambda,
sum lambda_i (a_i, 1) = 0, and every bipartition (T, A \\ T) with
lambda(T) != 0 meets in the point with coefficients lambda_i / lambda(T)
on T and -lambda_j / lambda(T) off T (Radon, 1921).  When lambda is
unique with every lambda_i != 0, the scan reads every bipartition's flags
from it and factors no part; otherwise (the points lie in a hyperplane,
or some lambda_i = 0) it reads them from the part hulls as for r > 2.
``radon_spectrum`` scans nothing when lambda is such: the achievable
negative counts are {0..K}, K the number of smallest |lambda_i| whose sum
stays below half of sum |lambda_i|.  Its ``scanned`` counts the
2^(d+1) - 1 bipartitions lambda decides and its ``skipped`` those with
lambda(T) = 0, found by a meet-in-the-middle count of integer subset
sums; the scan is its fallback.

Separation of conv(M) from conv(A \\ M) is decided by the exact
minimum-norm point of the differences a_i - a_j, i in M, j not in M: zero
gives a common point of the two hulls, anything else the max-margin
separating hyperplane.  Wolfe's method runs on the points themselves:
each major cycle reads the entering difference from one inner product per
point, and only the differences in its support are ever built, never the
Gram matrix of all |M| (n - |M|) of them.  A common point is read from
the integer pair weights summed per side: ``overlap``, the one routine
that builds an overlap witness, divides them by their common total and
checks that both sides sum to the same point.  ``sarkaria.recover``
calls it too, for a transversal with an empty part.
"""

from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul
from typing import NamedTuple

from tvpm.core import common_point, intersect_affine_hulls
from tvpm.kernel import null_vector
from tvpm.linalg import vdot, weighted_sum


def proper_partitions(n, r, d):
    """Yield all r-partitions of {0..n-1} with part sizes in [1, d+1].

    Depth first, without recursion: each index goes into each part with
    room, in part order, then into a new part, and each placement is
    undone from a stack.  An index must open a part when the indices left
    only just fill the parts still missing, so every branch that places
    the last index has r parts.
    """
    cap = d + 1
    if n < r or n > r * cap:
        return
    parts = []  # the parts so far, as tuples
    undo = []  # per placed index: (its part, that part before it or None)
    j = 0  # the first part to try for the index len(undo)
    while True:
        idx = len(undo)
        if idx == n:
            yield tuple(parts)
        else:
            used = len(parts)
            if n - idx == r - used and j < used:
                j = used
            while j < used and len(parts[j]) == cap:
                j += 1
            if j < used:
                undo.append((j, parts[j]))
                parts[j] += (idx,)
                j = 0
                continue
            if j == used < r:
                undo.append((j, None))
                parts.append((idx,))
                j = 0
                continue
        if not undo:
            return
        j, p = undo.pop()
        if p is None:
            parts.pop()
        else:
            parts[j] = p
        j += 1


class SearchResult(NamedTuple):
    found: bool
    partition: object
    cert: object
    scanned: int
    skipped: int


def _radon_weights(points):
    """The integer Radon dependence lambda of n = d+2 integer points, with
    sum lambda_i (a_i, 1) = 0 (``kernel.null_vector`` of the lifted
    points), or None when it is not unique up to a factor or some lambda_i
    is 0, where a bipartition's signs cannot be read from lambda alone."""
    rows = [list(col) for col in zip(*points)] + [[1] * len(points)]
    lam = null_vector(rows, len(points))
    return None if lam is None or 0 in lam else lam


def _radon_signs(lam, partition):
    """The negative flags of both parts of a bipartition at its unique
    intersection point, read from the Radon dependence
    (``_radon_weights``), or None when lambda(T) = 0, T the first part:
    then T is affinely dependent."""
    first, second = partition
    total = sum(lam[i] for i in first)
    if total == 0:
        return None
    pos = total > 0
    return ([(lam[i] > 0) != pos for i in first],
            [(lam[j] > 0) == pos for j in second])


def _scan(config, accept):
    """Scan the proper partitions until ``accept`` holds on every part of
    one with a unique intersection point; only that one gets a
    certificate (from ``intersect_affine_hulls``).

    ``accept(j, part, flags)`` sees the parts in turn, j = 0 for the
    kernel part (the first of least size) and 1..r-1 for the others in
    part order, flags[i] telling whether part[i]'s coefficient is
    negative; the partition is dropped at the first part it rejects, and
    still counts as scanned, never as skipped.  The partition is
    classified by ``core.common_point``, with ``memo`` its per-part cache:
    the kernel part's flags are the signs of its x, and each other part's
    the signs of its coefficient matrix times y = sum x_i (p_i, 1), built
    only once the kernel part is accepted.  For r = 2 (n = d+2, as every
    caller requires) the flags come from the Radon dependence instead, in
    part order, when it has no zero entry; the input decides which.
    """
    _, points = config.scaled
    lam = _radon_weights(points) if config.r == 2 else None
    # With r = 2 a part fixes its partition, so no part is seen twice:
    # the cache is emptied for each one.
    keep = config.r > 2
    memo = {}
    scanned = 0
    skipped = 0
    for partition in proper_partitions(config.n, config.r, config.d):
        scanned += 1
        if lam is not None:
            signs = _radon_signs(lam, partition)
            if signs is None:
                skipped += 1
                continue
            found = (accept(0, partition[0], signs[0])
                     and accept(1, partition[1], signs[1]))
        else:
            if not keep:
                memo.clear()
            _, kernel, x = common_point(points, partition, memo)
            if x is None:
                skipped += 1
                continue
            found = accept(0, kernel, [v < 0 for v in x])
            if found:
                y = [sum(map(mul, x, c))
                     for c in zip(*[points[i] for i in kernel])]
                y.append(sum(x))
                j = 0
                for part in partition:
                    if part is not kernel:
                        j += 1
                        found = accept(j, part, [sum(map(mul, row, y)) < 0
                                                 for row in memo[part][0]])
                        if not found:
                            break
        if found:
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
    last = config.r - 1
    count = 0

    def accept(j, part, flags):
        nonlocal count
        count = (count if j else 0) + sum(flags)
        return count == k if j == last else count <= k

    return _scan(config, accept)


def search_prescribed(config, m_set):
    """First proper partition whose negatives are exactly m_set; each
    partition is dropped at its first part whose negative flags differ
    from the part's membership in m_set (``pattern``, one list per part
    seen)."""
    if not config.is_full:
        raise ValueError("search needs n = (r-1)(d+1)+1 points")
    target = frozenset(m_set)
    if not target <= frozenset(range(config.n)):
        raise ValueError("m_set out of range")

    pattern = {}

    def accept(j, part, flags):
        want = pattern.get(part)
        if want is None:
            want = pattern[part] = [i in target for i in part]
        return flags == want

    return _scan(config, accept)


class SpectrumResult(NamedTuple):
    achievable: frozenset
    scanned: int
    skipped: int


def _subset_sums(values):
    """The sums of all 2^len(values) subsets of ``values``."""
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def _zero_sum_bipartitions(lam):
    """The number of bipartitions {T, A \\ T} with lambda(T) = 0, for an
    integer lambda summing to 0.

    Meet in the middle: the zero-sum subsets are the pairs of a subset of
    the first half and one of the second whose sums cancel, found with a
    count of the first half's sums.  Dropping T = {} and T = A leaves the
    proper ones, each counted with its complement.
    """
    half = len(lam) // 2
    counts = Counter(_subset_sums(lam[:half]))
    zero = sum(counts[-s] for s in _subset_sums(lam[half:]))
    return (zero - 2) // 2


def radon_spectrum(config):
    """Achievable negative counts over all bipartitions, for n = d+2.

    Read from the Radon dependence (``_radon_weights``) when there is one:
    the negatives of T with lambda(T) > 0 are exactly the sets U with
    sum_U |lambda_i| below half of sum |lambda_i|.  Otherwise the
    bipartitions are scanned.
    """
    if config.r != 2:
        raise ValueError("spectrum needs r = 2")
    if config.n != config.d + 2:
        raise ValueError("spectrum needs n = d+2")
    lam = _radon_weights(config.scaled[1])
    if lam is not None:
        sizes = sorted(map(abs, lam))
        total = sum(sizes)
        top = sum(2 * below < total for below in accumulate(sizes))
        return SpectrumResult(frozenset(range(top + 1)),
                              2 ** (config.n - 1) - 1,
                              _zero_sum_bipartitions(lam))
    ks = set()
    count = 0

    def collect(j, part, flags):
        nonlocal count
        count = (count if j else 0) + sum(flags)
        if j:
            ks.add(count)
        return not j

    res = _scan(config, collect)
    return SpectrumResult(frozenset(ks), res.scanned, res.skipped)


class Separated(NamedTuple):
    normal: tuple  # primitive integer entries, as Fractions
    offset: Fraction


class NotSeparated(NamedTuple):
    point: tuple
    m_weights: dict
    rest_weights: dict


def overlap(points, m_weights, rest_weights):
    """The common point of two hulls as a ``NotSeparated`` witness.

    ``m_weights`` and ``rest_weights`` map point indices to non-negative
    integer weights with equal positive totals; each is divided by that total into
    convex weights, and the two weighted sums of ``points`` must agree.
    Every overlap witness is built here: ``check_separation``'s and the
    one ``sarkaria.recover`` reads off an empty part.
    """
    total = sum(m_weights.values())
    if sum(rest_weights.values()) != total:
        raise AssertionError("overlap weights need equal totals")
    mw = {i: Fraction(c, total) for i, c in m_weights.items()}
    rw = {j: Fraction(c, total) for j, c in rest_weights.items()}
    pt = weighted_sum(list(mw.values()), [points[i] for i in mw])
    if weighted_sum(list(rw.values()), [points[j] for j in rw]) != pt:
        raise AssertionError("overlap weights give two different points")
    return NotSeparated(point=pt, m_weights=mw, rest_weights=rw)


def check_separation(config, m_set):
    """Decide whether conv(m_set points) and conv(the rest) are disjoint.

    The two hulls meet exactly when the origin lies in the hull of the
    differences a_i - a_j (i in m_set, j not) of the scaled points, so one
    exact nearest-point computation (``minnorm.min_norm_point``) decides
    it.  It runs on a ``minnorm.PairCorral`` of the two sides' points,
    which builds no difference beyond its support and no Gram matrix, and
    leaves the nearest point as y / q, y = sum lam[k] (a_i - a_j).
    Separated: y is nonzero, and y over the gcd of its entries is the
    max-margin normal, with <normal, x> > offset strictly on the m side
    and < offset strictly on the other side; the margin is read in
    integers on the scaled points, <normal, a> = <normal, D a> / D.
    NotSeparated: y = 0, and the pair weights summed per side
    (``PairCorral.side_weights``) give an exact common point with convex
    weights for both hulls (``overlap``).
    """
    from tvpm.minnorm import PairCorral, min_norm_point

    m_set = frozenset(m_set)
    if not m_set <= frozenset(range(config.n)):
        raise ValueError("m_set out of range")
    m_idx = sorted(m_set)
    rest = sorted(frozenset(range(config.n)) - m_set)
    if not m_idx or not rest:
        raise ValueError("m_set must be a nonempty proper subset")
    scale, points = config.scaled
    corral = PairCorral([points[i] for i in m_idx],
                        [points[j] for j in rest])
    min_norm_point(corral)
    if corral.nsq == 0:
        mw, rw = corral.side_weights()
        return overlap(config.points, dict(zip(m_idx, mw)),
                       dict(zip(rest, rw)))
    # <y, a_i - a_j> >= |y|^2 / q > 0 for every pair, so y points from the
    # rest to the m side; scale it to primitive integers.
    y = corral.y
    g = gcd(*y)
    normal = [v // g for v in y]
    lo = min(vdot(normal, points[i]) for i in m_idx)
    hi = max(vdot(normal, points[j]) for j in rest)
    if not hi < lo:
        raise AssertionError("nearest point does not separate")
    return Separated(normal=tuple(Fraction(v) for v in normal),
                     offset=Fraction(lo + hi, 2 * scale))
