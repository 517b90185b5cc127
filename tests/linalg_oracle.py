"""Exact rational references for the tests.

The library works on integer systems it assembles itself; ``rank`` and
``solve_linear`` are rational front ends to the fraction-free kernel for
tests that state a system over ``Fraction`` entries.  ``block_system``
and ``block_intersection`` state a partition's intersection as one block
system over all coefficients and the point at once, the reference for the
library's reading in ``tvpm.core.common_point``: the null vector of the
other parts' equations at the kernel part's points, which gives that
part's coefficients and the point, and each other part's coefficients
through its hull factor.  ``hull_factor_forward`` is the reference for
``tvpm.linalg.hull_factor``'s one Gauss-Jordan pass: forward elimination,
then one back substitution per column of L.
"""

from fractions import Fraction
from typing import NamedTuple

from tvpm.core import canonical_partition
from tvpm.kernel import back_substitute, eliminate, ff_solve
from tvpm.linalg import HullFactor, denominator_lcm, to_int


def rank(rows):
    """Exact rank of a rectangular rational matrix."""
    if not rows:
        return 0
    a = [list(row) for row in to_int(rows, denominator_lcm(rows))]
    return len(eliminate(a, len(a[0]), len(a[0]))[0])


def solve_linear(rows, rhs):
    """Solve a square rational system exactly.

    Returns ``(x, det)`` with det nonzero, or ``None`` when singular.  The
    system is scaled once by the lcm D of all its denominators, which
    multiplies the determinant by D**n.
    """
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("dimension mismatch")
    aug = [tuple(row) + (b,) for row, b in zip(rows, rhs)]
    scale = denominator_lcm(aug)
    aug = to_int(aug, scale)
    den, nums = ff_solve([row[:n] for row in aug], [row[n] for row in aug])[:2]
    if not den:
        return None
    x = tuple(Fraction(v, den) for v in nums)
    return x, Fraction(den, scale ** n)


def block_system(config, partition, points=None, unit=1):
    """The block system of a partition, over Fractions.

    Returns ``(m, b, col_point)``: per part, d rows
    sum_i alpha_i a_i - z = 0 and one row sum_i alpha_i = 1.  Column j of
    m (for j < n) carries the coefficient of point ``col_point[j]`` and
    the last d columns carry -z, so m is r(d+1) x (n+d), square exactly
    when n = (r-1)(d+1)+1.  Given the scaled ``points`` and ``unit`` = D
    instead, every weighted-sum row is D times as large and the system
    is integral.
    """
    n, d = config.n, config.d
    if points is None:
        points = config.points
    col_point = [i for part in partition for i in part]
    col_of = {i: pos for pos, i in enumerate(col_point)}
    m = []
    b = []
    for part in partition:
        for coord in range(d):
            row = [0] * (n + d)
            for i in part:
                row[col_of[i]] = points[i][coord]
            row[n + coord] = -unit
            m.append(row)
            b.append(0)
        ones = [0] * (n + d)
        for i in part:
            ones[col_of[i]] = 1
        m.append(ones)
        b.append(1)
    return m, b, col_point


class BlockIntersection(NamedTuple):
    kind: str  # "point" | "empty" | "degenerate"
    alpha: dict  # None unless kind is "point"
    z: tuple
    det: Fraction  # of the rational block matrix when square, else None


def block_intersection(config, partition):
    """Classify a partition by the ranks of [m] and [m | b] of its block
    system, from one elimination: inconsistent is "empty", consistent
    with full column rank a unique "point", anything else "degenerate".
    The elimination runs on the integral system over the scaled points,
    whose r*d scaled rows make its determinant D**(r*d) times larger."""
    partition = canonical_partition(partition)
    scale, points = config.scaled
    m, b, col_point = block_system(config, partition, points, scale)
    rows, cols = len(m), len(m[0])
    a = [row + [bi] for row, bi in zip(m, b)]
    pivots, sign = eliminate(a, cols + 1, cols + 1)
    rank_aug = len(pivots)
    rank_m = rank_aug - (1 if pivots[-1] == cols else 0)
    det = None
    if rows == cols:
        det = Fraction(0)
        if rank_m == cols:
            det = Fraction(sign * a[cols - 1][cols - 1],
                           scale ** (config.r * config.d))
    if rank_m < rank_aug:
        return BlockIntersection("empty", None, None, det)
    if rank_m < cols:
        return BlockIntersection("degenerate", None, None, det)
    # Rows 0..cols-1 are upper triangular; back substitution scaled by
    # the last pivot stays in integers (Cramer), as in
    # ``kernel.back_substitute``.
    den = a[cols - 1][cols - 1]
    nums = [0] * cols
    for k in range(cols - 1, -1, -1):
        ak = a[k]
        s = ak[cols] * den - sum(ak[j] * nums[j] for j in range(k + 1, cols))
        nums[k] = s // ak[k]
    x = [Fraction(v, den) for v in nums]
    n = config.n
    alpha = {col_point[pos]: x[pos] for pos in range(n)}
    return BlockIntersection("point", alpha, tuple(x[n:]), det)


def hull_factor_forward(points):
    """``tvpm.linalg.hull_factor`` by forward elimination of [P | I] into
    [U | L] and ``kernel.back_substitute`` on each column of L: ``coef``
    is sign * den U^-1 L and ``den`` = |den|, den U's last pivot and sign
    its sign."""
    s = len(points)
    dim = len(points[0]) + 1
    width = s + dim
    a = [[p[c] for p in points] + [int(k == c) for k in range(dim)]
         for c in range(dim - 1)]
    a.append([1] * s + [0] * (dim - 1) + [1])
    rank = len(eliminate(a, s, width)[0])
    coef = den = None
    if rank == s:
        den = a[s - 1][s - 1]
        sign = 1 if den > 0 else -1
        cols = [back_substitute(a, [sign * a[k][j] for k in range(s)])
                for j in range(s, width)]
        coef = [list(row) for row in zip(*cols)]
        den *= sign
    return HullFactor([row[s:] for row in a[rank:]], coef, den)
