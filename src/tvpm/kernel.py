"""Fraction-free elimination on integer matrices.

``eliminate`` is the innermost loop of the package's matrix work:
exhaustive partition scans, intersection certificates and rank tests all
bottom out in it.  ``every_subset_independent`` is the general-position
test (``tvpm.gen.general_position``): the same fraction-free step, run
once per pivot prefix instead of once per subset.  One ``null_vector``
per scanned partition classifies it and signs its smallest part
(``tvpm.core.common_point``), and one gives the Radon dependence;
``back_substitute``, the one back substitution, reads its vector,
``ff_solve``'s solution and ``tvpm.linalg.hull_factor``'s per-part
coefficients.  Wolfe's method (``tvpm.minnorm``) does not use them: it
updates its bordered systems in place.

All matrices are row-major lists of Python ints.  Elimination uses the
one-step fraction-free scheme: every 2x2 cross-multiplication is divided by
the previous pivot, and that division is always exact (the intermediate
entries are minors of the input), which keeps entry growth polynomial
instead of exponential.
"""

from math import gcd
from typing import NamedTuple


def eliminate(a, ncols, width):
    """Fraction-free forward elimination of the rows ``a``, in place.

    Pivots are searched in columns 0..ncols-1, one echelon row per pivot;
    a column with no nonzero entry at or below the current echelon row is
    skipped.  Entries are updated through column ``width - 1``.  Returns
    ``(pivots, sign)``: the pivot column of each echelon row and the sign
    of the row permutation.  The last pivot of a full-rank square matrix,
    times sign, is its determinant.
    """
    m = len(a)
    pivots = []
    sign = 1
    prev = 1
    row = 0
    for col in range(ncols):
        if row == m:
            break
        p = row
        while p < m and a[p][col] == 0:
            p += 1
        if p == m:
            continue
        if p != row:
            a[row], a[p] = a[p], a[row]
            sign = -sign
        ar = a[row]
        piv = ar[col]
        rest = range(col + 1, width)
        for i in range(row + 1, m):
            ai = a[i]
            f = ai[col]
            if f:
                for j in rest:
                    ai[j] = (piv * ai[j] - f * ar[j]) // prev
            elif prev != piv:
                for j in rest:
                    ai[j] = piv * ai[j] // prev
            ai[col] = 0
        prev = piv
        pivots.append(col)
        row += 1
    return pivots, sign


def every_subset_independent(rows):
    """Whether every m of the n integer vectors ``rows`` (a list of
    sequences) in Z^m are linearly independent (vacuously True when
    n < m or m = 0).

    Each vector, in index order, is a pivot for the vectors after it: one
    fraction-free step (``_independent``) reduces them to Z^(m-1), where
    the same question is asked of the subsets that the pivot starts.  So
    the work is one short row reduction per (vector, prefix of pivots),
    not one determinant per m-subset.
    """
    m = len(rows[0]) if rows else 0
    return _independent(rows, m, 1)


def _independent(rows, m, prev):
    """``every_subset_independent`` on rows with m live columns, each row
    already reduced by a prefix of pivots whose last pivot was ``prev``.

    A pivot row v with first nonzero column c turns each later row w into
    (v[c] w - w[c] v) / prev without column c; Sylvester's identity makes
    the division exact, as in ``eliminate``.  A zero pivot row is a
    dependent subset.  With two columns left, every row must be nonzero
    and no two parallel: one set of primitive, sign-normalised pairs.
    """
    n = len(rows)
    if n < m or m == 0:
        return True
    if m == 1:
        return all(row[0] for row in rows)
    if m == 2:
        seen = set()
        for x, y in rows:
            g = gcd(x, y)
            if g == 0:
                return False
            if x < 0 or (x == 0 and y < 0):
                g = -g
            key = (x // g, y // g)
            if key in seen:
                return False
            seen.add(key)
        return True
    for i in range(n - m + 1):
        v = rows[i]
        c = 0
        while c < m and v[c] == 0:
            c += 1
        if c == m:
            return False
        p = v[c]
        cols = [j for j in range(m) if j != c]
        reduced = []
        for w in rows[i + 1:]:
            f = w[c]
            reduced.append([(p * w[j] - f * v[j]) // prev for j in cols])
        if not _independent(reduced, m - 1, p):
            return False
    return True


class Solution(NamedTuple):
    """``ff_solve``'s result: x = nums / den when den != 0, and the ranks
    of A and of [A | b]."""

    den: int
    nums: list
    rank: int
    rank_aug: int


def back_substitute(upper, c):
    """Integer x with U x = den * c, U the leading n x n block of
    ``upper`` (n = len(c)) and den = U[n-1][n-1]; x overwrites the list
    c, which is returned.

    U is upper triangular with nonzero diagonal, as fraction-free
    elimination leaves it, so den * U^-1 c is integral (Cramer) and every
    division here is exact.
    """
    n = len(c)
    if n > 1:
        den = upper[n - 1][n - 1]
        for k in range(n - 2, -1, -1):
            uk = upper[k]
            v = c[k] * den
            for j in range(k + 1, n):
                v -= uk[j] * c[j]
            c[k] = v // uk[k]
    return c


def null_vector(a, n):
    """The integer null vector x of the rows ``a`` (n ints each, eliminated
    in place, keeping their span) when their rank is n - 1, else None.  For
    c the column with no pivot, x_c is the last pivot before it (1 if c =
    0), x before c is ``back_substitute`` of -x_c column c, x after c is 0."""
    pivots = eliminate(a, n, n)[0]
    free = n - 1
    if len(pivots) != free:
        return None
    if pivots and pivots[-1] == free:  # the pivotless column is not last
        free = next(c for c, p in enumerate(pivots) if c != p)
    x = back_substitute(a, [-row[free] for row in a[:free]])
    x.append(a[free - 1][free - 1] if free else 1)
    return x + [0] * (n - 1 - free)


def ff_solve(rows, rhs):
    """Classify and solve an m x n integer system A x = b exactly, from
    one fraction-free elimination of [A | b]: consistent with full column
    rank, den != 0 and x = nums / den; otherwise den = 0 and nums is None.
    For square A, den is det A (0 when A is singular)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(rows[i]) + [rhs[i]] for i in range(m)]
    pivots, sign = eliminate(a, n + 1, n + 1)
    rank_aug, rank = len(pivots), len(pivots) - (pivots[-1:] == [n])
    if rank < rank_aug or rank < n:
        return Solution(0, None, rank, rank_aug)
    if n == 0:
        return Solution(1, [], 0, 0)
    # Full column rank: echelon rows 0..n-1 are upper triangular; for
    # square A their last pivot times sign is det A.
    den = sign * a[n - 1][n - 1]
    nums = back_substitute(a, [a[k][n] for k in range(n)])
    if sign < 0:
        nums = [-v for v in nums]
    return Solution(den, nums, rank, rank_aug)
