"""Fraction-free elimination on integer matrices.

``eliminate`` is the innermost loop of the package's matrix work:
exhaustive partition scans, intersection certificates, general-position
and rank tests all bottom out in it.  ``ff_det`` and ``ff_solve`` (and the
callers in ``tvpm.linalg``) only set up its input and read its result.
The pivoting solver does not call it: Wolfe's method in ``tvpm.minnorm``
updates its bordered systems in place, and separation runs on that
method too.

All matrices are row-major lists of Python ints.  Elimination uses the
one-step fraction-free scheme: every 2x2 cross-multiplication is divided by
the previous pivot, and that division is always exact (the intermediate
entries are minors of the input), which keeps entry growth polynomial
instead of exponential.
"""


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


def ff_det(rows):
    """Determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    pivots, sign = eliminate(a, n, n)
    if len(pivots) < n:
        return 0
    return sign * a[n - 1][n - 1]


def ff_solve(rows, rhs):
    """Solve a square integer system A x = b exactly.

    Returns ``(det, nums)`` with ``x[i] = nums[i] / det`` (det is the
    determinant of A, nonzero), or ``None`` when A is singular.
    """
    n = len(rows)
    if n == 0:
        return 1, []
    a = [list(rows[i]) + [rhs[i]] for i in range(n)]
    pivots, sign = eliminate(a, n, n + 1)
    if len(pivots) < n:
        return None
    den = a[n - 1][n - 1]
    # Back substitution scaled by the last pivot: nums[i] = den * x[i] is an
    # integer (Cramer), and the division by the diagonal entry is exact.
    nums = [0] * n
    nums[n - 1] = a[n - 1][n]
    for k in range(n - 2, -1, -1):
        ak = a[k]
        s = ak[n] * den
        for j in range(k + 1, n):
            s -= ak[j] * nums[j]
        nums[k] = s // ak[k]
    if sign < 0:
        return -den, [-v for v in nums]
    return den, nums
