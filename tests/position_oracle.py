"""General-position oracle: one determinant per (d+1)-subset.

The points are in general position when they are distinct and no d+1
of them are affinely dependent, that is, when every (d+1) x (d+1) matrix
of lifted rows (a, 1) has a nonzero determinant.  The determinants are
taken by cofactor expansion along the first row, with the minors of each
column subset memoised, on the points scaled to integers.  Imports only
the standard library; shares no code with ``tvpm``.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm


def cofactor_det(rows):
    """Determinant by cofactor expansion; rows[k] is expanded over the
    columns left after rows 0..k-1 took theirs."""
    n = len(rows)
    memo = {}

    def minor(k, cols):
        # det of rows k.. on the column tuple cols (len(cols) == n - k)
        if k == n:
            return 1
        got = memo.get(cols)
        if got is None:
            got = 0
            for pos, j in enumerate(cols):
                if rows[k][j]:
                    rest = cols[:pos] + cols[pos + 1:]
                    term = rows[k][j] * minor(k + 1, rest)
                    got += -term if pos % 2 else term
            memo[cols] = got
        return got

    return minor(0, tuple(range(n)))


def general_position(points, d):
    """The oracle's answer for ``tvpm.gen.general_position(points, d)``."""
    if len(set(points)) != len(points):
        return False
    scale = lcm(*(Fraction(x).denominator for p in points for x in p))
    lifted = [[int(Fraction(x) * scale) for x in p] + [1] for p in points]
    return all(cofactor_det(subset) != 0
               for subset in combinations(lifted, d + 1))
