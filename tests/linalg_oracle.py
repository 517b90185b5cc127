"""Exact rank and square solve over rational matrices, for the tests.

The library works on integer systems it assembles itself; these two
rational front ends to the fraction-free kernel exist only as references
for tests that state a system over ``Fraction`` entries.
"""

from fractions import Fraction

from tvpm.kernel import eliminate, ff_solve
from tvpm.linalg import denominator_lcm, to_int


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
    got = ff_solve([row[:n] for row in aug], [row[n] for row in aug])
    if got is None:
        return None
    den, nums = got
    x = tuple(Fraction(v, den) for v in nums)
    return x, Fraction(den, scale ** n)
