"""Closed-form Radon spectrum, independent of the library's solvers.

For n = d+2 points a_0..a_{d+1} in R^d that lie in no hyperplane, the
Radon dependence lambda (sum lambda_i a_i = 0, sum lambda_i = 0) is
unique up to scale; some lambda_i may be 0.  For a bipartition
{T, A \\ T} with lambda(T) > 0 the common point of the two affine hulls
has coefficients lambda_i / lambda(T) on T and -lambda_i / lambda(T) off
T, so its negative set is U = (N & T) | (P - T), where P and N hold the
indices with lambda_i > 0 and lambda_i < 0; a zero lambda_i is a zero
coefficient, never a negative one.  Since lambda(T) = S - sum_U
|lambda_i| with S = sum_P lambda_i = half of sum |lambda_i|, these U are
exactly the sets of indices with nonzero lambda_i and sum_U |lambda_i| <
S, and U determines T = (N & U) | (P - U) up to the indices with
lambda_i = 0.  The achievable negative counts are therefore {0..K}, K
the largest number of the nonzero |lambda_i| whose sum stays below half
the total (Radon, 1921).

Only ``fractions`` is used here: the dependence comes from Cramer's rule
with a determinant computed below, never from ``tvpm``'s own linear
algebra.
"""

from fractions import Fraction


def _det(rows):
    """Exact determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((i for i in range(col, size) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, size):
            f = m[i][col] / m[col][col]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def radon_dependence(points):
    """The Radon dependence of d+2 points in R^d, by Cramer's rule.

    lambda_i = (-1)^i det of the (d+1)x(d+1) matrix with columns (a_j, 1)
    for j != i; each equation of sum lambda_i (a_i, 1) = 0 is then the
    expansion of a determinant with a repeated row.
    """
    n = len(points)
    d = n - 2
    cols = [tuple(p) + (1,) for p in points]
    lam = []
    for i in range(n):
        minor = [[cols[j][row] for j in range(n) if j != i]
                 for row in range(d + 1)]
        lam.append((-1) ** i * _det(minor))
    for row in range(d + 1):
        if sum(l * c[row] for l, c in zip(lam, cols)) != 0:
            raise AssertionError("Cramer vector is not a dependence")
    return lam


def radon_top(points):
    """The top of the Radon spectrum of d+2 points in no hyperplane.

    Returns ``(K, U, partition)``: U holds the indices of the K smallest
    nonzero |lambda_i|, K as large as keeps their sum strictly below half
    of sum |lambda_i|, and partition is the bipartition (T, A \\ T) with
    T = (N & U) | (P - U), the indices with lambda_i = 0 off T, whose
    certificate has exactly U negative.  A Cramer vector that is all
    zero means the dependence is not unique: the points lie in a
    hyperplane, and no bipartition meets in one point.
    """
    lam = radon_dependence(points)
    if not any(lam):
        raise ValueError("the Radon dependence is not unique")
    half = sum(abs(l) for l in lam) / 2
    top = []
    total = Fraction(0)
    for i in sorted((i for i in range(len(lam)) if lam[i]),
                    key=lambda i: abs(lam[i])):
        if total + abs(lam[i]) >= half:
            break
        total += abs(lam[i])
        top.append(i)
    part = tuple(i for i in range(len(lam))
                 if lam[i] and (lam[i] < 0) == (i in top))
    rest = tuple(i for i in range(len(lam)) if i not in part)
    return len(top), frozenset(top), (part, rest)
