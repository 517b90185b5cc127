"""Exact rational vectors and matrices.

Scalars are ``fractions.Fraction`` (always lowest terms, positive
denominator) or ints.  Vectors are tuples, matrices are lists of row lists.
The exact core scales rational data once, at the boundary, by the lcm D of
its denominators (``denominator_lcm``, ``to_int``) and then runs on ints
and the fraction-free elimination of ``tvpm.kernel``, whose ``ff_solve``
is the one exact linear solve; uniform scaling changes a determinant by a
known factor and changes neither rank nor the affine-invariant answers, so
everything stays exact; ``verify`` re-checks rational weights on the
scaled points (``int_weighted_sum``).  Rationals stay at the edges:
parsing, formatting, and the exact sums of rational points
(``weighted_sum``) that witness an overlap of two hulls.

Rational literal syntax used on every interface of this package: "p" or
"p/q" with decimal integers and q > 0.  No floating point anywhere.
"""

import re
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple

# ff_solve is re-exported: linalg is the package's linear-algebra namespace,
# and perfbench records linalg.ff_solve's module as the kernel's.
from tvpm.kernel import eliminate, ff_solve

_RAT_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rat(s):
    """Parse "p" or "p/q" (q > 0) into a Fraction."""
    if not isinstance(s, str) or not _RAT_RE.fullmatch(s):
        raise ValueError('not a rational literal: %r (expected a string "p"'
                         ' or "p/q")' % (s,))
    if "/" in s:
        num, den = s.split("/")
        den = int(den)
        if den == 0:
            raise ValueError("zero denominator: %r" % (s,))
        return Fraction(int(num), den)
    return Fraction(int(s))


def format_rat(x):
    """Render a Fraction as "p" or "p/q"."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_vec(items):
    """Parse a JSON list of rational literals into a tuple of Fractions."""
    if not isinstance(items, list):
        raise ValueError("not a list of rational literals: %r" % (items,))
    return tuple(parse_rat(s) for s in items)


def format_vec(v):
    return [format_rat(x) for x in v]


def vdot(u, v):
    return sum(map(mul, u, v))


def weighted_sum(weights, vectors):
    """The vector sum of weights[i] * vectors[i]; ``weights`` is a
    sequence and there is at least one vector."""
    return tuple(sum(map(mul, weights, col)) for col in zip(*vectors))


def tensor(u, b):
    """Tensor (outer) product flattened row-major: entry (i,j) is u_i*b_j."""
    return tuple(ui * bj for ui in u for bj in b)


def denominator_lcm(vectors):
    """Least common multiple of every denominator in the vectors (ints
    count as denominator 1), so D * v is integral for each v."""
    return lcm(*(x.denominator for v in vectors for x in v))


def to_int(vectors, scale):
    """The vectors times ``scale`` as int tuples; ``scale`` must be a
    multiple of every denominator (see ``denominator_lcm``)."""
    return tuple(tuple(x.numerator * (scale // x.denominator) for x in v)
                 for v in vectors)


def int_weighted_sum(weights, points):
    """``(den, total, sums)``, ints: den the lcm of the rational weights'
    denominators, total = den * sum(weights) and sums = den * sum
    weights[i] points[i] over integer points."""
    den = lcm(*(w.denominator for w in weights))
    ints = [w.numerator * (den // w.denominator) for w in weights]
    return den, sum(ints), weighted_sum(ints, points)


class HullFactor(NamedTuple):
    """The affine hull of s integer points in Z^d, of affine rank k.

    The hull is {x : e . (x, 1) = 0 for e in ``eqs``}, d+1-k integer
    rows ready to stack.  When the points are affinely independent (k =
    s), with P the (d+1) x s matrix of lifted columns (p, 1), ``coef`` P =
    ``den`` I: ``coef`` is the s x (d+1) integer matrix den U^-1 L and
    ``den`` > 0 is |U's last pivot|, for the factor L P = U of
    fraction-free forward elimination, which ``hull_factor`` reads off
    one Gauss-Jordan pass.  So a point y = t (w, 1) of the hull has
    affine coefficients coef y / (den t), with the signs of coef y when
    t > 0.  Both are None for dependent points.
    """

    eqs: list
    coef: list
    den: int


def hull_factor(points):
    """Factor the affine hull of integer points.

    One fraction-free Gauss-Jordan pass over [P | I], P the lifted
    columns (p, 1), turns it into [L P | L].  The rows past the rank k
    have L P = 0, so each is an integer equation e with e . (x, 1) = 0 on
    the hull.  When k = s the first s rows hold den U^-1 times those of
    forward elimination (``kernel.eliminate`` with ``above``), so their L
    block is ``coef``, negated when U's last pivot is negative.
    """
    s = len(points)
    dim = len(points[0]) + 1
    width = s + dim
    a = [[p[c] for p in points] + [int(k == c) for k in range(dim)]
         for c in range(dim - 1)]
    a.append([1] * s + [0] * (dim - 1) + [1])
    rank = len(eliminate(a, s, width, above=True)[0])
    coef = den = None
    if rank == s:
        den = a[s - 1][s - 1]
        coef = [row[s:] if den > 0 else [-v for v in row[s:]]
                for row in a[:s]]
        den = abs(den)
    return HullFactor([row[s:] for row in a[rank:]], coef, den)
