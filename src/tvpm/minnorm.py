"""Exact minimum-norm point in a convex hull of integer points.

Active-set (Wolfe-style) method over corrals: affinely independent
subsets whose affine minimizer has strictly positive weights.  Callers
scale rational input once to integer points (``PointConfig.scaled``, the
lift).  The current point is x = sum lam[i] * p_i / q with integer lam
and one denominator q, so every inner product <x, p_i> and every norm
comparison is an integer operation.  The affine minimizer of the support
is read from the integer adjugate and determinant of its bordered Gram
matrix, which are updated in O(k^2) exact steps as the support gains or
loses one point (Bareiss 1968) instead of being solved afresh.  The
result is the exact closest point to the origin, as its integer weights;
uniform scaling leaves them unchanged.

A corral holds that state between calls: the bordered system, the
weights lam and q, and the integer nsq that the last major cycle tested
optimality with.  It also knows the points: each major cycle asks it for
nsq and the entering point, the first one of least inner product with x,
and the bordered system asks it for the inner products of one point with
the support.  ``Corral`` keeps the points' integer Gram matrix (``gram``)
and reads v[i] = q <x, p_i> for every point from it.  ``PairCorral`` runs
on the differences l - r of two point sets without building them or their
Gram matrix: with y = q x, <y, l - r> = <y, l> - <y, r>, so the entering
difference is the first l of least <y, l> less the first r of greatest
<y, r>, found in O((|L| + |R|) d) per major cycle.  It alone encodes a
difference's index, and it alone decodes it: ``side_weights`` sums the
weights lam per side, one integer per point of each list.

A caller of ``Corral`` that replaces points off the support (a
colorful-Caratheodory pivot swaps a color of weight zero) keeps the
corral valid, since the bordered system reads only the support's Gram
entries, and the next call starts from the previous point instead of
rebuilding its support one update at a time (Wolfe 1976).
"""

from math import gcd
from operator import mul

from tvpm.linalg import vdot, weighted_sum


def gram(points):
    """The Gram matrix [<p, q>] of the points, as lists, by symmetry."""
    g = [[vdot(p, q) for q in points[:i + 1]] for i, p in enumerate(points)]
    return [row + [g[l][i] for l in range(i + 1, len(g))]
            for i, row in enumerate(g)]


class _Bordered:
    """The support S of Wolfe's method with the negated adjugate ``adj``
    and the negated determinant ``det`` of its bordered Gram matrix B =
    [0 1^T; 1 G_S].

    Stationarity of |sum w_i p_i|^2 under sum w_i = 1 is B (mu, w) = e_0,
    so the affine minimizer's weights are column 0 of adj over det.  B is
    nonsingular exactly when S is affinely independent, and then its
    determinant is negative, so det > 0.  Negating both adj and det leaves
    the updates unchanged.  Both divide by the old det, and those
    divisions are exact: every result is a minor of B (Sylvester's
    identity, Jacobi's theorem on the adjugate).  adj is symmetric; each
    update computes one triangle and mirrors it.
    """

    def __init__(self, inner, start):
        self.inner = inner  # inner(e, idx): [<p_e, p_s> for s in idx]
        self.support = [start]
        self.det = 1
        self.adj = [[-inner(start, [start])[0], 1], [1, 0]]

    def add(self, e):
        """Append point e: det' = g_ee det - c.u and adj' = [(det' adj +
        u u^T) / det, -u; -u^T, det] with c = (1, G_Se), u = adj c."""
        adj, det = self.adj, self.det
        c = [1] + self.inner(e, self.support + [e])
        gee = c.pop()
        u = [sum(map(mul, row, c)) for row in adj]
        det2 = gee * det - sum(map(mul, c, u))
        if det2 == 0:
            raise AssertionError("support must stay affinely independent")
        low = [[(det2 * a + ui * ul) // det for a, ul in zip(row, u[:i + 1])]
               for i, (row, ui) in enumerate(zip(adj, u))]
        k = len(low)
        self.adj = [row + [low[l][i] for l in range(i + 1, k)] + [-u[i]]
                    for i, row in enumerate(low)]
        self.adj.append([-x for x in u] + [det])
        self.det = det2
        self.support.append(e)

    def remove(self, pos):
        """Drop the point at support position pos: with j = pos + 1,
        det' = adj[j][j] and adj'[i][l] = (adj[i][l] adj[j][j] -
        adj[i][j] adj[j][l]) / det."""
        adj, det = self.adj, self.det
        j = pos + 1
        aj = adj[j]
        ajj = aj[j]
        keep = [i for i in range(len(adj)) if i != j]
        low = [[(adj[i][l] * ajj - aj[i] * aj[l]) // det for l in keep[:t + 1]]
               for t, i in enumerate(keep)]
        k = len(low)
        self.adj = [row + [low[l][t] for l in range(t + 1, k)]
                    for t, row in enumerate(low)]
        self.det = ajj
        del self.support[pos]

    def weights(self):
        """``(den, nums)`` with w_i = nums[i] / den and den > 0: the
        affine minimizer of the support, in support order."""
        return self.det, [row[0] for row in self.adj[1:]]


class Corral:
    """Wolfe's method's state between calls over the integer Gram matrix
    ``gram`` (``gram(points)``): the support's bordered system ``border``
    (``_Bordered``), the current point x = sum lam[s] p_s / q over it, and,
    after a ``min_norm_point`` call, v[i] = q <x, p_i> for every point and
    nsq = q^2 |x|^2, the integers its last major cycle tested optimality
    with.  A fresh corral starts at the first point of least norm.

    The bordered system reads only the Gram entries of the support, so a
    caller may replace any point off the support, row and column of
    ``gram`` in place, and call ``min_norm_point`` again from this corral:
    the run starts at x, not at one point.
    """

    def __init__(self, gram):
        self.gram = gram
        self._start([row[i] for i, row in enumerate(gram)])

    def _start(self, norms):
        """Start at the first point of least squared norm."""
        if not norms:
            raise ValueError("need at least one point")
        start = norms.index(min(norms))
        self.border = _Bordered(self.inner, start)
        self.lam = {start: 1}
        self.q = 1
        self.v = self.nsq = None

    def inner(self, e, idx):
        """[<p_e, p_s> for s in idx], as ``_Bordered`` reads them."""
        row = self.gram[e]
        return [row[s] for s in idx]

    def entering(self, lam):
        """``(nsq, e, v[e])`` for the point x = sum lam[s] p_s / q of the
        support: nsq = q^2 |x|^2 and e the first point of least
        v[e] = q <x, p_e>; keeps every v[i] in ``v``."""
        gram, support = self.gram, self.border.support
        coef = [lam[s] for s in support]
        v = [sum(map(mul, coef, col))
             for col in zip(*(gram[s] for s in support))]
        self.v = v
        e = v.index(min(v))
        return sum(lam[s] * v[s] for s in support), e, v[e]


class PairCorral(Corral):
    """Wolfe's method's state over the differences left[a] - right[b] of
    two lists of integer points, difference k = a * len(right) + b in
    the order of ``itertools.product``, with no difference and no Gram
    entry stored beyond the support's.  After a ``min_norm_point`` call it
    holds y = q x = sum lam[k] (left[a] - right[b]) and nsq = |y|^2
    instead of v.  Its steps and results are those of ``Corral`` on the
    Gram matrix of the differences.
    """

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.y = None
        # |l - r|^2 = |l|^2 + |r|^2 - 2 <l, r>, one inner product per pair
        lsq = [vdot(l, l) for l in left]
        rsq = [vdot(r, r) for r in right]
        self._start([ls + rs - 2 * vdot(l, r)
                     for l, ls in zip(left, lsq)
                     for r, rs in zip(right, rsq)])

    def side_weights(self):
        """``(left, right)``: the weights lam summed per side, one int per
        point of each list; each list totals q."""
        left, right = [0] * len(self.left), [0] * len(self.right)
        for k, c in self.lam.items():
            a, b = divmod(k, len(self.right))
            left[a] += c
            right[b] += c
        return left, right

    def diff(self, k):
        """The difference k, left[a] - right[b], as a list."""
        a, b = divmod(k, len(self.right))
        return [x - z for x, z in zip(self.left[a], self.right[b])]

    def inner(self, e, idx):
        de = self.diff(e)
        return [vdot(de, self.diff(s)) for s in idx]

    def entering(self, lam):
        """``(nsq, e, v_e)`` as ``Corral.entering``, from y alone: v_k =
        <y, left[a]> - <y, right[b]>, least at the first a of least
        <y, left[a]> and the first b of greatest <y, right[b]>."""
        support = self.border.support
        y = self.y = weighted_sum([lam[s] for s in support],
                                  [self.diff(s) for s in support])
        lv = [vdot(y, p) for p in self.left]
        rv = [vdot(y, p) for p in self.right]
        lo, hi = min(lv), max(rv)
        return (vdot(y, y), lv.index(lo) * len(self.right) + rv.index(hi),
                lo - hi)


def min_norm_point(corral):
    """Run Wolfe's method from the corral's state to the exact minimum-norm
    point of the corral's integer points, and leave it there: x = sum
    lam[s] p_s / q and nsq, with v (``Corral``) or y (``PairCorral``).
    Returns None; the caller reads the integers lam, q and nsq and builds
    no rational point.
    """
    border = corral.border
    support = border.support  # grown and shrunk by border's updates
    lam, q = corral.lam, corral.q
    prev = None  # (q^2 |x|^2, q^2) of the previous iterate
    while True:
        # nsq = q^2 |x|^2, and ve = q <x, p_enter>, least over the points
        nsq, enter, ve = corral.entering(lam)
        if prev is not None and not nsq * prev[1] < prev[0] * q * q:
            raise AssertionError("norm failed to decrease")
        prev = (nsq, q * q)
        if nsq == 0 or ve * q >= nsq:
            break
        # points[enter] is outside the affine hull of the support (inner
        # products with x are constant = |x|^2 on that hull), so the
        # grown set stays affinely independent.
        border.add(enter)
        lam[enter] = 0
        while True:
            e, w = border.weights()
            if all(x > 0 for x in w):
                g = gcd(e, *w)
                lam = {s: x // g for s, x in zip(support, w)}
                q = e // g
                break
            # Step from lam / q toward the minimizer w / e while every
            # weight stays >= 0: theta = min lam_s / (lam_s - w_s) over
            # w_s <= 0, kept as the fraction tn / td.
            tn, td = None, None
            for s, x in zip(support, w):
                if x <= 0:
                    a = lam[s] * e
                    b = a - x * q
                    if tn is None or a * td < tn * b:
                        tn, td = a, b
            new = {}
            for s, x in zip(support, w):
                val = (td - tn) * lam[s] * e + tn * x * q
                if val > 0:
                    new[s] = val
            den = td * q * e
            g = gcd(den, *new.values())
            lam = {s: x // g for s, x in new.items()}
            q = den // g
            # One point at a time, last first, so positions stay valid.
            for pos in range(len(support) - 1, -1, -1):
                if support[pos] not in lam:
                    border.remove(pos)
    corral.lam, corral.q, corral.nsq = lam, q, nsq
