"""Constructive solver: tensor lift, pivoting, and recovery.

The pipeline reduces the sign-prescribed partition problem on n =
(r-1)(d+1)+1 points in R^d to finding a transversal of n point sets in
R^{n-1} whose convex hull contains the origin:

  1. ``companion_simplex``: r vectors in R^{r-1} whose only linear
     dependence (up to scale) is that they sum to zero.
  2. ``lift``: each point a_i becomes the colour {v_j (x) b_i} where
     b_i = (D a_i, D), negated exactly on the prescribed index set, so the
     origin is the uniform average of every colour.  D, the lcm of the
     coordinate denominators (``config.scaled``), makes every lifted
     vector integral; it scales all of them alike, so pivot choices and
     weights do not change, and the trace divides it out.
  3. ``pivot_to_origin``, from the start j(i) = i mod r: pivoting on the
     exact minimum-norm point w of the current transversal.  While w is
     nonzero, every current point has <w, p> >= |w|^2; the smallest color
     strictly off that hyperplane (or, when none is, the smallest color of
     weight zero) is swapped to its most-opposed element, which strictly
     shrinks the norm (Barany-Onn 1997).  The rule reads only w, which is
     unique.  The swapped color is off the support, so Wolfe's method
     (``minnorm.min_norm_point``) resumes from the previous pivot's corral
     instead of restarting, and w = y / q is read from its integers.
  4. ``recover``, from the configuration, the prescribed set and the
     transversal: reading the partition off the chosen tensor factors and
     unscaling the weights by the common per-part coefficient sum gamma;
     the sign of gamma selects which of the two sign alternatives was
     realized, and an empty part yields an exact witness that the
     prescribed set was not separated.
"""

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from tvpm.core import (
    canonical_partition,
    is_proper,
    make_certificate,
)
from tvpm.linalg import tensor, vdot, weighted_sum
from tvpm.minnorm import Corral, gram, min_norm_point
from tvpm.search import NotSeparated, check_separation


def companion_simplex(r):
    """r vectors in R^{r-1} with v_1 + ... + v_r = 0 as the only
    dependence: the standard basis plus the negated sum."""
    if r < 2:
        raise ValueError("r must be >= 2")
    vecs = []
    for j in range(r - 1):
        vecs.append(tuple(1 if t == j else 0 for t in range(r - 1)))
    vecs.append((-1,) * (r - 1))
    return tuple(vecs)


class LiftColor(tuple):
    """The r lifted vectors v_j (x) b_i of one point, as a colour."""

    __slots__ = ()

    def most_opposed(self, y):
        """``(index, vector, <y, vector>)`` for the first vector with the
        least inner product with y."""
        best = None
        for j, v in enumerate(self):
            val = vdot(y, v)
            if best is None or val < best[2]:
                best = (j, v, val)
        return best


def lift(config, m_set):
    """Tensor lift of a full-size configuration with signs on m_set: n
    ``LiftColor``s, each r int vectors in Z^{n-1}, scale times the lift
    of (a_i, 1) with ``scale, _ = config.scaled``."""
    if not config.is_full:
        raise ValueError("lift needs n = (r-1)(d+1)+1 points")
    m_set = frozenset(m_set)
    if not m_set <= frozenset(range(config.n)):
        raise ValueError("m_set out of range")
    vs = companion_simplex(config.r)
    scale, points = config.scaled
    sets = []
    for i, a in enumerate(points):
        b = a + (scale,)
        if i in m_set:
            b = tuple(-x for x in b)
        sets.append(LiftColor(tensor(v, b) for v in vs))
    assert all(len(s[0]) == config.n - 1 for s in sets)
    return tuple(sets)


def pivot_to_origin(sets, init_choice, trace=None, scale=1):
    """Transversal of the color sets whose hull contains the origin.

    Each set must contain the origin in its convex hull.  Returns
    ``(choice, weights)`` with sum weights[i] * sets[i][choice[i]] = 0,
    weights >= 0 summing to 1.  ``trace(step, choice, w, normsq)`` is
    called once per pivot iteration when given, with w and its squared
    norm divided by ``scale``: a caller that passes its vectors times a
    scale gets the trace of the unscaled ones.

    A set is a colour: an integral indexable set with
    ``most_opposed(y)``, which returns ``(index, vector, <y, vector>)``
    for its first vector of least inner product with y (``LiftColor``,
    ``colored.PermutationColor``).  The Gram matrix of the transversal
    (``minnorm.gram``) is kept across pivots, one row and column per swap,
    and so is one ``minnorm.Corral`` over it: each pivot calls
    ``min_norm_point`` once, starting from the previous pivot's support
    and weights, and reads w = y / q with y = sum lam[i] p_i from the
    corral's integer weights lam and denominator q.  The swapped
    color is the smallest one whose point has <w, p> > |w|^2, read from
    the integers the corral already holds, and only when no color lies
    off that hyperplane the smallest one of weight zero.  Either way it is
    off the support, so the corral stays valid after the swap.  The
    returned weights are checked exactly: their combination is the origin
    and they sum to 1.
    """
    ncolors = len(sets)
    choice = list(init_choice)
    current = [sets[i][choice[i]] for i in range(ncolors)]
    matrix = gram(current)
    corral = Corral(matrix)
    prev = None  # (q^2 |w|^2, q^2) of the previous pivot
    step = 0
    while True:
        min_norm_point(corral)
        # w = y / q with integer y; v[i] = <y, p_i> and nsq = |y|^2.
        lam, q, v, nsq = corral.lam, corral.q, corral.v, corral.nsq
        y = weighted_sum(list(lam.values()), [current[i] for i in lam])
        if trace is not None:
            den = q * scale
            trace(step, tuple(choice), tuple(Fraction(c, den) for c in y),
                  Fraction(nsq, den * den))
        if nsq == 0:
            if any(y) or sum(lam.values()) != q:
                raise AssertionError("transversal weights miss the origin")
            return tuple(choice), tuple(Fraction(lam.get(i, 0), q)
                                        for i in range(ncolors))
        if prev is not None and not nsq * prev[1] < prev[0] * q * q:
            raise AssertionError("pivot norm failed to decrease")
        prev = (nsq, q * q)
        # Every current point has <w, p> >= |w|^2, with equality on the
        # support.  Swap the smallest color strictly off that hyperplane:
        # the choice then depends on w alone, which is unique, and not on
        # the support that represents it.  Only when every color lies on
        # the hyperplane does the smallest color without weight get
        # swapped; the support is affinely independent, so at most
        # ncolors - 1 colors carry weight.
        i0 = next((i for i in range(ncolors) if v[i] * q > nsq), None)
        if i0 is None:
            free = [i for i in range(ncolors) if i not in lam]
            if not free:
                raise AssertionError("full support with nonzero norm")
            i0 = free[0]
        best_j, p, best_val = sets[i0].most_opposed(y)
        if best_val > 0:
            raise ValueError(
                "color %d does not contain the origin in its hull" % i0)
        # i0 is off the support, so the corral's bordered system stays
        # valid and the next pivot's Wolfe run starts from it.
        choice[i0] = best_j
        current[i0] = p
        row = [vdot(p, q) for q in current]
        matrix[i0] = row
        for k in range(ncolors):
            matrix[k][i0] = row[k]
        step += 1


class PMCertificate(NamedTuple):
    partition: tuple
    cert: object  # AffineCertificate; gamma carries the raw scale factor
    alternative: str  # "in_m" | "complement"
    proper: bool
    separation_warning: object  # None when unchecked, else bool


class SeparationViolated(NamedTuple):
    common_point: tuple
    part: tuple  # the point indices whose split witnesses the overlap
    m_weights: dict
    rest_weights: dict


class DegenerateGamma(NamedTuple):
    choice: tuple
    weights: tuple


def decode_weights(d, choice, beta, m_set, parts, scale):
    """Unscale a zero transversal's weights into affine coefficients.

    ``parts`` lists, per part, the ``(index, point)`` pairs it holds, the
    points integer vectors in Z^d equal to ``scale`` times the input
    points; index i carries the weight beta[i], negated when i is in
    m_set.  The per-part sums of signed weight times (point, 1) must
    agree; their last coordinate is gamma.  The sums run on ints, over the
    weights' common denominator q and the point scale.  Returns ``(alpha,
    z, gamma)`` with alpha[i] = signed[i] / gamma and z the common sum of
    the points over gamma, or DegenerateGamma when gamma = 0.
    """
    q = lcm(*(b.denominator for b in beta))
    signed = [b.numerator * (q // b.denominator) * (-1 if i in m_set else 1)
              for i, b in enumerate(beta)]
    # q * scale times each part's sum of signed[i] / q * (a_i, 1)
    sums = []
    for part in parts:
        u = [0] * d
        for i, p in part:
            c = signed[i]
            if c:
                u = [x + c * y for x, y in zip(u, p)]
        u.append(scale * sum(signed[i] for i, _ in part))
        sums.append(u)
    if any(u != sums[0] for u in sums[1:]):
        raise AssertionError("per-part sums must agree")
    top = sums[0][d]
    if top == 0:
        return DegenerateGamma(choice=tuple(choice), weights=beta)
    alpha = tuple(Fraction(c * scale, top) for c in signed)
    z = tuple(Fraction(x, top) for x in sums[0][:d])
    return alpha, z, Fraction(top, q * scale)


def recover(config, m_set, choice, beta):
    """Decode a zero transversal, ``pivot_to_origin``'s ``(choice,
    beta)`` on ``lift(config, m_set)``, into a partition certificate.

    The per-part sums sum_{i in part} eps_i beta_i (a_i, 1) agree across
    parts; their last coordinate is gamma (``decode_weights``).  gamma > 0
    realizes negatives on m_set, gamma < 0 on the complement, gamma = 0 is
    surfaced as degenerate.  An empty part forces all sums to vanish and
    yields an exact common point of the two hulls instead.
    """
    n, d, r = config.n, config.d, config.r
    parts = [[] for _ in range(r)]
    for i in range(n):
        parts[choice[i]].append(i)
    if any(not part for part in parts):
        # All sums vanish; inside any part carrying weight, the positive
        # and the negated points average to the same point with the same
        # total weight, exhibiting a common point of the two hulls.
        for part in parts:
            mw = {i: beta[i] for i in part if i in m_set and beta[i] > 0}
            scale = sum(mw.values())
            if scale == 0:
                continue
            rw = {i: beta[i] for i in part if i not in m_set and beta[i] > 0}
            assert sum(rw.values()) == scale
            mw = {i: w / scale for i, w in mw.items()}
            rw = {i: w / scale for i, w in rw.items()}
            pt = weighted_sum(list(mw.values()),
                              [config.points[i] for i in mw])
            check = weighted_sum(list(rw.values()),
                                 [config.points[i] for i in rw])
            assert pt == check
            return SeparationViolated(
                common_point=pt,
                part=tuple(part),
                m_weights=mw,
                rest_weights=rw,
            )
        raise AssertionError("an empty part implies a weighted overlap")
    unit, points = config.scaled
    decoded = decode_weights(
        d, choice, beta, m_set,
        [[(i, points[i]) for i in part] for part in parts], unit)
    if isinstance(decoded, DegenerateGamma):
        return decoded
    alpha, z, gamma = decoded
    cert = make_certificate(z=z, alpha=dict(enumerate(alpha)), gamma=gamma)
    partition = canonical_partition(parts)
    return PMCertificate(
        partition=partition,
        cert=cert,
        alternative="in_m" if gamma > 0 else "complement",
        proper=is_proper(config, partition),
        separation_warning=None,
    )


def tverberg_pm(config, m_set, check_sep=True, trace=None):
    """Full pipeline: lift, pivot, recover.

    When check_sep is set and m_set is a nonempty proper subset, the
    separation hypothesis is tested up front and a failure is attached to
    the certificate as a warning (the pipeline still runs).
    """
    m_set = frozenset(m_set)
    warning = None
    if check_sep and m_set and m_set < frozenset(range(config.n)):
        sep = check_separation(config, m_set)
        warning = isinstance(sep, NotSeparated)
    choice, weights = pivot_to_origin(
        lift(config, m_set), [i % config.r for i in range(config.n)],
        trace=trace, scale=config.scaled[0])
    result = recover(config, m_set, choice, weights)
    if isinstance(result, PMCertificate):
        return result._replace(separation_warning=warning)
    return result
