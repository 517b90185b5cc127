"""Certificate re-checks summed in ``Fraction``, the reference for verify.

``verify_certificate`` and ``verify_colorful`` here check what the
library's verifiers check, in the same order and with the same problem
texts, but sum the rational coefficients and the rational points
directly, with no scaling to integers.  The library re-checks on the
scaled integer points; tests require both to return the same
``(ok, problems)``.  The partition, proper and alternative checks, which
hold no sums, are the library's own.
"""

from fractions import Fraction

from tvpm.core import alternative_problems, is_proper, validate_partition
from tvpm.linalg import format_rat, format_vec


def rational_sum(weights, points):
    """sum weights[i] * points[i], coordinate by coordinate, in Fraction."""
    return tuple(sum((w * p[k] for w, p in zip(weights, points)),
                     Fraction(0))
                 for k in range(len(points[0])))


def verify_certificate(config, partition, cert, alternative=None,
                       m_set=None, proper=None):
    problems = []
    try:
        validate_partition(config, partition)
    except ValueError as e:
        return False, ["partition: %s" % e]
    if sorted(cert.alpha) != list(range(config.n)):
        return False, ["alpha does not cover indices 0..n-1"]
    if len(cert.z) != config.d:
        return False, ["z has wrong dimension"]
    for part in partition:
        s = sum((cert.alpha[i] for i in part), Fraction(0))
        if s != 1:
            problems.append(
                "part %s: coefficient sum %s != 1" % (list(part), format_rat(s)))
        w = rational_sum([cert.alpha[i] for i in part],
                         [config.points[i] for i in part])
        if w != tuple(cert.z):
            problems.append(
                "part %s: weighted sum %s != z %s"
                % (list(part), format_vec(w), format_vec(cert.z)))
    neg = frozenset(i for i, a in cert.alpha.items() if a < 0)
    if neg != cert.negatives:
        problems.append("negatives set does not match strict negatives of alpha")
    zero = frozenset(i for i, a in cert.alpha.items() if a == 0)
    if zero != cert.zero_set:
        problems.append("zero_set does not match zeros of alpha")
    if cert.gamma == 0:
        problems.append("gamma is zero")
    if proper is not None and proper != is_proper(config, partition):
        problems.append("proper is %s but the partition %s"
                        % (str(proper).lower(),
                           "is not proper" if proper else "is proper"))
    problems += alternative_problems(config.n, cert.negatives, cert.zero_set,
                                     alternative, m_set,
                                     ("in_m", "complement"))
    return not problems, problems


def verify_colorful(cc, cp, m_set=None):
    problems = []
    if len(cp.assignment) != cc.n or len(cp.alpha) != cc.n:
        return False, ["shape mismatch"]
    if len(cp.z) != cc.d:
        return False, ["z has wrong dimension"]
    for i, row in enumerate(cp.assignment):
        if sorted(row) != list(range(cc.r)):
            problems.append("class %d: assignment is not a bijection" % i)
    if problems:
        return False, problems
    total = sum(cp.alpha, Fraction(0))
    for l in range(cc.r):
        if total != 1:
            problems.append(
                "part %d: coefficient sum %s != 1" % (l, format_rat(total)))
        u = rational_sum(cp.alpha, [cc.classes[i][cp.assignment[i][l]]
                                    for i in range(cc.n)])
        if u != tuple(cp.z):
            problems.append(
                "part %d: weighted sum %s != z %s"
                % (l, format_vec(u), format_vec(cp.z)))
    neg = frozenset(i for i, a in enumerate(cp.alpha) if a < 0)
    if neg != cp.negatives:
        problems.append("negatives set does not match strict negatives of alpha")
    zero = frozenset(i for i, a in enumerate(cp.alpha) if a == 0)
    if zero != cp.zero_set:
        problems.append("zero_set does not match zeros of alpha")
    if cp.gamma == 0:
        problems.append("gamma is zero")
    problems += alternative_problems(cc.n, cp.negatives, cp.zero_set,
                                     cp.alternative, m_set,
                                     ("m_negative", "m_positive"))
    return not problems, problems
