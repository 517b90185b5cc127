"""The checker: every re-check behind ``tvpm verify``, in one module.

This is the checker half of a certifying algorithm (McConnell, Mehlhorn,
Naeher and Schweitzer, "Certifying algorithms", Computer Science Review,
2011).  The solvers (``search``, ``sarkaria``, ``colored``) need no
trust: each answer comes with a certificate that this module re-checks
exactly, and it imports none of them, only the standard library,
``tvpm.linalg`` and ``tvpm.core``'s records and JSON readers.  To trust
a ``valid``, a reader reads this module.

``CHECKS`` maps each certificate ``kind`` to its checker, and
``check_document`` looks the kind up; that is all ``verify`` runs.  Both
kinds share one arithmetic check, ``certificate_problems``: per part, the
coefficients sum to 1 and weight the part's points to z, the sign sets
match alpha, and gamma is not zero.  A solve certificate's separation
claim is re-checked from the witness it carries
(``separation_problems``): a hyperplane by the side of each point, an
overlap by the same integer weighted sums (``_sum_problems``).
"""

from fractions import Fraction

from tvpm import linalg
from tvpm.core import (
    certificate_from_json,
    classes_from_json,
    colorful_from_json,
    config_from_json,
    index_list,
    index_map,
    is_proper,
    json_object,
    validate_partition,
)
from tvpm.linalg import (
    format_rat,
    format_vec,
    int_weighted_sum,
    parse_rat,
    parse_vec,
    vdot,
)


def alternative_problems(n, negatives, zero_set, alternative, m_set, names):
    """Problems with the claim that the negatives sit on m_set (alternative
    ``names[0]``) or on its complement (``names[1]``).

    An index with a zero coefficient carries no sign, so the claim is
    negatives == side - zero_set.  Nothing is claimed when alternative is
    None; without m_set only the alternative's name is checked.
    """
    if alternative is None:
        return []
    if alternative not in names:
        return ["unknown alternative %r" % (alternative,)]
    if m_set is None:
        return []
    everything = frozenset(range(n))
    if not m_set <= everything:
        return ["m %s is out of range" % sorted(m_set)]
    side = m_set if alternative == names[0] else everything - m_set
    if negatives != side - zero_set:
        return ["negatives %s do not match alternative %s for m %s"
                % (sorted(negatives), alternative, sorted(m_set))]
    return []


def _sum_problems(label, weights, points, target, name, scale):
    """Problems with rational weights on integer points, ``scale`` times
    the input points: the weights must sum to 1 and weight the points to
    ``target`` (called ``name`` in a problem).  Checked on ints
    (``linalg.int_weighted_sum``)."""
    problems = []
    den, total, sums = int_weighted_sum(weights, points)
    if total != den:
        problems.append("%s: coefficient sum %s != 1"
                        % (label, format_rat(Fraction(total, den))))
    unit = den * scale  # the rational weighted sum is sums / unit
    if any(v * x.denominator != x.numerator * unit
           for v, x in zip(sums, target)):
        problems.append("%s: weighted sum %s != %s %s"
                        % (label, format_vec(Fraction(v, unit) for v in sums),
                           name, format_vec(target)))
    return problems


def certificate_problems(cert, scale, parts):
    """Problems with a certificate's arithmetic: the one check behind both
    verifiers.

    ``parts`` lists, per part, ``(label, indices, points)``: the label
    that names the part in a problem, the indices it holds and their
    points, integer vectors equal to ``scale`` times the input points.
    Per part, the coefficients alpha[i] must sum to 1 and weight the
    points to z (``_sum_problems``); then the sign sets must match alpha
    and gamma must not be zero.  alpha is read by index over 0..n-1, so a
    dict covering those indices and a tuple both serve.
    """
    problems = []
    alpha = cert.alpha
    for label, indices, points in parts:
        problems += _sum_problems("part %s" % (label,),
                                  [alpha[i] for i in indices], points,
                                  cert.z, "z", scale)
    indices = range(len(alpha))
    if frozenset(i for i in indices if alpha[i] < 0) != cert.negatives:
        problems.append("negatives set does not match strict negatives of alpha")
    if frozenset(i for i in indices if alpha[i] == 0) != cert.zero_set:
        problems.append("zero_set does not match zeros of alpha")
    if cert.gamma == 0:
        problems.append("gamma is zero")
    return problems


def separation_problems(config, m_set, obj):
    """Problems with a solve certificate's ``separation_warning`` claim,
    true exactly when conv(m) and conv(rest) meet, and with the
    ``separation`` witness that backs it; ``obj`` is the certificate's
    JSON, which must hold both.  The witness is checked in one pass over
    the scaled points (``PointConfig.scaled``), in integers.

    A hyperplane ``{"normal", "offset"}`` must have <normal, a> > offset
    strictly on every point of m and < offset on every other point.  An
    overlap ``{"point", "m_weights", "rest_weights"}`` must weight m and
    the rest (keys as for alpha) with non-negative weights that sum to 1
    on each side, and both weighted sums must equal point
    (``_sum_problems``).  A witness that checks out must be of the kind
    the claim names.  A malformed claim or witness is a ValueError.
    """
    json_object(obj, "certificate", ("separation_warning", "separation"))
    warning, witness = obj["separation_warning"], obj["separation"]
    if not isinstance(warning, bool):
        raise ValueError("'separation_warning' must be true or false")
    meet = not (isinstance(witness, dict) and "normal" in witness)
    keys = ("point", "m_weights", "rest_weights") if meet else ("normal",
                                                                 "offset")
    json_object(witness, "separation", keys)
    vec = parse_vec(witness[keys[0]])
    if len(vec) != config.d:
        raise ValueError("separation %r must have d entries" % keys[0])
    everything = frozenset(range(config.n))
    if not m_set or not m_set < everything:
        return ["separation_warning needs m to be a nonempty proper subset"
                " of the indices"]
    scale, points = config.scaled
    problems = []
    if meet:
        for key, side in (("m_weights", m_set),
                          ("rest_weights", everything - m_set)):
            w = index_map(witness[key], repr(key))
            if not w.keys() <= side:
                problems.append("%s: indices %s lie off its side"
                                % (key, sorted(w.keys() - side)))
            elif any(v < 0 for v in w.values()):
                problems.append("%s: a weight is negative" % key)
            else:
                problems += _sum_problems(key, list(w.values()),
                                          [points[i] for i in w], vec,
                                          "point", scale)
    else:
        # <normal, D a> against D offset, cleared of denominators
        c = vec + (parse_rat(witness["offset"]) * scale,)
        *normal, offset = linalg.to_int([c], linalg.denominator_lcm([c]))[0]
        wrong = [i for i, p in enumerate(points)
                 if not (vdot(normal, p) > offset if i in m_set
                         else vdot(normal, p) < offset)]
        if wrong:
            problems.append("the hyperplane does not separate m from the"
                            " rest at indices %s" % wrong)
    if not problems and meet != warning:
        problems.append(
            "separation_warning is %s but the hulls of m and the rest %s"
            % (str(warning).lower(), "meet" if meet else "are disjoint"))
    return problems


def verify_certificate(config, partition, cert, alternative=None,
                       m_set=None, proper=None):
    """Re-check a certificate against its configuration, exactly.

    Returns ``(ok, problems)`` where problems names every violated
    equation.  After the index-coverage guards, the part sums, the sign
    sets and gamma are checked by ``certificate_problems``.  The optional
    claims are checked when given: ``proper`` must equal ``is_proper``,
    and ``alternative`` ("in_m" or "complement") with ``m_set`` must
    describe the negatives (``alternative_problems``).
    """
    try:
        validate_partition(config, partition)
    except ValueError as e:
        return False, ["partition: %s" % e]
    if sorted(cert.alpha) != list(range(config.n)):
        return False, ["alpha does not cover indices 0..n-1"]
    if len(cert.z) != config.d:
        return False, ["z has wrong dimension"]
    scale, points = config.scaled
    problems = certificate_problems(
        cert, scale,
        [(list(part), part, [points[i] for i in part]) for part in partition])
    if proper is not None and proper != is_proper(config, partition):
        problems.append("proper is %s but the partition %s"
                        % (str(proper).lower(),
                           "is not proper" if proper else "is proper"))
    problems += alternative_problems(config.n, cert.negatives, cert.zero_set,
                                     alternative, m_set,
                                     ("in_m", "complement"))
    return not problems, problems


def assigned_parts(ints, assignment):
    """Per part l, ``(indices, points)``: every class index and the point
    of each class that ``assignment`` sends to part l, from the scaled
    classes ``ints``."""
    indices = range(len(assignment))
    return [(indices, [ints[i][assignment[i][l]] for i in indices])
            for l in range(len(ints[0]))]


def verify_colorful(cc, cp, m_set=None):
    """Exact re-check of a colorful partition certificate.

    After the shape and bijection guards, the part sums, the sign sets
    and gamma are checked by ``certificate_problems``, the point
    verifier's check, with alpha repeated in every part.  With
    ``m_set``, the alternative ("m_negative" or "m_positive") must
    describe the negatives (``alternative_problems``).
    """
    if len(cp.assignment) != cc.n or len(cp.alpha) != cc.n:
        return False, ["shape mismatch"]
    if len(cp.z) != cc.d:
        return False, ["z has wrong dimension"]
    problems = ["class %d: assignment is not a bijection" % i
                for i, row in enumerate(cp.assignment)
                if sorted(row) != list(range(cc.r))]
    if problems:
        return False, problems
    scale, ints = cc.scaled
    parts = assigned_parts(ints, cp.assignment)
    problems = certificate_problems(
        cp, scale, [(l, *part) for l, part in enumerate(parts)])
    problems += alternative_problems(cc.n, cp.negatives, cp.zero_set,
                                     cp.alternative, m_set,
                                     ("m_negative", "m_positive"))
    return not problems, problems


def _point_problems(input_obj, cert_obj, m_set, proper):
    config = config_from_json(input_obj)
    cert, partition, alternative = certificate_from_json(cert_obj)
    _, problems = verify_certificate(config, partition, cert, alternative,
                                     m_set, proper)
    if {"separation_warning", "separation"} & cert_obj.keys():
        problems += separation_problems(config, m_set, cert_obj)
    return problems


def _colored_problems(input_obj, cert_obj, m_set, proper):
    _, problems = verify_colorful(classes_from_json(input_obj),
                                  colorful_from_json(cert_obj), m_set)
    # proper and separation_warning (with its witness) are claims about a
    # point partition
    return problems + ["a colored certificate carries no %s claim" % key
                       for key in ("proper", "separation_warning",
                                   "separation") if key in cert_obj]


# Each certificate kind and its checker: (input JSON, certificate JSON,
# m, proper) -> the problems found.
CHECKS = {
    "certificate": _point_problems,
    "colored_certificate": _colored_problems,
}


def check_document(input_obj, cert_obj):
    """The problems with the certificate JSON ``cert_obj`` on the input
    JSON ``input_obj``, none when it is valid, from the checker that
    ``CHECKS`` holds for its ``kind``.  Any other kind, a malformed
    document and a malformed ``m`` or ``proper`` claim are ValueErrors."""
    json_object(cert_obj, "certificate", ())
    kind = cert_obj.get("kind")
    if not (isinstance(kind, str) and kind in CHECKS):
        raise ValueError("certificate 'kind' must be %s"
                         % " or ".join(map(repr, CHECKS)))
    m_set = None
    if "m" in cert_obj:
        m_set = frozenset(index_list(cert_obj["m"], "'m'"))
    proper = cert_obj.get("proper")
    if proper is not None and not isinstance(proper, bool):
        raise ValueError("'proper' must be true or false")
    return CHECKS[kind](input_obj, cert_obj, m_set, proper)
