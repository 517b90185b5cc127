"""Point configurations, partitions, and the common point of part hulls.

For a partition of n points in R^d into r parts, each part's affine hull
is the solution set of d+1-k integer equations, k the part's affine rank
(``linalg.hull_factor``).  A point sum x_i (p_i, 1) of the hull of the
first smallest part, the kernel part, lies on the other hulls when x is
a null vector of their equations at its points, (s-1) x s for s points
when n = (r-1)(d+1)+1 and every part is affinely independent: one
``kernel.null_vector`` classifies the partition (``common_point``).  The
signs of x are the kernel part's negative flags; past them, each other
part's are one integer mat-vec with its cached coefficient matrix at the
common point, read only as far as the caller needs (``read_parts``).

Classification drives everything downstream: a unique point comes with
exact coefficients; inconsistent equations certify empty intersection;
consistent ones whose point or coefficients are not unique are reported
as degenerate (a general-position failure), never silently repaired.

A certificate's arithmetic (the part sums, the sign sets and gamma) is
re-checked in one place, ``certificate_problems``, for the point and the
colored verifier alike.  A solve certificate's separation claim is
re-checked from the witness it carries (``separation_problems``): a
hyperplane by the side of each point, an overlap by the same integer
weighted sums (``_sum_problems``).
"""

import json
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from tvpm import linalg
from tvpm.kernel import eliminate, null_vector
from tvpm.linalg import (
    format_rat,
    format_vec,
    int_weighted_sum,
    parse_rat,
    parse_vec,
    vdot,
)

SCHEMA = "tvpm/1"


class _PointFields(NamedTuple):
    d: int
    r: int
    points: tuple


class PointConfig(_PointFields):
    """n points in R^d (tuples of Fractions) and a part count r.

    A tuple of its three fields, immutable; the constructor coerces the
    coordinates to Fractions and rejects a malformed configuration with a
    ValueError.
    """

    def __new__(cls, d, r, points):
        if d < 1:
            raise ValueError("d must be >= 1")
        if r < 2:
            raise ValueError("r must be >= 2")
        pts = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x)
                          for x in p) for p in points)
        if not pts:
            raise ValueError("need at least one point")
        for p in pts:
            if len(p) != d:
                raise ValueError("point dimension mismatch")
        self = super().__new__(cls, d, r, pts)
        _, ints = self.scaled
        if len(set(ints)) != len(ints):
            raise ValueError("points must be distinct")
        return self

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make: validate as the constructor does
        return cls(*fields)

    @property
    def n(self):
        return len(self.points)

    @cached_property
    def scaled(self):
        """``(D, points)``: D the lcm of all coordinate denominators and
        the points times D as int tuples.  Partitions and coefficients
        are affine invariants, so the integer core works on these."""
        scale = linalg.denominator_lcm(self.points)
        return scale, linalg.to_int(self.points, scale)

    @property
    def full_size(self):
        return (self.r - 1) * (self.d + 1) + 1

    @property
    def is_full(self):
        return self.n == self.full_size


def canonical_partition(parts):
    """Sort each part and order parts by smallest contained index."""
    return tuple(sorted(tuple(sorted(p)) for p in parts))


def validate_partition(config, parts):
    """Check the part count, disjointness, coverage and nonemptiness."""
    seen = []
    for p in parts:
        if len(p) == 0:
            raise ValueError("empty part")
        seen.extend(p)
    if len(parts) != config.r:
        raise ValueError("partition must have exactly r parts")
    if sorted(seen) != list(range(config.n)):
        raise ValueError("parts must partition the index set")


def is_proper(config, parts):
    return all(1 <= len(p) <= config.d + 1 for p in parts)


class AffineCertificate(NamedTuple):
    z: tuple
    alpha: dict
    negatives: frozenset
    gamma: Fraction
    zero_set: frozenset


def make_certificate(z, alpha, gamma=Fraction(1)):
    """Build a certificate, deriving the sign sets from alpha."""
    neg = frozenset(i for i, a in alpha.items() if a < 0)
    zero = frozenset(i for i, a in alpha.items() if a == 0)
    return AffineCertificate(
        z=tuple(z), alpha=dict(alpha), negatives=neg,
        gamma=Fraction(gamma), zero_set=zero,
    )


class CommonPoint(NamedTuple):
    """A partition's class, "point", "empty" or "degenerate"; for a point
    also its ``kernel`` part, that part's coefficients times some t > 0 as
    integers ``x``, and ``(part, hull factor)`` for the others, in order."""

    kind: str
    x: list = None
    kernel: tuple = None
    others: list = None


def common_point(points, partition, memo=None):
    """Classify the partition of the integer ``points`` from N, the
    equations (``linalg.hull_factor``) of the parts other than the kernel
    part, the first of least size, at its lifted points (p, 1); ``memo``
    keeps each part's factor and equations at every point.  "empty": all
    of ker N sums to 0 (the all-ones row lies in N's row space); "point":
    ker N is a line, whose ``kernel.null_vector`` x sums to nonzero (made
    positive), and no other part is affinely dependent (nor then is the
    kernel part: its dependences lie in ker N and sum to 0); otherwise
    "degenerate"."""
    memo = {} if memo is None else memo
    kernel = min(partition, key=len)  # the first part of least size
    k = partition.index(kernel)
    others, rows = [], []
    for part in partition[:k] + partition[k + 1:]:
        got = memo.get(part)
        if got is None:  # the factor, and its equations at every point
            f = linalg.hull_factor([points[i] for i in part])
            got = memo[part] = f, [[vdot(e, p) + e[-1] for p in points]
                                   for e in f.eqs]
        others.append((part, got[0]))
        rows += [[v[i] for i in kernel] for v in got[1]]
    s = len(kernel)
    x = null_vector(rows, s)
    if not (x and sum(x)):  # no point x / sum x: is 1 in N's row space?
        rank = sum(map(any, rows))  # the echelon rows are the nonzero ones
        wide = len(eliminate(rows + [[1] * s], s, s)[0]) > rank
        return CommonPoint("degenerate" if wide else "empty")
    for _, f in others:
        if f.coef is None:  # affinely dependent: coefficients not unique
            return CommonPoint("degenerate")
    if sum(x) < 0:
        x = [-v for v in x]
    return CommonPoint("point", x, kernel, others)


def lifted_point(points, part, x):
    """y = sum x_i (p_i, 1) over the points p_i of ``part``."""
    return [vdot(x, c) for c in zip(*[points[i] for i in part])] + [sum(x)]


def read_parts(points, got):
    """Yield ``(part, flags)`` per part of the point partition ``got``,
    lazily, the kernel part first: flags[j] says whether part[j]'s
    coefficient is negative, the sign of ``got.x``, then, with y = t (w,
    1), of f.coef y = f.den t alpha, f the part's factor (f.den > 0)."""
    yield got.kernel, [v < 0 for v in got.x]
    y = lifted_point(points, got.kernel, got.x)
    for part, f in got.others:
        yield part, [vdot(row, y) < 0 for row in f.coef]


class Intersection(NamedTuple):
    kind: str  # "point" | "empty" | "degenerate"
    cert: object  # AffineCertificate for "point", else None


def intersect_affine_hulls(config, partition):
    """Classify the common point of all part hulls as ``common_point``
    does, with the certificate for a "point": the kernel part's
    coefficients are x / sum x, each other part's f.coef y / sum f.coef y.
    "degenerate" (point or coefficients not unique) only occurs off general
    position."""
    partition = canonical_partition(partition)
    validate_partition(config, partition)
    scale, points = config.scaled
    got = common_point(points, partition)
    if got.kind != "point":
        return Intersection(got.kind, None)
    y = lifted_point(points, got.kernel, got.x)
    alpha = {i: Fraction(v, y[-1]) for i, v in zip(got.kernel, got.x)}
    for part, f in got.others:
        x = [vdot(row, y) for row in f.coef]
        total = sum(x)  # the coefficients sum to 1, so x sums to den t
        alpha.update((i, Fraction(v, total)) for i, v in zip(part, x))
    z = [Fraction(v, y[-1] * scale) for v in y[:-1]]
    return Intersection("point", make_certificate(z=z, alpha=alpha))


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


def config_to_json(config, m_set=None):
    out = {
        "schema": SCHEMA,
        "kind": "point_config",
        "d": config.d,
        "r": config.r,
        "points": [format_vec(p) for p in config.points],
    }
    if m_set is not None:
        out["m"] = sorted(m_set)
    return out


def config_from_json(obj):
    json_object(obj, "config", ("d", "r", "points"))
    d, r = int_field(obj, "d"), int_field(obj, "r")
    points = tuple(parse_vec(p) for p in json_list(obj["points"], "'points'"))
    return PointConfig(d=d, r=r, points=points)


def json_object(obj, what, keys):
    """ValueError naming ``what`` unless obj is a JSON object holding
    every key."""
    if not isinstance(obj, dict):
        raise ValueError("%s JSON must be an object" % what)
    for key in keys:
        if key not in obj:
            raise ValueError("%s JSON missing %r" % (what, key))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def int_field(obj, key):
    """obj[key] if it is a JSON integer (not a boolean), else ValueError."""
    v = obj[key]
    if not _is_int(v):
        raise ValueError("%r must be an integer" % key)
    return v


def json_list(v, what):
    """v if it is a JSON list, else ValueError naming ``what``."""
    if not isinstance(v, list):
        raise ValueError("%s must be a list" % what)
    return v


def index_list(v, what):
    """v if it is a JSON list of integers, else ValueError naming ``what``."""
    if not isinstance(v, list) or not all(_is_int(i) for i in v):
        raise ValueError("%s must be a list of integers" % what)
    return v


def index_map(v, what):
    """v, a JSON object from decimal indices to rational literals, as a
    dict from ints to Fractions; else ValueError naming ``what``."""
    if not isinstance(v, dict):
        raise ValueError("%s must be an object" % what)
    # int() also reads " 1", "01" and "1_0"; only str(i) names index i
    if not all(i.removeprefix("-").isdecimal() and str(int(i)) == i
               for i in v):
        raise ValueError("%s keys must be indices in decimal form" % what)
    return {int(i): parse_rat(a) for i, a in v.items()}


def certificate_to_json(cert, partition, alternative=None, proper=None):
    out = {
        "schema": SCHEMA,
        "kind": "certificate",
        "z": format_vec(cert.z),
        "alpha": {str(i): format_rat(a) for i, a in sorted(cert.alpha.items())},
        "negatives": sorted(cert.negatives),
        "gamma": format_rat(cert.gamma),
        "partition": [list(p) for p in partition],
    }
    if cert.zero_set:
        out["zero_set"] = sorted(cert.zero_set)
    if alternative is not None:
        out["alternative"] = alternative
    if proper is not None:
        out["proper"] = proper
    return out


def certificate_from_json(obj):
    json_object(obj, "certificate",
                ("z", "alpha", "negatives", "gamma", "partition"))
    cert = AffineCertificate(
        z=parse_vec(obj["z"]),
        alpha=index_map(obj["alpha"], "'alpha'"),
        negatives=frozenset(index_list(obj["negatives"], "'negatives'")),
        gamma=parse_rat(obj["gamma"]),
        zero_set=frozenset(index_list(obj.get("zero_set", []), "'zero_set'")),
    )
    parts = json_list(obj["partition"], "'partition'")
    partition = canonical_partition(
        tuple(tuple(index_list(p, "each part")) for p in parts))
    return cert, partition, obj.get("alternative")


def dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=False)
