"""Point configurations, partitions, and the common point of part hulls.

For a partition of n points in R^d into r parts, each part's affine hull
is the solution set of d+1-k integer equations, k the part's affine rank
(``linalg.hull_factor``).  Stacking every part's equations gives one
system for the common point w of all the hulls, whatever the partition's
size; one exact solve (``kernel.ff_solve``) classifies it
(``common_point``).  When w is unique and every part is affinely
independent, each part's affine coefficients are one integer mat-vec with
the part's cached coefficient matrix, read part by part and only as far
as the caller needs (``read_parts``).  With n = (r-1)(d+1)+1 and affinely
independent parts the codimensions add up to exactly d, so the stack is
d x d.

Classification drives everything downstream: a unique point comes with
exact coefficients; inconsistent equations certify empty intersection;
consistent ones whose point or coefficients are not unique are reported
as degenerate (a general-position failure), never silently repaired.

A certificate's arithmetic (the part sums, the sign sets and gamma) is
re-checked in one place, ``certificate_problems``, for the point and the
colored verifier alike.
"""

import json
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from tvpm import linalg
from tvpm.kernel import ff_solve
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
    """A partition's intersection class and, for a point, its parts.

    ``kind`` is "point", "empty" or "degenerate", as for
    ``intersect_affine_hulls``.  For a point, y = t (w, 1) is integral (w
    the common point of the scaled parts, t != 0) and ``parts`` reads the
    parts lazily, in order (``read_parts``); otherwise both are None.
    """

    kind: str
    y: list = None
    parts: object = None


def common_point(points, partition, memo=None):
    """Classify the partition from per-part hull factors.

    ``points`` are integer (``PointConfig.scaled``); ``memo`` maps parts
    to their ``linalg.hull_factor`` across calls (None: factor every part
    afresh).  One ``ff_solve`` of the stacked hull equations gives the
    kind: inconsistent is "empty"; a point that is not unique, or a part
    that is affinely dependent, is "degenerate".  Otherwise the parts'
    coefficients are read one part at a time, and only as far as the
    caller iterates.
    """
    factors = []
    rows = []
    rhs = []
    for part in partition:
        f = memo.get(part) if memo is not None else None
        if f is None:
            f = linalg.hull_factor([points[i] for i in part])
            if memo is not None:
                memo[part] = f
        rows += f.rows
        rhs += f.rhs
        factors.append(f)
    got = ff_solve(rows, rhs)
    if got.rank < got.rank_aug:
        return CommonPoint("empty")
    # With no equations (every part spans R^d) the stack has no columns,
    # so its rank is compared with d, not with its width.
    if got.rank < len(points[0]):
        return CommonPoint("degenerate")
    for f in factors:
        if f.coef is None:  # affinely dependent: coefficients not unique
            return CommonPoint("degenerate")
    y = got.nums + [got.den]
    return CommonPoint("point", y, read_parts(partition, factors, y))


def read_parts(partition, factors, y):
    """Yield ``(part, negatives, x)`` per part of a point partition.

    x = f.coef y = f.den t alpha on the part, in integers (f its hull
    factor, y = t (w, 1)), and ``negatives`` lists the part's indices
    with negative coefficients, in part order.
    """
    negative_t = y[-1] < 0
    for part, f in zip(partition, factors):
        x = [vdot(row, y) for row in f.coef]
        # x has alpha's signs when den t > 0, and the opposite ones else
        if (f.den < 0) != negative_t:
            yield part, [i for i, v in zip(part, x) if v > 0], x
        else:
            yield part, [i for i, v in zip(part, x) if v < 0], x


class Intersection(NamedTuple):
    kind: str  # "point" | "empty" | "degenerate"
    cert: object  # AffineCertificate for "point", else None


def intersect_affine_hulls(config, partition):
    """Classify the common point of all part affine hulls.

    Returns Intersection with kind "point" (unique point and coefficients,
    certificate attached), "empty" (the stacked hull equations are
    inconsistent), or "degenerate" (consistent, but the point or some
    part's coefficients are not unique; only possible off general
    position), as ``common_point`` classifies it.
    """
    partition = canonical_partition(partition)
    validate_partition(config, partition)
    scale, points = config.scaled
    got = common_point(points, partition)
    if got.kind != "point":
        return Intersection(got.kind, None)
    alpha = {}
    for part, _, x in got.parts:
        total = sum(x)  # the coefficients sum to 1, so x sums to den t
        alpha.update((i, Fraction(v, total)) for i, v in zip(part, x))
    t = got.y[-1]
    z = [Fraction(v, t * scale) for v in got.y[:-1]]
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


def certificate_problems(cert, scale, parts):
    """Problems with a certificate's arithmetic: the one check behind both
    verifiers.

    ``parts`` lists, per part, ``(label, indices, points)``: the label
    that names the part in a problem, the indices it holds and their
    points, integer vectors equal to ``scale`` times the input points.
    Per part, the coefficients alpha[i] must sum to 1 and weight the
    points to z, checked on ints (``linalg.int_weighted_sum``); then the
    sign sets must match alpha and gamma must not be zero.  alpha is read
    by index over 0..n-1, so a dict covering those indices and a tuple
    both serve.
    """
    problems = []
    alpha = cert.alpha
    for label, indices, points in parts:
        den, total, sums = int_weighted_sum([alpha[i] for i in indices],
                                            points)
        if total != den:
            problems.append("part %s: coefficient sum %s != 1"
                            % (label, format_rat(Fraction(total, den))))
        unit = den * scale  # the rational weighted sum is sums / unit
        if any(v * x.denominator != x.numerator * unit
               for v, x in zip(sums, cert.z)):
            problems.append(
                "part %s: weighted sum %s != z %s"
                % (label, format_vec(Fraction(v, unit) for v in sums),
                   format_vec(cert.z)))
    indices = range(len(alpha))
    if frozenset(i for i in indices if alpha[i] < 0) != cert.negatives:
        problems.append("negatives set does not match strict negatives of alpha")
    if frozenset(i for i in indices if alpha[i] == 0) != cert.zero_set:
        problems.append("zero_set does not match zeros of alpha")
    if cert.gamma == 0:
        problems.append("gamma is zero")
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
    z = parse_vec(obj["z"])
    if not isinstance(obj["alpha"], dict):
        raise ValueError("'alpha' must be an object")
    alpha = {int(i): parse_rat(a) for i, a in obj["alpha"].items()}
    # int() also reads " 1", "01" and "1_0"; only str(i) names index i
    if list(map(str, alpha)) != list(obj["alpha"]):
        raise ValueError("'alpha' keys must be indices in decimal form")
    cert = AffineCertificate(
        z=z,
        alpha=alpha,
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
