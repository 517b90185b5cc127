"""Point configurations, partitions, and the common point of part hulls.

For a partition of n points in R^d into r parts, each part's affine hull
is the solution set of d+1-k integer equations, k the part's affine rank
(``linalg.hull_factor``).  A point sum x_i (p_i, 1) of the hull of the
first smallest part, the kernel part, lies on the other hulls when x is
a null vector of their equations at its points, (s-1) x s for s points
when n = (r-1)(d+1)+1 and every part is affinely independent: one
``kernel.null_vector`` classifies the partition (``common_point``),
which returns the kernel part and x and keeps each other part's
coefficient matrix in the caller's cache.  The signs of x are the kernel
part's negative flags; each other part's are one integer mat-vec of its
coefficient matrix with the common point, which the scan
(``search._scan``) builds only once the kernel part's flags pass.

Classification drives everything downstream: a unique point comes with
exact coefficients; inconsistent equations certify empty intersection;
consistent ones whose point or coefficients are not unique are reported
as degenerate (a general-position failure), never silently repaired.

The records the rest of the package reads and writes live here too: the
point configuration and the colour classes (``PointConfig``,
``ColorClasses``), the point and the colored certificate, and their JSON
readers and writers.  Nothing here checks a certificate; ``tvpm.check``
does, so that ``verify`` loads this module and no solver.
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
    parse_rat,
    parse_vec,
    vdot,
)

SCHEMA = "tvpm/1"


def _rational(point):
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in point)


class _Validated:
    """What the two validated records, ``PointConfig`` and
    ``ColorClasses``, share.

    Each is a tuple of three fields, d, r and its points (a list, or a
    list of classes when ``_classes`` is set), and immutable.  The
    constructor, which ``_replace`` runs too, coerces every coordinate to
    a Fraction and rejects a malformed record with a ValueError: a bad d
    or r, then the record's own shape (``_check_shape``), then a repeated
    point.
    """

    _classes = False

    def __new__(cls, *args, **kwargs):
        # the fields by name, as the record's own constructor reads them
        d, r, points = super().__new__(cls, *args, **kwargs)
        if d < 1:
            raise ValueError("d must be >= 1")
        if r < 2:
            raise ValueError("r must be >= 2")
        if cls._classes:
            points = tuple(tuple(map(_rational, c)) for c in points)
        else:
            points = tuple(map(_rational, points))
        self = super().__new__(cls, d, r, points)
        self._check_shape()
        ints = self._flat(self.scaled[1])
        if len(set(ints)) != len(ints):
            raise ValueError(cls._repeated)
        return self

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make: validate as the constructor does
        return cls(*fields)

    @property
    def n(self):
        """The number of points, or of classes."""
        return len(self[2])

    def _flat(self, points):
        return [p for c in points for p in c] if self._classes else points

    def _dims(self, points):
        if any(len(p) != self.d for p in points):
            raise ValueError("point dimension mismatch")

    @cached_property
    def scaled(self):
        """``(D, points)``: D the lcm of all coordinate denominators and
        the points times D as int tuples, class by class in a
        ``ColorClasses``.  Partitions and coefficients are affine
        invariants, so the integer core works on these."""
        scale = linalg.denominator_lcm(self._flat(self[2]))
        if self._classes:
            return scale, tuple(linalg.to_int(c, scale) for c in self[2])
        return scale, linalg.to_int(self[2], scale)


class _PointFields(NamedTuple):
    d: int
    r: int
    points: tuple


class PointConfig(_Validated, _PointFields):
    """n points in R^d (tuples of Fractions) and a part count r."""

    _repeated = "points must be distinct"

    def _check_shape(self):
        if not self.points:
            raise ValueError("need at least one point")
        self._dims(self.points)

    @property
    def full_size(self):
        return (self.r - 1) * (self.d + 1) + 1

    @property
    def is_full(self):
        return self.n == self.full_size


class _ClassFields(NamedTuple):
    d: int
    r: int
    classes: tuple


class ColorClasses(_Validated, _ClassFields):
    """(r-1)d+1 classes of r points in R^d (tuples of Fractions)."""

    _classes = True
    _repeated = "points must be distinct across classes"

    def _check_shape(self):
        if self.n != (self.r - 1) * self.d + 1:
            raise ValueError("need (r-1)d+1 classes")
        for group in self.classes:
            if len(group) != self.r:
                raise ValueError("every class needs exactly r points")
            self._dims(group)


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


class ColorfulPartition(NamedTuple):
    assignment: tuple  # assignment[i][l] = point index of class i in part l
    alpha: tuple  # one coefficient per class
    z: tuple
    gamma: Fraction
    negatives: frozenset  # class indices
    zero_set: frozenset
    alternative: str  # "m_negative" | "m_positive"


def make_certificate(z, alpha, gamma=Fraction(1)):
    """Build a certificate, deriving the sign sets from alpha."""
    neg = frozenset(i for i, a in alpha.items() if a < 0)
    zero = frozenset(i for i, a in alpha.items() if a == 0)
    return AffineCertificate(
        z=tuple(z), alpha=dict(alpha), negatives=neg,
        gamma=Fraction(gamma), zero_set=zero,
    )


def common_point(points, partition, memo):
    """Classify the partition of the integer ``points`` from N, the
    equations (``linalg.hull_factor``) of the parts other than the kernel
    part, the first of least size, at its lifted points (p, 1); ``memo``
    keeps each part's coefficient matrix (None when the part is affinely
    dependent) and its equations at every point.  "empty": all of ker N
    sums to 0 (the all-ones row lies in N's row space); "point": ker N is
    a line, whose ``kernel.null_vector`` x sums to nonzero (made
    positive), and no other part is affinely dependent (nor then is the
    kernel part: its dependences lie in ker N and sum to 0); otherwise
    "degenerate".  Returns ``(kind, kernel part, x or None)``."""
    kernel = min(partition, key=len)  # the first part of least size
    rows = []
    dependent = False
    for part in partition:
        if part is not kernel:
            got = memo.get(part)
            if got is None:  # the factor, and its equations at every point
                f = linalg.hull_factor([points[i] for i in part])
                got = memo[part] = f.coef, [[vdot(e, p) + e[-1]
                                             for p in points] for e in f.eqs]
            dependent = dependent or got[0] is None
            rows += [[v[i] for i in kernel] for v in got[1]]
    s = len(kernel)
    x = null_vector(rows, s)
    if not (x and sum(x)):  # no point x / sum x: is 1 in N's row space?
        rank = sum(map(any, rows))  # the echelon rows are the nonzero ones
        wide = len(eliminate(rows + [[1] * s], s, s)[0]) > rank
        return ("degenerate" if wide else "empty"), kernel, None
    if dependent:  # coefficients not unique
        return "degenerate", kernel, None
    return "point", kernel, x if sum(x) > 0 else [-v for v in x]


class Intersection(NamedTuple):
    kind: str  # "point" | "empty" | "degenerate"
    cert: object  # AffineCertificate for "point", else None


def intersect_affine_hulls(config, partition):
    """Classify the common point of all part hulls as ``common_point``
    does, with the certificate for a "point": with y = sum x_i (p_i, 1)
    over the kernel part, its coefficients are x / sum x, each other
    part's coef y / sum coef y.  "degenerate" (point or coefficients not
    unique) only occurs off general position."""
    partition = canonical_partition(partition)
    validate_partition(config, partition)
    scale, points = config.scaled
    memo = {}
    kind, kernel, x = common_point(points, partition, memo)
    if x is None:
        return Intersection(kind, None)
    y = [vdot(x, c) for c in zip(*[points[i] for i in kernel])] + [sum(x)]
    alpha = {i: Fraction(v, y[-1]) for i, v in zip(kernel, x)}
    for part in partition:
        if part is not kernel:
            x = [vdot(row, y) for row in memo[part][0]]
            total = sum(x)  # the coefficients sum to 1, so x sums to den t
            alpha.update((i, Fraction(v, total)) for i, v in zip(part, x))
    z = [Fraction(v, y[-1] * scale) for v in y[:-1]]
    return Intersection("point", make_certificate(z=z, alpha=alpha))


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


def classes_from_json(obj):
    json_object(obj, "classes", ("d", "r", "classes"))
    d, r = int_field(obj, "d"), int_field(obj, "r")
    classes = tuple(
        tuple(parse_vec(p) for p in json_list(group, "each class"))
        for group in json_list(obj["classes"], "'classes'")
    )
    return ColorClasses(d=d, r=r, classes=classes)


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


def _certificate_to_json(kind, cert, keys, **fields):
    """The certificate document of ``kind``: ``keys`` in order, each from
    ``fields`` or cert's z, gamma and negatives, then zero_set when some
    coefficient is zero."""
    fields.update(z=format_vec(cert.z), gamma=format_rat(cert.gamma),
                  negatives=sorted(cert.negatives))
    out = {"schema": SCHEMA, "kind": kind, **{k: fields[k] for k in keys}}
    if cert.zero_set:
        out["zero_set"] = sorted(cert.zero_set)
    return out


def certificate_to_json(cert, partition, alternative=None, proper=None):
    out = _certificate_to_json(
        "certificate", cert, ("z", "alpha", "negatives", "gamma", "partition"),
        alpha={str(i): format_rat(a) for i, a in sorted(cert.alpha.items())},
        partition=[list(p) for p in partition])
    if alternative is not None:
        out["alternative"] = alternative
    if proper is not None:
        out["proper"] = proper
    return out


def colorful_to_json(cp):
    return _certificate_to_json(
        "colored_certificate", cp,
        ("assignment", "alpha", "z", "gamma", "negatives", "alternative"),
        assignment=[list(row) for row in cp.assignment],
        alpha=[format_rat(a) for a in cp.alpha], alternative=cp.alternative)


_FIELD_READERS = {
    "z": parse_vec,
    "negatives": lambda v: frozenset(index_list(v, "'negatives'")),
    "gamma": parse_rat,
}


def _certificate_fields(obj, what, keys, **readers):
    """A certificate document's fields, by name: each of ``keys`` that has
    a reader (in ``readers``, or the shared one for z, negatives and
    gamma), in that order, then zero_set.  ValueError naming ``what``
    unless obj is an object holding every key of ``keys``."""
    json_object(obj, what, keys)
    readers = {**_FIELD_READERS, **readers}
    fields = {key: readers[key](obj[key]) for key in keys if key in readers}
    fields["zero_set"] = frozenset(index_list(obj.get("zero_set", []),
                                              "'zero_set'"))
    return fields


def certificate_from_json(obj):
    fields = _certificate_fields(
        obj, "certificate", ("z", "alpha", "negatives", "gamma", "partition"),
        alpha=lambda v: index_map(v, "'alpha'"))
    parts = json_list(obj["partition"], "'partition'")
    partition = canonical_partition(
        tuple(tuple(index_list(p, "each part")) for p in parts))
    return AffineCertificate(**fields), partition, obj.get("alternative")


def colorful_from_json(obj):
    fields = _certificate_fields(
        obj, "colored certificate",
        ("assignment", "alpha", "z", "gamma", "negatives"),
        assignment=lambda rows: tuple(
            tuple(index_list(row, "each assignment row"))
            for row in json_list(rows, "'assignment'")),
        alpha=parse_vec)
    return ColorfulPartition(alternative=obj.get("alternative"), **fields)


def dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=False)
