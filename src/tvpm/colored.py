"""Colored variant: one point per class per part, equal coefficients.

Input is n = (r-1)d+1 disjoint classes of r points each.  Each class is
lifted to the set of its r! permutation tensors sum_j z_j (x) v_sigma(j),
negated on the prescribed classes.  The set stays implicit
(``PermutationColor``): a pivot asks it only for its element most opposed
to the current point, an assignment problem solved exactly in O(r^3), so
no r! set is ever built and any r runs.  The same pivoting engine finds a
zero transversal; each chosen permutation assigns one point of its class
to every part, and ``sarkaria.decode_weights``, the point solver's
recovery routine, unscales the class weights by gamma into coefficients,
constant across parts by construction, and their sign sets.  The parts an
assignment picks (``assigned_parts``) feed that routine and the verifier,
which re-checks them with the point verifier's one check,
``core.certificate_problems``.
"""

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from tvpm.core import (
    SCHEMA,
    alternative_problems,
    certificate_problems,
    index_list,
    int_field,
    json_list,
    json_object,
)
from tvpm.linalg import (
    denominator_lcm,
    format_rat,
    format_vec,
    parse_rat,
    parse_vec,
    tensor,
    to_int,
    vdot,
)


class _ClassFields(NamedTuple):
    d: int
    r: int
    classes: tuple


class ColorClasses(_ClassFields):
    """(r-1)d+1 classes of r points in R^d (tuples of Fractions).

    Immutable like ``core.PointConfig``: the constructor coerces the
    coordinates to Fractions and rejects malformed classes with a
    ValueError.
    """

    def __new__(cls, d, r, classes):
        if d < 1:
            raise ValueError("d must be >= 1")
        if r < 2:
            raise ValueError("r must be >= 2")
        groups = tuple(
            tuple(tuple(x if isinstance(x, Fraction) else Fraction(x)
                        for x in p) for p in group)
            for group in classes
        )
        if len(groups) != (r - 1) * d + 1:
            raise ValueError("need (r-1)d+1 classes")
        for group in groups:
            if len(group) != r:
                raise ValueError("every class needs exactly r points")
            for p in group:
                if len(p) != d:
                    raise ValueError("point dimension mismatch")
        self = super().__new__(cls, d, r, groups)
        everything = [p for group in self.scaled[1] for p in group]
        if len(set(everything)) != len(everything):
            raise ValueError("points must be distinct across classes")
        return self

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make: validate as the constructor does
        return cls(*fields)

    @property
    def n(self):
        return len(self.classes)

    @cached_property
    def scaled(self):
        """``(D, classes)`` as ``core.PointConfig.scaled``, class by class."""
        scale = denominator_lcm([p for group in self.classes for p in group])
        return scale, tuple(to_int(group, scale) for group in self.classes)


def lex_first_assignment(cost):
    """The lexicographically first sigma minimizing sum_j cost[j][sigma[j]].

    ``cost`` is a square matrix of ints.  The Hungarian method (Kuhn 1955),
    in its O(r^3) shortest-augmenting-path form with potentials, runs on
    cost[j][l] * r^r + l * r^(r-1-j): the added term is sigma read as a
    base-r number, below r^r, so the unique optimum of the perturbed costs
    is the lexicographically first optimum of the given ones.
    """
    r = len(cost)
    big = r ** r
    cost = [[c * big + l * r ** (r - 1 - j) for l, c in enumerate(row)]
            for j, row in enumerate(cost)]
    # Rows and columns are numbered from 1; column 0 and row 0 are the
    # virtual start of each augmenting path.  owner[l] is the row matched
    # to column l, u and v are the row and column potentials.
    u = [0] * (r + 1)
    v = [0] * (r + 1)
    owner = [0] * (r + 1)
    way = [0] * (r + 1)
    for row in range(1, r + 1):
        owner[0] = row
        col = 0
        slack = [None] * (r + 1)
        used = [False] * (r + 1)
        while owner[col]:
            used[col] = True
            j = owner[col]
            costs, uj = cost[j - 1], u[j]
            delta, nxt = None, 0
            for l in range(1, r + 1):
                if not used[l]:
                    red = costs[l - 1] - uj - v[l]
                    if slack[l] is None or red < slack[l]:
                        slack[l] = red
                        way[l] = col
                    if delta is None or slack[l] < delta:
                        delta, nxt = slack[l], l
            for l in range(r + 1):
                if used[l]:
                    u[owner[l]] += delta
                    v[l] -= delta
                else:
                    slack[l] -= delta
            col = nxt
        while col:
            prev = way[col]
            owner[col] = owner[prev]
            col = prev
    sigma = [0] * r
    for l in range(1, r + 1):
        sigma[owner[l] - 1] = l - 1
    return tuple(sigma)


def lehmer_rank(sigma):
    """Position of sigma among all orderings of range(r), listed in
    lexicographic order."""
    rest = sorted(sigma)
    rank = 0
    for l in sigma:
        k = rest.index(l)
        rank = rank * len(rest) + k
        del rest[k]
    return rank


class PermutationColor:
    """The permutation tensors of one class, kept implicit.

    Element ``rank`` is sum_j z_j (x) simplex[sigma[j]] for the permutation
    sigma of Lehmer rank ``rank`` (sigma[j] = part of point j), with z_j
    the class's points, negated when ``flip`` is set.  Int points and an
    int simplex give int elements.  Distinct points give r! distinct
    elements: if sigma and tau gave the same one, z_{sigma^-1(l)} -
    z_{tau^-1(l)} would be one constant for every l, and those differences
    sum to 0.  So the rank order is the order of a scan over all of them,
    and ``most_opposed`` keeps the tie rule of ``sarkaria.LiftColor``, the
    first element of least value, without materializing the colour.
    """

    def __init__(self, points, flip, simplex):
        if len(simplex) != len(points):
            raise ValueError("simplex size mismatch")
        if flip:
            points = [tuple(-x for x in p) for p in points]
        self.points = tuple(points)
        self.simplex = simplex
        self.r = len(points)

    def permutation(self, rank):
        """The permutation of Lehmer rank ``rank``."""
        rest = list(range(self.r))
        digits = []
        for base in range(1, self.r + 1):
            rank, k = divmod(rank, base)
            digits.append(k)
        if rank:
            raise IndexError("permutation rank out of range")
        return tuple(rest.pop(k) for k in reversed(digits))

    def _element(self, sigma):
        return tuple(map(sum, zip(*[tensor(z, self.simplex[l])
                                    for z, l in zip(self.points, sigma)])))

    def __getitem__(self, rank):
        return self._element(self.permutation(rank))

    def most_opposed(self, y):
        """``(rank, element, <y, element>)`` for the first element with the
        least inner product with y."""
        # cost[j][l] = <y, z_j (x) v_l> = sum_a z_j[a] <y_a, v_l>, with y_a
        # the a-th row of y read as a d x (r-1) matrix (``tensor`` order)
        k = len(self.simplex[0])
        yv = [[vdot(y[a:a + k], v) for v in self.simplex]
              for a in range(0, len(y), k)]
        cost = [[vdot(z, col) for col in zip(*yv)] for z in self.points]
        sigma = lex_first_assignment(cost)
        value = sum(cost[j][l] for j, l in enumerate(sigma))
        return lehmer_rank(sigma), self._element(sigma), value


class ColorfulPartition(NamedTuple):
    assignment: tuple  # assignment[i][l] = point index of class i in part l
    alpha: tuple  # one coefficient per class
    z: tuple
    gamma: Fraction
    negatives: frozenset  # class indices
    zero_set: frozenset
    alternative: str  # "m_negative" | "m_positive"


def colored_tverberg_pm(cc, m_set, trace=None):
    """Colorful partition with per-class signs split by m_set.

    Returns ColorfulPartition or DegenerateGamma.  The realized
    alternative is labeled from the computed signs: "m_negative" when the
    negative coefficients sit exactly on m_set, "m_positive" when they
    sit on its complement.
    """
    # The pivot engine is imported here, so that reading and verifying a
    # colored certificate loads no solver module.
    from tvpm.sarkaria import (
        DegenerateGamma,
        companion_simplex,
        decode_weights,
        pivot_to_origin,
    )
    m_set = frozenset(m_set)
    if not m_set <= frozenset(range(cc.n)):
        raise ValueError("m_set out of range")
    vs = companion_simplex(cc.r)
    scale, ints = cc.scaled
    sets = [PermutationColor(group, i in m_set, vs)
            for i, group in enumerate(ints)]
    choice, beta = pivot_to_origin(sets, [0] * cc.n, trace=trace, scale=scale)
    # assignment[i][l]: the point of class i that sigma_i sends to part l
    assignment = []
    for color, rank in zip(sets, choice):
        inv = [0] * cc.r
        for j, l in enumerate(color.permutation(rank)):
            inv[l] = j
        assignment.append(tuple(inv))
    cert = decode_weights(choice, beta, m_set,
                          assigned_parts(ints, assignment), scale)
    if isinstance(cert, DegenerateGamma):
        return cert
    return ColorfulPartition(
        assignment=tuple(assignment),
        alpha=tuple(cert.alpha.values()),
        z=cert.z,
        gamma=cert.gamma,
        negatives=cert.negatives,
        zero_set=cert.zero_set,
        alternative="m_negative" if cert.gamma > 0 else "m_positive",
    )


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
    and gamma are checked by ``core.certificate_problems``, the point
    verifier's check, with alpha repeated in every part.  With
    ``m_set``, the alternative ("m_negative" or "m_positive") must
    describe the negatives (``core.alternative_problems``).
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


def classes_to_json(cc, m_set=None):
    out = {
        "schema": SCHEMA,
        "kind": "color_classes",
        "d": cc.d,
        "r": cc.r,
        "classes": [[format_vec(p) for p in group] for group in cc.classes],
    }
    if m_set is not None:
        out["m"] = sorted(m_set)
    return out


def classes_from_json(obj):
    json_object(obj, "classes", ("d", "r", "classes"))
    d, r = int_field(obj, "d"), int_field(obj, "r")
    classes = tuple(
        tuple(parse_vec(p) for p in json_list(group, "each class"))
        for group in json_list(obj["classes"], "'classes'")
    )
    return ColorClasses(d=d, r=r, classes=classes)


def colorful_to_json(cp):
    out = {
        "schema": SCHEMA,
        "kind": "colored_certificate",
        "assignment": [list(row) for row in cp.assignment],
        "alpha": [format_rat(a) for a in cp.alpha],
        "z": format_vec(cp.z),
        "gamma": format_rat(cp.gamma),
        "negatives": sorted(cp.negatives),
        "alternative": cp.alternative,
    }
    if cp.zero_set:
        out["zero_set"] = sorted(cp.zero_set)
    return out


def colorful_from_json(obj):
    json_object(obj, "colored certificate",
                ("assignment", "alpha", "z", "gamma", "negatives"))
    rows = json_list(obj["assignment"], "'assignment'")
    return ColorfulPartition(
        assignment=tuple(tuple(index_list(row, "each assignment row"))
                         for row in rows),
        alpha=parse_vec(obj["alpha"]),
        z=parse_vec(obj["z"]),
        gamma=parse_rat(obj["gamma"]),
        negatives=frozenset(index_list(obj["negatives"], "'negatives'")),
        zero_set=frozenset(index_list(obj.get("zero_set", []), "'zero_set'")),
        alternative=obj.get("alternative"),
    )
