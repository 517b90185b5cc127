"""Colored variant: one point per class per part, equal coefficients.

Input is n = (r-1)d+1 disjoint classes of r points each.  Each class is
lifted to the set of its permutation tensors sum_j z_j (x) v_sigma(j) (at
most r! points in R^{n-1}, duplicates merged), negated on the prescribed
classes.  The same pivoting engine finds a zero transversal; the chosen
permutations assign one point of every class to every part, and the class
weights unscale by gamma into coefficients that are constant across parts
by construction.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from tvpm.core import (
    SCHEMA,
    alternative_problems,
    index_list,
    int_field,
    json_list,
)
from tvpm.linalg import (
    denominator_lcm,
    format_rat,
    format_vec,
    parse_rat,
    parse_vec,
    tensor,
    to_int,
    vadd,
    vscale,
    vzero,
)
from tvpm.sarkaria import (
    DegenerateGamma,
    companion_simplex,
    decode_weights,
    pivot_to_origin,
)

MAX_R = 5


class CapacityError(ValueError):
    """Raised when a request would materialize r! lifts for r > 5."""


@dataclass(frozen=True)
class ColorClasses:
    d: int
    r: int
    classes: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.r < 2:
            raise ValueError("r must be >= 2")
        cls = tuple(
            tuple(tuple(Fraction(x) for x in p) for p in group)
            for group in self.classes
        )
        object.__setattr__(self, "classes", cls)
        if len(cls) != (self.r - 1) * self.d + 1:
            raise ValueError("need (r-1)d+1 classes")
        everything = []
        for group in cls:
            if len(group) != self.r:
                raise ValueError("every class needs exactly r points")
            for p in group:
                if len(p) != self.d:
                    raise ValueError("point dimension mismatch")
                everything.append(p)
        if len(set(everything)) != len(everything):
            raise ValueError("points must be distinct across classes")

    @property
    def n(self):
        return len(self.classes)


def permutation_lift(points, flip, simplex):
    """All permutation tensors of one class, merged.

    Returns ``(vectors, sigmas)`` where sigmas[t] is the lexicographically
    first permutation producing vectors[t] (sigma[j] = part of point j).
    flip negates every vector (the class enters with a minus sign).  Int
    points and an int simplex give int vectors.
    """
    r = len(points)
    if r > MAX_R:
        raise CapacityError("permutation lift materializes r! points; r <= %d"
                            % MAX_R)
    if len(simplex) != r:
        raise ValueError("simplex size mismatch")
    if flip:
        points = [tuple(-x for x in p) for p in points]
    # terms[j][l] = points[j] (x) simplex[l]; each vector sums r of them
    terms = [[tensor(p, v) for v in simplex] for p in points]
    seen = {}
    order = []
    for sigma in permutations(range(r)):
        v = tuple(map(sum, zip(*[terms[j][l] for j, l in enumerate(sigma)])))
        if v not in seen:
            seen[v] = sigma
            order.append(v)
    return tuple(order), tuple(seen[v] for v in order)


@dataclass(frozen=True)
class ColorfulPartition:
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
    m_set = frozenset(m_set)
    if not m_set <= frozenset(range(cc.n)):
        raise ValueError("m_set out of range")
    vs = companion_simplex(cc.r)
    # The lift runs on the classes times the lcm D of their denominators;
    # pivot choices and weights do not change under the uniform scaling.
    scale = denominator_lcm([p for group in cc.classes for p in group])
    sets = []
    sigmas = []
    for i, group in enumerate(cc.classes):
        vecs, sg = permutation_lift(to_int(group, scale), i in m_set, vs)
        sets.append(vecs)
        sigmas.append(sg)
    init = [0] * cc.n
    choice, beta = pivot_to_origin(sets, init, trace=trace, scale=scale)
    chosen = [sigmas[i][choice[i]] for i in range(cc.n)]
    # assignment[i][l]: the point of class i that sigma_i sends to part l
    assignment = []
    for sigma in chosen:
        inv = [0] * cc.r
        for j, l in enumerate(sigma):
            inv[l] = j
        assignment.append(tuple(inv))
    decoded = decode_weights(
        cc.d, choice, beta, m_set,
        [[(i, cc.classes[i][assignment[i][l]]) for i in range(cc.n)]
         for l in range(cc.r)])
    if isinstance(decoded, DegenerateGamma):
        return decoded
    alpha, z, gamma = decoded
    negatives = frozenset(i for i, a in enumerate(alpha) if a < 0)
    zero_set = frozenset(i for i, a in enumerate(alpha) if a == 0)
    alternative = "m_negative" if gamma > 0 else "m_positive"
    return ColorfulPartition(
        assignment=tuple(assignment),
        alpha=alpha,
        z=z,
        gamma=gamma,
        negatives=negatives,
        zero_set=zero_set,
        alternative=alternative,
    )


def verify_colorful(cc, cp, m_set=None):
    """Exact re-check of a colorful partition certificate.

    With ``m_set``, the alternative ("m_negative" or "m_positive") must
    describe the negatives (``core.alternative_problems``).
    """
    problems = []
    if len(cp.assignment) != cc.n or len(cp.alpha) != cc.n:
        return False, ["shape mismatch"]
    for i, row in enumerate(cp.assignment):
        if sorted(row) != list(range(cc.r)):
            problems.append("class %d: assignment is not a bijection" % i)
    if problems:
        return False, problems
    total = sum(cp.alpha, Fraction(0))
    if total != 1:
        problems.append("coefficient sum %s != 1" % format_rat(total))
    for l in range(cc.r):
        u = vzero(cc.d)
        for i in range(cc.n):
            u = vadd(u, vscale(cp.alpha[i], cc.classes[i][cp.assignment[i][l]]))
        if u != tuple(cp.z):
            problems.append(
                "part %d: weighted sum %s != z %s"
                % (l, format_vec(u), format_vec(cp.z)))
    neg = frozenset(i for i, a in enumerate(cp.alpha) if a < 0)
    if neg != cp.negatives:
        problems.append("negatives set does not match coefficient signs")
    zero = frozenset(i for i, a in enumerate(cp.alpha) if a == 0)
    if zero != cp.zero_set:
        problems.append("zero_set does not match zeros of alpha")
    if cp.gamma == 0:
        problems.append("gamma is zero")
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
    if not isinstance(obj, dict):
        raise ValueError("classes JSON must be an object")
    for key in ("d", "r", "classes"):
        if key not in obj:
            raise ValueError("classes JSON missing %r" % key)
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
    if not isinstance(obj, dict):
        raise ValueError("colored certificate JSON must be an object")
    for key in ("assignment", "alpha", "z", "gamma", "negatives"):
        if key not in obj:
            raise ValueError("colored certificate JSON missing %r" % key)
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
