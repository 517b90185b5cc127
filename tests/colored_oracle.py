"""Brute-force oracle for the colored lift.

``permutation_lift`` materializes every permutation tensor of a class in
``itertools.permutations`` order, merging duplicates.  It grows as r! and
exists only as the explicit twin of ``tvpm.colored.PermutationColor``: fed
to ``pivot_to_origin`` through ``pivot_oracle.VectorColor``, it must give
the same pivots.
"""

from itertools import permutations

from tvpm.linalg import tensor


def permutation_lift(points, flip, simplex):
    """All permutation tensors of one class, merged.

    Returns ``(vectors, sigmas)`` where sigmas[t] is the lexicographically
    first permutation producing vectors[t] (sigma[j] = part of point j).
    flip negates every vector (the class enters with a minus sign).  Int
    points and an int simplex give int vectors.
    """
    r = len(points)
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
