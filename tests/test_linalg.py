"""Rational layer: parsing, vectors, determinant, rank, solving."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from tvpm import linalg
from tvpm.core import PointConfig, intersect_affine_hulls
from tvpm.linalg import (
    ff_solve,
    format_rat,
    hull_factor,
    parse_rat,
    tensor,
    weighted_sum,
)
from tvpm.search import proper_partitions

from linalg_oracle import block_intersection, block_system, rank, solve_linear

F = Fraction


def rand_frac(rng, span=9, den=4):
    return F(rng.randint(-span, span), rng.randint(1, den))


def cofactor_det(rows):
    # oracle: Laplace expansion along the first row
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j]
        * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(n)
    )


def minor_rank(rows):
    # oracle: largest k with a nonzero k x k minor
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if cofactor_det(sub) != 0:
                    return k
    return 0


def test_parse_and_format():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat("-7") == F(-7)
    assert parse_rat("+2/6") == F(1, 3)
    assert format_rat(F(1, 3)) == "1/3"
    assert format_rat(F(-4, 2)) == "-2"
    assert format_rat(F(0)) == "0"
    for bad in ("1.5", "3/0", "1e3", "x", "", "1/-2", None):
        with pytest.raises(ValueError):
            parse_rat(bad)


def test_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        x = F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
        assert parse_rat(format_rat(x)) == x


def test_solve_linear_examples():
    x, d = solve_linear([[F(1), F(0)], [F(0), F(1)]], [F(3), F(1, 2)])
    assert x == (F(3), F(1, 2)) and d == 1
    x, d = solve_linear([[F(1), F(1)], [F(0), F(2)]], [F(1), F(1)])
    assert x == (F(1, 2), F(1, 2)) and d == 2
    assert solve_linear([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)]) is None
    with pytest.raises(ValueError):
        solve_linear([[F(1), F(2)]], [F(1)])


def test_solve_linear_reproduces_rhs():
    rng = random.Random(7)
    hits = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        m = [[rand_frac(rng) for _ in range(n)] for _ in range(n)]
        b = [rand_frac(rng) for _ in range(n)]
        got = solve_linear(m, b)
        if got is None:
            assert cofactor_det(m) == 0
            continue
        x, dv = got
        assert dv == cofactor_det(m) != 0
        for row, bi in zip(m, b):
            assert linalg.vdot(tuple(row), x) == bi
        # canonical form: Fraction keeps lowest terms, positive denominator
        for v in x:
            assert v.denominator > 0
        hits += 1
    assert hits > 100


def test_block_system_det_matches_cofactor_expansion():
    # the oracle eliminates the block system scaled to integers and
    # reports the determinant of the unscaled rational one; the library
    # finds a point exactly when that determinant is nonzero
    rng = random.Random(13)
    for trial in range(30):
        d, r = ((1, 2), (1, 3), (2, 2))[trial % 3]
        n = (r - 1) * (d + 1) + 1
        points = set()
        while len(points) < n:
            points.add(tuple(F(rng.randint(-50, 50), rng.choice((1, 4, 6, 1000)))
                             for _ in range(d)))
        cfg = PointConfig(d=d, r=r, points=tuple(sorted(points)))
        for partition in list(proper_partitions(n, r, d))[:4]:
            m, _, _ = block_system(cfg, partition)
            det = block_intersection(cfg, partition).det
            assert det == cofactor_det(m)
            kind = intersect_affine_hulls(cfg, partition).kind
            assert (kind == "point") == (det != 0)


def test_rank_examples_and_oracle():
    z = F(0)
    assert rank([[z, z, z], [z, z, z], [z, z, z]]) == 0
    assert rank([[F(1), z, z], [z, F(1), z], [z, z, F(1)]]) == 3
    assert rank([[F(1), F(2)], [F(2), F(4)], [z, F(1)]]) == 2
    rng = random.Random(17)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rand_frac(rng, 3, 2) for _ in range(n)] for _ in range(m)]
        assert rank(a) == minor_rank(a)


def test_rank_transpose_invariant():
    rng = random.Random(19)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rand_frac(rng, 4, 3) for _ in range(n)] for _ in range(m)]
        at = [[a[i][j] for i in range(m)] for j in range(n)]
        assert rank(a) == rank(at)


def test_tensor_examples():
    assert tensor((F(1), F(0)), (F(5), F(7))) == (F(5), F(7), F(0), F(0))
    assert tensor((F(1), F(2)), (F(3), F(1))) == (F(3), F(1), F(6), F(2))
    assert tensor((F(0), F(0)), (F(1), F(9))) == (F(0),) * 4


def test_tensor_is_bilinear_outer_product():
    rng = random.Random(29)
    for _ in range(50):
        p = rng.randint(1, 4)
        q = rng.randint(1, 4)
        u1 = tuple(rand_frac(rng) for _ in range(p))
        u2 = tuple(rand_frac(rng) for _ in range(p))
        b = tuple(rand_frac(rng) for _ in range(q))
        t = tensor(u1, b)
        # entry (i, j) sits at position i*q + j and equals u_i * b_j
        for i in range(p):
            for j in range(q):
                assert t[i * q + j] == u1[i] * b[j]
        left = tensor(weighted_sum([1, 1], [u1, u2]), b)
        right = weighted_sum([1, 1], [tensor(u1, b), tensor(u2, b)])
        assert left == right


def solve_system(rows, rhs):
    """``(rank, rank_aug, x)`` from ``ff_solve``: x = nums / den as
    Fractions when den != 0, else None (and then den must be 0)."""
    den, nums, rank, rank_aug = ff_solve(rows, rhs)
    if nums is None:
        assert den == 0
        return rank, rank_aug, None
    return rank, rank_aug, tuple(F(v, den) for v in nums)


def test_solve_system_classification():
    assert solve_system([[1, 1], [0, 1], [1, 0]], [3, 2, 1]) == (
        2, 2, (F(1), F(2)))
    # underdetermined: consistent, rank below the column count, no x
    assert solve_system([[1, 1]], [2]) == (1, 1, None)
    assert solve_system([[2, 2], [1, 1]], [4, 2]) == (1, 1, None)
    # inconsistent
    assert solve_system([[1, 1], [1, 1]], [1, 2]) == (1, 2, None)
    assert solve_system([[0, 0]], [1]) == (0, 1, None)


def test_solve_system_ranks_and_solution_match_oracles():
    rng = random.Random(23)
    unique = 0
    for _ in range(150):
        m = rng.randint(1, 5)
        n = rng.randint(1, 4)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        rk, rka, x = solve_system(a, b)
        assert rk == minor_rank(a)
        assert rka == minor_rank([row + [bi] for row, bi in zip(a, b)])
        if rk == rka == n:
            unique += 1
            for row, bi in zip(a, b):
                assert sum(v * xi for v, xi in zip(row, x)) == bi
        else:
            assert x is None
    assert unique > 20


def test_hull_factor_equations_and_triangular_factor():
    rng = random.Random(31)
    factored = 0
    dependent = 0
    for _ in range(200):
        d = rng.randint(1, 4)
        s = rng.randint(1, d + 1)
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(s)]
        if rng.random() < 0.25:
            # a point on the line through two others: affinely dependent
            pts.append(tuple(2 * b - a for a, b in zip(pts[0], pts[-1])))
            s += 1
        lifted = [p + (1,) for p in pts]  # the columns of P
        prows = list(zip(*lifted))  # the rows of P
        f = hull_factor(pts)
        rk = rank(lifted)
        # d+1-rk independent equations e . (x, 1) = 0, each satisfied by
        # every point
        assert len(f.eqs) == d + 1 - rk
        assert all(len(e) == d + 1 for e in f.eqs)
        if f.eqs:
            assert rank(f.eqs) == d + 1 - rk
        for p in lifted:
            for e in f.eqs:
                assert sum(v * x for v, x in zip(e, p)) == 0
        if rk < s:
            assert f.coef is None and f.den is None
            dependent += 1
            continue
        factored += 1
        # coef P = den I, with den > 0
        assert f.den > 0 and len(f.coef) == s
        for k, crow in enumerate(f.coef):
            assert [sum(c * prow[i] for c, prow in zip(crow, prows))
                    for i in range(s)] == [f.den * (i == k) for i in range(s)]
    assert factored > 100 and dependent > 40
