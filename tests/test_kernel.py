"""Integer kernel tests against independent oracles."""

import random
from fractions import Fraction
from itertools import combinations

from tvpm.kernel import (
    eliminate,
    every_subset_independent,
    ff_solve,
    null_vector,
)


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def gauss_pivots(rows):
    # independent echelon-form oracle over Fractions: the pivot columns
    a = [[Fraction(v) for v in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(row + 1, m):
            if a[i][col] != 0:
                f = a[i][col] / a[row][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
    return pivots


def ff_rank(rows):
    a = [list(r) for r in rows]
    return len(eliminate(a, len(a[0]), len(a[0]))[0])


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_det_known_values():
    # den of a square solve is det A, and 0 when A is singular
    for a, det in (([], 1), ([[5]], 5), ([[1, 2], [3, 4]], -2),
                   ([[1, 2], [2, 4]], 0),
                   ([[0, 1], [1, 0]], -1),  # needs a row swap
                   ([[2, 0, 0], [0, 3, 0], [0, 0, 4]], 24)):
        assert cofactor_det(a) == det
        assert ff_solve(a, [1] * len(a)).den == det


def test_det_matches_cofactor_oracle():
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        b = [rng.randint(-9, 9) for _ in range(n)]
        assert ff_solve(a, b).den == cofactor_det(a)


def test_solve_round_trip():
    rng = random.Random(23)
    solved = 0
    singular = 0
    for trial in range(200):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, n)
        b = [rng.randint(-9, 9) for _ in range(n)]
        den, nums, rank, rank_aug = ff_solve(a, b)
        if nums is None:
            assert den == 0 == cofactor_det(a)
            assert rank < n
            singular += 1
            continue
        assert den == cofactor_det(a) != 0
        assert rank == rank_aug == n
        x = [Fraction(v, den) for v in nums]
        for i in range(n):
            assert sum(a[i][j] * x[j] for j in range(n)) == b[i]
        solved += 1
    assert solved > 150 and singular > 0


def test_solve_singular():
    assert ff_solve([[1, 2], [2, 4]], [1, 1]) == (0, None, 1, 2)
    assert ff_solve([[1, 2], [2, 4]], [1, 2]) == (0, None, 1, 1)
    assert ff_solve([[0]], [1]) == (0, None, 0, 1)
    assert ff_solve([], []) == (1, [], 0, 0)


def test_rank_known_and_oracle():
    assert ff_rank([[0, 0], [0, 0]]) == 0
    assert ff_rank([[1, 0], [0, 1]]) == 2
    assert ff_rank([[1, 2], [2, 4], [0, 1]]) == 2
    rng = random.Random(37)
    for trial in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = random_matrix(rng, m, n, -4, 4)
        assert ff_rank(a) == len(gauss_pivots(a))


def test_eliminate_pivots_match_gauss_oracle():
    # rectangular, rank-deficient and zero-column input
    rng = random.Random(41)
    for trial in range(300):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = random_matrix(rng, m, n, -3, 3)
        for col in rng.sample(range(n), rng.randint(0, n - 1)):
            for row in a:
                row[col] = 0
        if m > 2 and rng.random() < 0.5:
            a[-1] = [x + 2 * y for x, y in zip(a[0], a[1])]
        pivots, sign = eliminate([row[:] for row in a], n, n)
        assert pivots == gauss_pivots(a)
        assert sign in (1, -1)


def test_eliminate_sign_times_last_pivot_is_det():
    rng = random.Random(43)
    checked = 0
    for trial in range(200):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        work = [row[:] for row in a]
        pivots, sign = eliminate(work, n, n)
        if len(pivots) < n:
            assert cofactor_det(a) == 0
            continue
        assert pivots == list(range(n))
        assert sign * work[n - 1][n - 1] == cofactor_det(a)
        checked += 1
    assert checked > 150


def test_eliminate_width_and_column_skip():
    # zero first column: skipped, and the pivot search continues in
    # column 1; columns at or past width stay untouched
    a = [[0, 2, 1, 7], [0, 4, 3, 9]]
    assert eliminate(a, 3, 3) == ([1, 2], 1)
    assert a == [[0, 2, 1, 7], [0, 0, 2, 9]]
    b = [[0, 1], [1, 0]]
    assert eliminate(b, 2, 2) == ([0, 1], -1)
    assert eliminate([], 3, 3) == ([], 1)


def test_null_vector_matches_gauss_oracle():
    # m x n matrices of small entries, n = 1..5: x is nonzero with A x = 0
    # exactly when the rank is n - 1, whichever column has no pivot, and
    # the elimination keeps the row space (a row joins it exactly when it
    # joins the original)
    rng = random.Random(53)
    free = set()
    for trial in range(1500):
        n = rng.randint(1, 5)
        a = random_matrix(rng, rng.randint(0, n + 1), n, -2, 2)
        if rng.random() < 0.3:  # a zero column, the free one when rank n-1
            zero = rng.randrange(n)
            for row in a:
                row[zero] = 0
        work = [row[:] for row in a]
        pivots = gauss_pivots(a) if a else []
        x = null_vector(work, n)
        if len(pivots) != n - 1:
            assert x is None, a
        else:
            assert any(x) and all(
                sum(v * c for v, c in zip(row, x)) == 0 for row in a), a
            free.add((n, next(c for c in range(n) if c not in pivots)))
        v = [rng.randint(-2, 2) for _ in range(n)]
        assert ff_rank(a + [v]) == ff_rank(work + [v]), a
    assert {(n, c) for n in range(1, 6) for c in range(n)} <= free
    assert null_vector([], 1) == [1]
    assert null_vector([[3, 5]], 2) == [-5, 3]
    # the closed forms, for zero rows at n = 1 and one row at n = 2, give
    # elimination's vectors and leave the rows as passed
    for rows, n, want in [([[0], [0]], 1, [1]), ([[2], [0]], 1, None),
                          ([[0, 4]], 2, [1, 0]), ([[0, 0]], 2, None),
                          ([[-3, 5]], 2, [-5, -3])]:
        work = [row[:] for row in rows]
        assert null_vector(work, n) == want, rows
        assert work == rows
    assert null_vector([[0, 4, 1], [0, 2, 7]], 3) == [1, 0, 0]
    assert null_vector([[2, 4, 1], [1, 2, 7]], 3) == [-4, 2, 0]


def test_every_subset_independent_matches_cofactor_oracle():
    # m = 0..5 columns, n = 0..m+4 rows of small entries: zero rows,
    # repeated and parallel rows and dependent subsets all occur
    rng = random.Random(47)
    seen = set()
    for trial in range(1500):
        m = rng.randint(0, 5)
        n = rng.randint(0, m + 4)
        a = random_matrix(rng, n, m, -2, 2)
        want = all(cofactor_det(list(s)) != 0 for s in combinations(a, m))
        assert every_subset_independent(a) == want, a
        seen.add((m, n >= m, want))
    assert {(m, True, w) for m in range(1, 6) for w in (True, False)} <= seen
    assert every_subset_independent([]) is True
    assert every_subset_independent([[0], [3]]) is False
    assert every_subset_independent([[1, 2], [-2, -4]]) is False
    assert every_subset_independent([[0, 1], [0, -1], [1, 0]]) is False
