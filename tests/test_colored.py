"""Colored variant: implicit lifts, solver, verifier, JSON."""

import random
import re
import time
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tvpm import colored
from tvpm.colored import (
    ColorClasses,
    PermutationColor,
    classes_from_json,
    classes_to_json,
    colored_tverberg_pm,
    colorful_from_json,
    colorful_to_json,
    lehmer_rank,
    lex_first_assignment,
    verify_colorful,
)
from tvpm.gen import general_position
from tvpm.linalg import denominator_lcm, tensor, to_int, weighted_sum
from tvpm.sarkaria import DegenerateGamma, companion_simplex, pivot_to_origin

import verify_oracle
from colored_oracle import permutation_lift
from linalg_oracle import solve_linear
from pivot_oracle import VectorColor

F = Fraction


def random_classes(d, r, seed):
    """(r-1)d+1 classes of r points, jointly in general position."""
    rng = random.Random(seed)
    n = (r - 1) * d + 1
    while True:
        pts = []
        for _ in range(n * r):
            pts.append(tuple(F(rng.randint(-10**6, 10**6), 10**3)
                             for _ in range(d)))
        if len(set(pts)) == len(pts) and general_position(pts, d):
            groups = tuple(tuple(pts[i * r:(i + 1) * r]) for i in range(n))
            return ColorClasses(d=d, r=r, classes=groups)


def distinct_classes(d, r, seed, num=10**6, den=10**3):
    """(r-1)d+1 classes of r points with coordinates k/den, |k| <= num,
    distinct but not checked for general position."""
    rng = random.Random(seed)
    seen = set()
    groups = []
    for _ in range((r - 1) * d + 1):
        group = []
        while len(group) < r:
            p = tuple(F(rng.randint(-num, num), den) for _ in range(d))
            if p not in seen:
                seen.add(p)
                group.append(p)
        groups.append(tuple(group))
    return ColorClasses(d=d, r=r, classes=tuple(groups))


def line_classes():
    return ColorClasses(d=1, r=2, classes=(((F(0),), (F(4),)),
                                           ((F(1),), (F(3),))))


def test_class_validation():
    with pytest.raises(ValueError):
        ColorClasses(d=1, r=2, classes=(((F(0),), (F(1),)),))  # one class short
    with pytest.raises(ValueError):
        ColorClasses(d=1, r=2, classes=(((F(0),),), ((F(1),), (F(2),))))
    with pytest.raises(ValueError):
        ColorClasses(d=1, r=2, classes=(((F(0),), (F(1), F(2))),
                                        ((F(3),), (F(4),))))
    with pytest.raises(ValueError):
        ColorClasses(d=1, r=2, classes=(((F(0),), (F(1),)),
                                        ((F(0),), (F(2),))))  # duplicate 0
    # equal values written differently are still duplicates
    msg = "points must be distinct across classes"
    with pytest.raises(ValueError, match=msg):
        ColorClasses(d=1, r=2, classes=(((F(1, 2),), (F(1),)),
                                        (("2/4",), (F(2),))))
    with pytest.raises(ValueError, match=msg):
        classes_from_json({"d": 1, "r": 2, "classes": [[["1/2"], ["1"]],
                                                       [["2/4"], ["2"]]]})


def test_permutation_lift_pair():
    vs = companion_simplex(2)
    vectors, sigmas = permutation_lift(((F(1),), (F(3),)), False, vs)
    assert vectors == ((F(-2),), (F(2),))
    assert sigmas == ((0, 1), (1, 0))
    flipped, fsig = permutation_lift(((F(1),), (F(3),)), True, vs)
    assert flipped == ((F(2),), (F(-2),))
    assert fsig == ((0, 1), (1, 0))


def test_permutation_lift_dedup_keeps_first_sigma():
    vs = companion_simplex(2)
    vectors, sigmas = permutation_lift(((F(0),), (F(0),)), False, vs)
    assert vectors == ((F(0),),)
    assert sigmas == ((0, 1),)


def test_permutation_lift_full_sum_vanishes():
    # with distinct generic points no two permutations collide, and the
    # tensor sums over all r! permutations cancel
    vs = companion_simplex(3)
    points = ((F(1),), (F(2),), (F(5),))
    vectors, sigmas = permutation_lift(points, False, vs)
    assert len(vectors) == 6
    total = weighted_sum([1] * len(vectors), vectors)
    assert total == (0, 0)
    # independent recomputation straight from the definition
    for v, sigma in zip(vectors, sigmas):
        u = weighted_sum([1] * len(points), [tensor(z, vs[sigma[j]])
                                             for j, z in enumerate(points)])
        assert u == v


def test_lehmer_rank_is_the_lexicographic_position():
    for r in range(2, 6):
        color = PermutationColor([(F(i),) for i in range(r)], False,
                                 companion_simplex(r))
        for rank, sigma in enumerate(permutations(range(r))):
            assert lehmer_rank(sigma) == rank
            assert color.permutation(rank) == sigma
        with pytest.raises(IndexError):
            color.permutation(factorial(r))


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 6).flatmap(lambda r: st.lists(
    st.lists(st.integers(-2, 2), min_size=r, max_size=r),
    min_size=r, max_size=r)))
def test_lex_first_assignment_matches_brute_force(cost):
    # costs in -2..2 tie often; the first minimum in lexicographic order
    # is the one a scan over the materialized lift would keep
    r = len(cost)
    best = min(permutations(range(r)), key=lambda sigma: (
        sum(cost[j][l] for j, l in enumerate(sigma)), sigma))
    assert lex_first_assignment(cost) == best


def _pivot_run(sets, n, scale):
    steps = []
    result = pivot_to_origin(sets, [0] * n, scale=scale,
                             trace=lambda *step: steps.append(step))
    return result, steps


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), r=st.integers(2, 5), seed=st.integers(0, 10**6),
       den=st.sampled_from([1, 2]))
@example(d=1, r=3, seed=267, den=1)  # a tie on a swapped colour
def test_implicit_lift_pivots_like_the_explicit_oracle(d, r, seed, den):
    # the fewest integer numerators that leave room for the n*r distinct
    # points, so that lift vectors tie as often as they can; the implicit
    # colour must break ties as the scan over the oracle's sets does
    n = (r - 1) * d + 1
    num = 1
    while (2 * num + 1) ** d < 2 * n * r:
        num += 1
    cc = distinct_classes(d, r, seed, num=num, den=den)
    rng = random.Random(seed)
    m = frozenset(i for i in range(n) if rng.random() < 0.5)
    vs = companion_simplex(r)
    scale = denominator_lcm([p for group in cc.classes for p in group])
    groups = [to_int(group, scale) for group in cc.classes]
    lifts = [permutation_lift(g, i in m, vs) for i, g in enumerate(groups)]
    implicit = [PermutationColor(g, i in m, vs) for i, g in enumerate(groups)]
    # distinct points: no two permutations merge, so index = Lehmer rank
    assert all(len(vectors) == factorial(r) for vectors, _ in lifts)
    explicit_run = _pivot_run([VectorColor(vectors) for vectors, _ in lifts],
                              n, scale)
    implicit_run = _pivot_run(implicit, n, scale)
    assert implicit_run == explicit_run
    (choice, _), _ = implicit_run
    for color, (vectors, sigmas), rank in zip(implicit, lifts, choice):
        assert color.permutation(rank) == sigmas[rank]
        assert color[rank] == vectors[rank]


@pytest.mark.parametrize("d,r", [(1, 6), (2, 6), (1, 7), (2, 7)])
def test_large_r_certificates_verify(d, r):
    cc = distinct_classes(d, r, seed=70 + 10 * d + r)
    m = frozenset(range(0, cc.n, 3))
    res = colored_tverberg_pm(cc, m)
    assert not isinstance(res, DegenerateGamma)
    ok, problems = verify_colorful(cc, res, m)
    assert ok, problems
    assert res.negatives in (m, frozenset(range(cc.n)) - m)


def test_r8_runs_without_materializing_the_lift():
    # the r! lift would build 40,320 vectors for each of the 15 classes;
    # the implicit colours solve this in a few hundredths of a second
    cc = distinct_classes(2, 8, seed=8)
    start = time.perf_counter()
    res = colored_tverberg_pm(cc, frozenset({0, 1, 2}))
    assert time.perf_counter() - start < 5.0
    ok, problems = verify_colorful(cc, res, frozenset({0, 1, 2}))
    assert ok, problems
    text = Path(colored.__file__).read_text()
    assert not re.search(r"\b(permutations|MAX_R|CapacityError)\b", text)


def test_line_classes_all_prescriptions():
    cc = line_classes()
    expected = {
        frozenset(): ((F(1, 3), F(2, 3)), F(1), frozenset(), "m_negative"),
        frozenset({0}): ((F(-1), F(2)), F(1, 3), frozenset({0}), "m_negative"),
        frozenset({1}): ((F(-1), F(2)), F(-1, 3), frozenset({0}), "m_positive"),
        frozenset({0, 1}): ((F(1, 3), F(2, 3)), F(-1), frozenset(), "m_positive"),
    }
    for m, (alpha, gamma, neg, alt) in expected.items():
        res = colored_tverberg_pm(cc, m)
        assert res.alpha == alpha
        assert res.gamma == gamma
        assert res.negatives == neg
        assert res.alternative == alt
        assert res.z == (F(2),)
        ok, problems = verify_colorful(cc, res)
        assert ok, problems
        comp = frozenset(range(cc.n)) - m
        assert res.negatives in (m, comp)


def assignment_products(n, r):
    return product(tuple(permutations(range(r))), repeat=n)


def enumerate_solutions(cc):
    """Every colorful assignment whose square system has a unique answer.

    Keys are relabeling-invariant: (alpha, z, set of parts as
    (class, point) pair sets).
    """
    keys = set()
    n, r, d = cc.n, cc.r, cc.d
    for asg in assignment_products(n, r):
        rows = []
        rhs = []
        for l in range(r):
            for c in range(d):
                row = [cc.classes[i][asg[i][l]][c] for i in range(n)]
                row += [F(-1) if c == cc_ else F(0) for cc_ in range(d)]
                rows.append(row)
                rhs.append(F(0))
        rows.append([F(1)] * n + [F(0)] * d)
        rhs.append(F(1))
        sol = solve_linear(rows, rhs)
        if sol is None:
            continue
        x, _ = sol
        alpha = tuple(x[:n])
        z = tuple(x[n:])
        parts = frozenset(
            frozenset((i, asg[i][l]) for i in range(n)) for l in range(r))
        keys.add((alpha, z, parts))
    return keys


def solution_key(cc, cp):
    parts = frozenset(
        frozenset((i, cp.assignment[i][l]) for i in range(cc.n))
        for l in range(cc.r))
    return (tuple(cp.alpha), tuple(cp.z), parts)


def test_solver_output_is_an_exact_system_solution():
    for (d, r, seed) in ((1, 2, 0), (1, 2, 1), (2, 2, 0), (2, 2, 3)):
        cc = random_classes(d, r, seed)
        keys = enumerate_solutions(cc)
        for m in (frozenset(), frozenset({0})):
            cp = colored_tverberg_pm(cc, m)
            assert solution_key(cc, cp) in keys


def test_random_classes_verify_and_dichotomy():
    rng = random.Random(31)
    for trial in range(18):
        d, r = ((1, 2), (2, 2), (1, 3))[trial % 3]
        cc = random_classes(d, r, seed=900 + trial)
        size = rng.randint(0, cc.n)
        m = frozenset(rng.sample(range(cc.n), size))
        res = colored_tverberg_pm(cc, m)
        if isinstance(res, DegenerateGamma):
            continue
        ok, problems = verify_colorful(cc, res)
        assert ok, problems
        comp = frozenset(range(cc.n)) - m
        assert res.negatives in (m, comp)
        if res.alternative == "m_negative":
            assert res.negatives == m
        else:
            assert res.negatives == comp
        assert sum(res.alpha, F(0)) == 1


def test_degenerate_gamma_symmetric_classes():
    cc = ColorClasses(d=1, r=2, classes=(((F(-1),), (F(3),)),
                                         ((F(1),), (F(5),))))
    res = colored_tverberg_pm(cc, {0})
    assert isinstance(res, DegenerateGamma)


def test_degenerate_gamma_carries_its_zero_transversal():
    cc = ColorClasses(d=1, r=2, classes=(((F(-1),), (F(3),)),
                                         ((F(1),), (F(5),))))
    m = {0}
    res = colored_tverberg_pm(cc, m)
    assert isinstance(res, DegenerateGamma)
    vs = companion_simplex(cc.r)
    sets = [PermutationColor(group, i in m, vs)
            for i, group in enumerate(cc.scaled[1])]
    picked = [sets[i][j] for i, j in enumerate(res.choice)]
    assert weighted_sum(res.weights, picked) == (0,) * len(picked[0])
    assert sum(res.weights) == 1


def test_verifier_flags_corruption():
    cc = line_classes()
    cp = colored_tverberg_pm(cc, frozenset({0}))
    ok, _ = verify_colorful(cc, cp)
    assert ok

    bad = colorful_from_json(colorful_to_json(cp))
    bad = type(cp)(
        assignment=cp.assignment,
        alpha=(cp.alpha[0] + 1,) + cp.alpha[1:],
        z=cp.z, gamma=cp.gamma, negatives=cp.negatives,
        zero_set=cp.zero_set, alternative=cp.alternative)
    ok, problems = verify_colorful(cc, bad)
    assert not ok
    assert any("coefficient sum" in p for p in problems)

    bad = type(cp)(
        assignment=((0, 0),) + cp.assignment[1:],
        alpha=cp.alpha, z=cp.z, gamma=cp.gamma, negatives=cp.negatives,
        zero_set=cp.zero_set, alternative=cp.alternative)
    ok, problems = verify_colorful(cc, bad)
    assert not ok
    assert any("bijection" in p for p in problems)

    bad = type(cp)(
        assignment=cp.assignment, alpha=cp.alpha,
        z=tuple(x + 1 for x in cp.z), gamma=cp.gamma,
        negatives=cp.negatives, zero_set=cp.zero_set,
        alternative=cp.alternative)
    ok, problems = verify_colorful(cc, bad)
    assert not ok
    assert any("weighted sum" in p for p in problems)

    for z in (cp.z + (cp.z[0],), ()):
        ok, problems = verify_colorful(cc, cp._replace(z=z))
        assert (ok, problems) == (False, ["z has wrong dimension"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(d=st.integers(1, 2), r=st.integers(2, 4), seed=st.integers(0, 10**6),
       den=st.sampled_from([1, 2, 6]),
       edit=st.sampled_from(["none", "alpha", "z", "negatives", "zero_set",
                             "gamma"]),
       delta=st.builds(F, st.integers(1, 3) | st.integers(-3, -1),
                       st.integers(1, 6)),
       data=st.data())
def test_verifier_matches_the_fraction_oracle(d, r, seed, den, edit, delta,
                                              data):
    # a colored certificate as written, or with one alpha or one z
    # coordinate moved, one class toggled in a sign set, or gamma zeroed:
    # the integer re-check gives the oracle's verdict and problems
    cc = distinct_classes(d, r, seed, num=10, den=den)
    m = data.draw(st.frozensets(st.integers(0, cc.n - 1)))
    res = colored_tverberg_pm(cc, m)
    assume(not isinstance(res, DegenerateGamma))
    cp = colorful_from_json(colorful_to_json(res))
    if edit == "alpha":
        i = data.draw(st.integers(0, cc.n - 1))
        cp = cp._replace(alpha=cp.alpha[:i] + (cp.alpha[i] + delta,)
                         + cp.alpha[i + 1:])
    elif edit == "z":
        k = data.draw(st.integers(0, d - 1))
        cp = cp._replace(z=cp.z[:k] + (cp.z[k] + delta,) + cp.z[k + 1:])
    elif edit in ("negatives", "zero_set"):
        i = data.draw(st.integers(0, cc.n - 1))
        cp = cp._replace(**{edit: getattr(cp, edit) ^ {i}})
    elif edit == "gamma":
        cp = cp._replace(gamma=F(0))
    got = verify_colorful(cc, cp, m)
    assert got == verify_oracle.verify_colorful(cc, cp, m)
    assert got[0] == (edit == "none")


def test_json_round_trips():
    cc = random_classes(2, 2, seed=5)
    obj = classes_to_json(cc, m_set={1, 2})
    assert obj["m"] == [1, 2]
    back = classes_from_json(obj)
    assert back == cc

    cp = colored_tverberg_pm(cc, frozenset({1}))
    blob = colorful_to_json(cp)
    cp2 = colorful_from_json(blob)
    assert cp2.assignment == cp.assignment
    assert cp2.alpha == cp.alpha
    assert cp2.z == cp.z
    assert cp2.gamma == cp.gamma
    assert cp2.negatives == cp.negatives
    assert cp2.alternative == cp.alternative

    with pytest.raises(ValueError):
        classes_from_json({"d": 1, "r": 2})
    with pytest.raises(ValueError):
        colorful_from_json({"assignment": []})
    for doc in ([], [blob], 3, None):
        with pytest.raises(ValueError):
            colorful_from_json(doc)
    for key in ("d", "r"):
        bad = dict(obj)
        bad[key] = True
        with pytest.raises(ValueError):
            classes_from_json(bad)
