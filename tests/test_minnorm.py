"""Minimum-norm point: exactness, invariants, oracle agreement."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvpm.linalg import vdot
from tvpm.minnorm import PairCorral, _Bordered, gram

from minnorm_oracle import (
    _affine_weights,
    affine_minimizer,
    min_norm_point_naive,
    min_norm_point_scaled,
)
from separation_oracle import assert_pair_corral_matches_gram

F = Fraction


def test_affine_minimizer_segment():
    got = affine_minimizer([(F(1), F(0)), (F(0), F(1))])
    assert got is not None
    x, lam = got
    assert x == (F(1, 2), F(1, 2))
    assert lam == (F(1, 2), F(1, 2))


def test_affine_minimizer_dependent_returns_none():
    assert affine_minimizer([(F(0),), (F(1),), (F(2),)]) is None
    assert affine_minimizer([(F(1), F(1)), (F(1), F(1))]) is None


def test_affine_minimizer_orthogonality():
    rng = random.Random(5)
    for _ in range(40):
        dim = rng.randint(1, 4)
        k = rng.randint(1, dim + 1)
        pts = [tuple(F(rng.randint(-6, 6), rng.randint(1, 3))
                     for _ in range(dim)) for _ in range(k)]
        got = affine_minimizer(pts)
        if got is None:
            continue
        x, lam = got
        assert sum(lam) == 1
        # x is orthogonal to every direction inside the affine hull
        for p in pts[1:]:
            diff = tuple(a - b for a, b in zip(p, pts[0]))
            assert vdot(x, diff) == 0


def test_examples():
    w, wt = min_norm_point_scaled([(F(1), F(0)), (F(0), F(1))])
    assert w == (F(1, 2), F(1, 2))
    assert wt == {0: F(1, 2), 1: F(1, 2)}
    w, wt = min_norm_point_scaled([(F(3), F(4))])
    assert w == (F(3), F(4)) and wt == {0: F(1)}
    w, _ = min_norm_point_scaled([(F(2), F(2)), (F(0), F(0)), (F(-1), F(5))])
    assert w == (F(0), F(0))
    with pytest.raises(ValueError):
        min_norm_point_scaled([])


def test_weights_form_exact_convex_combination():
    rng = random.Random(8)
    for _ in range(60):
        dim = rng.randint(1, 4)
        count = rng.randint(1, 6)
        pts = [tuple(F(rng.randint(-8, 8), rng.randint(1, 4))
                     for _ in range(dim)) for _ in range(count)]
        w, wt = min_norm_point_scaled(pts)
        assert sum(wt.values()) == 1
        assert all(v > 0 for v in wt.values())
        comb = tuple(
            sum(wt[i] * pts[i][t] for i in wt) for t in range(dim))
        assert comb == w
        # variational inequality: nothing in the hull is closer
        normsq = vdot(w, w)
        for p in pts:
            assert vdot(w, p) >= normsq


def test_agrees_with_subset_oracle():
    rng = random.Random(12)
    for _ in range(60):
        dim = rng.randint(1, 4)
        count = rng.randint(1, 6)
        pts = [tuple(F(rng.randint(-7, 7), rng.randint(1, 3))
                     for _ in range(dim)) for _ in range(count)]
        fast, _ = min_norm_point_scaled(pts)
        slow, _ = min_norm_point_naive(pts)
        assert fast == slow


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bordered_updates_match_fresh_solves(data):
    # Random add/remove sequences over small integer points, duplicates
    # included: after every update the maintained (den, nums) must equal
    # a fresh solve of the bordered system exactly, unreduced, and an add
    # that makes the support affinely dependent must raise and change
    # nothing.
    dim = data.draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    pts = data.draw(st.lists(st.tuples(*[coord] * dim),
                             min_size=2, max_size=7))
    matrix = gram(pts)
    border = _Bordered(lambda e, idx: [matrix[e][s] for s in idx],
                       data.draw(st.integers(0, len(pts) - 1)))
    assert border.weights() == _affine_weights(matrix, border.support)
    for _ in range(data.draw(st.integers(1, 12))):
        outside = [i for i in range(len(pts)) if i not in border.support]
        if outside and (len(border.support) == 1
                        or data.draw(st.booleans())):
            e = data.draw(st.sampled_from(outside))
            if _affine_weights(matrix, border.support + [e]) is None:
                before = (border.det, border.adj, list(border.support))
                with pytest.raises(AssertionError):
                    border.add(e)
                assert (border.det, border.adj, border.support) == before
                continue
            border.add(e)
        elif len(border.support) > 1:
            # Several points in one step, last position first, as a minor
            # cycle of min_norm_point drops them.
            drop = data.draw(st.lists(
                st.integers(0, len(border.support) - 1), min_size=1,
                max_size=len(border.support) - 1, unique=True))
            for pos in sorted(drop, reverse=True):
                border.remove(pos)
        else:
            continue
        assert border.weights() == _affine_weights(matrix, border.support)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_corral_matches_the_gram_corral_on_ties(data):
    # Coordinates in {-1, 0, 1}, repeats allowed within and across the
    # sides: many pairs tie for the least v, so the entering pair must be
    # the first argmin over a times the first argmax over b.
    dim = data.draw(st.integers(1, 3))
    pt = st.tuples(*[st.integers(-1, 1)] * dim)
    left = data.draw(st.lists(pt, min_size=1, max_size=6))
    right = data.draw(st.lists(pt, min_size=1, max_size=6))
    assert_pair_corral_matches_gram(left, right)


def test_pair_corral_needs_both_sides():
    with pytest.raises(ValueError):
        PairCorral([], [(1,)])
    with pytest.raises(ValueError):
        PairCorral([(1,)], [])
