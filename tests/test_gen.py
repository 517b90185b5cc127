"""Instance generators: determinism, shapes, separation guarantees, and
the general-position check against a determinant-per-subset oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import position_oracle
from tvpm import gen
from tvpm.gen import (
    example1,
    example2,
    general_position,
    random_config,
    separated_subset,
)
from tvpm.search import NotSeparated, Separated, check_separation

F = Fraction


def test_general_position_examples():
    assert general_position([(F(0),), (F(1),)], 1)
    assert not general_position([(F(0),), (F(0),)], 1)
    assert general_position([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))], 2)
    assert not general_position(
        [(F(0), F(0)), (F(1), F(1)), (F(2), F(2))], 2)


@st.composite
def small_configs(draw):
    # coordinates in [-2, 2] over denominators {1, 2}: duplicates, n < d+1
    # and dependent subsets at every size all occur
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, d + 7))
    coord = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2)))
    coord = coord.filter(lambda x: abs(x) <= 2)
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n))
    return points, d


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=small_configs())
def test_general_position_matches_oracle(case):
    points, d = case
    assert general_position(points, d) == position_oracle.general_position(
        points, d)


def affine_combination(rng, points):
    """A seeded point of the affine hull of ``points`` (one point: itself)."""
    weights = [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
               for _ in points[1:]]
    weights.insert(0, 1 - sum(weights))
    return tuple(sum(w * p[t] for w, p in zip(weights, points))
                 for t in range(len(points[0])))


def test_planted_dependencies_are_found():
    # a point replaced by an affine combination of k <= d others: first,
    # middle and last point, and the point right after its k partners,
    # so the dependent subset's pivot prefix has every length
    rng = random.Random(5)
    checked = 0
    for d, r in ((1, 3), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)):
        for seed in range(3):
            cfg = random_config(d, r, seed)
            n = cfg.n
            plants = [(at, rng.sample([i for i in range(n) if i != at], k))
                      for at in (0, n // 2, n - 1) for k in range(1, d + 1)]
            plants += [(k, list(range(k))) for k in range(1, d + 1)]
            for at, others in plants:
                pts = list(cfg.points)
                pts[at] = affine_combination(rng, [pts[i] for i in others])
                assert not position_oracle.general_position(pts, d)
                assert not general_position(pts, d)
                checked += 1
    assert checked == 3 * 4 * (1 + 2 + 3 + 3 + 4 + 5)


def moment_curve(ts, d):
    return [tuple(F(t) ** k for k in range(1, d + 1)) for t in ts]


def test_moment_curve_is_in_general_position():
    # any d+1 points (t, ..., t^d), distinct t, lift to a Vandermonde matrix
    d, n = 6, 22
    ts = random.Random(7).sample(range(-30, 30), n)
    pts = moment_curve(ts, d)
    assert general_position(pts, d)
    for at in (0, n // 2, n - 1):
        others = [pts[i] for i in range(n) if i != at][:d]
        moved = list(pts)
        moved[at] = affine_combination(random.Random(at), others)
        assert not general_position(moved, d)


@pytest.mark.parametrize("build", [
    lambda s: random_config(3, 5, s),
    lambda s: example2(3, 5, F(1, 100), s),
    lambda s: example1(3, 3, F(1, 100), s),
    lambda s: random_config(8, 2, s),
], ids=["random_config(3,5)", "example2(3,5)", "example1(3,3)",
        "random_config(8,2)"])
def test_generators_match_under_the_oracle(build, monkeypatch):
    seeds = range(3)
    got = [build(s) for s in seeds]
    monkeypatch.setattr(gen, "general_position",
                        position_oracle.general_position)
    assert [build(s) for s in seeds] == got


def test_random_config_shape_and_determinism():
    for (d, r) in ((1, 2), (2, 3), (3, 2), (2, 4)):
        cfg = random_config(d, r, seed=42)
        assert cfg.n == (r - 1) * (d + 1) + 1
        assert cfg.is_full
        assert all(len(p) == d for p in cfg.points)
        assert general_position(cfg.points, d)
        again = random_config(d, r, seed=42)
        assert again == cfg
        other = random_config(d, r, seed=43)
        assert other != cfg
    with pytest.raises(ValueError):
        random_config(0, 2, seed=0)
    with pytest.raises(ValueError):
        random_config(1, 1, seed=0)


def test_example1_centroid_is_surrounded():
    cfg, m = example1(2, 3)
    assert m == frozenset({0})
    assert cfg.n == 7
    assert cfg.points[0] == (F(1, 3), F(1, 3))
    assert general_position(cfg.points, 2)
    res = check_separation(cfg, m)
    assert isinstance(res, NotSeparated)
    # the witness is a common point of both hulls, here the centroid itself
    assert res.point == cfg.points[0]
    assert sum(res.m_weights.values()) == 1
    assert sum(res.rest_weights.values()) == 1


def test_example1_determinism_and_eps():
    a, _ = example1(2, 3, eps=F(1, 100), seed=7)
    b, _ = example1(2, 3, eps=F(1, 100), seed=7)
    assert a == b
    c, _ = example1(2, 3, eps=F(1, 1000), seed=7)
    assert c != a
    # every cluster point stays within eps of its vertex in max norm
    verts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    idx = 1
    for v in verts:
        for _ in range(2):
            p = a.points[idx]
            assert max(abs(p[t] - v[t]) for t in range(2)) <= F(1, 100)
            idx += 1
    with pytest.raises(ValueError):
        example1(2, 3, eps=F(0))
    with pytest.raises(ValueError):
        example1(0, 3)


def test_example2_cluster_is_separated():
    cfg, m = example2(2, 3)
    assert m == frozenset({0, 1, 2})
    assert cfg.n == 7
    res = check_separation(cfg, m)
    assert isinstance(res, Separated)
    # strictness: every m point strictly above, every other strictly below
    from tvpm.linalg import vdot
    for i in range(cfg.n):
        v = vdot(res.normal, cfg.points[i])
        if i in m:
            assert v > res.offset
        else:
            assert v < res.offset
    with pytest.raises(ValueError):
        example2(1, 1)


def test_separated_subset_is_separated():
    for (d, r, seed) in ((1, 2, 0), (2, 3, 1), (3, 2, 2), (2, 4, 3)):
        cfg = random_config(d, r, seed=100 + seed)
        assert separated_subset(cfg, 0, seed) == frozenset()
        for k in range(1, cfg.n):
            m = separated_subset(cfg, k, seed)
            assert len(m) == k
            assert isinstance(check_separation(cfg, m), Separated)
    cfg = random_config(1, 2, seed=0)
    with pytest.raises(ValueError):
        separated_subset(cfg, cfg.n + 1, 0)
    with pytest.raises(ValueError):
        separated_subset(cfg, -1, 0)


def test_separated_subset_determinism():
    cfg = random_config(2, 3, seed=9)
    assert separated_subset(cfg, 3, 17) == separated_subset(cfg, 3, 17)
