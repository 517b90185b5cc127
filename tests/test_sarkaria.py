"""Lift construction, pivoting, and certificate recovery."""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvpm.check import verify_certificate
from tvpm.core import PointConfig, intersect_affine_hulls
from tvpm import kernel, linalg, minnorm, sarkaria
from tvpm.colored import PermutationColor
from tvpm.gen import example2, random_config, separated_subset
from tvpm.linalg import denominator_lcm, to_int, vdot, weighted_sum
from tvpm.sarkaria import (
    DegenerateGamma,
    PMCertificate,
    LiftColor,
    SeparationViolated,
    companion_simplex,
    lift,
    pivot_to_origin,
    recover,
    tverberg_pm,
)
from tvpm.search import search_prescribed

from linalg_oracle import rank
from pivot_oracle import VectorColor, cold_pivot_to_origin

F = Fraction


def test_companion_simplex_small():
    assert companion_simplex(2) == ((F(1),), (F(-1),))
    vs = companion_simplex(3)
    assert vs == ((F(1), F(0)), (F(0), F(1)), (F(-1), F(-1)))
    with pytest.raises(ValueError):
        companion_simplex(1)


def test_companion_simplex_unique_dependence():
    for r in (2, 3, 4, 5):
        vs = companion_simplex(r)
        total = weighted_sum([1] * r, vs)
        assert total == (0,) * (r - 1)
        # dropping any one vector leaves a linearly independent family
        for skip in range(r):
            rest = [list(v) for i, v in enumerate(vs) if i != skip]
            assert rank(rest) == r - 1


def line_config():
    return PointConfig(d=1, r=2, points=((F(0),), (F(1),), (F(2),)))


def test_lift_shapes_and_signs():
    cfg = line_config()
    sets = lift(cfg, frozenset())
    assert len(sets) == 3
    assert all(isinstance(s, LiftColor) for s in sets)
    # point 2, not flipped: tensors of (2, 1) with (1) and (-1)
    assert sets[2] == ((F(2), F(1)), (F(-2), F(-1)))
    flipped = lift(cfg, {2})
    assert flipped[2] == ((F(-2), F(-1)), (F(2), F(1)))
    assert flipped[0] == sets[0]
    with pytest.raises(ValueError):
        lift(PointConfig(d=1, r=2, points=((F(0),), (F(1),))), set())
    with pytest.raises(ValueError):
        lift(cfg, {7})


def test_lift_uniform_average_is_origin():
    for (d, r, seed) in ((1, 2, 0), (2, 3, 4), (3, 2, 9)):
        cfg = random_config(d, r, seed)
        sets = lift(cfg, separated_subset(cfg, r - 1, seed))
        for s in sets:
            assert len(s) == r
            for v in s:
                assert len(v) == cfg.n - 1
            total = weighted_sum([1] * r, s)
            assert total == (0,) * (cfg.n - 1)


def test_pivot_two_interval_colors():
    sets = (VectorColor(((-1,), (1,))), VectorColor(((-2,), (2,))))
    choice, lam, q = pivot_to_origin(sets, (0, 0))
    assert choice == (0, 1)
    assert (lam, q) == ((2, 1), 3)
    total = lam[0] * sets[0][choice[0]][0] + lam[1] * sets[1][choice[1]][0]
    assert total == 0


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), r=st.integers(2, 5), seed=st.integers(0, 10**6),
       data=st.data())
def test_lift_colour_scans_for_the_first_least_value(d, r, seed, data):
    # small entries make whole blocks of y vanish, so values tie; at
    # y = 0 every vector ties and index 0 must win
    cfg = random_config(d, r, seed)
    sets = lift(cfg, separated_subset(cfg, min(r - 1, 2), seed))
    i = data.draw(st.integers(0, cfg.n - 1))
    color = sets[i]
    assert isinstance(color, LiftColor) and len(color) == r
    drawn = data.draw(st.lists(st.integers(-2, 2), min_size=cfg.n - 1,
                               max_size=cfg.n - 1))
    for y in ([0] * (cfg.n - 1), drawn):
        values = [vdot(y, v) for v in color]
        j = values.index(min(values))
        assert color.most_opposed(y) == (j, color[j], values[j])
    assert color.most_opposed([0] * (cfg.n - 1))[0] == 0


def test_pivot_rejects_hull_without_origin():
    sets = (VectorColor(((1,), (2,))), VectorColor(((3,), (4,))))
    with pytest.raises(ValueError):
        pivot_to_origin(sets, (0, 0))


def test_pivot_trace_norm_strictly_decreases():
    cfg = random_config(2, 3, seed=77)
    norms = []
    tverberg_pm(cfg, separated_subset(cfg, 2, 77), check_sep=False,
                trace=lambda step, ch, y, nsq, q: norms.append(F(nsq, q * q)))
    assert norms[-1] == 0
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_full_pipeline_line_prescribed_last():
    cfg = line_config()
    res = tverberg_pm(cfg, {2})
    assert isinstance(res, PMCertificate)
    assert res.alternative == "in_m"
    assert res.partition == ((0,), (1, 2))
    assert res.cert.z == (F(0),)
    assert res.cert.alpha == {0: F(1), 1: F(2), 2: F(-1)}
    assert res.cert.gamma == F(1, 4)
    assert res.proper
    assert res.separation_warning is False
    oracle = search_prescribed(cfg, {2})
    assert oracle.found and oracle.partition == res.partition


def test_pipeline_empty_prescription_is_classical():
    for seed in range(5):
        cfg = random_config(2, 3, seed=1300 + seed)
        res = tverberg_pm(cfg, frozenset())
        assert isinstance(res, PMCertificate)
        assert res.cert.negatives == frozenset()
        assert res.alternative == "in_m"
        assert res.cert.gamma > 0


def test_pipeline_overlapping_prescription_yields_witness():
    # the middle of three collinear points cannot be split off
    cfg = line_config()
    res = tverberg_pm(cfg, {1})
    assert isinstance(res, SeparationViolated)
    assert res.common_point == (F(1),)
    assert res.m_weights == {1: F(1)}
    assert res.rest_weights == {0: F(1, 2), 2: F(1, 2)}
    assert sum(res.m_weights.values()) == 1
    assert sum(res.rest_weights.values()) == 1


def test_recover_gamma_zero_is_surfaced():
    # crafted zero transversal on the axis-parallel square: the per-part
    # sums agree with vanishing last coordinate, so no sign split exists
    sq = PointConfig(d=2, r=2, points=(
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))))
    res = recover(sq, {0, 2}, (0, 0, 1, 1), (1,) * 4, 4)
    assert isinstance(res, DegenerateGamma)


def test_solver_degenerate_gamma_carries_its_zero_transversal():
    # solve --m 0,3 on gen --d 2 --r 3 --seed 5 exits degenerate_gamma
    cfg = random_config(2, 3, seed=5)
    m = {0, 3}
    res = tverberg_pm(cfg, m)
    assert isinstance(res, DegenerateGamma)
    sets = lift(cfg, m)
    picked = [sets[i][j] for i, j in enumerate(res.choice)]
    assert weighted_sum(res.weights, picked) == (0,) * (cfg.n - 1)
    assert sum(res.weights) == 1


def test_prescribed_small_sets_match_search():
    rng = random.Random(55)
    for trial in range(12):
        d, r = [(1, 2), (2, 2), (1, 3), (2, 3)][trial % 4]
        cfg = random_config(d, r, seed=1500 + trial)
        size = rng.randint(1, r - 1)
        m = separated_subset(cfg, size, 400 + trial)
        res = tverberg_pm(cfg, m)
        assert isinstance(res, PMCertificate)
        assert res.alternative == "in_m"
        assert res.cert.negatives == m
        assert res.separation_warning is False
        ok, problems = verify_certificate(cfg, res.partition, res.cert)
        assert ok, problems
        oracle = search_prescribed(cfg, m)
        assert oracle.found
        # the recovered partition has the same intersection point
        direct = intersect_affine_hulls(cfg, res.partition)
        assert direct.kind == "point"
        assert direct.cert.z == res.cert.z
        assert direct.cert.alpha == res.cert.alpha


def test_large_prescription_dichotomy():
    for trial in range(8):
        d, r = [(1, 2), (2, 2)][trial % 2]
        cfg = random_config(d, r, seed=1700 + trial)
        m = separated_subset(cfg, r, 600 + trial)  # size r >= r
        res = tverberg_pm(cfg, m)
        assert isinstance(res, PMCertificate)
        complement = frozenset(range(cfg.n)) - m
        assert res.cert.negatives in (m, complement)
        if res.alternative == "in_m":
            assert res.cert.negatives == m
        else:
            assert res.cert.negatives == complement


def test_pipeline_runs_without_the_kernel(monkeypatch):
    # Wolfe's bordered solves and the separation test run on their own
    # integer updates: with every elimination made to fail once the
    # configurations are built, the solver returns the same certificates.
    cases = []
    for seed in (1, 2, 3):
        cfg = random_config(3, 5, seed=seed)
        cases.append((cfg, separated_subset(cfg, 2, seed)))
    cases.append(example2(3, 5, seed=1))
    want = [tverberg_pm(cfg, m) for cfg, m in cases]

    def eliminate(*args):
        raise AssertionError("kernel.eliminate called")

    monkeypatch.setattr(kernel, "eliminate", eliminate)
    monkeypatch.setattr(linalg, "eliminate", eliminate)
    for (cfg, m), expected in zip(cases, want):
        assert isinstance(expected, PMCertificate)
        assert expected.separation_warning is False
        assert tverberg_pm(cfg, m) == expected


def _warm_run(sets, init):
    # pivot_to_origin with the weights of every Wolfe result it reads
    # recorded; the trace gives each call's transversal
    steps, calls = [], []

    def record(corral):
        got = minnorm.min_norm_point(corral)
        calls.append((dict(corral.lam), corral.q))
        return got

    with mock.patch.object(sarkaria, "min_norm_point", record):
        result = pivot_to_origin(sets, init,
                                 trace=lambda *step: steps.append(step))
    return result, steps, calls


def _check_against_cold_replay(sets, init):
    """Assert the swap rule on every pivot of the warm run and its
    agreement with the cold replay, both on the integer contract; return
    the warm run's fallback steps and its result."""
    result, steps, calls = _warm_run(sets, init)
    fallbacks = []
    for (step, choice, *_), (_, after, *_), (lam, q) in zip(
            steps, steps[1:], calls):
        changed = [i for i, (a, b) in enumerate(zip(choice, after)) if a != b]
        assert len(changed) == 1
        current = [sets[i][choice[i]] for i in range(len(sets))]
        y = weighted_sum(list(lam.values()), [current[i] for i in lam])
        nsq = vdot(y, y)
        assert steps[step][2:] == (y, nsq, q)
        off = [i for i, p in enumerate(current) if vdot(y, p) * q > nsq]
        if off:
            # the smallest color strictly off <w, p> = |w|^2
            assert changed == off[:1]
        else:
            fallbacks.append(step)
            assert changed == [min(i for i in range(len(sets))
                                   if i not in lam)]
    cold, cold_steps, cold_fallbacks = cold_pivot_to_origin(sets, init)
    # a step's point w = y / q in lowest terms: two supports may weight
    # the same w differently
    steps, cold_steps = ([(step, choice, *_lowest(y, q))
                          for step, choice, y, _, q in run]
                         for run in (steps, cold_steps))
    if not fallbacks:
        assert not cold_fallbacks
        assert result == cold
        assert steps == cold_steps
    else:
        # the runs agree up to the first pivot where the rule reads the
        # support, which the warm corral and the cold start may differ on
        assert cold_fallbacks[0] == fallbacks[0]
        assert steps[:fallbacks[0] + 1] == cold_steps[:fallbacks[0] + 1]
    return fallbacks, result


def _lowest(y, q):
    """``(y, q)`` over gcd(q, *y): the integers of y / q in lowest terms."""
    g = gcd(q, *y)
    return tuple(c // g for c in y), q // g


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 4), r=st.integers(3, 5), seed=st.integers(0, 10**6),
       k=st.integers(0, 3))
def test_warm_pivots_match_the_cold_replay(d, r, seed, k):
    cfg = random_config(d, r, seed=seed)
    sets = lift(cfg, separated_subset(cfg, k, seed))
    n = len(sets)
    _check_against_cold_replay(sets, [i % r for i in range(n)])


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), r=st.integers(2, 5), seed=st.integers(0, 10**6))
def test_warm_colored_pivots_match_the_cold_replay(d, r, seed):
    rng = random.Random(seed)
    n = (r - 1) * d + 1
    groups = [[tuple(F(rng.randint(-999, 999), 10) for _ in range(d))
               for _ in range(r)] for _ in range(n)]
    scale = denominator_lcm([p for g in groups for p in g])
    vs = companion_simplex(r)
    sets = [PermutationColor(to_int(g, scale), rng.random() < 0.5, vs)
            for g in groups]
    _check_against_cold_replay(sets, [0] * n)


def test_swap_fallback_fires_and_the_certificate_verifies():
    # every color lies on <w, p> = |w|^2 at pivot 1 of this instance, so
    # the smallest color without weight is swapped
    cfg = random_config(2, 3, seed=17)
    m = separated_subset(cfg, 1, 17)
    sets = lift(cfg, m)
    fallbacks, _ = _check_against_cold_replay(
        sets, [i % 3 for i in range(cfg.n)])
    assert fallbacks == [1]
    res = tverberg_pm(cfg, m)
    assert isinstance(res, PMCertificate)
    ok, problems = verify_certificate(cfg, res.partition, res.cert,
                                      res.alternative, m, res.proper)
    assert ok, problems


def test_pivot_to_origin_keeps_one_bordered_system():
    # Wolfe's method warm-starts every pivot from the previous corral:
    # one bordered system per pivot_to_origin call, however many pivots
    built = []
    init = minnorm._Bordered.__init__

    def count(self, *args):
        built.append(args)
        init(self, *args)

    cfg = random_config(3, 5, seed=3)
    m = separated_subset(cfg, 2, 3)
    steps = []
    with mock.patch.object(minnorm._Bordered, "__init__", count):
        tverberg_pm(cfg, m, check_sep=False,
                    trace=lambda *step: steps.append(step))
    assert len(steps) > 5
    assert len(built) == 1
