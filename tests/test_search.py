"""Partition enumeration, brute-force search, spectrum, separation."""

import functools
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvpm import core, kernel, linalg, search
from tvpm.check import verify_certificate
from tvpm.cli import main
from tvpm.core import PointConfig, common_point, intersect_affine_hulls
from tvpm.gen import example1, random_config, separated_subset
from tvpm.linalg import vdot, weighted_sum
from tvpm.search import (
    NotSeparated,
    Separated,
    SpectrumResult,
    check_separation,
    overlap,
    proper_partitions,
    radon_spectrum,
    search_exact_k,
    search_prescribed,
)

from linalg_oracle import block_intersection, rank
from minnorm_oracle import min_norm_point_naive
from radon_oracle import radon_top
from scan_spectrum import scanned_spectrum
from separation_oracle import (
    assert_pair_corral_matches_gram,
    check_separation_gram,
)

F = Fraction
DATA = Path(__file__).resolve().parent / "data"


def naive_partitions(n, r, cap):
    """Independent enumerator: grow unordered set partitions block by
    block, then keep those with exactly r blocks of size <= cap."""
    def grow(idx, blocks):
        if idx == n:
            if len(blocks) == r:
                yield tuple(tuple(b) for b in blocks)
            return
        if len(blocks) + (n - idx) < r:
            return
        for b in blocks:
            b.append(idx)
            yield from grow(idx + 1, blocks)
            b.pop()
        blocks.append([idx])
        yield from grow(idx + 1, blocks)
        blocks.pop()

    for part in grow(0, []):
        if all(1 <= len(p) <= cap for p in part):
            yield part


def test_counts_small():
    got = list(proper_partitions(4, 2, 2))
    assert len(got) == 7
    shapes = sorted(tuple(sorted(map(len, p))) for p in got)
    assert shapes.count((1, 3)) == 4 and shapes.count((2, 2)) == 3
    got = list(proper_partitions(7, 3, 2))
    assert len(got) == 175
    shapes = [tuple(sorted(map(len, p))) for p in got]
    assert shapes.count((1, 3, 3)) == 70 and shapes.count((2, 2, 3)) == 105
    assert list(proper_partitions(3, 2, 0)) == []


def test_enumeration_matches_naive_and_is_unique():
    # the same partitions in the same order: the scan's first hit, its
    # scanned and skipped counts and the golden bytes all depend on it
    for n in range(1, 11):
        for r in range(2, 5):
            for d in range(0, 4):
                got = list(proper_partitions(n, r, d))
                assert len(set(got)) == len(got)
                assert got == list(naive_partitions(n, r, d + 1))


def test_enumeration_deterministic():
    a = list(proper_partitions(7, 3, 2))
    b = list(proper_partitions(7, 3, 2))
    assert a == b


def line_config():
    return PointConfig(d=1, r=2, points=((F(0),), (F(1),), (F(2),)))


def test_search_exact_k_line():
    cfg = line_config()
    res = search_exact_k(cfg, 0)
    assert res.found and res.cert.z == (F(1),)
    assert res.partition == ((0, 2), (1,))
    res = search_exact_k(cfg, 1)
    assert res.found and len(res.cert.negatives) == 1
    res = search_exact_k(cfg, 2)
    assert not res.found
    assert res.scanned == 3 and res.skipped == 0


def test_search_prescribed_line():
    cfg = line_config()
    res = search_prescribed(cfg, {2})
    assert res.found
    assert res.partition == ((0,), (1, 2))
    assert res.cert.z == (F(0),)
    assert res.cert.alpha == {0: F(1), 1: F(2), 2: F(-1)}
    res = search_prescribed(cfg, frozenset())
    assert res.found and res.cert.negatives == frozenset()


def test_search_found_certificates_verify():
    for trial in range(10):
        cfg = random_config(2, 2, seed=700 + trial)
        for k in (0, 1):
            res = search_exact_k(cfg, k)
            assert res.found
            ok, problems = verify_certificate(cfg, res.partition, res.cert)
            assert ok, problems
            assert len(res.cert.negatives) == k


def test_search_requires_full_size():
    cfg = PointConfig(d=1, r=2, points=((F(0),), (F(1),)))
    with pytest.raises(ValueError):
        search_exact_k(cfg, 0)
    with pytest.raises(ValueError):
        search_prescribed(cfg, {5})


def test_separation_line():
    cfg = line_config()
    res = check_separation(cfg, {2})
    assert isinstance(res, Separated)
    assert res.normal == (F(1),) and res.offset == F(3, 2)
    res = check_separation(cfg, {1})
    assert isinstance(res, NotSeparated)
    assert res.point == (F(1),)
    with pytest.raises(ValueError):
        check_separation(cfg, set())
    with pytest.raises(ValueError):
        check_separation(cfg, {0, 1, 2})


def test_overlap_divides_by_the_total_and_checks_both_sides():
    # the diagonals of the unit square cross at (1/2, 1/2); a zero weight
    # stays in the witness
    sq = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(2), F(2)))
    res = overlap(sq, {0: 3, 3: 3}, {1: 3, 2: 3, 4: 0})
    assert res == NotSeparated(point=(F(1, 2), F(1, 2)),
                               m_weights={0: F(1, 2), 3: F(1, 2)},
                               rest_weights={1: F(1, 2), 2: F(1, 2), 4: F(0)})
    # the totals differ: 6 on the m side, 5 on the rest
    with pytest.raises(AssertionError, match="totals"):
        overlap(sq, {0: 3, 3: 3}, {1: 2, 2: 3})
    # equal totals, but (1/2, 1/2) against (1/3, 2/3)
    with pytest.raises(AssertionError, match="different points"):
        overlap(sq, {0: 3, 3: 3}, {1: 2, 2: 4})


def test_separation_square_adjacent_corners():
    cfg = PointConfig(d=2, r=2, points=(
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))))
    res = check_separation(cfg, {0, 1})  # bottom edge vs top edge
    assert isinstance(res, Separated)


def test_separation_normal_is_max_margin():
    # The nearest point of the difference hull is the max-margin normal:
    # a - b for two points, and the edge normal for the square's edges.
    cfg = PointConfig(d=3, r=2, points=((F(3), F(1), F(2)),
                                        (F(1), F(1), F(-2))))
    res = check_separation(cfg, {0})
    assert res == Separated(normal=(F(1), F(0), F(2)), offset=F(2))
    cfg = PointConfig(d=2, r=2, points=(
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))))
    res = check_separation(cfg, {0, 1})
    assert res == Separated(normal=(F(0), F(-1)), offset=F(-1, 2))


def _separation_checked(cfg, m_set):
    """check_separation's result, after checking that its Wolfe run takes
    the steps of the explicit pair-Gram oracle's and that both results
    are equal, weight-dict key order included."""
    _, pts = cfg.scaled
    assert_pair_corral_matches_gram(
        [pts[i] for i in sorted(m_set)],
        [pts[j] for j in range(cfg.n) if j not in m_set])
    res = check_separation(cfg, m_set)
    want = check_separation_gram(cfg, m_set)
    assert res == want
    if isinstance(res, NotSeparated):
        assert list(res.m_weights) == list(want.m_weights)
        assert list(res.rest_weights) == list(want.rest_weights)
    return res


def _assert_separation_sound(cfg, m_set, res):
    rest = frozenset(range(cfg.n)) - frozenset(m_set)
    if isinstance(res, Separated):
        for i in m_set:
            assert vdot(res.normal, cfg.points[i]) > res.offset
        for j in rest:
            assert vdot(res.normal, cfg.points[j]) < res.offset
        # primitive integers, along the nearest point of the hull of the
        # differences (the subset oracle, on small pair counts)
        assert all(x.denominator == 1 for x in res.normal)
        assert gcd(*(x.numerator for x in res.normal)) == 1
        if len(m_set) * len(rest) <= 8:
            w = min_norm_point_naive(
                [tuple(a - b for a, b in zip(cfg.points[i], cfg.points[j]))
                 for i in sorted(m_set) for j in sorted(rest)])[0]
            t = next(t for t, x in enumerate(w) if x)
            c = res.normal[t] / w[t]
            assert c > 0
            assert res.normal == tuple(c * x for x in w)
    else:
        for weights, side in ((res.m_weights, m_set),
                              (res.rest_weights, rest)):
            # every index of the side, zero weights included
            assert set(weights) == set(side)
            assert sum(weights.values()) == 1
            assert all(w >= 0 for w in weights.values())
            comb = tuple(
                sum(w * cfg.points[i][t] for i, w in weights.items())
                for t in range(cfg.d)
            )
            assert comb == res.point


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), r=st.integers(2, 3),
       seed=st.integers(0, 10**6), data=st.data())
def test_separation_soundness_random(d, r, seed, data):
    cfg = random_config(d, r, seed=seed)
    m_set = data.draw(st.sets(st.integers(0, cfg.n - 1), min_size=1,
                              max_size=cfg.n - 1))
    _assert_separation_sound(cfg, m_set, _separation_checked(cfg, m_set))


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 4), data=st.data())
def test_separation_sound_on_lattice_points(d, data):
    # Small lattice coordinates: many ties, touching and nested hulls.
    pts = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                             min_size=2, max_size=8, unique=True))
    cfg = PointConfig(d=d, r=2, points=pts)
    m_set = data.draw(st.sets(st.integers(0, cfg.n - 1), min_size=1,
                              max_size=cfg.n - 1))
    _assert_separation_sound(cfg, m_set, _separation_checked(cfg, m_set))


@settings(max_examples=80, deadline=None)
@given(d=st.integers(2, 4), data=st.data())
def test_separation_hulls_touching_in_one_point(d, data):
    # The w = 0 boundary: c is a point of M, the midpoint of the segment
    # c -+ v of the rest inside the hyperplane <n, x> = <n, c>, and every
    # other point lies strictly on its side, so the hulls meet in c alone.
    vec = st.tuples(*[st.integers(-3, 3)] * d)
    c = data.draw(vec)
    n = data.draw(vec.filter(any))
    a = next(t for t in range(d) if n[t])
    b = (a + 1) % d
    v = [0] * d
    v[a], v[b] = -n[b], n[a]
    v = weighted_sum([data.draw(st.integers(1, 2))], [v])
    offsets = data.draw(st.lists(vec, max_size=6, unique=True))
    m_pts = [c] + [weighted_sum([1, 1], [c, o])
                   for o in offsets if vdot(n, o) > 0]
    rest_pts = [weighted_sum([1, 1], [c, v]),
                weighted_sum([1, -1], [c, v])] + [
        weighted_sum([1, 1], [c, o]) for o in offsets if vdot(n, o) < 0]
    pts = data.draw(st.permutations(m_pts + rest_pts))
    cfg = PointConfig(d=d, r=2, points=pts)
    m_set = {pts.index(p) for p in m_pts}
    res = _separation_checked(cfg, m_set)
    assert isinstance(res, NotSeparated)
    assert res.point == tuple(F(x) for x in c)
    _assert_separation_sound(cfg, m_set, res)


def test_separation_at_n45_matches_the_gram_oracle():
    # (3, 12), |M| = 22: 506 pairs, whose 506 x 506 Gram matrix only the
    # oracle builds; one separated M and one that is not.
    cfg = random_config(3, 12, seed=0)
    assert cfg.n == 45
    m_set = separated_subset(cfg, 22, 0)
    assert isinstance(_separation_checked(cfg, m_set), Separated)
    res = _separation_checked(cfg, set(range(22)))
    assert isinstance(res, NotSeparated)
    _assert_separation_sound(cfg, set(range(22)), res)


def test_radon_spectrum_line():
    cfg = line_config()
    res = radon_spectrum(cfg)
    assert res.achievable == {0, 1}
    assert res.scanned == 3


def test_radon_spectrum_random_planes():
    # The spectrum is {0..K} with K from the closed form in radon_oracle.
    # {0..floor((d+2)/2)} is achievable unless d is even and all Radon
    # weights are equal in size; k=3 at d=3 depends on the weights
    for d in (2, 3):
        for seed in range(5):
            cfg = random_config(d, 2, seed=1000 + seed)
            k, _, _ = radon_top(cfg.points)
            res = radon_spectrum(cfg)
            assert set(range((d + 2) // 2 + 1)) <= res.achievable
            assert res.achievable == set(range(k + 1))


def test_radon_spectrum_preconditions():
    with pytest.raises(ValueError):
        radon_spectrum(random_config(2, 3, seed=1))
    cfg = PointConfig(d=2, r=2, points=((F(0), F(0)), (F(1), F(0))))
    with pytest.raises(ValueError):
        radon_spectrum(cfg)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 6), seed=st.integers(0, 10 ** 6))
def test_radon_spectrum_closed_form_matches_the_scan(d, seed):
    cfg = random_config(d, 2, seed=seed)
    assert radon_spectrum(cfg) == scanned_spectrum(cfg)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 6), data=st.data())
def test_radon_spectrum_closed_form_matches_the_scan_on_lattice(d, data):
    # Small lattice coordinates: bipartitions with lambda(T) = 0 are
    # common, and so are zero Radon weights, where the scan is the answer.
    pts = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                             min_size=d + 2, max_size=d + 2, unique=True))
    cfg = PointConfig(d=d, r=2, points=pts)
    assert radon_spectrum(cfg) == scanned_spectrum(cfg)


def test_radon_spectrum_reads_lambda_and_scans_only_without_it(monkeypatch):
    # A Radon dependence with no zero entry answers the spectrum without
    # enumerating a bipartition or factoring a part, also when some
    # lambda(T) = 0 (the unit square has two such bipartitions); three
    # collinear points give lambda_3 = 0, and the scan.
    generic = random_config(4, 2, seed=6)
    square = PointConfig(d=2, r=2, points=(
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))))
    collinear = _collinear_config()
    want = [scanned_spectrum(cfg) for cfg in (generic, square, collinear)]
    assert want[1] == SpectrumResult(frozenset({0, 1}), 7, 2)
    calls = {"proper_partitions": 0, "hull_factor": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(search, "proper_partitions")
    counted(linalg, "hull_factor")
    assert radon_spectrum(generic) == want[0]
    assert radon_spectrum(square) == want[1]
    assert calls == {"proper_partitions": 0, "hull_factor": 0}
    assert radon_spectrum(collinear) == want[2]
    assert calls["proper_partitions"] == 1 and calls["hull_factor"] > 0


def _parity_configs():
    cases = [random_config(d, r, seed=seed)
             for d, r, seeds in ((1, 2, 3), (2, 2, 3), (3, 2, 2), (4, 2, 2),
                                 (5, 2, 3), (6, 2, 2), (2, 3, 2), (3, 3, 1),
                                 (2, 4, 1), (1, 4, 2))
             for seed in range(seeds)]
    cases.append(example1(2, 3, seed=4)[0])
    cases.append(PointConfig(d=2, r=2, points=(
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)))))
    cases.append(_collinear_config())
    # lattice points off general position: parallel parts give "empty"
    # partitions, dependent parts "degenerate" ones
    cases += [_lattice_config(d, r, seed, span)
              for d, r, seed, span in ((2, 3, 2, 2), (2, 3, 3, 2),
                                       (3, 2, 0, 1), (2, 2, 0, 1))]
    # a collinear triple among lattice points: (3, 3, 3) partitions whose
    # kernel part (0, 1, 2) is affinely dependent
    cases.append(_lattice_config(3, 3, 0, 2,
                                 [(0, 0, 0), (1, 1, 1), (2, 2, 2)]))
    # the moment curve: general position, but chords t + u = t' + u' are
    # parallel, and 13 partitions are skipped
    cases.append(PointConfig(d=2, r=3,
                             points=[(t, t * t) for t in range(1, 8)]))
    return cases


def _lattice_config(d, r, seed, span, points=()):
    """n = (r-1)(d+1)+1 distinct points of {-span..span}^d: ``points``,
    then seeded ones."""
    rng = random.Random(seed)
    points = list(points)
    while len(points) < (r - 1) * (d + 1) + 1:
        p = tuple(rng.randint(-span, span) for _ in range(d))
        if p not in points:
            points.append(p)
    return PointConfig(d=d, r=r, points=points)


def _collinear_config():
    # three collinear points: some parts are affinely dependent
    return PointConfig(d=2, r=2, points=(
        (F(0), F(0)), (F(1), F(1)), (F(2), F(2)), (F(1, 2), F(3))))


@functools.cache
def _block_scan(cfg):
    """Per proper partition, in scan order: (partition, block system's
    intersection, its negatives or None)."""
    out = []
    for partition in proper_partitions(cfg.n, cfg.r, cfg.d):
        block = block_intersection(cfg, partition)
        negatives = (None if block.kind != "point" else frozenset(
            i for i, a in block.alpha.items() if a < 0))
        out.append((partition, block, negatives))
    return out


def _negatives(points, partition, memo, kernel, x):
    """The indices flagged negative at a point partition's common point,
    read from ``common_point``'s kernel part and x and from ``memo``'s
    coefficient matrices: the signs of x on the kernel part, of coef y on
    the others, y = sum x_i (p_i, 1)."""
    y = [vdot(x, c) for c in zip(*[points[i] for i in kernel])] + [sum(x)]
    flags = [(kernel, [v < 0 for v in x])]
    flags += [(part, [vdot(row, y) < 0 for row in memo[part][0]])
              for part in partition if part is not kernel]
    return [i for part, neg in flags for i, n in zip(part, neg) if n]


def _collector(cfg, seen):
    """An ``accept`` for ``search._scan`` that reads every part of every
    partition, appends the set of indices flagged negative to ``seen``,
    and accepts none."""
    def collect(j, part, flags):
        if not j:
            seen.append(set())
        seen[-1].update(i for i, neg in zip(part, flags) if neg)
        return j < cfg.r - 1
    return collect


def test_part_factored_scan_matches_block_system():
    skips = 0
    kinds = set()
    for cfg in _parity_configs():
        _, points = cfg.scaled
        memo = {}
        want = []  # per partition: the block system's negatives, or None
        for partition, block, negatives in _block_scan(cfg):
            want.append(negatives)
            res = intersect_affine_hulls(cfg, partition)
            assert res.kind == block.kind, partition
            if res.cert is not None:
                assert res.cert.alpha == block.alpha, partition
                assert res.cert.z == block.z, partition
            kinds.add(block.kind)
            for m in ({}, memo):
                kind, kernel, x = common_point(points, partition, m)
                assert kind == block.kind, partition
                assert (x is None) == (negatives is None), partition
                if x is not None:
                    got = _negatives(points, partition, m, kernel, x)
                    assert frozenset(got) == negatives, partition
        skips += want.count(None)

        seen = []
        res = search._scan(cfg, _collector(cfg, seen))
        points_only = [w for w in want if w is not None]
        assert [frozenset(s) for s in seen] == points_only
        assert res.scanned == len(want) and res.skipped == want.count(None)

        # search_exact_k against a loop over the block systems
        partitions = list(proper_partitions(cfg.n, cfg.r, cfg.d))
        for k in range(cfg.n + 1):
            res = search_exact_k(cfg, k)
            hit = next((pos for pos, w in enumerate(want)
                        if w is not None and len(w) == k), None)
            if hit is None:
                assert not res.found
                assert res.scanned == len(want)
                assert res.skipped == want.count(None)
            else:
                assert res.found and res.partition == partitions[hit]
                assert res.scanned == hit + 1
                assert res.skipped == want[:hit].count(None)
                assert res.cert.negatives == want[hit]
                ok, problems = verify_certificate(cfg, res.partition, res.cert)
                assert ok, problems
    assert skips > 0
    assert kinds == {"point", "empty", "degenerate"}


def test_the_parity_set_reaches_every_kernel_case():
    # Counted from the block system and the part sizes alone, per case the
    # partitions whose kernel part (the first of least size) is affinely
    # dependent, has a zero coefficient (on its last index: the null
    # vector's free column is then not the last), meets the others in
    # nothing, or ties with another part on size.
    cases = Counter()
    for cfg in _parity_configs():
        for partition, block, _ in _block_scan(cfg):
            sizes = [len(part) for part in partition]
            kernel = partition[sizes.index(min(sizes))]
            lifted = [cfg.points[i] + (1,) for i in kernel]
            cases["dependent"] += rank(lifted) < len(kernel)
            if block.kind == "point":
                cases["zero"] += any(block.alpha[i] == 0 for i in kernel)
                cases["zero last"] += block.alpha[kernel[-1]] == 0
            cases["empty"] += block.kind == "empty"
            cases["tie"] += sizes.count(min(sizes)) > 1
    assert min(cases.values()) > 0, cases
    moment = _parity_configs()[-1]
    assert search._scan(moment, lambda j, part, flags: False).skipped == 13


def test_prescribed_scan_stops_at_the_block_systems_first_match():
    # search_prescribed rejects most partitions at their first part; it
    # must still return the first partition whose negatives are M, with
    # the same scanned and skipped counts as a loop over the block systems.
    rng = random.Random(17)
    for cfg in _parity_configs():
        rows = _block_scan(cfg)
        want = [negatives for _, _, negatives in rows]
        seen = sorted({tuple(sorted(w)) for w in want if w is not None})
        if len(seen) > 200:  # the two largest scans: a seeded sample
            seen = rng.sample(seen, 24)
        targets = ([frozenset(m) for m in seen] + [frozenset({0})]
                   + [frozenset(i for i in range(cfg.n) if rng.random() < 0.4)
                      for _ in range(3)])
        for m in targets:
            res = search_prescribed(cfg, m)
            hit = next((pos for pos, w in enumerate(want) if w == m), None)
            if hit is None:
                assert not res.found, m
                assert res.scanned == len(want)
                assert res.skipped == want.count(None)
                continue
            assert res.found and res.partition == rows[hit][0], m
            assert res.scanned == hit + 1
            assert res.skipped == want[:hit].count(None)
            assert res.cert.negatives == m
            ok, problems = verify_certificate(cfg, res.partition, res.cert)
            assert ok, problems


def test_r3_scan_classifies_each_partition_from_one_null_vector(monkeypatch):
    # A partition costs one in-place elimination, of the (s-1) x s matrix
    # of the other parts' equations at its kernel part's s points
    # (kernel.null_vector), and a part first seen outside the kernel one
    # more, for its hull factor; a part that is only ever a kernel part is
    # never factored, and no ff_solve copies a system or builds a Solution.
    cfg = random_config(2, 3, seed=5)
    partitions = list(proper_partitions(cfg.n, cfg.r, cfg.d))
    sizes = [min(map(len, partition)) for partition in partitions]
    parts = {part for partition, s in zip(partitions, sizes)
             for part in partition
             if part != next(q for q in partition if len(q) == s)}
    calls = {"ff_solve": 0, "null_vector": 0, "eliminate": 0}
    shapes = []

    def counted(name, inner):
        def wrapper(*args):
            calls[name] += 1
            if name == "null_vector":
                shapes.append((len(args[0]), args[1]))
            return inner(*args)
        return wrapper

    for module in (kernel, linalg, core, search):
        for name in calls:
            inner = getattr(module, name, None)
            if inner is not None:
                monkeypatch.setattr(module, name, counted(name, inner))
    # n = 7 negatives with r = 3 parts: never found, so the whole stream
    res = search_prescribed(cfg, set(range(cfg.n)))
    assert not res.found and res.scanned == len(partitions)
    assert calls == {"ff_solve": 0, "null_vector": len(partitions),
                     "eliminate": len(partitions) + len(parts)}
    assert shapes == [(s - 1, s) for s in sizes]
    assert set(sizes) == {1, 2}


def test_scan_outputs_match_golden_bytes(capsys):
    # search --k K for every K on gen at (2, 3) seed 1, (3, 3) seed 2 and
    # (2, 4) seed 3, search --prescribe 0 on example --kind 1 at (3, 3) and
    # spectrum's fallback scan on a Radon dependence with a zero entry,
    # recorded when each partition's stacked equations were eliminated
    runs = json.loads((DATA / "scan_golden.json").read_text())
    assert len(runs) == 31
    for run in runs:
        argv = [str(DATA / a) if a.endswith(".json") else a
                for a in run["argv"]]
        assert main(argv) == run["exit"], run["argv"]
        assert capsys.readouterr().out == run["stdout"], run["argv"]


def test_r2_scan_reads_signs_from_the_radon_dependence(monkeypatch):
    # A generic r = 2 configuration has a Radon dependence with no zero
    # entry, so its scan factors no part: only a found bipartition's part
    # outside its kernel part is factored, for its certificate.  Three
    # collinear points give lambda_3 = 0 and fall back to the part hulls.
    cfg = random_config(4, 2, seed=6)
    spectrum = radon_spectrum(cfg)
    found = [search_exact_k(cfg, k) for k in range(cfg.n + 1)]
    collinear = _collinear_config()
    fallback = radon_spectrum(collinear)
    hull_factor = linalg.hull_factor
    calls = []

    def counted(points):
        calls.append(points)
        return hull_factor(points)

    monkeypatch.setattr(linalg, "hull_factor", counted)
    assert radon_spectrum(cfg) == spectrum
    assert spectrum.achievable == set(range(radon_top(cfg.points)[0] + 1))
    assert not calls
    for k in range(cfg.n + 1):
        del calls[:]
        assert search_exact_k(cfg, k) == found[k]
        assert len(calls) == (1 if found[k].found else 0), k
    assert any(res.found for res in found)
    assert not all(res.found for res in found)

    del calls[:]
    assert radon_spectrum(collinear) == fallback
    assert calls
