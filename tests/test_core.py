"""Intersections checked against the block-system oracle, certificates."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tvpm.check import verify_certificate
from tvpm.core import (
    PointConfig,
    canonical_partition,
    certificate_from_json,
    certificate_to_json,
    config_from_json,
    config_to_json,
    intersect_affine_hulls,
    make_certificate,
    validate_partition,
)
from tvpm.gen import random_config
from tvpm.sarkaria import PMCertificate, tverberg_pm
from tvpm.search import proper_partitions

import verify_oracle
from linalg_oracle import block_intersection, block_system

F = Fraction


def line_config():
    return PointConfig(d=1, r=2, points=((F(0),), (F(1),), (F(2),)))


def test_config_validation():
    with pytest.raises(ValueError):
        PointConfig(d=0, r=2, points=((F(1),),))
    with pytest.raises(ValueError):
        PointConfig(d=1, r=1, points=((F(1),),))
    with pytest.raises(ValueError):
        PointConfig(d=1, r=2, points=((F(1),), (F(1),)))  # duplicates
    # equal values written differently are still duplicates
    for points in (((F(1, 2),), ("2/4",), (F(1),)), ((1,), (F(1),), (2,))):
        with pytest.raises(ValueError, match="points must be distinct"):
            PointConfig(d=1, r=2, points=points)
    with pytest.raises(ValueError, match="points must be distinct"):
        config_from_json({"d": 1, "r": 2,
                          "points": [["1/2"], ["1"], ["2/4"]]})
    with pytest.raises(ValueError):
        PointConfig(d=2, r=2, points=((F(1),),))  # wrong dim
    cfg = line_config()
    assert cfg.n == 3 and cfg.full_size == 3 and cfg.is_full


def test_canonical_partition_ordering():
    assert canonical_partition([(2, 0), (1,)]) == ((0, 2), (1,))
    assert canonical_partition([[3], [1, 2], [0]]) == ((0,), (1, 2), (3,))


def test_validate_partition_errors():
    cfg = line_config()
    with pytest.raises(ValueError):
        validate_partition(cfg, ((0, 1, 2),))  # wrong part count
    with pytest.raises(ValueError):
        validate_partition(cfg, ((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        validate_partition(cfg, ((0,), (1,)))  # missing index
    with pytest.raises(ValueError):
        validate_partition(cfg, ((0, 1, 2), ()))  # empty part


def test_build_system_small_line():
    cfg = line_config()
    m, b, col_point = block_system(cfg, ((0, 2), (1,)))
    assert col_point == [0, 2, 1]
    assert m == [
        [F(0), F(2), F(0), F(-1)],
        [F(1), F(1), F(0), F(0)],
        [F(0), F(0), F(1), F(-1)],
        [F(0), F(0), F(1), F(0)],
    ]
    assert b == [F(0), F(1), F(0), F(1)]


def test_build_system_column_structure():
    # column i restricted to its part's block rows must read (a_i, 1)
    cfg = random_config(2, 3, seed=5)
    partition = next(proper_partitions(cfg.n, cfg.r, cfg.d))
    m, b, col_point = block_system(cfg, partition)
    row0 = 0
    for part in partition:
        for i in part:
            col = col_point.index(i)
            block = [m[row0 + t][col] for t in range(cfg.d + 1)]
            assert tuple(block[:cfg.d]) == cfg.points[i]
            assert block[cfg.d] == 1
        row0 += cfg.d + 1


def test_rhs_ones_positions():
    # ones exactly at positions (d+1), 2(d+1), ..., r(d+1), 1-indexed
    cfg = random_config(2, 3, seed=6)
    partition = next(proper_partitions(cfg.n, cfg.r, cfg.d))
    _, b, _ = block_system(cfg, partition)
    expect = {j * (cfg.d + 1) - 1 for j in range(1, cfg.r + 1)}
    for pos, val in enumerate(b):
        assert val == (1 if pos in expect else 0)


def test_intersect_line_examples():
    cfg = line_config()
    res = intersect_affine_hulls(cfg, ((0, 2), (1,)))
    assert res.kind == "point"
    assert res.cert.z == (F(1),)
    assert res.cert.alpha == {0: F(1, 2), 1: F(1), 2: F(1, 2)}
    assert res.cert.negatives == frozenset()
    assert block_intersection(cfg, ((0, 2), (1,))).det != 0

    res = intersect_affine_hulls(cfg, ((0, 1), (2,)))
    assert res.kind == "point"
    assert res.cert.z == (F(2),)
    assert res.cert.alpha == {0: F(-1), 1: F(2), 2: F(1)}
    assert res.cert.negatives == frozenset({0})


def test_intersect_parallel_lines_empty():
    cfg = PointConfig(d=2, r=2, points=(
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))))
    res = intersect_affine_hulls(cfg, ((0, 1), (2, 3)))
    assert res.kind == "empty"
    block = block_intersection(cfg, ((0, 1), (2, 3)))
    assert block.kind == "empty" and block.det == 0


def test_intersect_deficient_two_points():
    cfg = PointConfig(d=1, r=2, points=((F(0),), (F(1),)))
    res = intersect_affine_hulls(cfg, ((0,), (1,)))
    assert res.kind == "empty"
    # below (r-1)(d+1)+1 points the hulls can still meet in one point:
    # the third point lies on the line through the first two
    cfg = PointConfig(d=2, r=2, points=(
        (F(0), F(0)), (F(2), F(1)), (F(1, 2), F(1, 4))))
    res = intersect_affine_hulls(cfg, ((0, 1), (2,)))
    block = block_intersection(cfg, ((0, 1), (2,)))
    assert res.kind == block.kind == "point"
    assert res.cert.alpha == block.alpha == {0: F(3, 4), 1: F(1, 4), 2: 1}
    assert res.cert.z == block.z == (F(1, 2), F(1, 4))


def test_intersect_degenerate_overlapping_lines():
    # both hulls on the x-axis: consistent but underdetermined
    cfg = PointConfig(d=2, r=2, points=(
        (F(0), F(0)), (F(2), F(0)), (F(1), F(0)), (F(3), F(0))))
    res = intersect_affine_hulls(cfg, ((0, 1), (2, 3)))
    assert res.kind == "degenerate"
    assert block_intersection(cfg, ((0, 1), (2, 3))).kind == "degenerate"
    # on the real line each pair spans the whole space: no hull equations
    cfg = PointConfig(d=1, r=2, points=((F(0),), (F(1),), (F(2),), (F(3),)))
    assert intersect_affine_hulls(cfg, ((0, 1), (2, 3))).kind == "degenerate"
    assert block_intersection(cfg, ((0, 1), (2, 3))).kind == "degenerate"


def test_intersect_dependent_part():
    # {0, 1, 2} is affinely dependent: its coefficients are not unique,
    # so the partition is degenerate when the other part's hull meets its
    # line and empty when it does not.  On the real line {0, 1, 2} has no
    # hull equation, so the kernel part (3,) gives a 0 x 1 matrix N with
    # null vector (1), though n = 4 is above (r-1)(d+1)+1.
    line = ((F(0), F(0)), (F(1), F(0)), (F(2), F(0)))
    cases = [
        (PointConfig(d=2, r=2, points=line + ((F(3), F(0)),)), "degenerate"),
        (PointConfig(d=2, r=2, points=line + ((F(5), F(5)),)), "empty"),
        (PointConfig(d=1, r=2, points=((F(0),), (F(1),), (F(2),), (F(5),))),
         "degenerate"),
    ]
    for cfg, kind in cases:
        res = intersect_affine_hulls(cfg, ((0, 1, 2), (3,)))
        assert res.kind == kind and res.cert is None
        assert block_intersection(cfg, ((0, 1, 2), (3,))).kind == kind


def test_intersect_crossing_lines_zero_coefficient():
    # unique point but one coefficient vanishes: flagged, not negative
    cfg = PointConfig(d=2, r=2, points=(
        (F(0), F(0)), (F(2), F(0)), (F(1), F(0)), (F(1), F(1))))
    res = intersect_affine_hulls(cfg, ((0, 1), (2, 3)))
    assert res.kind == "point"
    assert res.cert.z == (F(1), F(0))
    assert res.cert.zero_set == frozenset({3})
    assert res.cert.negatives == frozenset()


def test_round_trip_property_random():
    rng = random.Random(101)
    combos = [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)]
    for trial in range(40):
        d, r = combos[trial % len(combos)]
        cfg = random_config(d, r, seed=300 + trial)
        parts = list(proper_partitions(cfg.n, r, d))
        partition = parts[rng.randrange(len(parts))]
        res = intersect_affine_hulls(cfg, partition)
        assert res.kind == "point"
        ok, problems = verify_certificate(cfg, partition, res.cert)
        assert ok, problems


@st.composite
def lattice_partitions(draw):
    """``(config, partition)``: n points of a small lattice in R^d split
    into r parts of 1..d+1 points, so every n from r to r(d+1) occurs.

    Lattice points make collinear and coplanar parts, and parts whose
    hulls are parallel or nested.  In half the cases every part's hull
    is built through one lattice point z: a part's last point is chosen so
    that z is an affine combination of the part with weights from
    {-1, 1, 2}, and the first singleton part is z itself.  Those
    partitions meet in z at every size, not only at (r-1)(d+1)+1.
    """
    d = draw(st.integers(1, 3))
    r = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, d + 1), min_size=r, max_size=r))
    n = sum(sizes)
    vec = st.tuples(*[st.integers(-3, 3)] * d)
    if draw(st.booleans()):
        z = draw(vec)
        pts = []
        for s in sizes:
            if s == 1:
                pts.append(z if z not in pts else draw(vec))
                continue
            qs = draw(st.lists(vec, min_size=s - 1, max_size=s - 1))
            ws = draw(st.lists(st.sampled_from((-1, 1, 2)),
                               min_size=s - 1, max_size=s - 1))
            total = sum(ws) + 1
            assume(total != 0)
            pts += qs
            pts.append(tuple(total * zc - sum(w * q[c] for w, q in zip(ws, qs))
                             for c, zc in enumerate(z)))
        assume(len(set(pts)) == n)
    else:
        pts = draw(st.lists(vec, min_size=n, max_size=n, unique=True))
    # the k-th drawn point gets index order[k]
    order = draw(st.permutations(range(n)))
    points = [None] * n
    for k, i in enumerate(order):
        points[i] = pts[k]
    bounds = [sum(sizes[:j]) for j in range(r + 1)]
    partition = tuple(tuple(order[k] for k in range(bounds[j], bounds[j + 1]))
                      for j in range(r))
    return PointConfig(d=d, r=r, points=tuple(points)), partition


def test_intersection_matches_block_system_at_every_size():
    """``intersect_affine_hulls`` gives the block-system oracle's kind,
    alpha and z for every partition size, and the off-size partitions
    that meet in one point are among the examples."""
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=lattice_partitions())
    def check(case):
        cfg, partition = case
        res = intersect_affine_hulls(cfg, partition)
        block = block_intersection(cfg, partition)
        assert res.kind == block.kind
        if res.kind == "point":
            assert res.cert.alpha == block.alpha
            assert res.cert.z == block.z
        else:
            assert res.cert is None
        seen[res.kind, cfg.is_full] += 1

    check()
    assert seen["point", False] >= 20, seen
    assert seen["empty", False] and seen["degenerate", False], seen


def test_singleton_part_coefficient_is_one():
    for trial in range(20):
        cfg = random_config(1, 3, seed=500 + trial)
        for partition in proper_partitions(cfg.n, 3, 1):
            res = intersect_affine_hulls(cfg, partition)
            if res.kind != "point":
                continue
            for part in partition:
                if len(part) == 1:
                    assert res.cert.alpha[part[0]] == 1


def test_sign_pattern_examples():
    c = make_certificate((F(1),), {0: F(1, 2), 1: F(1), 2: F(1, 2)})
    assert len(c.negatives) == 0 and c.negatives == frozenset()
    c = make_certificate((F(2),), {0: F(-1), 1: F(2), 2: F(1)})
    assert len(c.negatives) == 1 and c.negatives == {0}
    c = make_certificate((F(0),), {0: F(0), 1: F(1), 2: F(1)})
    assert len(c.negatives) == 0 and c.zero_set == {0}


def test_verify_catches_corruption():
    cfg = line_config()
    res = intersect_affine_hulls(cfg, ((0, 2), (1,)))
    good = res.cert
    ok, _ = verify_certificate(cfg, ((0, 2), (1,)), good)
    assert ok
    bad_alpha = dict(good.alpha)
    bad_alpha[0] += 1
    bad = make_certificate(good.z, bad_alpha)
    ok, problems = verify_certificate(cfg, ((0, 2), (1,)), bad)
    assert not ok
    assert any("coefficient sum" in p for p in problems)
    bad2 = make_certificate((good.z[0] + 1,), good.alpha)
    ok, problems = verify_certificate(cfg, ((0, 2), (1,)), bad2)
    assert not ok
    assert any("weighted sum" in p for p in problems)


def test_verify_reads_a_zero_coefficient_as_no_sign():
    # six points on a line and one off it: solve --m 0 puts z = (4, 0) on
    # the point 4 of the part {1, 4} and on the line through 0 and 3, so
    # alpha_1 = alpha_6 = 0, in zero_set and not in negatives
    cfg = PointConfig(d=2, r=3, points=[(i, 0) for i in range(6)] + [(6, 1)])
    res = tverberg_pm(cfg, frozenset({0}))
    cert, partition = res.cert, res.partition
    assert partition == ((0, 3, 6), (1, 4), (2, 5))
    assert (cert.zero_set, cert.negatives) == ({1, 6}, {0})
    args = (cfg, partition, cert, res.alternative, frozenset({0}), res.proper)
    assert verify_certificate(*args) == (True, [])
    signed = cert._replace(negatives=cert.negatives | {1})
    assert verify_certificate(cfg, partition, signed) == (
        False, ["negatives set does not match strict negatives of alpha"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(d=st.integers(1, 3), r=st.integers(2, 3), seed=st.integers(0, 10**6),
       edit=st.sampled_from(["none", "alpha", "z", "negatives", "zero_set",
                             "gamma"]),
       delta=st.builds(F, st.integers(1, 3) | st.integers(-3, -1),
                       st.integers(1, 6)),
       data=st.data())
def test_verify_matches_the_fraction_oracle(d, r, seed, edit, delta, data):
    # a solve certificate as written, or with one alpha or one z coordinate
    # moved, one index toggled in a sign set, or gamma zeroed: the integer
    # re-check gives the oracle's verdict and problems
    cfg = random_config(d, r, seed)
    m = data.draw(st.frozensets(st.integers(0, cfg.n - 1)))
    res = tverberg_pm(cfg, m, check_sep=False)
    assume(isinstance(res, PMCertificate))
    cert, partition, alternative = certificate_from_json(certificate_to_json(
        res.cert, res.partition, res.alternative, res.proper))
    if edit == "alpha":
        i = data.draw(st.integers(0, cfg.n - 1))
        cert = cert._replace(alpha={**cert.alpha, i: cert.alpha[i] + delta})
    elif edit == "z":
        k = data.draw(st.integers(0, d - 1))
        cert = cert._replace(z=cert.z[:k] + (cert.z[k] + delta,)
                             + cert.z[k + 1:])
    elif edit in ("negatives", "zero_set"):
        i = data.draw(st.integers(0, cfg.n - 1))
        cert = cert._replace(**{edit: getattr(cert, edit) ^ {i}})
    elif edit == "gamma":
        cert = cert._replace(gamma=F(0))
    args = (cfg, partition, cert, alternative, m, res.proper)
    got = verify_certificate(*args)
    assert got == verify_oracle.verify_certificate(*args)
    assert got[0] == (edit == "none")


def test_json_round_trips():
    cfg = random_config(2, 2, seed=9)
    obj = config_to_json(cfg)
    assert obj["schema"] == "tvpm/1"
    back = config_from_json(obj)
    assert back == cfg

    res = intersect_affine_hulls(
        cfg, next(proper_partitions(cfg.n, cfg.r, cfg.d)))
    cobj = certificate_to_json(res.cert, ((0, 1, 2), (3,)),
                               alternative="in_m")
    cert2, partition2, alt = certificate_from_json(cobj)
    assert cert2 == res.cert
    assert partition2 == ((0, 1, 2), (3,))
    assert alt == "in_m"


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        config_from_json({"d": 1, "r": 2})
    with pytest.raises(ValueError):
        config_from_json({"d": 1, "r": 2, "points": [["0.5"]]})
    with pytest.raises(ValueError):
        config_from_json([1, 2, 3])
    with pytest.raises(ValueError):
        certificate_from_json({"z": ["0"]})


def test_json_rejects_non_objects_and_boolean_dimensions():
    for doc in ([], [{"z": ["0"]}], 3, "certificate", None):
        with pytest.raises(ValueError):
            certificate_from_json(doc)
    for key in ("d", "r"):
        obj = {"d": 1, "r": 2, "points": [["0"], ["1"], ["2"]]}
        obj[key] = True
        with pytest.raises(ValueError):
            config_from_json(obj)
        obj[key] = 2.0
        with pytest.raises(ValueError):
            config_from_json(obj)
