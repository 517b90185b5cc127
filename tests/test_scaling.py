"""The integer core scales rational input once; these tests guard that.

- Golden traces: ``solve --trace`` and ``colored --trace`` on inputs with
  /1000 coordinates must print the recorded stdout and stderr byte for
  byte, so w and normsq come out unscaled (``tests/data/trace_*``, recorded
  with the all-Fraction implementation).
- Scaling a configuration by an integer leaves the solver's partition,
  alpha and negatives unchanged; translating it as well leaves alpha and
  the negatives of that partition unchanged.
- ``min_norm_point`` and ``pivot_to_origin`` on the integer scaling by D of
  non-integer rational input, with w and the trace unscaled by D, agree
  with the subset oracle on the rational points.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvpm.check import verify_certificate
from tvpm.cli import main
from tvpm.core import PointConfig, intersect_affine_hulls
from tvpm.gen import random_config, separated_subset
from tvpm.linalg import denominator_lcm, to_int, vdot
from tvpm.minnorm import Corral, min_norm_point
from tvpm.sarkaria import PMCertificate, pivot_to_origin, tverberg_pm

from minnorm_oracle import min_norm_point_naive, min_norm_point_scaled
from pivot_oracle import VectorColor

F = Fraction
DATA = Path(__file__).resolve().parent / "data"

GOLDEN = [
    ("solve", ["solve", "--input", "trace_config.json", "--m", "0,5"]),
    ("example", ["solve", "--input", "trace_example.json"]),
    ("colored", ["colored", "--input", "trace_classes.json"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_trace_matches_golden_bytes(name, argv, capsys):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--trace"]) == 0
    out, err = capsys.readouterr()
    assert out == (DATA / ("trace_%s.stdout" % name)).read_text()
    assert err == (DATA / ("trace_%s.stderr" % name)).read_text()
    assert err.count("\n") >= 5  # several pivots, not a one-step run


def transformed(cfg, scale, shift):
    return PointConfig(d=cfg.d, r=cfg.r, points=tuple(
        tuple(scale * x + t for x, t in zip(p, shift)) for p in cfg.points))


@settings(max_examples=30, deadline=None)
@given(
    dims=st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]),
    seed=st.integers(0, 10 ** 6),
    scale=st.integers(1, 10 ** 4),
    shift=st.lists(st.fractions(max_denominator=1000).filter(
        lambda x: abs(x) < 10 ** 4), min_size=3, max_size=3),
    m_size=st.integers(1, 2),
)
def test_solve_invariant_under_integer_scaling_and_translation(
        dims, seed, scale, shift, m_size):
    d, r = dims
    cfg = random_config(d, r, seed)
    m = separated_subset(cfg, min(m_size, r - 1), seed)
    base = tverberg_pm(cfg, m)
    assert isinstance(base, PMCertificate)

    # Scaling is uniform on the lift: the same pivots, the same answer.
    scaled = tverberg_pm(transformed(cfg, scale, (0,) * d), m)
    assert isinstance(scaled, PMCertificate)
    assert scaled.partition == base.partition
    assert scaled.cert.alpha == base.cert.alpha
    assert scaled.cert.negatives == base.cert.negatives
    assert scaled.alternative == base.alternative
    assert scaled.cert.z == tuple(scale * x for x in base.cert.z)

    # A translation changes the lift's geometry, so the pivots may reach
    # another partition; the coefficients of this one are affine
    # invariants, and the solver still meets its sign guarantee.
    moved = transformed(cfg, scale, shift[:d])
    direct = intersect_affine_hulls(moved, base.partition)
    assert direct.kind == "point"
    assert direct.cert.alpha == base.cert.alpha
    assert direct.cert.negatives == base.cert.negatives
    assert direct.cert.z == tuple(
        scale * x + t for x, t in zip(base.cert.z, shift))
    res = tverberg_pm(moved, m)
    assert isinstance(res, PMCertificate)
    ok, problems = verify_certificate(moved, res.partition, res.cert)
    assert ok, problems
    want = m if res.alternative == "in_m" else frozenset(range(cfg.n)) - m
    assert res.cert.negatives == want


def rational_points(rng, count, dim):
    return [tuple(F(rng.randint(-9, 9), rng.choice((2, 3, 7, 10)))
                  for _ in range(dim)) for _ in range(count)]


def test_min_norm_point_rational_input_matches_oracle():
    rng = random.Random(41)
    for _ in range(80):
        pts = rational_points(rng, rng.randint(1, 6), rng.randint(1, 4))
        # w = y / (q D), read from the run on the points times D
        w, wts = min_norm_point_scaled(pts)
        assert w == min_norm_point_naive(pts)[0]
        assert sum(wts.values()) == 1 and all(v > 0 for v in wts.values())
        assert w == tuple(sum(v * pts[i][c] for i, v in wts.items())
                          for c in range(len(w)))
        # the integer run from a corral over a given Gram matrix: same
        # weights, and w * D = y / q with y = sum lam[i] * ints[i]
        scale = denominator_lcm(pts)
        ints = to_int(pts, scale)
        corral = Corral([[vdot(p, q) for q in ints] for p in ints])
        assert min_norm_point(corral) is None
        assert {i: F(x, corral.q) for i, x in corral.lam.items()} == wts
        y = [sum(x * ints[i][c] for i, x in corral.lam.items())
             for c in range(len(w))]
        assert [F(a, corral.q) for a in y] == [scale * x for x in w]
        assert corral.nsq == vdot(y, y)
        assert corral.v == [vdot(y, p) for p in ints]


def test_pivot_to_origin_rational_sets_match_oracle():
    rng = random.Random(43)
    runs = 0
    while runs < 25:
        # colorful Caratheodory: dim + 1 colors in R^dim
        dim, size = rng.randint(1, 3), rng.randint(2, 4)
        ncolors = dim + 1
        sets = []
        for _ in range(ncolors):
            pts = rational_points(rng, size - 1, dim)
            # close each set around the origin: its mean is zero
            last = tuple(-sum(p[c] for p in pts) for c in range(dim))
            sets.append(tuple(pts) + (last,))
        # the sets times D as integer colours: the trace's y / (q D) is
        # the run on the rational sets
        scale = denominator_lcm([v for s in sets for v in s])
        steps = []
        choice, lam, q = pivot_to_origin(
            [VectorColor(to_int(s, scale)) for s in sets], [0] * ncolors,
            trace=lambda *a: steps.append(a))
        runs += 1
        for _, ch, y, nsq, den in steps:
            current = [sets[i][ch[i]] for i in range(ncolors)]
            w = tuple(F(c, den * scale) for c in y)
            assert w == min_norm_point_naive(current)[0]
            assert F(nsq, (den * scale) ** 2) == vdot(w, w)
        assert steps[-1][3] == 0 and tuple(steps[-1][1]) == choice
        total = tuple(sum(lam[i] * sets[i][choice[i]][c]
                          for i in range(ncolors)) for c in range(dim))
        assert total == (0,) * dim and sum(lam) == q
