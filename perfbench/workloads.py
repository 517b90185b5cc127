"""Workload inputs, op lists and the oracles that check every op's output.

Each workload's set-up writes its input files through the same CLI the
ops use (``gen``, ``example``), except the colored classes, which this file
draws itself, and returns the fixed op list that one pass runs.

The oracles come from outside the code under test: partition counts from a
recurrence over part sizes (not ``tvpm.search.proper_partitions``), the
spectrum's guaranteed range, ``verify`` on every certificate, and the
negative set that the certificate's ``alternative`` field promises.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

# Sizes are fixed per workload; "toy" is the smoke-test scale.
SIZES = {
    "scan": {
        # search: example --kind 1 (the centroid is never the lone
        # negative, so every partition is scanned); spectrum: gen, r = 2.
        "full": {"search_d": 3, "search_r": 3, "spectrum_d": 8,
                 "instances": 2},
        "toy": {"search_d": 2, "search_r": 3, "spectrum_d": 3,
                "instances": 1},
    },
    "solve": {
        # in_m: gen configs with a separated 2-index m; complement:
        # example --kind 2, whose clusters force the complement.
        "full": {"d": 3, "r": 5, "in_m": 12, "complement": 6},
        "toy": {"d": 2, "r": 3, "in_m": 1, "complement": 1},
    },
    "colored": {
        # (r-1)d+1 classes of r points in R^d; r = 5 is the lift cap.
        "full": {"d": 2, "r": 5, "instances": 12},
        "toy": {"d": 2, "r": 3, "instances": 1},
    },
}

# Which op kinds the two per-op latency metrics report, per workload.
OP_KINDS = {
    "scan": ("search", "spectrum"),
    "solve": ("solve", "verify"),
    "colored": ("colored", "verify"),
}

COLORED_M = "0,1,2"
NUM_RANGE = 10 ** 6
DEN = 1000


@dataclass
class Op:
    """One in-process ``tvpm.cli.main(argv)`` call of the op list."""

    kind: str
    argv: list
    check: object  # check(exit_code, stdout) -> problem text or None
    save_to: object = None  # path the stdout is written to, for verify


@dataclass
class Workload:
    inputs: list  # generated input files
    ops: list
    # One cheap CLI command of the workload, also timed as its own process.
    process_argv: list


def count_partitions(n, r, cap):
    """Partitions of n labelled points into r unlabelled parts of sizes
    1..cap, counted by the size of the part holding the lowest point."""
    ways = [[0] * (r + 1) for _ in range(n + 1)]
    ways[0][0] = 1
    for m in range(1, n + 1):
        for k in range(1, r + 1):
            ways[m][k] = sum(comb(m - 1, s - 1) * ways[m - s][k - 1]
                             for s in range(1, min(cap, m) + 1))
    return ways[n][r]


def instance_seeds(workload, seed, k):
    rng = random.Random("%s:%d" % (workload, seed))
    return [rng.randrange(2 ** 31) for _ in range(k)]


def _expect(code, out, want_code, **fields):
    """The stdout's JSON object if the exit code and fields are as expected,
    else the problem as a string."""
    if code != want_code:
        return "exit code %r, expected %d" % (code, want_code)
    try:
        obj = json.loads(out)
    except ValueError:
        obj = None
    if not isinstance(obj, dict):
        return "stdout is not a JSON object"
    for key, want in fields.items():
        if obj.get(key) != want:
            return "%s = %r, expected %r" % (key, obj.get(key), want)
    return obj


def check_search(scanned):
    def check(code, out):
        got = _expect(code, out, 1, result="not_found",
                      partitions_scanned=scanned)
        return got if isinstance(got, str) else None
    return check


def check_spectrum(d):
    def check(code, out):
        got = _expect(code, out, 0, result="spectrum",
                      partitions_scanned=2 ** (d + 1) - 1)
        if isinstance(got, str):
            return got
        # Containment only: equality is the claim criterion 6 refutes.
        need = set(range((d + 2) // 2 + 1))
        if not need <= set(got.get("achievable", ())):
            return "achievable %r misses %r" % (got.get("achievable"),
                                                sorted(need))
        return None
    return check


def check_signs(kind, alternatives, m, n, forced=None):
    """Certificate whose negatives are m or its complement, as the
    ``alternative`` field says (alternatives = (m name, complement name))."""
    m = sorted(m)
    rest = sorted(set(range(n)) - set(m))

    def check(code, out):
        got = _expect(code, out, 0, kind=kind)
        if isinstance(got, str):
            return got
        alt = got.get("alternative")
        if alt not in alternatives or (forced and alt != forced):
            return "alternative %r" % (alt,)
        want = m if alt == alternatives[0] else rest
        if got.get("negatives") != want:
            return "negatives %r, expected %r for %s" % (
                got.get("negatives"), want, alt)
        return None
    return check


def check_valid(code, out):
    got = _expect(code, out, 0, result="valid")
    return got if isinstance(got, str) else None


def setup_scan(tv, call, work, seed, size):
    p = SIZES["scan"][size]
    d, r, sd = p["search_d"], p["search_r"], p["spectrum_d"]
    n = (r - 1) * (d + 1) + 1
    scanned = count_partitions(n, r, d + 1)
    seeds = instance_seeds("scan", seed, p["instances"])
    inputs, ops = [], []
    for i, s in enumerate(seeds):
        ex = str(work / ("example%d.json" % i))
        cfg = str(work / ("gen%d.json" % i))
        call(["example", "--kind", "1", "--d", str(d), "--r", str(r),
              "--seed", str(s), "--out", ex])
        call(["gen", "--d", str(sd), "--r", "2", "--seed", str(s),
              "--out", cfg])
        inputs += [ex, cfg]
        ops.append(Op("search", ["search", "--input", ex, "--prescribe", "0"],
                      check_search(scanned)))
        ops.append(Op("spectrum", ["spectrum", "--input", cfg],
                      check_spectrum(sd)))
    # The scan has no certificate to verify; its process is input making.
    return Workload(inputs, ops,
                    ["gen", "--d", str(sd), "--r", "2", "--seed", str(seeds[0])])


def setup_solve(tv, call, work, seed, size):
    p = SIZES["solve"][size]
    d, r = p["d"], p["r"]
    n = (r - 1) * (d + 1) + 1
    k_in = p["in_m"]
    seeds = instance_seeds("solve", seed, k_in + p["complement"])
    inputs, ops = [], []
    for i, s in enumerate(seeds):
        cfg = str(work / ("cfg%d.json" % i))
        cert = str(work / ("cert%d.json" % i))
        if i < k_in:
            call(["gen", "--d", str(d), "--r", str(r), "--seed", str(s),
                  "--out", cfg])
            with open(cfg) as fh:
                config = tv.core.config_from_json(json.load(fh))
            m = sorted(tv.gen.separated_subset(config, 2, s))
            forced = None
        else:
            call(["example", "--kind", "2", "--d", str(d), "--r", str(r),
                  "--seed", str(s), "--out", cfg])
            with open(cfg) as fh:
                m = sorted(json.load(fh)["m"])
            forced = "complement"
        inputs.append(cfg)
        ops.append(Op("solve",
                      ["solve", "--input", cfg, "--m", ",".join(map(str, m))],
                      check_signs("certificate", ("in_m", "complement"),
                                  m, n, forced),
                      save_to=cert))
        ops.append(Op("verify", ["verify", "--input", cfg, "--cert", cert],
                      check_valid))
    return Workload(inputs, ops, ops[1].argv)


def random_classes(rng, d, r):
    """(r-1)d+1 classes of r distinct points, coordinates num/1000."""
    seen = set()
    classes = []
    for _ in range((r - 1) * d + 1):
        group = []
        while len(group) < r:
            p = tuple(Fraction(rng.randint(-NUM_RANGE, NUM_RANGE), DEN)
                      for _ in range(d))
            if p not in seen:
                seen.add(p)
                group.append([str(x) for x in p])
        classes.append(group)
    return classes


def setup_colored(tv, call, work, seed, size):
    p = SIZES["colored"][size]
    d, r = p["d"], p["r"]
    n = (r - 1) * d + 1
    m = [int(i) for i in COLORED_M.split(",")]
    inputs, ops = [], []
    for i, s in enumerate(instance_seeds("colored", seed, p["instances"])):
        path = str(work / ("classes%d.json" % i))
        cert = str(work / ("ccert%d.json" % i))
        doc = {"schema": "tvpm/1", "kind": "color_classes", "d": d, "r": r,
               "classes": random_classes(random.Random(s), d, r)}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        inputs.append(path)
        ops.append(Op("colored", ["colored", "--input", path, "--m", COLORED_M],
                      check_signs("colored_certificate",
                                  ("m_negative", "m_positive"), m, n),
                      save_to=cert))
        ops.append(Op("verify", ["verify", "--input", path, "--cert", cert],
                      check_valid))
    return Workload(inputs, ops, ops[1].argv)


SETUPS = {"scan": setup_scan, "solve": setup_solve, "colored": setup_colored}
