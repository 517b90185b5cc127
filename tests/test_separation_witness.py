"""Solve certificates carry their separation witness, and verify checks it.

A ``solve`` certificate for a nonempty proper m holds ``separation``, the
witness that ``search.check_separation`` returned: a hyperplane
(``normal``, ``offset``) or an overlap (``point``, ``m_weights``,
``rest_weights``).  ``verify`` re-checks that witness in integers
(``check.separation_problems``) instead of running the separation test
again: each corrupted field is its own problem, a malformed witness is a
usage error, and on random instances the witness's kind is what the test
itself finds.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvpm import cli
from tvpm.gen import random_config
from tvpm.linalg import format_rat, parse_vec, vdot
from tvpm.search import Separated, check_separation


def run_main(argv):
    """``(exit code, stdout, stderr)`` of one in-process ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def solve(cfg_path, m):
    code, out, _ = run_main(["solve", "--input", cfg_path, "--m", m])
    assert code == 0
    return json.loads(out)


def verify(cfg_path, cert, directory):
    cert_path = Path(directory) / "cert.json"
    cert_path.write_text(json.dumps(cert))
    return run_main(["verify", "--input", cfg_path, "--cert", cert_path])


@pytest.fixture(scope="module")
def seed5(tmp_path_factory):
    """``gen --d 2 --r 3 --seed 5``: {0, 1} is separated from the rest,
    and conv{0, 4} meets the hull of the rest."""
    path = tmp_path_factory.mktemp("seed5") / "cfg.json"
    assert run_main(["gen", "--d", "2", "--r", "3", "--seed", "5",
                     "--out", path])[0] == 0
    return path


def test_solve_certificates_round_trip_both_witnesses(seed5, tmp_path):
    hyperplane = solve(seed5, "0,1")
    assert hyperplane["separation_warning"] is False
    assert set(hyperplane["separation"]) == {"normal", "offset"}
    overlap = solve(seed5, "0,4")
    assert overlap["separation_warning"] is True
    assert set(overlap["separation"]) == {"point", "m_weights",
                                          "rest_weights"}
    assert set(overlap["separation"]["m_weights"]) <= {"0", "4"}
    # the witness is what the separation command prints
    for cert, m in ((hyperplane, "0,1"), (overlap, "0,4")):
        _, out, _ = run_main(["separation", "--input", seed5, "--m", m])
        printed = json.loads(out)
        del printed["schema"], printed["result"]
        assert cert["separation"] == printed
        code, out, _ = verify(seed5, cert, tmp_path)
        assert code == 0 and json.loads(out)["result"] == "valid"


def _wrong_side(witness, points, m):
    """The indices that the hyperplane witness puts on the wrong side, or
    on the hyperplane itself, read in Fractions on the input points."""
    normal, offset = parse_vec(witness["normal"]), Fraction(witness["offset"])
    return [i for i, a in enumerate(points)
            if not (vdot(normal, a) > offset if i in m
                    else vdot(normal, a) < offset)]


def test_each_hyperplane_corruption_is_its_own_problem(seed5, tmp_path):
    points = random_config(2, 3, seed=5).points
    cert = solve(seed5, "0,1")
    normal = parse_vec(cert["separation"]["normal"])
    vals = [vdot(normal, a) for a in points]
    negated = dict(cert["separation"],
                   normal=[format_rat(-x) for x in normal])
    # halfway between the two points of m = {0, 1}: the lower one moves
    # to the wrong side
    low = min((0, 1), key=vals.__getitem__)
    moved = dict(cert["separation"],
                 offset=format_rat((vals[0] + vals[1]) / 2))
    assert _wrong_side(moved, points, {0, 1}) == [low]
    # through the lowest point of m, or the highest of the rest (the
    # max-margin normal may have several): the sides are strict
    top = max(vals[2:])
    touching = [dict(cert["separation"], offset=format_rat(v))
                for v in (vals[low], top)]
    assert [_wrong_side(w, points, {0, 1}) for w in touching] == [
        [low], [i for i in range(2, len(points)) if vals[i] == top]]
    for witness in [negated, moved] + touching:
        wrong = _wrong_side(witness, points, {0, 1})
        assert wrong
        code, out, _ = verify(seed5, dict(cert, separation=witness), tmp_path)
        assert code == 1
        assert json.loads(out)["problems"] == [
            "the hyperplane does not separate m from the rest at indices %s"
            % wrong]


def _negative_weight(witness):
    witness["m_weights"]["0"] = "-1"
    return ["m_weights: a weight is negative"]


def _weight_to_the_other_side(witness):
    key = sorted(witness["rest_weights"])[0]
    witness["m_weights"][key] = witness["rest_weights"].pop(key)
    # and the rest loses that weight
    return ["m_weights: indices [%s] lie off its side" % key,
            "rest_weights: coefficient sum", "rest_weights: weighted sum"]


def _side_not_summing_to_one(witness):
    witness["rest_weights"] = {i: format_rat(2 * Fraction(w))
                               for i, w in witness["rest_weights"].items()}
    return ["rest_weights: coefficient sum 2 != 1", "rest_weights: weighted"
            " sum"]


def _point_moved(witness):
    witness["point"][0] = format_rat(Fraction(witness["point"][0]) + 1)
    return ["m_weights: weighted sum", "rest_weights: weighted sum"]


@pytest.mark.parametrize("edit", [
    _negative_weight, _weight_to_the_other_side, _side_not_summing_to_one,
    _point_moved,
], ids=["negative-weight", "weight-to-the-other-side", "side-sum",
        "point-moved"])
def test_each_overlap_corruption_is_its_own_problem(seed5, tmp_path, edit):
    cert = solve(seed5, "0,4")
    want = edit(cert["separation"])
    code, out, _ = verify(seed5, cert, tmp_path)
    assert code == 1
    problems = json.loads(out)["problems"]
    assert len(problems) == len(want)
    for got, prefix in zip(problems, want):
        assert got.startswith(prefix)


@pytest.mark.parametrize("edit, message", [
    (lambda c: c["separation"]["m_weights"].update({"04": "0"}),
     "'m_weights' keys must be indices in decimal form"),
    (lambda c: c["separation"]["m_weights"].update({"x": "0"}),
     "'m_weights' keys must be indices in decimal form"),
    (lambda c: c.pop("separation"), "certificate JSON missing 'separation'"),
    (lambda c: c.pop("separation_warning"),
     "certificate JSON missing 'separation_warning'"),
    (lambda c: c["separation"].pop("rest_weights"),
     "separation JSON missing 'rest_weights'"),
    (lambda c: c.update(separation=[]), "separation JSON must be an object"),
    (lambda c: c["separation"]["point"].append("0"),
     "separation 'point' must have d entries"),
], ids=["non-canonical-key", "non-numeric-key", "no-separation",
        "no-separation-warning", "no-rest-weights", "not-an-object",
        "wrong-dimension"])
def test_malformed_witnesses_are_usage_errors(seed5, tmp_path, edit,
                                              message):
    cert = solve(seed5, "0,4")
    edit(cert)
    assert verify(seed5, cert, tmp_path) == (2, "", "error: %s\n" % message)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([(1, 3), (2, 3), (2, 4)]),
       st.integers(0, 10**6), st.data())
def test_the_witness_agrees_with_the_separation_test(dr, seed, data):
    d, r = dr
    n = (r - 1) * (d + 1) + 1
    m = data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                          max_size=n - 1))
    config = random_config(d, r, seed)
    with tempfile.TemporaryDirectory() as directory:
        cfg_path = Path(directory) / "cfg.json"
        assert run_main(["gen", "--d", d, "--r", r, "--seed", seed,
                         "--out", cfg_path])[0] == 0
        code, out, _ = run_main(["solve", "--input", cfg_path,
                                 "--m", ",".join(map(str, sorted(m)))])
        if code != 0:  # degenerate gamma or an overlap read off the pivots
            return
        cert = json.loads(out)
        separated = isinstance(check_separation(config, m), Separated)
        assert ("normal" in cert["separation"]) == separated
        assert cert["separation_warning"] is not separated
        code, out, _ = verify(cfg_path, cert, directory)
        assert code == 0 and json.loads(out)["result"] == "valid"
