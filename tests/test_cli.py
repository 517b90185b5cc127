"""End-to-end command-line tests through subprocesses."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tvpm import cli, gen, search
from tvpm.colored import ColorClasses, classes_to_json
from tvpm.core import dump_json

CMD = [sys.executable, "-m", "tvpm.cli"]
SRC = Path(__file__).resolve().parent.parent / "src"
# Child processes import this checkout's package, also when only pytest's
# own ``pythonpath`` setting put src/ on the path.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))


def run_cli(args, stdin=None):
    proc = subprocess.run(
        CMD + args, input=stdin, capture_output=True, text=True, env=ENV)
    return proc.returncode, proc.stdout, proc.stderr


def test_gen_solve_verify_round_trip(tmp_path):
    code, out, _ = run_cli(["gen", "--d", "2", "--r", "3", "--seed", "5"])
    assert code == 0
    cfg = json.loads(out)
    assert cfg["schema"] == "tvpm/1"
    assert len(cfg["points"]) == 7

    # {0, 1} is separated along a linear functional for this seed
    code, cert_text, _ = run_cli(["solve", "--m", "0,1"], stdin=out)
    assert code == 0
    cert = json.loads(cert_text)
    assert cert["kind"] == "certificate"
    assert cert["m"] == [0, 1]
    assert cert["negatives"] == [0, 1]
    assert cert["separation_warning"] is False

    cfg_path = tmp_path / "cfg.json"
    cert_path = tmp_path / "cert.json"
    cfg_path.write_text(out)
    cert_path.write_text(cert_text)
    code, verdict, _ = run_cli(
        ["verify", "--input", str(cfg_path), "--cert", str(cert_path)])
    assert code == 0
    assert json.loads(verdict)["result"] == "valid"


def test_verify_rejects_corruption(tmp_path):
    _, cfg_text, _ = run_cli(["gen", "--d", "1", "--r", "2", "--seed", "3"])
    _, cert_text, _ = run_cli(["solve", "--m", "1"], stdin=cfg_text)
    cert = json.loads(cert_text)
    key = sorted(cert["alpha"])[0]
    cert["alpha"][key] = "7/3"
    cfg_path = tmp_path / "cfg.json"
    cert_path = tmp_path / "cert.json"
    cfg_path.write_text(cfg_text)
    cert_path.write_text(json.dumps(cert))
    code, verdict, _ = run_cli(
        ["verify", "--input", str(cfg_path), "--cert", str(cert_path)])
    assert code == 1
    obj = json.loads(verdict)
    assert obj["result"] == "invalid"
    assert obj["problems"]


def _verify_edited(tmp_path, input_text, cert_text, key, value):
    cert = json.loads(cert_text)
    cert[key] = value
    cfg_path = tmp_path / "input.json"
    cert_path = tmp_path / "cert.json"
    cfg_path.write_text(input_text)
    cert_path.write_text(json.dumps(cert))
    return run_cli(
        ["verify", "--input", str(cfg_path), "--cert", str(cert_path)])


@pytest.mark.parametrize("key, value, problem", [
    ("proper", False, "proper is false but the partition is proper"),
    ("alternative", "complement", "alternative complement for m [0, 1]"),
    # {3} is separated from the rest, so the certificate's
    # separation_warning (false) stays true of the edited m
    ("m", [3], "alternative in_m for m [3]"),
    ("separation_warning", True, "separation_warning is true but the hulls"
     " of m and the rest are disjoint"),
], ids=["proper", "alternative", "m", "separation_warning"])
def test_verify_rejects_false_claims(tmp_path, key, value, problem):
    _, cfg_text, _ = run_cli(["gen", "--d", "2", "--r", "3", "--seed", "5"])
    code, cert_text, _ = run_cli(["solve", "--m", "0,1"], stdin=cfg_text)
    assert code == 0
    assert json.loads(cert_text)["proper"] is True
    code, verdict, _ = _verify_edited(tmp_path, cfg_text, cert_text,
                                      key, value)
    assert code == 1
    obj = json.loads(verdict)
    assert obj["result"] == "invalid"
    assert len(obj["problems"]) == 1
    assert problem in obj["problems"][0]


def test_verify_rechecks_a_true_separation_warning(tmp_path):
    # conv{0, 4} meets the hull of the rest for this seed, so solve
    # warns; verify accepts the warning, and rejects it flipped to false,
    # with an empty or a full m, or as a non-boolean
    _, cfg_text, _ = run_cli(["gen", "--d", "2", "--r", "3", "--seed", "5"])
    code, cert_text, _ = run_cli(["solve", "--m", "0,4"], stdin=cfg_text)
    assert code == 0
    assert json.loads(cert_text)["separation_warning"] is True
    code, verdict, _ = _verify_edited(tmp_path, cfg_text, cert_text,
                                      "separation_warning", True)
    assert code == 0 and json.loads(verdict)["result"] == "valid"
    code, verdict, _ = _verify_edited(tmp_path, cfg_text, cert_text,
                                      "separation_warning", False)
    assert code == 1
    assert json.loads(verdict)["problems"] == [
        "separation_warning is false but the hulls of m and the rest meet"]
    for m in ([], [0, 1, 2, 3, 4, 5, 6]):
        code, verdict, _ = _verify_edited(tmp_path, cfg_text, cert_text,
                                          "m", m)
        assert code == 1
        assert "separation_warning needs m" in verdict
    code, _, err = _verify_edited(tmp_path, cfg_text, cert_text,
                                  "separation_warning", "yes")
    assert code == 2
    assert "'separation_warning' must be true or false" in err


@pytest.mark.parametrize("key, value, problem", [
    ("zero_set", [1], "zero_set does not match zeros of alpha"),
    ("alternative", "m_positive", "alternative m_positive for m [0]"),
    ("m", [1], "alternative m_negative for m [1]"),
    # proper and separation_warning describe a point partition: a colored
    # certificate that carries either is invalid, whatever its value
    ("proper", False, "a colored certificate carries no proper claim"),
    ("separation_warning", True,
     "a colored certificate carries no separation_warning claim"),
], ids=["zero_set", "alternative", "m", "proper", "separation_warning"])
def test_verify_rejects_false_colored_claims(tmp_path, key, value, problem):
    cc = ColorClasses(d=1, r=2, classes=((("0",), ("4",)),
                                         (("1",), ("3",))))
    classes_text = dump_json(classes_to_json(cc))
    code, cert_text, _ = run_cli(["colored", "--m", "0"], stdin=classes_text)
    assert code == 0
    code, verdict, _ = _verify_edited(tmp_path, classes_text, cert_text,
                                      key, value)
    assert code == 1
    obj = json.loads(verdict)
    assert obj["result"] == "invalid"
    assert len(obj["problems"]) == 1
    assert problem in obj["problems"][0]


def test_out_to_a_path_that_cannot_be_opened_is_a_usage_error(
        tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert cli.main(["gen", "--d", "2", "--r", "3", "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write JSON to %s: " % path), err
    assert not path.parent.exists()


def test_batch_names_an_m_size_out_of_range():
    code, out, err = run_cli(["batch", "--mode", "solve", "--d", "2",
                              "--r", "3", "--trials", "2", "--m-size", "99"])
    assert code == 2
    assert out == ""
    assert err == "error: --m-size must be between 0 and n = (r-1)(d+1)+1\n"


def _crash(config, accept):
    raise AssertionError("scan invariant")


def _pipe_gone(d, r, seed):
    # a broken pipe that is not stdout's, as from --out on a closed FIFO
    raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, patch, kind", [
    (["gen", "--d", "2", "--r", "3"], (gen, "MAX_ATTEMPTS", 0),
     "RuntimeError"),
    (["search", "--k", "0"], (search, "_scan", _crash), "AssertionError"),
    (["gen", "--d", "2", "--r", "3"], (gen, "random_config", _pipe_gone),
     "BrokenPipeError"),
], ids=["gen-max-attempts", "search-assertion", "other-broken-pipe"])
def test_internal_errors_exit_three(tmp_path, monkeypatch, capsys,
                                    argv, patch, kind):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(LINE_CFG))
    monkeypatch.setattr(*patch)
    if argv[0] == "search":
        argv = argv + ["--input", str(cfg_path)]
    assert cli.main(argv) == cli.EXIT_INTERNAL == 3
    out, err = capsys.readouterr()
    assert json.loads(out) == {"schema": "tvpm/1", "result": "internal_error"}
    assert err.startswith("error: internal: %s: " % kind), err
    assert "Traceback" not in err


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["gen", "--d", "2", "--r", "3", "--seed", "5"],
    ["batch", "--mode", "search-k", "--d", "2", "--r", "3", "--trials", "2",
     "--k", "1"],
    ["--help"],
], ids=["gen", "batch", "help"])
def test_closed_stdout_exits_three_without_traceback(argv, buffered):
    # stdout is a pipe whose read end is already closed: the write fails,
    # and neither the error handler nor the exit flush may try again
    env = dict(ENV)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(CMD + argv, stdout=write_end, env=env,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    if argv == ["--help"] and not buffered:
        # argparse drops a failed unbuffered write of its help by itself
        assert (proc.returncode, proc.stderr) == (0, "")
        return
    # one error line, last: batch's summary may precede it on stderr when
    # its rows stay buffered until the final flush
    lines = proc.stderr.splitlines()
    assert proc.returncode == 3
    assert lines[-1].startswith("error: stdout closed:"), proc.stderr
    assert sum(line.startswith("error:") for line in lines) == 1


def test_example_pipe_search_prescribed_not_found():
    code, out, _ = run_cli(
        ["example", "--kind", "1", "--d", "2", "--r", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == [0]
    assert obj["eps"] == "1/100"
    code, res_text, _ = run_cli(["search", "--prescribe", "0"], stdin=out)
    assert code == 1
    res = json.loads(res_text)
    assert res["result"] == "not_found"
    assert res["partitions_scanned"] == 175
    assert res["degenerate_skipped"] == 0


def test_search_exact_k_found():
    _, cfg_text, _ = run_cli(["gen", "--d", "1", "--r", "2", "--seed", "0"])
    code, out, _ = run_cli(["search", "--k", "1"], stdin=cfg_text)
    assert code == 0
    res = json.loads(out)
    assert len(res["negatives"]) == 1
    assert res["partitions_scanned"] >= 1


def test_spectrum_radon_line():
    _, cfg_text, _ = run_cli(["gen", "--d", "2", "--r", "2", "--seed", "1"])
    code, out, _ = run_cli(["spectrum"], stdin=cfg_text)
    assert code == 0
    res = json.loads(out)
    assert res["achievable"] == [0, 1, 2]
    assert res["bound"] == 2


def test_separation_both_outcomes():
    _, good, _ = run_cli(["example", "--kind", "2", "--d", "2", "--r", "3"])
    code, out, _ = run_cli(["separation"], stdin=good)  # m from input
    assert code == 0
    assert json.loads(out)["result"] == "separated"

    _, bad, _ = run_cli(["example", "--kind", "1", "--d", "2", "--r", "3"])
    code, out, _ = run_cli(["separation", "--m", "0"], stdin=bad)
    assert code == 1
    obj = json.loads(out)
    assert obj["result"] == "not_separated"
    assert obj["point"] == ["1/3", "1/3"]


def test_solve_separation_violation_exit_code():
    cfg = {
        "schema": "tvpm/1",
        "kind": "config",
        "d": 1,
        "r": 2,
        "points": [["0"], ["1"], ["2"]],
    }
    code, out, _ = run_cli(["solve", "--m", "1"], stdin=dump_json(cfg))
    assert code == 1
    obj = json.loads(out)
    assert obj["result"] == "separation_violated"
    assert obj["common_point"] == ["1"]


def test_colored_pipeline(tmp_path):
    cc = ColorClasses(d=1, r=2, classes=((("0",), ("4",)),
                                         (("1",), ("3",))))
    classes_path = tmp_path / "classes.json"
    classes_path.write_text(dump_json(classes_to_json(cc, m_set={0})))
    code, out, _ = run_cli(["colored", "--input", str(classes_path)])
    assert code == 0
    res = json.loads(out)
    assert res["kind"] == "colored_certificate"
    assert res["m"] == [0]
    assert res["alpha"] == ["-1", "2"]
    assert res["negatives"] == [0]

    cert_path = tmp_path / "colored_cert.json"
    cert_path.write_text(out)
    code, verdict, _ = run_cli(
        ["verify", "--input", str(classes_path), "--cert", str(cert_path)])
    assert code == 0
    assert json.loads(verdict)["result"] == "valid"


@pytest.mark.parametrize("d,r", [(1, 6), (2, 6), (1, 7), (2, 7)])
def test_colored_runs_beyond_r5(tmp_path, d, r):
    rng = random.Random(600 + 10 * d + r)
    coords = rng.sample(range(-10**6, 10**6), ((r - 1) * d + 1) * r * d)
    points = [tuple(str(c) for c in coords[k:k + d])
              for k in range(0, len(coords), d)]
    cc = ColorClasses(d=d, r=r, classes=tuple(
        tuple(points[k:k + r]) for k in range(0, len(points), r)))
    classes_path = tmp_path / "classes.json"
    classes_path.write_text(dump_json(classes_to_json(cc, m_set={0, 1})))
    code, out, _ = run_cli(["colored", "--input", str(classes_path)])
    assert code == 0
    assert len(json.loads(out)["assignment"]) == cc.n
    cert_path = tmp_path / "colored_cert.json"
    cert_path.write_text(out)
    code, verdict, _ = run_cli(
        ["verify", "--input", str(classes_path), "--cert", str(cert_path)])
    assert code == 0
    assert json.loads(verdict)["result"] == "valid"


def test_colored_degenerate_exit_code(tmp_path):
    cc = ColorClasses(d=1, r=2, classes=((("-1",), ("3",)),
                                         (("1",), ("5",))))
    classes_path = tmp_path / "classes.json"
    classes_path.write_text(dump_json(classes_to_json(cc)))
    code, out, _ = run_cli(
        ["colored", "--input", str(classes_path), "--m", "0"])
    assert code == 2
    assert json.loads(out)["result"] == "degenerate_gamma"


def test_trace_lines_are_json(tmp_path):
    _, cfg_text, _ = run_cli(["gen", "--d", "2", "--r", "3", "--seed", "8"])
    code, _, err = run_cli(["solve", "--m", "2", "--trace"], stdin=cfg_text)
    assert code == 0
    lines = [l for l in err.splitlines() if l.strip()]
    assert lines
    prev = None
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"step", "choice", "w", "normsq"}
        num, _, den = rec["normsq"].partition("/")
        value = int(num) / int(den or "1")
        if prev is not None:
            assert value < prev
        prev = value
    assert prev == 0


def test_batch_csv_and_determinism():
    args = ["batch", "--mode", "search-k", "--d", "1", "--r", "2",
            "--trials", "3", "--k", "1", "--seed-base", "10"]
    code, out1, err1 = run_cli(args)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0] == "trial,seed,d,r,mode,param,outcome,detail"
    assert len(lines) == 4
    assert "# summary:" in err1
    code, out2, _ = run_cli(args)
    assert out1 == out2

    args = ["batch", "--mode", "solve", "--d", "1", "--r", "2",
            "--trials", "2", "--m-size", "1", "--seed-base", "4",
            "--jobs", "2"]
    code, out, _ = run_cli(args)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert all(",certificate," in row for row in rows)


def test_usage_errors_exit_two():
    code, _, err = run_cli(["solve"], stdin="{not json")
    assert code == 2
    assert "error:" in err

    _, cfg_text, _ = run_cli(["gen", "--d", "1", "--r", "2", "--seed", "0"])
    code, _, err = run_cli(
        ["search", "--k", "1", "--prescribe", "0"], stdin=cfg_text)
    assert code == 2
    code, _, err = run_cli(["search"], stdin=cfg_text)
    assert code == 2
    code, _, err = run_cli(["solve", "--m", "a,b"], stdin=cfg_text)
    assert code == 2
    code, _, err = run_cli(["batch", "--mode", "solve", "--d", "1",
                            "--r", "2", "--trials", "1"])
    assert code == 2


_MAIN_CALLS = """
import contextlib, io, json, sys
from tvpm import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _main_calls(argvs):
    """(exit code, stdout, stderr) of each ``cli.main(argv)``, in order,
    all in one fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_CALLS, json.dumps(argvs)],
        capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return [tuple(r) for r in json.loads(proc.stdout)]


def test_consecutive_main_calls_match_first_calls(tmp_path):
    # The parser is built on the first call and reused: each later call
    # must give what it gives when it runs first in its own process.
    cfg = tmp_path / "cfg.json"
    _, cfg_text, _ = run_cli(["gen", "--d", "2", "--r", "3", "--seed", "5"])
    cfg.write_text(cfg_text)
    src = ["--input", str(cfg)]
    argvs = [["solve", "--m", "0,1", "--trace"] + src,
             ["solve", "--m", "0,1"] + src,
             ["search", "--k"] + src,
             ["search", "--k", "0"] + src,
             ["search", "--prescribe", "0"] + src,
             ["search"] + src]
    together = _main_calls(argvs)
    assert together == [_main_calls([argv])[0] for argv in argvs]
    codes = [code for code, _, _ in together]
    assert codes == [0, 0, 2, 0, 0, 2]
    assert together[0][2] and not together[1][2]  # the trace lines


def test_gen_out_file(tmp_path):
    target = tmp_path / "cfg.json"
    code, out, _ = run_cli(
        ["gen", "--d", "1", "--r", "3", "--seed", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["d"] == 1 and obj["r"] == 3
    assert len(obj["points"]) == 5


def test_verify_non_object_certificate_is_usage_error(tmp_path):
    _, cfg_text, _ = run_cli(["gen", "--d", "1", "--r", "2", "--seed", "3"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg_text)
    cert_path = tmp_path / "cert.json"
    for doc in ("[1, 2]", "[]", "3", '"certificate"', "null"):
        cert_path.write_text(doc)
        code, out, err = run_cli(
            ["verify", "--input", str(cfg_path), "--cert", str(cert_path)])
        assert code == 2, doc
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err, doc


def test_boolean_dimensions_are_usage_errors(tmp_path):
    for key in ("d", "r"):
        cfg = {"schema": "tvpm/1", "d": 1, "r": 2,
               "points": [["0"], ["1"], ["2"]]}
        cfg[key] = True
        code, out, err = run_cli(["solve", "--m", "1"], stdin=json.dumps(cfg))
        assert code == 2, key
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err, key

        classes = {"schema": "tvpm/1", "d": 1, "r": 2,
                   "classes": [[["0"], ["4"]], [["1"], ["3"]]]}
        classes[key] = True
        code, out, err = run_cli(["colored", "--m", "0"],
                                 stdin=json.dumps(classes))
        assert code == 2, key
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err, key


LINE_CFG = {"schema": "tvpm/1", "kind": "point_config", "d": 1, "r": 2,
            "points": [["0"], ["1"], ["2"]]}
LINE_CERT = {"schema": "tvpm/1", "kind": "certificate", "z": ["1"],
             "alpha": {"0": "1/2", "1": "1", "2": "1/2"}, "negatives": [],
             "gamma": "1", "partition": [[0, 2], [1]]}
LINE_CLASSES = {"schema": "tvpm/1", "d": 1, "r": 2,
                "classes": [[["0"], ["4"]], [["1"], ["3"]]]}
LINE_COLORED_CERT = {"schema": "tvpm/1", "kind": "colored_certificate",
                     "assignment": [[0, 1], [0, 1]], "alpha": ["-1", "2"],
                     "z": ["2"], "gamma": "1/3", "negatives": [0],
                     "alternative": "m_negative"}


@pytest.mark.parametrize("doc, key, value", [
    ("cert", "alpha", ["1/2", "1", "1/2"]),
    ("cert", "negatives", 5),
    ("cert", "negatives", [[1]]),
    ("cert", "zero_set", 5),
    ("cert", "zero_set", [[0]]),
    ("cert", "partition", 5),
    ("cert", "partition", [0, 1, 2]),
    ("cert", "partition", [[0, 2], [[1]]]),
    ("classes", "classes", 5),
    ("classes", "classes", [[["0"], ["4"]], 5]),
    ("config", "points", 5),
    ("config", "points", [["0"], 1, ["2"]]),
    ("config", "m", 5),
    ("config", "m", [[1]]),
    ("colored_cert", "assignment", [5, 6]),
    ("colored_cert", "alpha", 5),
    ("colored_cert", "negatives", [[0]]),
    ("colored_cert", "zero_set", 3),
])
def test_malformed_json_shapes_are_usage_errors(tmp_path, doc, key, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(LINE_CFG))
    classes_path = tmp_path / "classes.json"
    classes_path.write_text(json.dumps(LINE_CLASSES))
    bad = dict({"cert": LINE_CERT, "classes": LINE_CLASSES,
                "config": LINE_CFG, "colored_cert": LINE_COLORED_CERT}[doc])
    bad[key] = value
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    argv = {
        "cert": ["verify", "--input", str(cfg_path), "--cert", str(bad_path)],
        "classes": ["colored", "--m", "0", "--input", str(bad_path)],
        "config": ["solve", "--input", str(bad_path)],
        "colored_cert": ["verify", "--input", str(classes_path),
                         "--cert", str(bad_path)],
    }[doc]
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("alpha", [
    {"0": "1/2", " 1": "1", "2": "1/2"},
    {"0": "1/2", "01": "1", "2": "1/2"},
    {"0": "1/2", "+1": "1", "2": "1/2"},
    {"0": "1/2", "1_0": "1", "2": "1/2"},
    {"0": "1/2", "1": "1", "01": "7", "2": "1/2"},
], ids=["space", "leading-zero", "plus", "underscore", "two-keys-one-index"])
def test_verify_rejects_non_canonical_alpha_keys(tmp_path, alpha):
    # int() reads each of these keys, but only "1" names index 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(LINE_CFG))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(dict(LINE_CERT, alpha=alpha)))
    code, out, err = run_cli(
        ["verify", "--input", str(cfg_path), "--cert", str(cert_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, doc", [
    (["separation", "--m", "0,99"], LINE_CFG),
    (["separation", "--m", "-1"], LINE_CFG),
    (["separation"], dict(LINE_CFG, m=[99])),
], ids=["m-0,99", "m--1", "input-m-99"])
def test_separation_out_of_range_indices_are_usage_errors(argv, doc):
    code, out, err = run_cli(argv, stdin=json.dumps(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.fixture(scope="module")
def cfg_13_text():
    # 13 points, so "1_0", read by int() as 10, would name a point
    return run_cli(["gen", "--d", "3", "--r", "4", "--seed", "0"])[1]


@pytest.mark.parametrize("argv", [
    ["solve", "--m", "1_0"],
    ["solve", "--m", "+1,3"],
    ["solve", "--m", "1,\u0663"],
    ["separation", "--m", "0,\uff13"],
    ["search", "--prescribe", "\u0663"],
], ids=["underscore", "plus", "arabic-indic-digit", "fullwidth-digit",
        "prescribe-arabic-indic-digit"])
def test_index_lists_take_only_ascii_decimal_tokens(cfg_13_text, argv):
    code, out, err = run_cli(argv, stdin=cfg_13_text)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    (["search", "--prescribe", "+0"], "--prescribe"),
    (["solve", "--m", "+0"], "--m"),
], ids=["prescribe", "m"])
def test_index_list_errors_name_the_option_given(cfg_13_text, argv, option):
    code, out, err = run_cli(argv, stdin=cfg_13_text)
    assert code == 2
    assert out == ""
    assert err == "error: %s expects a comma-separated index list\n" % option


def test_index_list_tokens_may_carry_spaces(cfg_13_text):
    want = run_cli(["separation", "--m", "0,3"], stdin=cfg_13_text)
    assert want[0] in (0, 1) and want[1]
    assert run_cli(["separation", "--m", " 0 , 3 "],
                   stdin=cfg_13_text) == want


_LOADED = """
import contextlib, io, json, sys

WATCH = ('csv', 'dataclasses', 'tvpm.colored', 'tvpm.minnorm',
         'tvpm.sarkaria', 'tvpm.search')

def loaded():
    return [m for m in WATCH if m in sys.modules]

import tvpm.cli
before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = tvpm.cli.main(json.loads(sys.argv[1]))
print(json.dumps([before, code, loaded()]))
"""


def test_cli_import_leaves_the_solver_modules_unloaded(tmp_path):
    # Each command loads only what it runs: gen and a point or colored
    # verify load no dataclasses, csv or search, and only the re-check of
    # a separation_warning loads search (with minnorm), not the solver.
    # ``-S`` keeps site and its .pth files out of the module set.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    paths = {key: tmp_path / (key + ".json") for key in
             ("line", "cert", "classes", "colored_cert", "cfg", "solved")}
    for key, doc in (("line", LINE_CFG), ("cert", LINE_CERT),
                     ("classes", LINE_CLASSES),
                     ("colored_cert", LINE_COLORED_CERT)):
        paths[key].write_text(json.dumps(doc))
    _, out, _ = run_cli(["gen", "--d", "2", "--r", "3", "--seed", "5"])
    paths["cfg"].write_text(out)
    code, out, _ = run_cli(["solve", "--m", "0,1"], stdin=out)
    assert code == 0 and "separation_warning" in json.loads(out)
    paths["solved"].write_text(out)

    def modules_after(*argv):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _LOADED,
             json.dumps([str(paths.get(a, a)) for a in argv])],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    assert modules_after("gen", "--d", "2", "--r", "3") == [[], 0, []]
    assert modules_after("verify", "--input", "line", "--cert", "cert") == [
        [], 0, []]
    assert modules_after("verify", "--input", "classes",
                         "--cert", "colored_cert") == [
        [], 0, ["tvpm.colored"]]
    assert modules_after("verify", "--input", "cfg", "--cert", "solved") == [
        [], 0, ["tvpm.minnorm", "tvpm.search"]]


# (result, a command whose --out file is the input "{gen}", the command)
_OUTCOMES = [
    ("valid", None, ["verify", "--input", "{line}", "--cert", "{cert}"]),
    ("invalid", None,
     ["verify", "--input", "{line}", "--cert", "{edited_cert}"]),
    ("not_found", ["example", "--kind", "1", "--d", "2", "--r", "3"],
     ["search", "--prescribe", "0", "--input", "{gen}"]),
    ("spectrum", ["gen", "--d", "2", "--r", "2", "--seed", "1"],
     ["spectrum", "--input", "{gen}"]),
    ("separated", ["example", "--kind", "2", "--d", "2", "--r", "3"],
     ["separation", "--input", "{gen}"]),
    ("not_separated", ["example", "--kind", "1", "--d", "2", "--r", "3"],
     ["separation", "--m", "0", "--input", "{gen}"]),
    ("separation_violated", None, ["solve", "--m", "1", "--input", "{line}"]),
    ("degenerate_gamma", ["gen", "--d", "2", "--r", "3", "--seed", "5"],
     ["solve", "--m", "0,3", "--input", "{gen}"]),
    ("internal_error", None, ["gen", "--d", "2", "--r", "3"]),
]


@pytest.mark.parametrize("name, setup, argv", _OUTCOMES,
                         ids=[case[0] for case in _OUTCOMES])
def test_every_result_exits_with_its_table_code(tmp_path, monkeypatch, capsys,
                                                name, setup, argv):
    assert {case[0] for case in _OUTCOMES} == set(cli.RESULTS)
    paths = {key: tmp_path / (key + ".json")
             for key in ("line", "cert", "edited_cert", "gen")}
    paths["line"].write_text(json.dumps(LINE_CFG))
    paths["cert"].write_text(json.dumps(LINE_CERT))
    edited = dict(LINE_CERT, alpha=dict(LINE_CERT["alpha"], **{"0": "1/3"}))
    paths["edited_cert"].write_text(json.dumps(edited))
    if setup is not None:
        assert cli.main(setup + ["--out", str(paths["gen"])]) == 0
    if name == "internal_error":
        monkeypatch.setattr(gen, "MAX_ATTEMPTS", 0)
    code = cli.main([arg.format(**paths) for arg in argv])
    obj = json.loads(capsys.readouterr().out)
    assert obj["result"] == name
    assert code == cli.RESULTS[obj["result"]]
