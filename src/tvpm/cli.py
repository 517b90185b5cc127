"""Command-line front end.

JSON in, JSON out, everything seeded.  A command writes a configuration
or certificate (exit 0) or a result document, whose name ``RESULTS``
maps to its exit code.  Usage errors and malformed input exit 2 with an
error message on stderr and nothing on stdout.  An internal error (an
exception the program did not expect) is reported as an ``error:
internal:`` line and an ``internal_error`` result, never a traceback.  A
stdout whose reader has gone also exits 3, with an ``error:`` line on
stderr and nothing more written to stdout.

A command imports what it runs: this module loads only the reading,
writing and generating code (``core``, ``gen``, ``linalg``), and each
command imports its solver modules (``search``, ``sarkaria``,
``colored``) and ``csv`` itself, so that a process pays start-up time
for no module its command never calls.
"""

import argparse
import functools
import json
import os
import sys

from tvpm import core, gen
from tvpm.linalg import format_rat, format_vec, parse_rat

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# Every result document's name and its exit code.
RESULTS = {
    "valid": EXIT_OK,
    "spectrum": EXIT_OK,
    "separated": EXIT_OK,
    "invalid": EXIT_NEGATIVE,
    "not_found": EXIT_NEGATIVE,
    "not_separated": EXIT_NEGATIVE,
    "separation_violated": EXIT_NEGATIVE,
    "degenerate_gamma": EXIT_USAGE,
    "internal_error": EXIT_INTERNAL,
}


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError("cannot read JSON from %s: %s" % (path, e))


def _emit(obj, out=None):
    text = core.dump_json(obj)
    if out and out != "-":
        try:
            fh = open(out, "w")
        except OSError as e:
            raise ValueError("cannot write JSON to %s: %s" % (out, e))
        with fh:
            fh.write(text + "\n")
    else:
        print(text)


def _result(name, **fields):
    """Write the result document ``name`` and return its exit code."""
    _emit({"schema": core.SCHEMA, "result": name, **fields})
    return RESULTS[name]


def _weights(witness):
    """The ``m_weights`` and ``rest_weights`` fields of an overlap."""
    return {key: {str(i): format_rat(w)
                  for i, w in sorted(getattr(witness, key).items())}
            for key in ("m_weights", "rest_weights")}


def _parse_m(text, option="--m"):
    if text.strip() == "":
        return frozenset()
    tokens = [tok.strip() for tok in text.split(",")]
    # int() also reads "1_0", "+1" and non-ASCII digits such as "\u0663"
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError("%s expects a comma-separated index list" % option)
    return frozenset(map(int, tokens))


def _m_from_args_or_input(args, obj):
    if args.m is not None:
        return _parse_m(args.m)
    if isinstance(obj, dict) and "m" in obj:
        return frozenset(core.index_list(obj["m"], "'m'"))
    return frozenset()


def cmd_gen(args):
    config = gen.random_config(args.d, args.r, args.seed)
    out = core.config_to_json(config)
    out["seed"] = args.seed
    _emit(out, args.out)
    return EXIT_OK


def cmd_example(args):
    eps = parse_rat(args.eps)
    builder = gen.example1 if args.kind == 1 else gen.example2
    config, m_set = builder(args.d, args.r, eps, args.seed)
    out = core.config_to_json(config, m_set=m_set)
    out["seed"] = args.seed
    out["eps"] = format_rat(eps)
    _emit(out, args.out)
    return EXIT_OK


def _trace_writer(step, choice, w, normsq):
    line = {
        "step": step,
        "choice": list(choice),
        "w": format_vec(w),
        "normsq": format_rat(normsq),
    }
    print(json.dumps(line), file=sys.stderr)


def cmd_solve(args):
    from tvpm.sarkaria import (
        DegenerateGamma,
        PMCertificate,
        SeparationViolated,
        tverberg_pm,
    )
    obj = _read_json(args.input)
    config = core.config_from_json(obj)
    m_set = _m_from_args_or_input(args, obj)
    trace = _trace_writer if args.trace else None
    result = tverberg_pm(config, m_set, trace=trace)
    if isinstance(result, PMCertificate):
        out = core.certificate_to_json(
            result.cert, result.partition,
            alternative=result.alternative, proper=result.proper)
        out["m"] = sorted(m_set)
        if result.separation_warning is not None:
            out["separation_warning"] = result.separation_warning
        _emit(out)
        return EXIT_OK
    if isinstance(result, SeparationViolated):
        return _result("separation_violated",
                       common_point=format_vec(result.common_point),
                       part=list(result.part), **_weights(result))
    assert isinstance(result, DegenerateGamma)
    return _result("degenerate_gamma")


def cmd_search(args):
    from tvpm import search
    obj = _read_json(args.input)
    config = core.config_from_json(obj)
    if (args.k is None) == (args.prescribe is None):
        raise ValueError("search needs exactly one of --k and --prescribe")
    if args.k is not None:
        res = search.search_exact_k(config, args.k)
    else:
        res = search.search_prescribed(config,
                                       _parse_m(args.prescribe, "--prescribe"))
    if res.found:
        out = core.certificate_to_json(res.cert, res.partition)
        out["partitions_scanned"] = res.scanned
        out["degenerate_skipped"] = res.skipped
        _emit(out)
        return EXIT_OK
    return _result("not_found", partitions_scanned=res.scanned,
                   degenerate_skipped=res.skipped)


def cmd_spectrum(args):
    from tvpm import search
    obj = _read_json(args.input)
    config = core.config_from_json(obj)
    res = search.radon_spectrum(config)
    return _result("spectrum", achievable=sorted(res.achievable),
                   bound=(config.d + 2) // 2, partitions_scanned=res.scanned,
                   degenerate_skipped=res.skipped)


def cmd_separation(args):
    from tvpm import search
    obj = _read_json(args.input)
    config = core.config_from_json(obj)
    m_set = _m_from_args_or_input(args, obj)
    res = search.check_separation(config, m_set)
    if isinstance(res, search.Separated):
        return _result("separated", normal=format_vec(res.normal),
                       offset=format_rat(res.offset))
    return _result("not_separated", point=format_vec(res.point),
                   **_weights(res))


def cmd_colored(args):
    from tvpm import colored as colored_mod
    from tvpm.sarkaria import DegenerateGamma
    obj = _read_json(args.input)
    cc = colored_mod.classes_from_json(obj)
    m_set = _m_from_args_or_input(args, obj)
    trace = _trace_writer if args.trace else None
    result = colored_mod.colored_tverberg_pm(cc, m_set, trace=trace)
    if isinstance(result, DegenerateGamma):
        return _result("degenerate_gamma")
    out = colored_mod.colorful_to_json(result)
    out["m"] = sorted(m_set)
    _emit(out)
    return EXIT_OK


def _separation_problems(config, m_set, warning):
    """Problems with a solve certificate's ``separation_warning`` claim,
    which is true exactly when conv(m) and conv(rest) meet
    (``search.check_separation``)."""
    from tvpm import search
    if not isinstance(warning, bool):
        raise ValueError("'separation_warning' must be true or false")
    if not m_set or not m_set < frozenset(range(config.n)):
        return ["separation_warning needs m to be a nonempty proper subset"
                " of the indices"]
    meet = isinstance(search.check_separation(config, m_set),
                      search.NotSeparated)
    if meet != warning:
        return ["separation_warning is %s but the hulls of m and the rest %s"
                % (str(warning).lower(), "meet" if meet else "are disjoint")]
    return []


def cmd_verify(args):
    cert_obj = _read_json(args.cert)
    input_obj = _read_json(args.input)
    # A non-object certificate falls through to certificate_from_json,
    # which rejects it.
    kind = cert_obj.get("kind") if isinstance(cert_obj, dict) else None
    m_set = proper = None
    if isinstance(cert_obj, dict):
        if "m" in cert_obj:
            m_set = frozenset(core.index_list(cert_obj["m"], "'m'"))
        proper = cert_obj.get("proper")
        if proper is not None and not isinstance(proper, bool):
            raise ValueError("'proper' must be true or false")
    if kind == "colored_certificate":
        from tvpm import colored as colored_mod
        cc = colored_mod.classes_from_json(input_obj)
        cp = colored_mod.colorful_from_json(cert_obj)
        _, problems = colored_mod.verify_colorful(cc, cp, m_set)
        # proper and separation_warning are claims about a point partition
        problems += ["a colored certificate carries no %s claim" % key
                     for key in ("proper", "separation_warning")
                     if key in cert_obj]
    else:
        config = core.config_from_json(input_obj)
        cert, partition, alternative = core.certificate_from_json(cert_obj)
        _, problems = core.verify_certificate(
            config, partition, cert, alternative, m_set, proper)
        if "separation_warning" in cert_obj:
            problems += _separation_problems(
                config, m_set, cert_obj["separation_warning"])
    if not problems:
        return _result("valid")
    return _result("invalid", problems=problems)


def _batch_trial(task):
    mode, d, r, param, seed = task
    config = gen.random_config(d, r, seed)
    if mode == "search-k":
        from tvpm import search
        res = search.search_exact_k(config, param)
        if res.found:
            return ("found", "negatives=%d" % len(res.cert.negatives))
        return ("not_found", "scanned=%d" % res.scanned)
    from tvpm.sarkaria import PMCertificate, SeparationViolated, tverberg_pm
    m_set = gen.separated_subset(config, param, seed + 1000003)
    result = tverberg_pm(config, m_set, check_sep=False)
    if isinstance(result, PMCertificate):
        return ("certificate",
                "alternative=%s negatives=%d"
                % (result.alternative, len(result.cert.negatives)))
    if isinstance(result, SeparationViolated):
        return ("separation_violated", "")
    return ("degenerate", "")


def cmd_batch(args):
    import csv
    if args.mode == "search-k":
        if args.k is None:
            raise ValueError("batch --mode search-k needs --k")
        param = args.k
    else:
        if args.m_size is None:
            raise ValueError("batch --mode solve needs --m-size")
        if not 0 <= args.m_size <= (args.r - 1) * (args.d + 1) + 1:
            raise ValueError("--m-size must be between 0 and n = (r-1)(d+1)+1")
        param = args.m_size
    tasks = [
        (args.mode, args.d, args.r, param, args.seed_base + trial)
        for trial in range(args.trials)
    ]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_batch_trial, tasks))
    else:
        outcomes = [_batch_trial(t) for t in tasks]
    writer = csv.writer(sys.stdout)
    writer.writerow(["trial", "seed", "d", "r", "mode", "param",
                     "outcome", "detail"])
    counts = {}
    for trial, (task, (outcome, detail)) in enumerate(zip(tasks, outcomes)):
        writer.writerow([trial, task[4], args.d, args.r, args.mode, param,
                         outcome, detail])
        counts[outcome] = counts.get(outcome, 0) + 1
    summary = " ".join("%s=%d" % kv for kv in sorted(counts.items()))
    print("# summary: %s" % summary, file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built on the first call and then reused (a
    build costs more than twenty parses).  It holds no command function:
    ``main`` looks up ``cmd_<subcommand>`` on every call."""
    p = argparse.ArgumentParser(
        prog="tvpm",
        description="Exact Tverberg partitions with prescribed signs.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="seeded random configuration")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("example", help="cluster-built instances")
    sp.add_argument("--kind", type=int, choices=(1, 2), required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--eps", default="1/100")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("solve", help="constructive solver")
    sp.add_argument("--input", default="-")
    sp.add_argument("--m", default=None,
                    help="comma-separated indices; default: input's m")
    sp.add_argument("--trace", action="store_true",
                    help="per-pivot JSON lines on stderr")

    sp = sub.add_parser("search", help="exhaustive scan")
    sp.add_argument("--input", default="-")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--prescribe", default=None)

    sp = sub.add_parser("spectrum", help="achievable negative counts, r=2")
    sp.add_argument("--input", default="-")

    sp = sub.add_parser("separation", help="hull disjointness test")
    sp.add_argument("--input", default="-")
    sp.add_argument("--m", default=None)

    sp = sub.add_parser("colored", help="per-class solver")
    sp.add_argument("--input", default="-")
    sp.add_argument("--m", default=None,
                    help="class indices; default: input's m")
    sp.add_argument("--trace", action="store_true")

    sp = sub.add_parser("verify", help="re-check a certificate")
    sp.add_argument("--input", default="-",
                    help="configuration (or classes) JSON")
    sp.add_argument("--cert", required=True)

    sp = sub.add_parser("batch", help="seeded experiment driver, CSV out")
    sp.add_argument("--mode", choices=("search-k", "solve"), required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--m-size", type=int, default=None)
    sp.add_argument("--seed-base", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    return p


def _stdout_closed():
    # True when stdout is a pipe or socket whose reader has gone: polling
    # its descriptor for writing then reports an error or a hang-up.
    import select
    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
        events = poller.poll(0)
    except (AttributeError, OSError, ValueError):
        return False
    return any(ev & (select.POLLERR | select.POLLHUP) for _, ev in events)


def _silence_stdout():
    # Point stdout's descriptor at the null device, so that the flush at
    # interpreter exit does not meet the broken pipe again.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None):
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            # --help, or a usage error: flush what argparse printed here,
            # where a closed stdout is still caught
            sys.stdout.flush()
            raise
        code = globals()["cmd_" + args.command](args)
        sys.stdout.flush()
        return code
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError as e:
        if not _stdout_closed():
            return _internal_error(e)
        _silence_stdout()
        print("error: stdout closed: %s" % e, file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:
        return _internal_error(e)


def _internal_error(e):
    print("error: internal: %s: %s" % (type(e).__name__, e), file=sys.stderr)
    return _result("internal_error")


if __name__ == "__main__":
    sys.exit(main())
