"""Layered benchmark for tvpm.

    python3 perfbench/run.py --workload scan|solve|colored --seed N \\
        --seconds S --trace 0|1 [--size full|toy]

The library is imported from ``src/`` beside this directory; without that
tree the script exits with code 2 and prints no result.  One process per
workload, no threads, no pool.

Every op is one in-process ``tvpm.cli.main(argv)`` call with stdout
captured and checked by the oracles in ``workloads.py``; a failed check,
exception or unexpected exit code counts as a failed op.  A run sets the
workload up five times (three once they have taken 6 s), then repeats its
fixed op list ("a pass") while another pass fits in ``--seconds``, at least
once, then runs the workload's cheapest command as 21 separate
``python -m tvpm.cli`` processes, one at a time.  The toy size does two
set-ups and two processes.

Timings are in "ref": a call's wall time over the mean time of
``reference_loop``, probed just before and just after it.  On a shared host
the CPU speed drifts by tens of percent within seconds; wall times spread
that much between runs, their ratio to adjacent reference work does not.
The raw seconds are kept in the record.

End-to-end metrics (``--trace 0``):
  setup_s          median wall time of the set-ups: a fresh import of
                   tvpm.cli plus writing the workload's input files
  run_ref          the op list, each op at its median over passes, summed
  main_op_ref      mean over the list's search / solve / colored calls,
                   each at its median over passes (a mean, since the
                   solve list mixes two instance families whose times
                   differ by 3x, and a median would jump between them)
  second_op_ref    the same over its spectrum / verify / verify calls
  cli_process_ref  median of the separate processes (gen on scan, verify
                   on solve and colored)
  peak_rss_mb      peak resident memory of this process

With ``--trace 1`` the run reports per-layer figures instead: one traced
set-up, then passes in which each op runs once untraced and once with every
public tvpm function wrapped (``layers.py``), in alternating order.  The
per-layer values cover one set-up plus one pass; times there are seconds.

The last stdout line is the result JSON; a fuller record with sample
counts, per-op seconds and costs, input and output SHA-256 digests,
failures and run metadata goes to ``.perfbench_out/`` in the checkout.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# (set-ups, separate processes) per run; the toy size keeps the smoke
# test short.  Set-ups stop at three once they have taken SETUP_BUDGET_S.
REPEATS = {"full": (5, 21), "toy": (2, 2)}
MIN_SETUPS = 3
SETUP_BUDGET_S = 6.0
REF_LOOPS = 3  # reference_loop runs per probe, about 30 ms
PROCESS_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "run_ref": "ref",
    "main_op_ref": "ref",
    "second_op_ref": "ref",
    "cli_process_ref": "ref",
    "peak_rss_mb": "MB",
}

# (function, fields) reported per layer; self_s excludes wrapped callees.
LAYER_FUNCS = [
    ("cli.main", ("calls", "self_s")),
    ("gen.general_position", ("calls", "self_s")),
    ("gen.random_config", ("total_s",)),
    ("search.proper_partitions", ("self_s",)),
    ("core.intersect_affine_hulls", ("calls", "self_s")),
    ("core.build_system", ("self_s",)),
    ("linalg.solve_linear", ("calls", "self_s")),
    ("linalg.rank", ("calls",)),
    ("linalg.det", ("calls",)),
    ("kernel.ff_solve", ("calls", "self_s")),
    ("kernel.ff_det", ("calls", "self_s")),
    ("lp.feasible_point", ("calls", "self_s")),
    ("minnorm.min_norm_point", ("calls", "self_s")),
    ("minnorm.affine_minimizer", ("calls", "self_s")),
    ("sarkaria.lift", ("self_s",)),
    ("sarkaria.pivot_to_origin", ("total_s",)),
    ("sarkaria.recover", ("self_s",)),
    ("colored.permutation_lift", ("calls", "self_s")),
]
LAYERS = ["cli", "gen", "search", "core", "linalg", "kernel", "lp",
          "minnorm", "sarkaria", "colored"]
SCAN_ENTRIES = ["search.search_prescribed", "search.search_exact_k",
                "search.radon_spectrum"]
FIELD_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}
PER_LAYER = dict(
    [("%s.%s" % (fn, f), FIELD_UNITS[f]) for fn, fs in LAYER_FUNCS
     for f in fs]
    + [("%s.self_s" % layer, "s") for layer in LAYERS]
    + [("search.partitions_scanned", "count"),
       ("search.us_per_partition", "us"),
       ("core.intersect.point", "count"),
       ("core.intersect.empty", "count"),
       ("core.intersect.degenerate", "count"),
       ("sarkaria.pivots", "count"),
       ("colored.lift_points", "count"),
       ("kernel.max_det_bits", "bits"),
       ("linalg.max_entry_bits", "bits"),
       ("trace.run_s", "s"),
       ("trace.self_share", "ratio"),
       ("trace_overhead", "ratio")])


class SetupError(Exception):
    pass


def fresh_tvpm():
    """Import tvpm.cli anew from this checkout's src/."""
    for name in [n for n in sys.modules
                 if n == layers.PACKAGE or n.startswith(layers.PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module("tvpm.cli")
    tvpm = sys.modules["tvpm"]
    if Path(tvpm.__file__).resolve().parent != SRC / "tvpm":
        raise SetupError("imported tvpm from %s, not %s"
                         % (tvpm.__file__, SRC))
    return argparse.Namespace(
        cli=cli, core=sys.modules["tvpm.core"], gen=sys.modules["tvpm.gen"],
        linalg=sys.modules["tvpm.linalg"])


def run_cli(cli, argv):
    """One in-process CLI call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
    return dt, code, out.getvalue(), err.getvalue()


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def set_up(name, seed, size, work, tracer=None):
    """Import the CLI and write the workload's inputs into work/."""
    work.mkdir(parents=True)
    t0 = perf_counter()
    tv = fresh_tvpm()
    if tracer is not None:
        tracer.install()
    try:
        def call(argv):
            _, code, _, err = run_cli(tv.cli, argv)
            if code != 0:
                raise SetupError("%s exited %r: %s" % (argv, code, err[-500:]))
        wl = workloads.SETUPS[name](tv, call, work, seed, size)
    finally:
        if tracer is not None:
            tracer.uninstall()
    dt = perf_counter() - t0
    digests = {Path(p).name: sha256(Path(p).read_bytes()) for p in wl.inputs}
    return dt, tv, wl, digests


def reference_loop():
    """Fixed pure-Python work, Fraction sums and big-int arithmetic like the
    library's own inner loops.  Its wall time is the unit "ref"."""
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(i, i + 7)
    x = 1
    for _ in range(20000):
        x = (x * 1103515245 + 12345) % 2147483648
    return s, x


class Runner:
    """Runs and checks ops; keeps per-op seconds, costs in ref and
    first-pass stdout digests."""

    def __init__(self, tv, wl, work):
        self.tv, self.wl, self.work = tv, wl, str(work) + os.sep
        self.seconds = [[] for _ in wl.ops]
        self.cost = [[] for _ in wl.ops]
        self.traced_seconds = [[] for _ in wl.ops]
        self.traced_cost = [[] for _ in wl.ops]
        self.digests = [None] * len(wl.ops)
        self.ref_seconds = []
        self.attempted = 0
        self.failures = []

    def short(self, argv):
        return [a.replace(self.work, "") for a in argv]

    def fail(self, argv, problem, err=""):
        self.failures.append({"argv": self.short(argv), "problem": problem,
                              "stderr": err[-2000:]})

    def ref(self):
        # The probe runs on a collected heap with the collector off, so a
        # collection of the previous call's garbage never lands in it.
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()
            for _ in range(REF_LOOPS):
                reference_loop()
            dt = perf_counter() - t0
        finally:
            gc.enable()
        self.ref_seconds.append(dt / REF_LOOPS)
        return self.ref_seconds[-1]

    def timed(self, call):
        """call() -> (seconds, ...); returns (cost in ref, seconds, ...)."""
        before = self.ref_seconds[-1] if self.ref_seconds else self.ref()
        got = call()
        return (got[0] / ((before + self.ref()) / 2),) + got

    def execute(self, i, traced):
        op = self.wl.ops[i]
        gc.collect()
        cost, dt, code, out, err = self.timed(
            lambda: run_cli(self.tv.cli, op.argv))
        (self.traced_cost if traced else self.cost)[i].append(cost)
        (self.traced_seconds if traced else self.seconds)[i].append(dt)
        self.attempted += 1
        digest = sha256(out)
        try:
            problem = op.check(code, out)
        except Exception as e:  # malformed output must not end the run
            problem = "output check raised %r" % (e,)
        if problem is None and self.digests[i] not in (None, digest):
            problem = "stdout differs from the first pass"
        if self.digests[i] is None:
            self.digests[i] = digest
        if problem is not None:
            self.fail(op.argv, problem, err)
        if op.save_to:
            with open(op.save_to, "w") as fh:
                fh.write(out)

    def execute_traced(self, i, tracer):
        tracer.install()
        try:
            self.execute(i, True)
        finally:
            tracer.uninstall()

    def passes(self, seconds, tracer=None):
        """Repeat the op list while another pass fits in ``seconds``."""
        start = perf_counter()
        n = 0
        while True:
            t0 = perf_counter()
            for i in range(len(self.wl.ops)):
                if tracer is None:
                    self.execute(i, False)
                elif n % 2:
                    self.execute_traced(i, tracer)
                    self.execute(i, False)
                else:
                    self.execute(i, False)
                    self.execute_traced(i, tracer)
            n += 1
            now = perf_counter()
            if (now - start) + (now - t0) > seconds:
                return n

    def processes(self, runs):
        """Costs and wall times of the workload's cheap command run as its
        own process; stdout must match the in-process bytes."""
        argv = self.wl.process_argv
        _, want_code, want_out, _ = run_cli(self.tv.cli, argv)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, "-m", "tvpm.cli"] + argv

        def spawn():
            t0 = perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=self.work, env=env,
                                      capture_output=True, text=True,
                                      timeout=PROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = None  # run() has killed and reaped the child
            return perf_counter() - t0, proc

        costs, seconds = [], []
        for _ in range(runs):
            cost, dt, proc = self.timed(spawn)
            costs.append(cost)
            seconds.append(dt)
            self.attempted += 1
            if proc is None:
                self.fail(["python -m tvpm.cli"] + argv, "process timed out")
            elif proc.returncode != want_code or proc.stdout != want_out:
                self.fail(["python -m tvpm.cli"] + argv,
                          "process exit %d or stdout differs from in-process"
                          % proc.returncode, proc.stderr)
        return costs, seconds


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(name, runner, setups, proc_costs):
    per_op = [statistics.median(c) for c in runner.cost]
    kinds = workloads.OP_KINDS[name]

    def kind_mean(kind):
        return statistics.fmean(
            c for c, op in zip(per_op, runner.wl.ops) if op.kind == kind)

    return {
        "setup_s": statistics.median(setups),
        "run_ref": sum(per_op),
        "main_op_ref": kind_mean(kinds[0]),
        "second_op_ref": kind_mean(kinds[1]),
        "cli_process_ref": statistics.median(proc_costs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(setup, passes, npasses, setup_s, runner):
    """Per-layer values for one set-up plus one pass."""
    empty = layers.FuncStats()

    def get(fn, field):
        a = getattr(setup.funcs.get(fn, empty), field)
        b = getattr(passes.funcs.get(fn, empty), field)
        return a + b / npasses

    def counter(name):
        return (setup.counters.get(name, 0)
                + passes.counters.get(name, 0) / npasses)

    out = {"%s.%s" % (fn, f): get(fn, f) for fn, fs in LAYER_FUNCS
           for f in fs}
    names = set(setup.funcs) | set(passes.funcs)
    for layer in LAYERS:
        out["%s.self_s" % layer] = sum(
            get(fn, "self_s") for fn in names
            if fn.split(".")[0] == layer)
    scanned = get("search.proper_partitions", "items")
    out["search.partitions_scanned"] = scanned
    scan_s = sum(get(fn, "total_s") for fn in SCAN_ENTRIES)
    out["search.us_per_partition"] = 1e6 * scan_s / scanned if scanned else 0.0
    for kind in ("point", "empty", "degenerate"):
        out["core.intersect." + kind] = counter("core.intersect." + kind)
    out["sarkaria.pivots"] = (get("minnorm.min_norm_point", "calls")
                              - get("sarkaria.pivot_to_origin", "calls"))
    out["colored.lift_points"] = counter("colored.lift_points")
    for high in ("kernel.max_det_bits", "linalg.max_entry_bits"):
        out[high] = max(setup.highs.get(high, 0), passes.highs.get(high, 0))
    run_s = setup_s + sum(statistics.fmean(ts)
                          for ts in runner.traced_seconds)
    out["trace.run_s"] = run_s
    out["trace.self_share"] = sum(
        get(fn, "self_s") for fn in names) / run_s
    out["trace_overhead"] = (
        sum(statistics.median(c) for c in runner.traced_cost)
        / sum(statistics.median(c) for c in runner.cost)) - 1
    table = {fn: {f: get(fn, f) for f in ("calls", "self_s", "total_s",
                                           "items")}
             for fn in sorted(names)}
    return out, table


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy: the smoke test's small instances")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tvpm" / "cli.py").is_file():
        print("perfbench: no tvpm source tree at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT_DIR / ("work-%s-%d" % (args.workload, os.getpid()))
    try:
        return measure(args, work)
    except SetupError as e:
        print("perfbench: set-up failed: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work):
    name, trace = args.workload, bool(args.trace)
    tracer = layers.Tracer() if trace else None
    setups, input_digests = [], []
    setup_repeats, process_runs = REPEATS[args.size]
    while len(setups) < (1 if trace else setup_repeats):
        if len(setups) >= MIN_SETUPS and sum(setups) > SETUP_BUDGET_S:
            break
        where = work / ("setup%d" % len(setups))
        dt, tv, wl, digests = set_up(name, args.seed, args.size, where,
                                     tracer)
        setups.append(dt)
        input_digests.append(digests)
    runner = Runner(tv, wl, where)
    if any(d != input_digests[0] for d in input_digests):
        runner.fail(["set-up"], "inputs differ between set-ups")

    if trace:
        setup_table = tracer.table
        tracer.table = layers.Table()
        npasses = runner.passes(args.seconds, tracer)
        metrics, table = per_layer(setup_table, tracer.table, npasses,
                                   setups[0], runner)
        units = PER_LAYER
    else:
        npasses = runner.passes(args.seconds)
        proc_costs, proc_seconds = runner.processes(process_runs)
        metrics = end_to_end(name, runner, setups, proc_costs)
        table = None
        units = END_TO_END

    failed = len(runner.failures)
    record = {
        "workload": name, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "meta": {
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "ff_solve_module": tv.linalg.ff_solve.__module__,
        },
        "samples": {
            "setups": len(setups), "passes": npasses,
            "ops_per_pass": len(wl.ops),
            "process_runs": 0 if trace else process_runs,
        },
        "op_kinds": dict(zip(("main_op", "second_op"),
                             workloads.OP_KINDS[name])),
        "setup_s": setups,
        "ref_seconds": {
            "samples": len(runner.ref_seconds),
            "median": statistics.median(runner.ref_seconds),
            "min": min(runner.ref_seconds),
            "max": max(runner.ref_seconds)},
        "ops": [{"kind": op.kind, "argv": runner.short(op.argv),
                 "seconds": runner.seconds[i], "ref": runner.cost[i],
                 "traced_seconds": runner.traced_seconds[i],
                 "traced_ref": runner.traced_cost[i],
                 "stdout_sha256": runner.digests[i]}
                for i, op in enumerate(wl.ops)],
        "process": None if trace else {
            "argv": wl.process_argv, "seconds": proc_seconds,
            "ref": proc_costs},
        "input_sha256": input_digests[-1],
        "attempted": runner.attempted, "failed": failed,
        "fail_frac": failed / runner.attempted,
        "failures": runner.failures,
        "metrics": metrics,
        "layers": table,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("# %s seed %d: %d passes of %d ops, %d/%d failed; record in %s"
          % (name, args.seed, npasses, len(wl.ops), failed, runner.attempted,
             path.relative_to(ROOT)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
