"""Benchmark of the qnarayana command line: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload power-sums --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --pin    # rewrite perfbench/references.json

Run from anywhere inside a source checkout; the program is taken from
``src/`` next to this directory and needs no install.  Every command runs
in its own fresh interpreter, started one at a time, under an address-space
cap, and every output is checked against a pinned reference digest (and,
for single values, against an integer oracle at q = 1).  The last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1.  See README.md in this directory.
"""

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
JOBS = len(os.sched_getaffinity(0))
# Largest address space of one child, so a table-memory regression fails
# one operation instead of exhausting the machine's memory; qcatalan 60,
# the largest command, peaks near 180 MB resident.
MEMORY_CAP = 1 << 30
# Every invocation must end within 180 s; no child starts after this.
BUDGET_S = 165
SETUP_SAMPLES = 11
SETUP_CODE = "import qnarayana.cli as cli; cli.build_parser()"
SWEEP_FORMATS = ("jsonl", "csv")
LAYERS = ("polyarith", "qobjects", "sums", "verify", "cli")


class Overrun(Exception):
    """The invocation's time budget ran out."""


@dataclass(frozen=True)
class Child:
    command: tuple
    wall_s: float
    rss_mb: float
    exit: int
    out: bytes
    err: bytes


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts one child interpreter at a time and waits for it to end."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def run(self, argv, command=()):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Overrun()
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=out, stderr=err, cwd=ROOT, env=self.env,
                preexec_fn=_cap_memory, start_new_session=True,
            )
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            command=tuple(command), wall_s=wall, rss_mb=usage.ru_maxrss / 1024,
            exit=proc.returncode, out=out_path.read_bytes(), err=err_path.read_bytes(),
        )

    def qnarayana(self, command, fmt, jobs):
        argv = [*command, "--format", fmt, "--jobs", str(jobs)]
        return self.run(["-m", "qnarayana", *argv], command)

    def traced(self, command, fmt, trace_path):
        argv = [*command, "--format", fmt, "--jobs", "1"]
        return self.run([str(HERE / "traced_cli.py"), str(trace_path), *argv], command)


class Tally:
    """Operations attempted and failed, and the largest resident set seen.
    An operation is one sweep case, or one single-value command."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.problems = []

    def record(self, child, ops, failed, problem):
        self.attempted += ops
        self.failed += failed
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        if failed:
            self.problems.append(f"{wl.key(child.command)}: {problem}")

    @property
    def failed_share(self):
        return self.failed / self.attempted if self.attempted else 1.0


def is_sweep(command):
    return command[0] == "verify"


def operations(command, refs):
    return refs[wl.key(command)].get("cases", 1)


def _exit_problem(child, expected):
    last = child.err.decode("utf-8", "replace").strip().splitlines()[-1:]
    return f"exit {child.exit}, expected {expected}" + "".join(f": {line}" for line in last)


def failures(child, fmt, ref):
    """(failed operations, problem) for one finished command.

    A sweep report is compared whole: a wrong exit code or digest fails
    every case in it.  Runs at --jobs 1 and --jobs N are held to the same
    digest, so they must also be byte-identical to each other.  With a
    matching report, the failed cases are those the reference itself
    records as error or fail.
    """
    ops = ref.get("cases", 1)
    if child.exit != ref["exit"]:
        return ops, _exit_problem(child, ref["exit"])
    if wl.digest(fmt, child.out) != ref[fmt]:
        return ops, f"{fmt} output differs from the pinned reference"
    if "cases" in ref:
        return ref["failed_cases"], "error or fail outcomes"
    try:
        holds = wl.oracle_holds(child.command, child.out.decode("utf-8"))
    except (ValueError, KeyError, IndexError, UnicodeDecodeError):
        holds = False
    return (0, "") if holds else (1, "q = 1 value differs from the integer route")


def output_format(command, sweep_format):
    return sweep_format if is_sweep(command) else "text"


def run_pass(runner, commands, fmt, jobs, refs, tally):
    """Run every command once, sweeps in `fmt` and single values in text;
    return each one's whole-process wall time."""
    walls = []
    for command in commands:
        out_fmt = output_format(command, fmt)
        child = runner.qnarayana(command, out_fmt, jobs)
        walls.append(child.wall_s)
        tally.record(child, operations(command, refs),
                     *failures(child, out_fmt, refs[wl.key(command)]))
    return walls


def measure_setup(runner):
    """Median seconds for a fresh interpreter to import the CLI and build
    its parser, from byte-compiled sources."""
    compileall.compile_dir(SRC, quiet=1)
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = runner.run(["-c", SETUP_CODE])
        if child.exit != 0:
            raise SystemExit(f"perfbench: cannot import qnarayana.cli:\n{child.err.decode()}")
        samples.append(child.wall_s)
    return statistics.median(samples)


def measure(runner, commands, refs, seconds, tally):
    """Passes at --jobs 1 and at --jobs N, the kind with fewer passes so
    far first, each kind switching the sweep format from pass to pass.
    After two passes of each, so that sweeps are checked in both the jsonl
    and csv formats at both jobs values, a pass runs only if a pass of its
    kind has never taken longer than the time left of `seconds`.  Single
    values ignore --jobs, so they run in the --jobs 1 passes only.  Returns,
    per jobs value, each command's wall times (a single value's are the
    same at both), and the number of passes of each kind."""
    sweeps = [c for c in commands if is_sweep(c)]
    walls = {"one": {c: [] for c in commands}, "par": {c: [] for c in sweeps}}
    passes = {"one": 0, "par": 0}
    longest = {"one": 0.0, "par": 0.0}
    start = time.monotonic()
    while True:
        due = sorted(passes, key=passes.get)
        if min(passes.values()) >= 2:
            left = seconds - (time.monotonic() - start)
            due = [which for which in due if longest[which] <= left]
            if not due:
                break
        which = due[0]
        began = time.monotonic()
        run = list(walls[which])
        fmt = SWEEP_FORMATS[passes[which] % len(SWEEP_FORMATS)]
        jobs = 1 if which == "one" else JOBS
        for command, wall in zip(run, run_pass(runner, run, fmt, jobs, refs, tally)):
            walls[which][command].append(wall)
        passes[which] += 1
        longest[which] = max(longest[which], time.monotonic() - began)
    walls["par"] = {**walls["one"], **walls["par"]}
    return walls, passes


def workload_wall(walls):
    """Whole-workload wall time: the sum over commands of each command's
    median over passes, so one slow pass of one command weighs little."""
    return sum(statistics.median(times) for times in walls.values())


def end_to_end(setup_s, walls, passes, commands, refs, tally):
    wall = workload_wall(walls["one"])
    ops = sum(operations(command, refs) for command in commands)
    return {
        "setup_s": (setup_s, "s", f"median of {SETUP_SAMPLES}"),
        "wall_s": (wall, "s", f"per-command medians of {passes['one']} passes, summed"),
        "ops_per_s": (ops / wall, "1/s", f"{ops} ops per pass over wall_s"),
        "par_wall_s": (workload_wall(walls["par"]), "s",
                       f"per-command medians of {passes['par']} passes at --jobs {JOBS},"
                       " single values from the --jobs 1 passes, summed"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB", "largest of all processes"),
    }


def _percentile(sorted_values, share):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(share * len(sorted_values)))]


def trace(runner, commands, refs, tally):
    """One untraced pass at --jobs 1 and one over the sweeps at --jobs N,
    then every command once more at --jobs 1 inside traced_cli.py.  Returns
    the per-layer metrics and any structural problem found in the trace."""
    sweeps = [c for c in commands if is_sweep(c)]
    fmt = SWEEP_FORMATS[0]
    one = dict(zip(commands, run_pass(runner, commands, fmt, 1, refs, tally)))
    par = {**one, **dict(zip(sweeps, run_pass(runner, sweeps, fmt, JOBS, refs, tally)))}
    wall = sum(one.values())
    trace_path = runner.work / "trace.json"
    records, traced_wall = [], 0.0
    for command in commands:
        ref = refs[wl.key(command)]
        out_fmt = output_format(command, fmt)
        trace_path.unlink(missing_ok=True)
        child = runner.traced(command, out_fmt, trace_path)
        traced_wall += child.wall_s
        failed, problem = failures(child, out_fmt, ref)
        record = json.loads(trace_path.read_text()) if trace_path.exists() else None
        if record and not failed:
            for other, sha in record["render_sha256"].items():
                if other in ref and sha != ref[other]:
                    failed, problem = operations(command, refs), f"traced {other} rendering differs"
        tally.record(child, operations(command, refs), failed, problem)
        if record:
            records.append(record)
    return layer_metrics(records, wall, sum(par.values()), traced_wall, commands, refs)


def layer_metrics(records, wall, par, traced_wall, commands, refs):
    spans = {}
    for record in records:
        for name, (calls, total, self_s) in record["spans"].items():
            row = spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s

    def calls(name):
        return spans.get(name, [0])[0]

    def total(name):
        return spans.get(name, [0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    cases = sorted(s for r in records for s in r["case_s"])
    lower_bound = sum(
        max(sum(r["case_s"]) / JOBS, max(r["case_s"])) if r["case_s"] else r["main_s"]
        for r in records
    )
    hits = sum(r["qbinom_cache"]["hits"] for r in records)
    misses = sum(r["qbinom_cache"]["misses"] for r in records)
    products = sum(r["counters"]["mul_coeff_products"] for r in records)
    max_bits = max((r["counters"]["mul_max_bits"] for r in records), default=0)
    entries = max((r["qbinom_cache"]["entries"] for r in records), default=0)
    mul_s = self_s("polyarith.mul")
    m = {
        "polyarith.mul_calls": (calls("polyarith.mul"), "count"),
        "polyarith.mul_self_s": (mul_s, "s"),
        "polyarith.mul_coeff_products": (products, "count"),
        "polyarith.mul_ns_per_product": (mul_s / products * 1e9 if products else 0.0, "ns"),
        "polyarith.mul_max_bits": (max_bits, "bits"),
        "polyarith.div_calls": (calls("polyarith.div"), "count"),
        "polyarith.div_self_s": (self_s("polyarith.div"), "s"),
        "polyarith.add_calls": (calls("polyarith.add"), "count"),
        "polyarith.add_self_s": (self_s("polyarith.add"), "s"),
        "polyarith.bezout_s": (total("polyarith.bezout"), "s"),
        "qobjects.qbinom_calls": (calls("qobjects.qbinom"), "count"),
        "qobjects.qbinom_s": (total("qobjects.qbinom"), "s"),
        "qobjects.table_entries": (entries, "count"),
        "qobjects.qbinom_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "qobjects.narayana_s": (total("qobjects.narayana"), "s"),
        "qobjects.catalan_s": (total("qobjects.catalan"), "s"),
        "qobjects.qsf_s": (total("qobjects.qsf"), "s"),
    }
    for kind in ("thm12", "cyclic", "cyclic_modulus", "gjz"):
        m[f"sums.{kind}_calls"] = (calls(f"sums.{kind}"), "count")
        m[f"sums.{kind}_self_s"] = (self_s(f"sums.{kind}"), "s")
    m.update({
        "verify.cases": (calls("verify.case"), "count"),
        "verify.case_p50_ms": (_percentile(cases, 0.50) * 1e3, "ms"),
        "verify.case_p99_ms": (_percentile(cases, 0.99) * 1e3, "ms"),
        "verify.case_max_ms": ((cases[-1] if cases else 0.0) * 1e3, "ms"),
        "verify.check_div_s": (total("verify.check_div"), "s"),
        "verify.proof_s": (total("verify.proof"), "s"),
        "cli.expand_s": (total("cli.expand"), "s"),
        "cli.evaluate_s": (total("cli.evaluate"), "s"),
        "cli.emit_text_s": (total("cli.emit_text"), "s"),
        "cli.emit_jsonl_s": (total("cli.emit_jsonl"), "s"),
        "cli.emit_csv_s": (total("cli.emit_csv"), "s"),
        "cli.report_bytes": (sum(r["counters"]["report_bytes"] for r in records), "bytes"),
        "cli.par_speedup": (wall / par, "x"),
        "cli.par_lower_bound_s": (lower_bound, "s"),
        "trace.overhead_share": (traced_wall / wall, "ratio"),
    })

    problems = []
    for layer in LAYERS:
        if not sum(row[0] for name, row in spans.items() if name.startswith(layer + ".")):
            problems.append(f"layer {layer} recorded no calls")
    sweep_cases = sum(operations(c, refs) for c in commands if is_sweep(c))
    gjz_expected = sum(operations(c, refs) for c in commands if c[1] == "gjz")
    if calls("verify.case") != sweep_cases:
        problems.append(f"verify.cases {calls('verify.case')} != {sweep_cases} sweep cases")
    if calls("sums.gjz") != gjz_expected:
        problems.append(f"sums.gjz_calls {calls('sums.gjz')} != {gjz_expected} gjz cases and sums")
    return m, problems


def pin(runner):
    """Write references.json from this checkout: digests and exit codes of
    every sweep in both formats at --jobs 1 and --jobs N (which must agree),
    and of every single large value (which must pass its oracle)."""
    refs = {}
    for sweep in (c for name in wl.SWEEPS for c in wl.SWEEPS[name]):
        ref = {}
        for fmt in ("jsonl", "csv"):
            one, many = runner.qnarayana(sweep, fmt, 1), runner.qnarayana(sweep, fmt, JOBS)
            if (one.exit, wl.digest(fmt, one.out)) != (many.exit, wl.digest(fmt, many.out)):
                raise SystemExit(f"perfbench: --jobs 1 and --jobs {JOBS} differ: {wl.key(sweep)}")
            ref["exit"], ref[fmt] = one.exit, wl.digest(fmt, one.out)
            if fmt == "jsonl":
                summary = json.loads(one.out.splitlines()[-1])["summary"]
                ref["cases"] = summary["cases"]
                ref["failed_cases"] = summary["failures"] + summary["errors"]
        refs[wl.key(sweep)] = ref
    for command in (c for slot in wl.LARGE_VALUE_SLOTS for c in slot):
        child = runner.qnarayana(command, "text", 1)
        if child.exit != 0 or not wl.oracle_holds(command, child.out.decode("utf-8")):
            raise SystemExit(f"perfbench: reference check failed: {wl.key(command)}")
        refs[wl.key(command)] = {"exit": 0, "text": wl.digest("text", child.out)}
    wl.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(refs)} commands in {wl.REFERENCES}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _print_metrics(workload, metrics):
    for name, (value, unit, *note) in metrics.items():
        suffix = f"  ({note[0]})" if note else ""
        print(f"{workload:<17} {name:<30} {value:>14.6g} {unit}{suffix}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite references.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "qnarayana" / "cli.py").is_file():
        print(f"perfbench: no qnarayana sources under {SRC}", file=sys.stderr)
        return 2
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.pin:
            pin(Runner(work, time.monotonic() + 3600))
            return 0
        return bench(Runner(work, time.monotonic() + BUDGET_S), args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(runner, args):
    refs = wl.load_references()
    commands = wl.commands(args.workload, args.seed)
    tally = Tally()
    problems = []
    setup_s = measure_setup(runner)
    try:
        if args.trace:
            metrics, problems = trace(runner, commands, refs, tally)
            passes = 3
        else:
            walls, counts = measure(runner, commands, refs, args.seconds, tally)
            metrics = end_to_end(setup_s, walls, counts, commands, refs, tally)
            passes = counts["one"] + counts["par"]
    except Overrun:
        print(f"perfbench: time budget of {BUDGET_S} s ran out", file=sys.stderr)
        metrics, passes = {}, 0
        problems.append("time budget ran out")
    print(
        f"# env python={platform.python_version()} nproc={JOBS} jobs={JOBS}"
        f" cpu={_cpu_model()!r} workload={args.workload} seed={args.seed}"
        f" trace={args.trace} passes={passes}"
    )
    _print_metrics(args.workload, metrics)
    print(f"{args.workload:<17} {'failed_share':<30} {tally.failed_share:>14.6g}"
          f"  ({tally.failed} of {tally.attempted} ops)")
    for problem in tally.problems + problems:
        print(f"# problem: {problem}")
    result = {
        "correct": tally.failed == 0 and not problems and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
