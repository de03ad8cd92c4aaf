"""Command-line front end.

Single-value commands (qbinom, qnarayana, qcatalan, sum ...) print one
polynomial; verify runs a parameter sweep and emits a report; proof dumps a
replayed proof trace.  Each output is one record that every format renders,
and each emitter returns the command's exit code.  A sweep case becomes its
(outcome, record) pair where it is evaluated, in the worker under --jobs.

Report formats
    text   human-readable table with "#"-prefixed header and summary lines
    jsonl  one JSON object per line: header, meta, one record per case,
           summary; polynomial values are text-form strings, and ns and f
           are JSON integer arrays
    csv    fixed column set, verdict rows only (errors and the summary
           appear in the other formats)

Verdict records list parameters first (only those the statement uses), then
shift, divisible, quotient, quotient_nonneg, in_theorem_range, sum_degree.
Reports are byte-identical across runs and across --jobs settings except for
the single self-contained line carrying the timestamp and wall time.

Exit codes
    0  every theorem-class case passed (exploratory observations included)
    2  at least one conjecture-class finding was recorded, nothing failed
    1  theorem-class falsification, internal error, or usage error
    130  interrupted by Ctrl-C (128 + SIGINT); nothing more is printed
    141  the reader closed standard output early (128 + SIGPIPE)
"""

import argparse
import csv
import io
import itertools
import json
import os
import sys
import time
from collections import Counter, namedtuple

from . import __version__
from .errors import InvalidParameter, NotDivisible, ProofError
from .polyarith import IntPoly, int_text
from .qobjects import q_binomial, q_catalan, q_narayana
from .sums import check_bound, cyclic_sum, gjz_sum, thm12_sum, validated_ns
from .verify import (
    PARAMS,
    STATEMENTS,
    CaseSpec,
    get_statement,
    outcome,
    replay_proof,
    verify_case,
)

_CSV_COLUMNS = (
    "statement",
    *PARAMS,
    "shift",
    "divisible",
    "quotient_nonneg",
    "in_theorem_range",
    "sum_degree",
    "quotient",
)

_TEXT_COLUMNS = _CSV_COLUMNS[:-1] + ("outcome", "quotient")

_QUOTIENT_CLIP = 64

# Each verify option: the SweepSpec field, the case parameter it sets, what a
# statement without that parameter "does not take", and what a bound error
# calls the option (None for the values validate checks by their own rule).
_OPTIONS = (
    ("n_range", "n", "--n/--r ranges", "n range start"),
    ("r_range", "r", "--n/--r ranges", "r range start"),
    ("m_range", "ns", "chain bounds", "m range start"),
    ("ni_max", "ns", "chain bounds", "ni-max"),
    ("ns", "ns", "chain bounds", None),
    ("j_max", "j", "j options", "j-max"),
    ("f_suite", "f", "--f-suite", None),
)


class SweepSpec(namedtuple("SweepSpec", "statement n_range r_range m_range ni_max ns j_max f_suite",
                           defaults=(None,) * 7)):
    """A verify sweep: statement plus inclusive parameter ranges.

    Either an explicit chain ns or a chain-length range m_range with a
    per-index bound ni_max describes the chain statements; n_range and
    r_range describe the Narayana-power statements.  A statement taking j
    sweeps exactly the j values it claims, or 0..j_max when j_max is given.
    """

    __slots__ = ()

    def validate(self):
        fields = get_statement(self.statement).fields
        for option, param, words, name in _OPTIONS:
            value = getattr(self, option)
            if value is None:
                continue
            if param not in fields:
                raise InvalidParameter(f"{self.statement} does not take {words}")
            if name is not None:
                check_bound(param, value[0] if option.endswith("_range") else value, name)
            if option.endswith("_range") and value[1] < value[0]:
                end = name.replace("start", "end")
                raise InvalidParameter(f"{end} must be >= {value[0]}, got {value[1]}")
        if "n" in fields:
            if self.n_range is None or self.r_range is None:
                raise InvalidParameter(f"{self.statement} requires --n and --r ranges")
        elif self.ns is not None:
            if self.m_range is not None or self.ni_max is not None:
                raise InvalidParameter("--ns excludes --m and --ni-max")
            validated_ns(self.ns)
        elif self.m_range is None or self.ni_max is None:
            raise InvalidParameter(f"{self.statement} requires --ns or both --m and --ni-max")
        if "f" in fields:
            if not self.f_suite:
                raise InvalidParameter(f"{self.statement} requires a nonempty f-suite")
            for f in self.f_suite:
                if not isinstance(f, IntPoly):
                    raise InvalidParameter(f"f-suite entries must be IntPoly, got {f!r}")

    def echo(self):
        """Deterministic one-line description of the sweep."""
        parts = [f"statement={self.statement}"]
        if self.ns is not None:
            parts.append("ns=" + ",".join(str(v) for v in self.ns))
        if self.n_range is not None:
            parts.append(f"n={self.n_range[0]}..{self.n_range[1]}")
        if self.r_range is not None:
            parts.append(f"r={self.r_range[0]}..{self.r_range[1]}")
        if self.m_range is not None:
            parts.append(f"m={self.m_range[0]}..{self.m_range[1]}")
        if self.ni_max is not None:
            parts.append(f"ni_max={self.ni_max}")
        if "j" in get_statement(self.statement).fields:
            parts.append("j=theorem" if self.j_max is None else f"j=0..{self.j_max}")
        if self.f_suite is not None:
            parts.append("f=" + ";".join(_cell(f.coeffs) for f in self.f_suite))
        return " ".join(parts)

    def expand(self):
        """All CaseSpecs, lexicographic in (n or ns, r, j, f-suite index)."""
        statement = get_statement(self.statement)
        if self.ns is not None:
            heads = [{"ns": self.ns}]
        elif "ns" in statement.fields:
            heads = [{"ns": ns} for m in range(self.m_range[0], self.m_range[1] + 1)
                     for ns in itertools.product(range(1, self.ni_max + 1), repeat=m)]
        else:
            heads = [{"n": n, "r": r} for n in range(self.n_range[0], self.n_range[1] + 1)
                     for r in range(self.r_range[0], self.r_range[1] + 1)]
        cases = []
        for head in heads:
            j_values = [None]
            if "j" in statement.fields:
                j_count = statement.j_count(head.get("r"), head.get("ns"))
                j_values = range(j_count if self.j_max is None else self.j_max + 1)
            cases += [CaseSpec(self.statement, j=j, f=f, **head)
                      for j in j_values for f in self.f_suite or [None]]
        return cases


class Report(namedtuple("Report", "version spec_echo timestamp wall_seconds results")):
    """A finished sweep.  results holds one (outcome, record) pair per case,
    in expansion order, as evaluate_case returned it."""

    __slots__ = ()


def evaluate_case(case):
    """The case's (outcome, record) pair; a case that raises becomes an
    "error" record with the exception's kind and message, so the sweep goes on."""
    try:
        verdict = verify_case(case)
        return outcome(verdict), result_record(verdict)
    except Exception as exc:
        return "error", {**_case_record(case), "error": type(exc).__name__, "message": str(exc)}


def summarize(results):
    """The summary record every format renders: the outcome counts, the
    largest sum degree, then exit (1 on any fail or error, else 2 on any
    finding, else 0)."""
    counts = Counter(kind for kind, _ in results)
    record = {
        "cases": len(results),
        "passed": counts["pass"],
        "findings": counts["finding"],
        "failures": counts["fail"],
        "errors": counts["error"],
        "exploratory": counts["exploratory"],
        "max_degree": max((r["sum_degree"] for _, r in results if "sum_degree" in r), default=-1),
    }
    record["exit"] = 1 if counts["fail"] or counts["error"] else 2 if counts["finding"] else 0
    return record


def _fork_map(cases, workers):
    """evaluate_case over cases in workers forked processes, in the order given.

    The cases go in chunks of len(cases) // (8 * workers) (at least one).
    Worker w evaluates chunks w, w + workers, w + 2 * workers, ... in turn
    and writes each to its own pipe as one pickled tuple of pairs; the caller
    reads chunk i from worker i % workers.  Workers ignore Ctrl-C, and a
    worker whose parent is gone ends at its next write.  Leaving, by any
    exception too, kills and reaps them; a worker that dies raises
    ChildProcessError.  Forked rather than spawned, workers start with the
    cases and modules already loaded, so the caller must run no other thread.
    """
    # Imported here, so that a command forking no worker does not pay for them.
    import pickle
    import signal

    size = max(1, len(cases) // (8 * workers))
    chunks = range(0, len(cases), size)
    pids, replies = [], []
    try:
        for worker in range(workers):
            reply_r, reply_w = os.pipe()
            replies.append(os.fdopen(reply_r, "rb"))
            # Blocked, so that Ctrl-C lands neither before the child ignores
            # it nor before the parent has recorded the child to kill.
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        signal.signal(signal.SIGINT, signal.SIG_IGN)
                        # Only the parent keeps a reply pipe's read end, so
                        # that once it is gone this worker's write ends in
                        # BrokenPipeError.
                        for reply in replies:
                            reply.close()
                        reply_out = os.fdopen(reply_w, "wb")
                        for lo in chunks[worker::workers]:
                            pickle.dump(tuple(map(evaluate_case, cases[lo:lo + size])), reply_out)
                            reply_out.flush()
                    finally:
                        os._exit(0)
                pids.append(pid)
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
                # Closed before the next fork, so that only this worker holds
                # its reply pipe open and the pipe ends when the worker does.
                os.close(reply_w)
        results = []
        for chunk in range(len(chunks)):
            results += pickle.load(replies[chunk % workers])
    except (EOFError, pickle.UnpicklingError):
        # A reply pipe ended before its worker's last chunk.
        raise ChildProcessError("a worker process died") from None
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reply in replies:
            reply.close()
    return results


def run_sweep(spec, jobs=1):
    """Expand, evaluate, and package a Report.  Cases are evaluated in the
    order the statement's order key gives (cases sharing cached work in a
    row), or in expansion order without one.  They are spread over
    min(jobs, cases, CPUs this process may run on) forked worker processes
    when that is more than one and the platform has os.fork, in fixed
    interleaved chunks cut from that order (_fork_map); otherwise they run
    in this process.

    Each case becomes its plain (outcome, record) pair where it is
    evaluated, so no quotient polynomial outlives its case, and the pair is
    put back at the case's expansion index: the report is independent of
    the evaluation order and the worker count.
    """
    if jobs < 1:
        raise InvalidParameter(f"jobs must be >= 1, got {jobs}")
    spec.validate()
    cases = spec.expand()
    start = time.perf_counter()
    key = get_statement(spec.statement).order
    order = sorted(range(len(cases)), key=lambda i: key(cases[i])) if key else range(len(cases))
    ordered = [cases[i] for i in order]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, len(cases), cpus) if hasattr(os, "fork") else 1
    results = [None] * len(cases)
    pairs = _fork_map(ordered, workers) if workers > 1 else map(evaluate_case, ordered)
    for index, pair in zip(order, pairs):
        results[index] = pair
    wall = time.perf_counter() - start
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return Report(
        version=__version__,
        spec_echo=spec.echo(),
        timestamp=timestamp,
        wall_seconds=wall,
        results=tuple(results),
    )


def _case_record(case):
    """The statement, then the parameters the case sets, in the order n, r,
    j, ns, f.  ns and f (its coefficients) are tuples: JSON arrays in jsonl,
    comma-separated cells in csv and text."""
    params = {name: value.coeffs if name == "f" else value for name, value in case.params()}
    return {"statement": case.statement, **params}


def result_record(verdict):
    """A verdict as an ordered record of plain values: the case's statement
    and parameters, shift and divisible, then quotient (as text) and
    quotient_nonneg when divisible, then in_theorem_range and sum_degree."""
    record = {**_case_record(verdict.case), "shift": verdict.shift, "divisible": verdict.divisible}
    if verdict.divisible:
        record.update(quotient=str(verdict.quotient), quotient_nonneg=verdict.quotient_nonneg)
    record.update(in_theorem_range=verdict.in_theorem_range, sum_degree=verdict.sum_degree)
    return record


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def _clip(text, limit=_QUOTIENT_CLIP):
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _cell(value):
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value) or "0"
    return str(value)


def _cells(record):
    """A record's csv cells; an error's kind and message fill the quotient
    cell."""
    cells = [_cell(record.get(column)) for column in _CSV_COLUMNS]
    if "error" in record:
        cells[-1] = f"{record['error']}: {record['message']}"
    return cells


def emit_report(report, fmt, stream):
    """Write a Report in the chosen format and return its exit code.

    All formats present the results in expansion order; only the line
    holding the timestamp and wall time varies between identical runs.
    """
    summary = summarize(report.results)
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for _, record in report.results:
            if "error" not in record:
                writer.writerow(_cells(record))
        return summary["exit"]
    if fmt == "jsonl":
        stream.write(_dumps({"header": {"version": report.version, "sweep": report.spec_echo}}) + "\n")
        stream.write(
            _dumps({"meta": {"generated": report.timestamp, "wall_seconds": round(report.wall_seconds, 3)}})
            + "\n"
        )
        for _, record in report.results:
            stream.write(_dumps(record) + "\n")
        stream.write(_dumps({"summary": summary}) + "\n")
        return summary["exit"]
    if fmt != "text":
        raise InvalidParameter(f"unknown format {fmt!r}")
    stream.write(f"# qnarayana {report.version}\n")
    stream.write(f"# sweep: {report.spec_echo}\n")
    stream.write(f"# generated: {report.timestamp} wall={report.wall_seconds:.3f}s\n")
    rows = []
    for kind, record in report.results:
        cells = _cells(record)
        cells[-1:] = [kind, _clip(cells[-1])]
        rows.append([text or "-" for text in cells])
    widths = [len(column) for column in _TEXT_COLUMNS]
    for row in rows:
        widths = [max(w, len(text)) for w, text in zip(widths, row)]
    header = "  ".join(column.ljust(width) for column, width in zip(_TEXT_COLUMNS, widths))
    stream.write(header.rstrip() + "\n")
    for row in rows:
        line = "  ".join(text.ljust(width) for text, width in zip(row, widths))
        stream.write(line.rstrip() + "\n")
    summary_text = " ".join(f"{key}={value}" for key, value in summary.items())
    stream.write(f"# summary: {summary_text}\n")
    return summary["exit"]


def _parse_range(text):
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        return int(lo_text), int(hi_text)
    value = int(text)
    return value, value


def _parse_int_list(text):
    return tuple(int(part.strip()) for part in text.split(","))


def _parse_f(text):
    """An exponent polynomial in k from its ascending coefficients, such as
    "0,0,2" for 2k^2."""
    return IntPoly(_parse_int_list(text))


def _parse_f_suite(text):
    return tuple(_parse_f(part) for part in text.split(";"))


def _option(parse, metavar):
    """argparse type and metavar for an option read by parse; a malformed
    value is reported against the metavar the usage line shows."""
    def convert(text):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {metavar} value: {text!r}") from None
    return {"type": convert, "metavar": metavar}


_RANGE = _option(_parse_range, "LO..HI")
_INT_LIST = _option(_parse_int_list, "N1,N2,...")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; 2 means "finding" here,
    so usage errors are remapped to the generic error code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "jsonl", "csv"),
        default="text",
        help="output format (default text; csv applies to verify sweeps)",
    )
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="W",
        help="at most W worker processes for verify sweeps (default 1)",
    )
    common.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write output to PATH instead of standard output",
    )

    parser = _Parser(
        prog="qnarayana",
        description="Exact verification of alternating q-Narayana and q-binomial sum congruences.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = commands.add_parser("qbinom", parents=[common], help="print a Gaussian binomial")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = commands.add_parser("qnarayana", parents=[common], help="print a q-Narayana polynomial")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = commands.add_parser("qcatalan", parents=[common], help="print a q-Catalan polynomial")
    p.add_argument("n", type=int)

    p = commands.add_parser("sum", help="evaluate one alternating sum")
    kinds = p.add_subparsers(dest="sum_kind", required=True, metavar="kind")

    k = kinds.add_parser("thm12", parents=[common], help="q-Narayana power sum")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--r", type=int, required=True)
    k.add_argument("--j", type=int, required=True)

    k = kinds.add_parser("cyclic", parents=[common], help="cyclic-chain binomial-pair sum")
    k.add_argument("--ns", required=True, **_INT_LIST)
    k.add_argument(
        "--f",
        default=IntPoly(()),
        help="exponent polynomial in k, ascending coefficients (default 0)",
        **_option(_parse_f, "C0,C1,..."),
    )

    k = kinds.add_parser("gjz", parents=[common], help="open-chain central binomial sum")
    k.add_argument("--ns", required=True, **_INT_LIST)
    k.add_argument("--j", type=int, required=True)

    p = commands.add_parser("verify", parents=[common], help="sweep a statement and report verdicts")
    p.add_argument("statement", choices=STATEMENTS)
    p.add_argument("--n", dest="n_range", **_RANGE)
    p.add_argument("--r", dest="r_range", **_RANGE)
    p.add_argument("--m", dest="m_range", help="chain length range for chain statements",
                   **_RANGE)
    p.add_argument("--ni-max", type=int, dest="ni_max", metavar="B",
                   help="sweep every chain with indices in 1..B")
    p.add_argument("--ns", help="verify one explicit chain instead of sweeping", **_INT_LIST)
    p.add_argument("--j-max", type=int, dest="j_max", metavar="J",
                   help="sweep j over 0..J instead of the claimed j range")
    p.add_argument("--f-suite", dest="f_suite",
                   help="conj34 exponent polynomials, ';'-separated coefficient lists",
                   **_option(_parse_f_suite, "F1;F2;..."))

    p = commands.add_parser("proof", parents=[common], help="replay the proof mechanics for one case")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    return parser


def _emit_poly(poly, fmt, stream, shift=None):
    if fmt == "jsonl":
        record = {"coeffs": [int_text(c) for c in poly.coeffs]}
        if shift is not None:
            record["shift"] = shift
        stream.write(_dumps(record) + "\n")
        return 0
    if shift:
        stream.write(f"# normalized: value shown is the exact sum times q^{shift}\n")
    stream.write(f"{poly}\n")
    return 0


def _emit_proof(trace, fmt, stream):
    """The trace's fields are the record's keys; polynomials become text."""
    record = {key: value if isinstance(value, int) else str(value) for key, value in trace._asdict().items()}
    if fmt == "jsonl":
        stream.write(_dumps(record) + "\n")
        return 0
    stream.write(f"# proof replay n={trace.n} r={trace.r} j={trace.j}\n")
    for key, value in record.items():
        if isinstance(value, str):
            stream.write(f"{key} = {value}\n")
    stream.write(
        "# checked: bezout_u*[2n+1]^(r-1) + bezout_v*[2n+2]^(r-1) = 1"
        " and quotient*modulus = sum\n"
    )
    return 0


def _sweep_spec(args):
    statement = STATEMENTS[args.statement]
    fields = {option: getattr(args, option) for option, *_ in _OPTIONS}
    defaults = {"f_suite": statement.f_suite, **(statement.ranges if args.ns is None else {})}
    for option, value in defaults.items():
        if fields[option] is None:
            fields[option] = value
    return SweepSpec(statement=args.statement, **fields)


def _dispatch(args, stream):
    """Run one parsed command and return its exit code; argparse admits no
    other command or sum kind."""
    command = args.command
    if command == "verify":
        return emit_report(run_sweep(_sweep_spec(args), args.jobs), args.format, stream)
    if args.format == "csv":
        raise InvalidParameter("csv format applies to verify sweeps only")
    if command == "qbinom":
        return _emit_poly(q_binomial(args.n, args.k), args.format, stream)
    if command == "qnarayana":
        return _emit_poly(q_narayana(args.n, args.k), args.format, stream)
    if command == "qcatalan":
        return _emit_poly(q_catalan(args.n), args.format, stream)
    if command == "sum":
        if args.sum_kind == "thm12":
            return _emit_poly(thm12_sum(args.n, args.r, args.j), args.format, stream)
        if args.sum_kind == "cyclic":
            normalized = cyclic_sum(args.ns, args.f)
            return _emit_poly(normalized.poly, args.format, stream, shift=normalized.shift)
        return _emit_poly(gjz_sum(args.ns, args.j), args.format, stream)
    return _emit_proof(replay_proof(args.n, args.r, args.j), args.format, stream)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Render first, so a command that fails leaves an existing file alone.
        stream = io.StringIO() if args.out else sys.stdout
        code = _dispatch(args, stream)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as out:
                out.write(stream.getvalue())
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone: send what is still buffered nowhere, so the
        # flush at exit cannot fail, and exit as SIGPIPE would end a process.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        return 130
    except ProofError as exc:
        print(f"qnarayana: proof falsified: {exc}", file=sys.stderr)
        return 1
    except NotDivisible as exc:
        print(f"qnarayana: not a polynomial: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError, OverflowError) as exc:
        # Before ArithmeticError, of which OverflowError is a subclass.
        print(f"qnarayana: error: input too large ({exc!r})", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"qnarayana: internal error: {exc}", file=sys.stderr)
        return 1
    except (InvalidParameter, OSError) as exc:
        print(f"qnarayana: error: {exc}", file=sys.stderr)
        return 1
