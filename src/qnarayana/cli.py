"""Command-line front end.

Single-value commands (qbinom, qnarayana, qcatalan, sum ...) print one
polynomial; verify runs a parameter sweep and emits a report; proof dumps a
replayed proof trace.

Report formats
    text   human-readable table with "#"-prefixed header and summary lines
    jsonl  one JSON object per line: header, meta, one record per case,
           summary; polynomial values are text-form strings and big
           coefficients always serialize as decimal strings
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
"""

import argparse
import csv
import itertools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import __version__
from .errors import InvalidModulus, InvalidParameter, NotDivisible, ProofError
from .polyarith import IntPoly
from .qobjects import q_binomial, q_catalan, q_narayana
from .sums import cyclic_sum, gjz_sum, thm12_sum
from .verify import (
    STATEMENTS,
    CaseSpec,
    Verdict,
    claim_holds,
    get_statement,
    replay_proof,
    verify_case,
)

_CSV_COLUMNS = (
    "statement",
    "n",
    "r",
    "j",
    "ns",
    "f",
    "shift",
    "divisible",
    "quotient_nonneg",
    "in_theorem_range",
    "sum_degree",
    "quotient",
)

_TEXT_COLUMNS = _CSV_COLUMNS[:-1] + ("outcome", "quotient")

_QUOTIENT_CLIP = 64


@dataclass(frozen=True)
class SweepSpec:
    """A verify sweep: statement plus inclusive parameter ranges.

    Either an explicit chain ns or a chain-length range m_range with a
    per-index bound ni_max describes the chain statements; n_range and
    r_range describe the Narayana-power statements.  A statement taking j
    sweeps exactly the j values it claims, or 0..j_max when j_max is given.
    """

    statement: str
    n_range: tuple = None
    r_range: tuple = None
    m_range: tuple = None
    ni_max: int = None
    ns: tuple = None
    j_max: int = None
    f_suite: tuple = None

    def validate(self):
        fields = get_statement(self.statement).fields
        if "ns" not in fields:
            if self.ns is not None or self.m_range is not None or self.ni_max is not None:
                raise InvalidParameter(f"{self.statement} does not take chain bounds")
            if self.n_range is None or self.r_range is None:
                raise InvalidParameter(f"{self.statement} requires --n and --r ranges")
            for name, rng in (("n", self.n_range), ("r", self.r_range)):
                if rng[0] < 1:
                    raise InvalidParameter(f"{name} range must start at >= 1, got {rng[0]}")
        else:
            if self.n_range is not None or self.r_range is not None:
                raise InvalidParameter(f"{self.statement} does not take --n/--r ranges")
            if self.ns is not None:
                if self.m_range is not None or self.ni_max is not None:
                    raise InvalidParameter("--ns excludes --m and --ni-max")
                if not self.ns or any(not isinstance(v, int) or v < 1 for v in self.ns):
                    raise InvalidParameter(f"ns entries must be integers >= 1, got {self.ns}")
            else:
                if self.m_range is None or self.ni_max is None:
                    raise InvalidParameter(
                        f"{self.statement} requires --ns or both --m and --ni-max"
                    )
                if self.m_range[0] < 1:
                    raise InvalidParameter(f"m range must start at >= 1, got {self.m_range[0]}")
                if self.ni_max < 1:
                    raise InvalidParameter(f"ni-max must be >= 1, got {self.ni_max}")
        if self.j_max is not None:
            if "j" not in fields:
                raise InvalidParameter(f"{self.statement} does not take j options")
            if self.j_max < 0:
                raise InvalidParameter(f"j-max must be >= 0, got {self.j_max}")
        if "f" in fields:
            if not self.f_suite:
                raise InvalidParameter(f"{self.statement} requires a nonempty f-suite")
            for f in self.f_suite:
                if not isinstance(f, IntPoly):
                    raise InvalidParameter(f"f-suite entries must be IntPoly, got {f!r}")
        elif self.f_suite is not None:
            raise InvalidParameter(f"{self.statement} does not take --f-suite")

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

    def _chains(self):
        if self.ns is not None:
            yield self.ns
            return
        for m in range(self.m_range[0], self.m_range[1] + 1):
            yield from itertools.product(range(1, self.ni_max + 1), repeat=m)

    def expand(self):
        """All CaseSpecs, lexicographic in (n or ns, r, j, f-suite index)."""
        name = self.statement
        statement = get_statement(name)
        if "ns" in statement.fields:
            heads = [{"ns": ns} for ns in self._chains()]
        else:
            heads = [
                {"n": n, "r": r}
                for n in range(self.n_range[0], self.n_range[1] + 1)
                for r in range(self.r_range[0], self.r_range[1] + 1)
            ]
        cases = []
        for head in heads:
            if statement.j_scale is not None:
                if self.j_max is None:
                    j_values = range(statement.j_count(head.get("r"), head.get("ns")))
                else:
                    j_values = range(self.j_max + 1)
                for j in j_values:
                    cases.append(CaseSpec(name, j=j, **head))
            elif "f" in statement.fields:
                for f in self.f_suite:
                    cases.append(CaseSpec(name, f=f, **head))
            else:
                cases.append(CaseSpec(name, **head))
        return cases


@dataclass(frozen=True)
class CaseError:
    """A case whose evaluation raised: captured so the sweep continues."""

    case: CaseSpec
    kind: str
    message: str


@dataclass(frozen=True)
class Summary:
    cases: int
    passed: int
    findings: int
    failures: int
    errors: int
    exploratory: int
    max_degree: int


@dataclass(frozen=True)
class Report:
    version: str
    spec_echo: str
    timestamp: str
    wall_seconds: float
    results: tuple
    summary: Summary


def outcome(result):
    """Classify one result: pass, finding, fail, error, or exploratory.

    Out-of-range parameters are exploratory observations whatever they show;
    in range, a failed claim is a finding for conjecture-class statements
    and a fail for theorem-class ones.
    """
    if isinstance(result, CaseError):
        return "error"
    if not result.in_theorem_range:
        return "exploratory"
    if claim_holds(result):
        return "pass"
    kind = STATEMENTS[result.case.statement].kind
    return "fail" if kind == "theorem" else "finding"


def evaluate_case(case):
    try:
        return verify_case(case)
    except Exception as exc:
        return CaseError(case=case, kind=type(exc).__name__, message=str(exc))


def summarize(results):
    counts = {"pass": 0, "finding": 0, "fail": 0, "error": 0, "exploratory": 0}
    max_degree = -1
    for result in results:
        counts[outcome(result)] += 1
        if isinstance(result, Verdict) and result.sum_degree > max_degree:
            max_degree = result.sum_degree
    return Summary(
        cases=len(results),
        passed=counts["pass"],
        findings=counts["finding"],
        failures=counts["fail"],
        errors=counts["error"],
        exploratory=counts["exploratory"],
        max_degree=max_degree,
    )


def exit_code(summary):
    if summary.failures or summary.errors:
        return 1
    if summary.findings:
        return 2
    return 0


def run_sweep(spec, jobs=1):
    """Expand, evaluate (across jobs worker processes when jobs > 1), and
    package a Report.

    Results are gathered back into expansion order, so the report content is
    independent of the worker count.
    """
    if jobs < 1:
        raise InvalidParameter(f"jobs must be >= 1, got {jobs}")
    spec.validate()
    cases = spec.expand()
    start = time.perf_counter()
    if jobs > 1 and len(cases) > 1:
        chunksize = max(1, len(cases) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = tuple(pool.map(evaluate_case, cases, chunksize=chunksize))
    else:
        results = tuple(evaluate_case(case) for case in cases)
    wall = time.perf_counter() - start
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return Report(
        version=__version__,
        spec_echo=spec.echo(),
        timestamp=timestamp,
        wall_seconds=wall,
        results=results,
        summary=summarize(results),
    )


def result_record(result):
    """One result as an ordered record; every report format renders it.

    The parameters the case sets come first, in the order n, r, j, ns, f.
    A verdict goes on with shift and divisible, then quotient and
    quotient_nonneg when divisible, then in_theorem_range and sum_degree; a
    CaseError with error and message.  ns and f (its coefficients) are
    tuples: JSON arrays in jsonl, comma-separated cells in csv and text.
    """
    record = {"statement": result.case.statement}
    for name, value in result.case.params():
        record[name] = value.coeffs if name == "f" else value
    if isinstance(result, CaseError):
        record["error"] = result.kind
        record["message"] = result.message
        return record
    record["shift"] = result.shift
    record["divisible"] = result.divisible
    if result.divisible:
        record["quotient"] = str(result.quotient)
        record["quotient_nonneg"] = result.quotient_nonneg
    record["in_theorem_range"] = result.in_theorem_range
    record["sum_degree"] = result.sum_degree
    return record


def summary_record(summary):
    """The Summary counts, in field order, followed by the exit code."""
    return {**vars(summary), "exit": exit_code(summary)}


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
    """Write a Report in the chosen format.

    All formats present the results in expansion order; only the line
    holding the timestamp and wall time varies between identical runs.
    """
    records = [result_record(result) for result in report.results]
    summary = summary_record(report.summary)
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for record in records:
            if "error" not in record:
                writer.writerow(_cells(record))
        return
    if fmt == "jsonl":
        stream.write(_dumps({"header": {"version": report.version, "sweep": report.spec_echo}}) + "\n")
        stream.write(
            _dumps({"meta": {"generated": report.timestamp, "wall_seconds": round(report.wall_seconds, 3)}})
            + "\n"
        )
        for record in records:
            stream.write(_dumps(record) + "\n")
        stream.write(_dumps({"summary": summary}) + "\n")
        return
    if fmt != "text":
        raise InvalidParameter(f"unknown format {fmt!r}")
    stream.write(f"# qnarayana {report.version}\n")
    stream.write(f"# sweep: {report.spec_echo}\n")
    stream.write(f"# generated: {report.timestamp} wall={report.wall_seconds:.3f}s\n")
    rows = []
    for result, record in zip(report.results, records):
        cells = _cells(record)
        cells[-1:] = [outcome(result), _clip(cells[-1])]
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
        help="worker processes for verify sweeps (default 1)",
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
    k.add_argument("--ns", type=_parse_int_list, required=True, metavar="N1,N2,...")
    k.add_argument(
        "--f",
        type=_parse_f,
        default=IntPoly(()),
        metavar="C0,C1,...",
        help="exponent polynomial in k, ascending coefficients (default 0)",
    )

    k = kinds.add_parser("gjz", parents=[common], help="open-chain central binomial sum")
    k.add_argument("--ns", type=_parse_int_list, required=True, metavar="N1,N2,...")
    k.add_argument("--j", type=int, required=True)

    p = commands.add_parser("verify", parents=[common], help="sweep a statement and report verdicts")
    p.add_argument("statement", choices=STATEMENTS)
    p.add_argument("--n", type=_parse_range, dest="n_range", metavar="LO..HI")
    p.add_argument("--r", type=_parse_range, dest="r_range", metavar="LO..HI")
    p.add_argument("--m", type=_parse_range, dest="m_range", metavar="LO..HI",
                   help="chain length range for chain statements")
    p.add_argument("--ni-max", type=int, dest="ni_max", metavar="B",
                   help="sweep every chain with indices in 1..B")
    p.add_argument("--ns", type=_parse_int_list, metavar="N1,N2,...",
                   help="verify one explicit chain instead of sweeping")
    p.add_argument("--j-max", type=int, dest="j_max", metavar="J",
                   help="sweep j over 0..J instead of the claimed j range")
    p.add_argument("--f-suite", type=_parse_f_suite, dest="f_suite", metavar="F1;F2;...",
                   help="conj34 exponent polynomials, ';'-separated coefficient lists")

    p = commands.add_parser("proof", parents=[common], help="replay the proof mechanics for one case")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    return parser


def _emit_poly(poly, fmt, stream, shift=None):
    if fmt == "csv":
        raise InvalidParameter("csv format applies to verify sweeps only")
    if fmt == "jsonl":
        record = {"coeffs": [str(c) for c in poly.coeffs]}
        if shift is not None:
            record["shift"] = shift
        stream.write(_dumps(record) + "\n")
        return 0
    if shift:
        stream.write(f"# normalized: value shown is the exact sum times q^{shift}\n")
    stream.write(f"{poly}\n")
    return 0


def _emit_proof(trace, fmt, stream):
    if fmt == "csv":
        raise InvalidParameter("csv format applies to verify sweeps only")
    record = {
        "n": trace.n,
        "r": trace.r,
        "j": trace.j,
        "sum": str(trace.sum_poly),
        "modulus": str(trace.modulus),
        "bezout_u": str(trace.bezout_u),
        "bezout_v": str(trace.bezout_v),
        "quotient": str(trace.quotient),
    }
    if fmt == "jsonl":
        stream.write(_dumps(record) + "\n")
        return 0
    stream.write(f"# proof replay n={trace.n} r={trace.r} j={trace.j}\n")
    for key in ("sum", "modulus", "bezout_u", "bezout_v", "quotient"):
        stream.write(f"{key} = {record[key]}\n")
    stream.write(
        "# checked: bezout_u*[2n+1]^(r-1) + bezout_v*[2n+2]^(r-1) = 1"
        " and quotient*modulus = sum\n"
    )
    return 0


def _sweep_spec(args):
    statement = STATEMENTS[args.statement]
    fields = {name: getattr(args, name, None) for name in
              ("n_range", "r_range", "m_range", "ni_max", "ns", "j_max", "f_suite")}
    if fields["ns"] is None:
        for name, value in statement.ranges.items():
            if fields[name] is None:
                fields[name] = value
    if fields["f_suite"] is None:
        fields["f_suite"] = statement.f_suite
    return SweepSpec(statement=args.statement, **fields)


def _dispatch(args, stream):
    """Run one parsed command; argparse admits no other command or sum kind."""
    command = args.command
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
    if command == "verify":
        report = run_sweep(_sweep_spec(args), args.jobs)
        emit_report(report, args.format, stream)
        return exit_code(report.summary)
    return _emit_proof(replay_proof(args.n, args.r, args.j), args.format, stream)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as stream:
                return _dispatch(args, stream)
        return _dispatch(args, sys.stdout)
    except ProofError as exc:
        print(f"qnarayana: proof falsified: {exc}", file=sys.stderr)
        return 1
    except NotDivisible as exc:
        print(f"qnarayana: not a polynomial: {exc}", file=sys.stderr)
        return 1
    except (InvalidParameter, InvalidModulus) as exc:
        print(f"qnarayana: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"qnarayana: error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        print(f"qnarayana: error: input too large ({exc!r})", file=sys.stderr)
        return 1
