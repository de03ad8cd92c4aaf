"""Sweep expansion, report emission in all three formats, determinism
across runs and worker counts, round-tripping of report polynomials, and the
exit-code contract."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnarayana import cli
from qnarayana.cli import (
    Report,
    SweepSpec,
    _parse_range,
    build_parser,
    emit_report,
    evaluate_case,
    main,
    result_record,
    run_sweep,
    summarize,
)
from qnarayana.errors import InvalidParameter
from qnarayana.polyarith import IntPoly
from qnarayana.sums import thm12_sum
from qnarayana.verify import DEFAULT_F_SUITE, STATEMENTS, CaseSpec, Verdict, outcome, verify_case

CSV_HEADER = (
    "statement,n,r,j,ns,f,shift,divisible,quotient_nonneg,"
    "in_theorem_range,sum_degree,quotient"
)

# Each verify option: a tiny value, and the case parameter it sets.
VERIFY_OPTIONS = {
    "--n": ("1", "n"),
    "--r": ("1", "r"),
    "--m": ("1", "ns"),
    "--ni-max": ("1", "ns"),
    "--ns": ("1", "ns"),
    "--j-max": ("0", "j"),
    "--f-suite": ("0", "f"),
}


def error_row():
    """The (outcome, record) pair of a case that raises: thm12 without j."""
    return evaluate_case(CaseSpec("thm12", n=1, r=1))


def paired(verdict):
    return outcome(verdict), result_record(verdict)


def render(report, fmt):
    buffer = io.StringIO()
    emit_report(report, fmt, buffer)
    return buffer.getvalue()


def stable_lines(text):
    """Report lines minus the single timestamp/wall line."""
    return [
        line
        for line in text.splitlines()
        if not line.startswith("# generated:") and not line.startswith('{"meta":')
    ]


class TestSweepSpecExpansion:
    def test_pinned_count_and_order(self):
        spec = SweepSpec("thm12", n_range=(1, 3), r_range=(1, 2))
        cases = spec.expand()
        assert len(cases) == 18
        assert cases[0] == CaseSpec("thm12", n=1, r=1, j=0)
        assert cases[1] == CaseSpec("thm12", n=1, r=1, j=1)
        assert cases[2] == CaseSpec("thm12", n=1, r=2, j=0)
        assert cases[-1] == CaseSpec("thm12", n=3, r=2, j=3)

    def test_chain_order_is_length_then_lexicographic(self):
        spec = SweepSpec("conj31", m_range=(1, 2), ni_max=2)
        assert [case.ns for case in spec.expand()] == [
            (1,),
            (2,),
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
        ]

    def test_f_suite_order(self):
        spec = SweepSpec("conj34", ns=(1,), f_suite=DEFAULT_F_SUITE)
        assert [case.f for case in spec.expand()] == list(DEFAULT_F_SUITE)

    def test_extended_j_mode(self):
        spec = SweepSpec("thm12", n_range=(1, 1), r_range=(1, 1), j_max=4)
        assert [case.j for case in spec.expand()] == [0, 1, 2, 3, 4]
        assert spec.echo() == "statement=thm12 n=1..1 r=1..1 j=0..4"

    def test_gjz_theorem_j_follows_chain_length(self):
        spec = SweepSpec("gjz", m_range=(1, 2), ni_max=1)
        assert [(case.ns, case.j) for case in spec.expand()] == [
            ((1,), 0),
            ((1, 1), 0),
            ((1, 1), 1),
        ]

    def test_empty_range(self):
        spec = SweepSpec("thm12", n_range=(2, 1), r_range=(1, 1))
        assert spec.expand() == []

    def test_validation_errors(self):
        with pytest.raises(InvalidParameter):
            SweepSpec("thm12", n_range=(1, 2)).validate()
        with pytest.raises(InvalidParameter):
            SweepSpec("thm12", n_range=(1, 2), r_range=(1, 1), ns=(1,)).validate()
        with pytest.raises(InvalidParameter, match="does not take"):
            SweepSpec("thm12", ns=(1,)).validate()
        with pytest.raises(InvalidParameter):
            SweepSpec("conj31", n_range=(1, 2)).validate()
        with pytest.raises(InvalidParameter):
            SweepSpec("conj31", ns=(1,), ni_max=3).validate()
        with pytest.raises(InvalidParameter, match="j-max must be >= 0"):
            SweepSpec("thm12", n_range=(1, 1), r_range=(1, 1), j_max=-1).validate()
        with pytest.raises(InvalidParameter, match="does not take j options"):
            SweepSpec("conj31", ns=(1,), j_max=3).validate()
        with pytest.raises(InvalidParameter):
            SweepSpec("conj31", ns=(1,), f_suite=DEFAULT_F_SUITE).validate()
        with pytest.raises(InvalidParameter):
            SweepSpec("conj34", ns=(1,), f_suite=()).validate()
        with pytest.raises(InvalidParameter):
            SweepSpec("thm11", n_range=(0, 2), r_range=(1, 1)).validate()
        with pytest.raises(InvalidParameter):
            SweepSpec("bogus", n_range=(1, 1), r_range=(1, 1)).validate()


class TestOutcomes:
    def test_passing_theorem_case(self):
        verdict = verify_case(CaseSpec("thm12", n=1, r=1, j=0))
        assert outcome(verdict) == "pass"

    def test_out_of_range_is_exploratory(self):
        verdict = verify_case(CaseSpec("conj32", n=1, r=1, j=2))
        assert outcome(verdict) == "exploratory"

    def test_synthetic_finding_and_failure(self):
        conjecture_case = CaseSpec("conj32", n=1, r=1, j=1)
        finding = Verdict(conjecture_case, 4, 0, IntPoly((-1, 1)))
        assert outcome(finding) == "finding"
        theorem_case = CaseSpec("thm12", n=1, r=1, j=1)
        failure = Verdict(theorem_case, 4, 0, None)
        assert outcome(failure) == "fail"
        assert error_row()[0] == "error"

    def test_verdict_flags_are_derived(self):
        negative = Verdict(CaseSpec("conj32", n=1, r=1, j=1), 4, 0, IntPoly((-1, 1)))
        assert (negative.divisible, negative.quotient_nonneg) == (True, False)
        assert negative.in_theorem_range
        missing = Verdict(CaseSpec("thm12", n=1, r=1, j=1), 4, 0, None)
        assert (missing.divisible, missing.quotient_nonneg) == (False, None)
        assert missing.in_theorem_range
        beyond = Verdict(CaseSpec("gjz", ns=(1, 1), j=2), 2, 0, IntPoly((0, 1)))
        assert (beyond.divisible, beyond.quotient_nonneg) == (True, True)
        assert not beyond.in_theorem_range

    def test_summary_record_is_the_jsonl_summary(self):
        results = (
            evaluate_case(CaseSpec("thm12", n=1, r=1, j=0)),
            evaluate_case(CaseSpec("conj32", n=1, r=1, j=2)),
            error_row(),
        )
        summary = summarize(results)
        assert summary == {
            "cases": 3, "passed": 1, "findings": 0, "failures": 0, "errors": 1,
            "exploratory": 1, "max_degree": 3, "exit": 1,
        }
        report = Report("0.0-test", "statement=thm12", "1970-01-01T00:00:00Z", 0.0, results)
        line = render(report, "jsonl").splitlines()[-1]
        assert list(json.loads(line)["summary"]) == list(summary)

    def test_summary_exit_code(self):
        passing = evaluate_case(CaseSpec("thm12", n=1, r=1, j=0))
        finding = paired(Verdict(CaseSpec("conj32", n=1, r=1, j=1), 4, 0, IntPoly((-1, 1))))
        failure = paired(Verdict(CaseSpec("thm12", n=1, r=1, j=1), 4, 0, None))
        error = error_row()
        assert summarize(())["exit"] == 0
        assert summarize((passing,))["exit"] == 0
        assert summarize((passing, finding))["exit"] == 2
        assert summarize((passing, failure))["exit"] == 1
        assert summarize((error, finding))["exit"] == 1
        assert summarize((failure, finding))["exit"] == 1

    def test_rendering_error_keeps_the_sweep_going(self, monkeypatch, capsys):
        def render_all_but_j1(verdict):
            if verdict.case.j == 1:
                raise ValueError("cannot render")
            return result_record(verdict)

        monkeypatch.setattr(cli, "result_record", render_all_but_j1)
        argv = ["verify", "thm12", "--n", "1", "--r", "1", "--jobs", "1", "--format", "jsonl"]
        assert main(argv) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[2:]]
        assert [record.get("error") for record in records[:2]] == [None, "ValueError"]
        assert records[1]["message"] == "cannot render"
        assert records[2]["summary"]["passed"] == 1
        assert records[2]["summary"]["errors"] == 1

    def test_evaluate_case_captures_errors(self):
        assert evaluate_case(CaseSpec("thm12", n=1, r=1)) == (
            "error",
            {
                "statement": "thm12", "n": 1, "r": 1,
                "error": "InvalidParameter", "message": "thm12 requires j",
            },
        )


class TestReports:
    def test_jsonl_contains_pinned_quotient(self):
        spec = SweepSpec("thm12", n_range=(2, 2), r_range=(1, 1))
        text = render(run_sweep(spec), "jsonl")
        assert '"quotient":"q^6"' in text

    def test_jsonl_structure(self):
        spec = SweepSpec("thm12", n_range=(1, 2), r_range=(1, 1))
        lines = render(run_sweep(spec), "jsonl").splitlines()
        header = json.loads(lines[0])
        assert header["header"]["sweep"] == "statement=thm12 n=1..2 r=1..1 j=theorem"
        assert json.loads(lines[1])["meta"]["generated"]
        record = json.loads(lines[2])
        assert list(record) == [
            "statement",
            "n",
            "r",
            "j",
            "shift",
            "divisible",
            "quotient",
            "quotient_nonneg",
            "in_theorem_range",
            "sum_degree",
        ]
        summary = json.loads(lines[-1])["summary"]
        assert summary["cases"] == 4
        assert summary["exit"] == 0

    def test_csv_header_is_bit_exact(self):
        spec = SweepSpec("thm12", n_range=(1, 1), r_range=(1, 1))
        text = render(run_sweep(spec), "csv")
        assert text.splitlines()[0] == CSV_HEADER

    def test_csv_rows(self):
        spec = SweepSpec("thm12", n_range=(2, 2), r_range=(1, 1))
        lines = render(run_sweep(spec), "csv").splitlines()
        assert lines[1] == "thm12,2,1,0,,,0,true,true,true,8,q^6"
        assert lines[2] == "thm12,2,1,1,,,0,true,true,true,2,1"

    def test_text_format_shape(self):
        spec = SweepSpec("gjz", ns=(3,))
        lines = render(run_sweep(spec), "text").splitlines()
        assert lines[0].startswith("# qnarayana ")
        assert lines[1] == "# sweep: statement=gjz ns=3 j=theorem"
        assert lines[2].startswith("# generated: ")
        assert lines[3].split() == [
            "statement", "n", "r", "j", "ns", "f", "shift", "divisible",
            "quotient_nonneg", "in_theorem_range", "sum_degree", "outcome",
            "quotient",
        ]
        assert lines[4].split()[-1] == "0"
        assert lines[-1].startswith("# summary: cases=1 passed=1 ")

    def test_round_trip_of_report_polynomials(self):
        spec = SweepSpec("conj33", m_range=(1, 2), ni_max=2)
        report = run_sweep(spec)
        lines = stable_lines(render(report, "jsonl"))[1:-1]
        assert len(lines) == len(report.results)
        verdicts = [verify_case(case) for case in spec.expand()]
        assert any(verdict.divisible for verdict in verdicts)
        for verdict, (_, record), line in zip(verdicts, report.results, lines):
            if verdict.divisible:
                text = str(verdict.quotient)
                assert json.loads(line)["quotient"] == record["quotient"] == text

    def test_error_records_in_jsonl(self, monkeypatch):
        good = evaluate_case(CaseSpec("thm12", n=1, r=1, j=0))

        def boom(case):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "verify_case", boom)
        bad = evaluate_case(CaseSpec("thm12", n=1, r=1, j=0))
        report = Report(
            version="0.0-test",
            spec_echo="statement=thm12 n=1..1 r=1..1 j=theorem",
            timestamp="1970-01-01T00:00:00Z",
            wall_seconds=0.0,
            results=(good, bad),
        )
        lines = render(report, "jsonl").splitlines()
        error_line = json.loads(lines[3])
        assert error_line["error"] == "RuntimeError"
        assert error_line["message"] == "boom"
        assert json.loads(lines[-1])["summary"]["exit"] == 1
        csv_lines = render(report, "csv").splitlines()
        assert len(csv_lines) == 2
        for fmt in ("text", "jsonl", "csv"):
            assert emit_report(report, fmt, io.StringIO()) == 1

    def test_empty_sweep_is_valid(self):
        spec = SweepSpec("thm12", n_range=(2, 1), r_range=(1, 1))
        report = run_sweep(spec)
        assert summarize(report.results)["cases"] == 0
        assert emit_report(report, "csv", io.StringIO()) == 0
        assert render(report, "csv").splitlines() == [CSV_HEADER]
        assert json.loads(render(report, "jsonl").splitlines()[-1])["summary"]["cases"] == 0
        assert render(report, "text").splitlines()[-1].startswith("# summary: cases=0")


class TestDeterminism:
    def test_repeat_runs_are_identical_modulo_timestamp(self):
        spec = SweepSpec("conj33", m_range=(1, 2), ni_max=2)
        first = run_sweep(spec)
        second = run_sweep(spec)
        for fmt in ("text", "jsonl", "csv"):
            assert stable_lines(render(first, fmt)) == stable_lines(render(second, fmt))

    def test_parallel_equals_serial(self):
        serial = run_sweep(SweepSpec("conj34", m_range=(1, 1), ni_max=3, f_suite=DEFAULT_F_SUITE))
        parallel = run_sweep(
            SweepSpec("conj34", m_range=(1, 1), ni_max=3, f_suite=DEFAULT_F_SUITE), jobs=3
        )
        for fmt in ("text", "jsonl", "csv"):
            assert stable_lines(render(serial, fmt)) == stable_lines(render(parallel, fmt))

    def test_error_rows_built_in_workers(self):
        # 3**40 exceeds sys.maxsize, so cyclic_sum raises OverflowError at
        # f = k^40 before it allocates anything.
        spec = SweepSpec("conj34", ns=(3,), f_suite=(IntPoly((0, 0, 1)), IntPoly((0,) * 40 + (1,))))
        serial = run_sweep(spec)
        parallel = run_sweep(spec, jobs=2)
        for fmt in ("text", "jsonl", "csv"):
            assert stable_lines(render(serial, fmt)) == stable_lines(render(parallel, fmt))
        assert summarize(parallel.results)["errors"] == 1
        assert parallel.results[1][1]["error"] == "OverflowError"


def is_plain(value):
    if isinstance(value, tuple):
        return all(type(item) is int for item in value)
    return type(value) in (str, int, bool)


@pytest.mark.parametrize(
    "spec",
    [
        SweepSpec("thm12", n_range=(1, 2), r_range=(1, 2), j_max=4),
        SweepSpec("gjz", m_range=(1, 2), ni_max=2),
    ],
    ids=["thm12", "gjz"],
)
def test_sweep_results_are_plain_outcome_record_pairs(spec):
    """A report retains no Verdict and no IntPoly: each case is already its
    outcome and a record of plain values."""
    results = run_sweep(spec).results
    assert len(results) == len(spec.expand())
    for result in results:
        assert type(result) is tuple and len(result) == 2
        kind, record = result
        assert kind in ("pass", "finding", "fail", "error", "exploratory")
        assert type(record) is dict
        assert all(is_plain(value) for value in record.values()), record


class TestWorkers:
    @pytest.fixture
    def requested(self, monkeypatch):
        """Worker counts asked of a stand-in pool that maps in this process."""
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        return requested

    def two_cases(self):
        return SweepSpec("thm12", n_range=(1, 1), r_range=(1, 1))

    def test_workers_bounded_by_cases(self, requested, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        report = run_sweep(self.two_cases(), jobs=64)
        assert requested == [2]
        assert len(report.results) == 2

    def test_workers_bounded_by_cpus(self, requested, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        run_sweep(self.two_cases(), jobs=64)
        assert requested == []

    def test_one_job_builds_no_pool(self, requested):
        report = run_sweep(self.two_cases(), jobs=1)
        assert requested == []
        assert len(report.results) == 2


class TestCommandLine:
    def test_parse_range(self):
        assert _parse_range("3") == (3, 3)
        assert _parse_range("2..5") == (2, 5)

    def test_qbinom_command(self, capsys):
        assert main(["qbinom", "4", "2"]) == 0
        assert capsys.readouterr().out == "q^4 + q^3 + 2*q^2 + q + 1\n"

    def test_single_value_beyond_the_str_digit_limit(self, monkeypatch, capsys):
        # 5000 digits, more than str converts under the default limit (4300).
        big = 10**4999 + 7
        digits = "1" + "0" * 4998 + "7"
        monkeypatch.setattr(cli, "q_catalan", lambda n: IntPoly((-big, 3)))
        assert main(["qcatalan", "3", "--format", "jsonl"]) == 0
        assert json.loads(capsys.readouterr().out) == {"coeffs": ["-" + digits, "3"]}
        assert main(["qcatalan", "3"]) == 0
        assert capsys.readouterr().out == f"3*q - {digits}\n"

    def test_qcatalan_jsonl(self, capsys):
        assert main(["qcatalan", "3", "--format", "jsonl"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {"coeffs": ["1", "0", "1", "1", "1", "0", "1"]}

    def test_qnarayana_command(self, capsys):
        assert main(["qnarayana", "3", "2"]) == 0
        assert capsys.readouterr().out == "q^2 + q + 1\n"

    def test_sum_thm12_command(self, capsys):
        assert main(["sum", "thm12", "--n", "2", "--r", "1", "--j", "0"]) == 0
        assert capsys.readouterr().out == "q^8 + q^6\n"

    def test_sum_thm12_at_a_high_power(self, capsys):
        assert main(["sum", "thm12", "--n", "1", "--r", "600", "--j", "0"]) == 0
        assert capsys.readouterr().out == f"{thm12_sum(1, 600, 0)}\n"

    def test_sum_cyclic_shift_comment(self, capsys):
        assert main(["sum", "cyclic", "--ns", "2", "--f", "0,0,0,1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# normalized: value shown is the exact sum times q^5\n")

    def test_sum_cyclic_jsonl_carries_shift(self, capsys):
        assert main(["sum", "cyclic", "--ns", "1", "--format", "jsonl"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["shift"] == 0
        assert record["coeffs"] == ["0", "0", "1", "1", "1"]

    def test_sum_gjz_command(self, capsys):
        assert main(["sum", "gjz", "--ns", "1,1", "--j", "0"]) == 0
        assert capsys.readouterr().out == "q\n"

    def test_proof_command_text(self, capsys):
        assert main(["proof", "--n", "1", "--r", "2", "--j", "0"]) == 0
        out = capsys.readouterr().out
        assert "bezout_u = -q" in out
        assert "bezout_v = 1" in out

    def test_proof_command_jsonl(self, capsys):
        assert main(["proof", "--n", "1", "--r", "1", "--j", "0", "--format", "jsonl"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["quotient"] == "q^2"
        assert record["modulus"] == "q^2 + q + 1"

    def test_verify_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code = main(
            ["verify", "thm12", "--n", "2", "--r", "1", "--format", "csv", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        lines = target.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].endswith(",q^6")

    def test_verify_exit_zero_on_pass(self, capsys):
        assert main(["verify", "conj33", "--m", "1..1", "--ni-max", "2"]) == 0
        assert "# summary:" in capsys.readouterr().out

    def test_single_value_rejects_csv(self, capsys):
        assert main(["qbinom", "4", "2", "--format", "csv"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["qbinom", "4", "2"],
            ["qnarayana", "3", "2"],
            ["qcatalan", "3"],
            ["sum", "thm12", "--n", "2", "--r", "1", "--j", "0"],
            ["sum", "cyclic", "--ns", "2"],
            ["sum", "gjz", "--ns", "1,1", "--j", "0"],
            ["proof", "--n", "1", "--r", "2", "--j", "0"],
        ],
    )
    def test_csv_rejected_outside_verify(self, capsys, argv):
        assert main([*argv, "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qnarayana: error: csv format applies to verify sweeps only\n"

    def test_failed_command_keeps_out_file(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "kept.txt"
        target.write_text("earlier output\n")
        assert main(["verify", "thm12", "--n", "0..1", "--r", "1", "--out", str(target)]) == 1
        assert main(["qbinom", "3", "1", "--format", "csv", "--out", str(target)]) == 1
        assert target.read_text() == "earlier output\n"
        assert main(["qbinom", "3", "1", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == "q^2 + q + 1\n"

        def boom(case):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "verify_case", boom)
        argv = ["verify", "thm12", "--n", "1", "--r", "1", "--format", "jsonl", "--out", str(target)]
        assert main(argv) == 1
        assert json.loads(target.read_text().splitlines()[-1])["summary"]["exit"] == 1

    def test_recursion_limit_exits_without_traceback(self, capsys):
        # Once past the old recursion limit of the binomial table.
        assert main(["qbinom", "600", "1", "--format", "jsonl"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert sum(int(c) for c in json.loads(captured.out)["coeffs"]) == 600

    @pytest.mark.parametrize("error", [RecursionError, MemoryError, OverflowError])
    def test_too_large_input_exits_one(self, monkeypatch, capsys, error):
        def exhausted(n, k):
            raise error("exhausted")

        monkeypatch.setattr(cli, "q_binomial", exhausted)
        assert main(["qbinom", "4", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qnarayana: error: input too large (")
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["thm12", "--n", "1", "--r", "1", "--j", str(10**20)],
        ["gjz", "--ns", "1", "--j", str(10**20)],
        ["cyclic", "--ns", "3", "--f", ",".join(["0"] * 40 + ["1"])],
    ])
    def test_exponent_beyond_an_index_is_too_large(self, capsys, args):
        # The exponent cannot size a coefficient list: an OverflowError.
        assert main(["sum", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qnarayana: error: input too large (OverflowError(")

    def test_internal_error_exits_without_traceback(self, monkeypatch, capsys):
        def broken(n):
            raise ArithmeticError("boom")

        monkeypatch.setattr(cli, "q_catalan", broken)
        assert main(["qcatalan", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qnarayana: internal error: boom\n"
        assert "Traceback" not in captured.err

    def test_invalid_parameter_exits_one(self, capsys):
        assert main(["qcatalan", "0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_proof_out_of_range_exits_one(self, capsys):
        assert main(["proof", "--n", "1", "--r", "1", "--j", "3"]) == 1
        assert "error" in capsys.readouterr().err

    def test_usage_errors_exit_one(self):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["verify", "bogus"])
        assert excinfo.value.code == 1
        with pytest.raises(SystemExit) as excinfo:
            main(["sum", "thm12", "--n", "1"])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "thm12", "--jobs", "0"], "jobs must be >= 1, got 0"),
            (["verify", "thm12", "--n", "1..2", "--r", "1", "--j-max", "-1"],
             "j-max must be >= 0"),
            (["verify", "conj31", "--j-max", "2"], "does not take j options"),
            (["verify", "thm12", "--j-mode", "extended", "--j-max", "3"],
             "unrecognized arguments: --j-mode extended"),
            (["verify", "conj31", "--ns", "0,1"], "chain indices must be integers >= 1, got 0"),
            (["verify", "thm12", "--n", "1..x"], "argument --n: invalid LO..HI value: '1..x'"),
            (["verify", "conj31", "--ns", "1,x"], "argument --ns: invalid N1,N2,... value: '1,x'"),
            (["verify", "conj34", "--ns", "1", "--f-suite", "0,x"],
             "argument --f-suite: invalid F1;F2;... value: '0,x'"),
        ],
    )
    def test_sweep_option_errors_exit_one(self, capsys, argv, message):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert "_parse" not in captured.err

    def test_malformed_exponent_polynomial_exits_one(self, capsys):
        for f in ("0,x,2", "0,x"):
            with pytest.raises(SystemExit) as excinfo:
                main(["sum", "cyclic", "--ns", "2", "--f", f])
            assert excinfo.value.code == 1
            err = capsys.readouterr().err
            assert f"argument --f: invalid C0,C1,... value: '{f}'" in err
            assert "_parse" not in err

    def test_verify_rejects_mixed_chain_flags(self, capsys):
        assert main(["verify", "conj31", "--ns", "1,2", "--ni-max", "3"]) == 1
        assert "error" in capsys.readouterr().err

    def test_f_suite_flag(self, capsys):
        code = main(
            ["verify", "conj34", "--ns", "1", "--f-suite", "0;0,0,2", "--format", "jsonl"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines[2:-1]]
        assert [record["f"] for record in records] == [[], [0, 0, 2]]

    @pytest.mark.parametrize("option", VERIFY_OPTIONS)
    @pytest.mark.parametrize("statement", STATEMENTS)
    def test_option_taken_exactly_when_its_parameter_is(self, capsys, statement, option):
        value, param = VERIFY_OPTIONS[option]
        code = main(["verify", statement, option, value, "--format", "csv"])
        captured = capsys.readouterr()
        if param in STATEMENTS[statement].fields:
            assert code in (0, 2)
            assert captured.out.startswith(CSV_HEADER + "\n")
            assert captured.err == ""
        else:
            assert code == 1
            assert captured.out == ""
            assert "does not take" in captured.err

    def test_closed_pipe_exits_141_quietly(self):
        # The report runs to about 790 kB, far past a pipe's buffer, so the
        # program is still writing when the reader closes its end.
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        argv = [sys.executable, "-m", "qnarayana", "verify", "gjz", "--format", "csv"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            assert child.stdout.readline().decode() == CSV_HEADER + "\n"
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        assert child.returncode == 141
        assert err == b""
