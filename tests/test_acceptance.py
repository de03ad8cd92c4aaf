"""End-to-end acceptance checks, all at zero tolerance.

Each check prints one "ACCEPTANCE criterion N: PASS/FAIL" line (visible with
pytest -s) so the whole contract can be read off the log at a glance.
"""

import io
import math
import time
from contextlib import contextmanager

from qnarayana.cli import SweepSpec, emit_report, exit_code, run_sweep
from qnarayana.polyarith import (
    ONE,
    Q,
    ZERO,
    IntPoly,
    eval_int,
    exact_div,
)
from qnarayana.qobjects import q_binomial, q_catalan, q_integer, q_shifted_factorial
from qnarayana.sums import cyclic_sum, thm12_sum
from qnarayana.verify import (
    DEFAULT_F_SUITE,
    STATEMENTS,
    CaseSpec,
    check_divisibility,
    replay_proof,
    verify_case,
)


@contextmanager
def criterion(number):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number}: FAIL")
        raise
    print(f"ACCEPTANCE criterion {number}: PASS")


def assert_clean_sweep(report):
    """Every case passed; nothing failed, no findings, no errors."""
    summary = report.summary
    assert summary.cases > 0
    assert summary.passed == summary.cases
    assert summary.findings == 0
    assert summary.failures == 0
    assert summary.errors == 0
    assert exit_code(summary) == 0


def render(report, fmt):
    buffer = io.StringIO()
    emit_report(report, fmt, buffer)
    return buffer.getvalue()


def stable_lines(text):
    return [
        line
        for line in text.splitlines()
        if not line.startswith("# generated:") and not line.startswith('{"meta":')
    ]


def test_criterion_1_thm12_sweep_divisible():
    with criterion(1):
        start = time.monotonic()
        for n in range(1, 11):
            for r in range(1, 4):
                for j in range(2 * r):
                    verdict = verify_case(CaseSpec("thm12", n=n, r=r, j=j))
                    assert verdict.divisible is True
                    assert verdict.in_theorem_range is True
        assert time.monotonic() - start < 120


def test_criterion_2_thm11_sweep_divisible():
    with criterion(2):
        start = time.monotonic()
        for n in range(1, 15):
            for r in range(1, 5):
                verdict = verify_case(CaseSpec("thm11", n=n, r=r))
                assert verdict.divisible is True
        assert time.monotonic() - start < 60


def test_criterion_3_pinned_values():
    with criterion(3):
        assert thm12_sum(1, 1, 0) == Q**2
        assert thm12_sum(1, 1, 1) == ONE
        assert thm12_sum(2, 1, 0) == IntPoly((0, 0, 0, 0, 0, 0, 1, 0, 1))
        modulus = q_catalan(2)
        assert modulus == IntPoly((1, 0, 1))
        assert check_divisibility(thm12_sum(2, 1, 0), modulus) == Q**6
        assert q_catalan(3) == IntPoly((1, 0, 1, 1, 1, 0, 1))


def test_criterion_4_conj32_boundary_and_claimed_range():
    with criterion(4):
        boundary = verify_case(CaseSpec("conj32", n=1, r=1, j=2))
        assert boundary.divisible is True
        assert boundary.quotient == IntPoly((1, 1, 0, -1))
        assert any(c < 0 for c in boundary.quotient.coeffs)
        assert boundary.quotient_nonneg is False
        assert boundary.in_theorem_range is False
        report = run_sweep(SweepSpec("conj32", n_range=(1, 8), r_range=(1, 3)))
        assert_clean_sweep(report)
        assert all(v.quotient_nonneg is True for v in report.results)


def test_criterion_5_gjz_sweep_nonnegative():
    with criterion(5):
        start = time.monotonic()
        report = run_sweep(SweepSpec("gjz", m_range=(1, 4), ni_max=5))
        assert report.summary.cases == 5 + 25 * 2 + 125 * 3 + 625 * 4
        assert_clean_sweep(report)
        assert all(v.quotient_nonneg is True for v in report.results)
        assert time.monotonic() - start < 300


def test_criterion_6_proof_replay():
    with criterion(6):
        for n in range(1, 7):
            for r in range(1, 4):
                a = q_integer(2 * n + 1) ** (r - 1)
                b = q_integer(2 * n + 2) ** (r - 1)
                for j in range(2 * r):
                    trace = replay_proof(n, r, j)
                    assert trace.bezout_u * a + trace.bezout_v * b == ONE
                    assert isinstance(trace.quotient, IntPoly)
                    assert trace.quotient * trace.modulus == trace.sum_poly
        pinned = replay_proof(1, 2, 0)
        assert pinned.bezout_u == -Q
        assert pinned.bezout_v == ONE
        assert replay_proof(1, 1, 0).bezout_u == ZERO


def test_criterion_7_pascal_equals_factorial_route():
    with criterion(7):
        for n in range(31):
            for k in range(n + 1):
                value = q_binomial(n, k)
                divisor = q_shifted_factorial(k) * q_shifted_factorial(n - k)
                assert value == exact_div(q_shifted_factorial(n), divisor)
                assert value == q_binomial(n, n - k)
                assert value.coeffs == tuple(reversed(value.coeffs))
                assert eval_int(value, 1) == math.comb(n, k)
                if n > 0 and 0 < k < n:
                    assert value == q_binomial(n - 1, k - 1) + Q**k * q_binomial(
                        n - 1, k
                    )


def test_criterion_8_bridge_identities():
    with criterion(8):
        for n in range(1, 16):
            assert q_binomial(2 * n + 1, n) == q_catalan(n) * q_integer(2 * n + 1)
        for n in range(1, 7):
            for r in range(1, 4):
                scale = q_integer(2 * n + 1) ** r
                for j in range(2 * r):
                    chained = cyclic_sum((n,) * r, IntPoly((0, 0, j)))
                    assert chained.shift == 0
                    assert chained.poly == scale * thm12_sum(n, r, j)
        for n in range(1, 9):
            left_scale = q_integer(2 * n + 2)
            right_scale = q_integer(2 * n + 1)
            for k in range(-n, n + 1):
                left = q_binomial(2 * n + 1, n + k) * q_binomial(2 * n + 1, n + k + 1)
                right = q_binomial(2 * n, n + k) * q_binomial(2 * n + 2, n + k + 1)
                assert left_scale * left == right_scale * right


def test_criterion_9_conjecture_sweeps_and_determinism():
    with criterion(9):
        for statement in ("conj31", "conj33", "conj34"):
            assert STATEMENTS[statement].kind == "conjecture"
        assert_clean_sweep(run_sweep(SweepSpec("conj31", m_range=(1, 3), ni_max=6)))
        assert_clean_sweep(run_sweep(SweepSpec("conj33", m_range=(1, 3), ni_max=4)))
        assert_clean_sweep(
            run_sweep(
                SweepSpec("conj34", m_range=(1, 2), ni_max=5, f_suite=DEFAULT_F_SUITE)
            )
        )
        spec = SweepSpec("conj33", m_range=(1, 2), ni_max=3)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert render(serial, "csv") == render(parallel, "csv")
        for fmt in ("text", "jsonl"):
            assert stable_lines(render(serial, fmt)) == stable_lines(
                render(parallel, fmt)
            )
