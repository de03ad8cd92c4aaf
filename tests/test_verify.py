"""Verdict construction, statement classification, and the proof replay."""

import pytest

from qnarayana import verify
from qnarayana.errors import InvalidModulus, InvalidParameter, ProofError
from qnarayana.polyarith import ONE, Q, ZERO, IntPoly, exact_div
from qnarayana.qobjects import q_binomial, q_integer
from qnarayana.sums import cyclic_modulus, cyclic_sum
from qnarayana.verify import (
    STATEMENTS,
    CaseSpec,
    ProofTrace,
    Verdict,
    check_divisibility,
    claim_holds,
    replay_proof,
    verify_case,
)


class TestStatementCatalog:
    def test_classification_is_total(self):
        assert list(STATEMENTS) == [
            "thm11", "thm12", "gjz", "conj31", "conj32", "conj33", "conj34",
        ]
        assert {name: s.kind for name, s in STATEMENTS.items()} == {
            "thm11": "theorem",
            "thm12": "theorem",
            "gjz": "theorem",
            "conj31": "conjecture",
            "conj32": "conjecture",
            "conj33": "conjecture",
            "conj34": "conjecture",
        }
        assert {name: s.claim for name, s in STATEMENTS.items()} == {
            "thm11": "divisible",
            "thm12": "divisible",
            "gjz": "nonneg_poly",
            "conj31": "divisible",
            "conj32": "nonneg_quotient",
            "conj33": "nonneg_quotient",
            "conj34": "divisible",
        }


class TestCheckDivisibility:
    def test_pinned_divisible(self):
        quotient = check_divisibility(IntPoly((0, 0, 0, 0, 0, 0, 1, 0, 1)), IntPoly((1, 0, 1)))
        assert quotient == IntPoly((0, 0, 0, 0, 0, 0, 1))

    def test_pinned_trivial_modulus_with_negative_quotient(self):
        quotient = check_divisibility(IntPoly((1, 1, 0, -1)), ONE)
        assert quotient == IntPoly((1, 1, 0, -1))

    def test_pinned_not_divisible(self):
        assert check_divisibility(IntPoly((1, 1)), IntPoly((1, 1, 1))) is None

    def test_rejects_bad_modulus(self):
        with pytest.raises(InvalidModulus):
            check_divisibility(ONE, ZERO)
        with pytest.raises(InvalidModulus):
            check_divisibility(ONE, IntPoly((2,)))
        with pytest.raises(InvalidModulus):
            check_divisibility(ONE, Q)


class TestCaseSpec:
    def test_required_and_forbidden_fields(self):
        with pytest.raises(InvalidParameter):
            verify_case(CaseSpec("thm12", n=1, r=1))
        with pytest.raises(InvalidParameter):
            verify_case(CaseSpec("thm11", n=1, r=1, j=0))
        with pytest.raises(InvalidParameter):
            verify_case(CaseSpec("conj31", ns=(1,), n=1))
        with pytest.raises(InvalidParameter):
            verify_case(CaseSpec("nope", n=1))
        with pytest.raises(InvalidParameter):
            verify_case(CaseSpec("conj34", ns=(1,), f=(0, 0, 1)))
        with pytest.raises(InvalidParameter):
            verify_case(CaseSpec("gjz", ns=(0,), j=0))

    def test_in_theorem_range(self):
        assert CaseSpec("thm12", n=1, r=1, j=1).in_theorem_range()
        assert not CaseSpec("thm12", n=1, r=1, j=2).in_theorem_range()
        assert CaseSpec("conj33", ns=(1, 2), j=3).in_theorem_range()
        assert not CaseSpec("conj33", ns=(1, 2), j=4).in_theorem_range()
        assert CaseSpec("gjz", ns=(1, 2), j=1).in_theorem_range()
        assert not CaseSpec("gjz", ns=(1, 2), j=2).in_theorem_range()
        assert CaseSpec("conj34", ns=(1,), f=IntPoly(())).in_theorem_range()

    def test_ns_normalized_to_tuple(self):
        case = CaseSpec("conj31", ns=[1, 2])
        assert case.ns == (1, 2)


class TestVerifyCase:
    def test_thm11_pin(self):
        verdict = verify_case(CaseSpec("thm11", n=2, r=1))
        assert verdict.divisible
        assert verdict.quotient == ONE
        assert verdict.in_theorem_range

    def test_thm12_pin(self):
        verdict = verify_case(CaseSpec("thm12", n=1, r=1, j=1))
        assert verdict.divisible
        assert verdict.quotient == ONE
        assert verdict.quotient_nonneg
        assert verdict.sum_degree == 0

    def test_conj31_pin(self):
        verdict = verify_case(CaseSpec("conj31", ns=(1,)))
        assert verdict.divisible
        assert verdict.quotient == ONE

    def test_conj32_boundary_pin(self):
        verdict = verify_case(CaseSpec("conj32", n=1, r=1, j=2))
        assert verdict.divisible
        assert verdict.quotient == IntPoly((1, 1, 0, -1))
        assert not verdict.quotient_nonneg
        assert not verdict.in_theorem_range
        assert not claim_holds(verdict)

    def test_conj33_pin(self):
        verdict = verify_case(CaseSpec("conj33", ns=(1,), j=0))
        assert verdict.divisible
        assert verdict.quotient == IntPoly((0, 0, 1))
        assert verdict.quotient_nonneg

    def test_conj34_shifted_case(self):
        verdict = verify_case(CaseSpec("conj34", ns=(2,), f=IntPoly((0, 0, 0, 1))))
        assert verdict.shift == 5
        assert verdict.divisible
        assert claim_holds(verdict)

    def test_gjz_pin(self):
        verdict = verify_case(CaseSpec("gjz", ns=(1, 1), j=0))
        assert verdict.divisible
        assert verdict.quotient == Q
        assert verdict.quotient_nonneg
        assert verdict.sum_degree == 1

    def test_gjz_zero_sum(self):
        verdict = verify_case(CaseSpec("gjz", ns=(3,), j=0))
        assert verdict.divisible
        assert verdict.quotient == ZERO
        assert verdict.quotient_nonneg
        assert verdict.sum_degree == -1

    def test_claim_holds_per_statement(self):
        assert claim_holds(verify_case(CaseSpec("thm12", n=1, r=1, j=0)))
        assert claim_holds(verify_case(CaseSpec("conj34", ns=(2,), f=IntPoly((0, 1, 2)))))
        assert claim_holds(verify_case(CaseSpec("gjz", ns=(2, 1), j=1)))

    def test_power_and_cyclic_routes_share_the_quotient(self):
        for n in (1, 2, 3):
            for r in (1, 2):
                for j in range(2 * r):
                    verdict = verify_case(CaseSpec("thm12", n=n, r=r, j=j))
                    cyc = cyclic_sum((n,) * r, IntPoly((0, 0, j)))
                    cyc_quotient = exact_div(cyc.poly, cyclic_modulus((n,) * r))
                    assert verdict.divisible
                    assert verdict.quotient == cyc_quotient


class TestReplayProof:
    def test_pinned_cofactors(self):
        trace = replay_proof(1, 2, 0)
        assert trace.bezout_u == -Q
        assert trace.bezout_v == ONE

    def test_pinned_trivial_power_case(self):
        trace = replay_proof(1, 1, 0)
        assert trace.modulus == IntPoly((1, 1, 1))
        assert trace.quotient == IntPoly((0, 0, 1))
        assert trace.bezout_u == ZERO
        assert trace.bezout_v == ONE

    def test_trace_identities_reexpand(self):
        for n in (1, 2, 3):
            for r in (1, 2):
                for j in range(2 * r):
                    trace = replay_proof(n, r, j)
                    power_a = q_integer(2 * n + 1) ** (r - 1)
                    power_b = q_integer(2 * n + 2) ** (r - 1)
                    assert trace.bezout_u * power_a + trace.bezout_v * power_b == ONE
                    assert trace.quotient * trace.modulus == trace.sum_poly
                    expected_modulus = q_binomial(2 * n + 1, n) * q_integer(2 * n + 1) ** (
                        r - 1
                    )
                    assert trace.modulus == expected_modulus

    def test_failed_base_identity_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "q_integer", lambda m: IntPoly((2,) * m))
        with pytest.raises(ProofError, match="is not 1"):
            replay_proof(1, 2, 0)

    def test_rejects_out_of_range_parameters(self):
        with pytest.raises(InvalidParameter):
            replay_proof(0, 1, 0)
        with pytest.raises(InvalidParameter):
            replay_proof(1, 1, 2)
        with pytest.raises(InvalidParameter):
            replay_proof(1, 1, -1)
