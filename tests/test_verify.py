"""Verdict construction, statement classification, and the proof replay."""

import importlib
import itertools
import pkgutil
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qnarayana
from qnarayana import cli, polyarith, qobjects, sums, verify
from qnarayana.cli import main
from qnarayana.errors import InvalidParameter, NotDivisible, ProofError
from qnarayana.polyarith import ONE, Q, ZERO, IntPoly, exact_div, factor_ratio, ratio_poly
from qnarayana.qobjects import q_binomial, q_integer
from qnarayana.sums import cyclic_modulus, cyclic_modulus_factors, cyclic_sum
from qnarayana.verify import (
    STATEMENTS,
    CaseSpec,
    ProofTrace,
    Verdict,
    check_divisibility,
    outcome,
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


# Coefficients up to 2**100 of either sign, 0 to 20 terms.
wide_polys = st.lists(
    st.one_of(st.integers(min_value=-9, max_value=9),
              st.integers(min_value=-(2**100), max_value=2**100)),
    max_size=20,
).map(lambda cs: IntPoly(tuple(cs)))

# (up, down) multisets whose ratio is a polynomial: pairs (c*t, t), since
# 1 - q^t divides 1 - q^(c*t), plus numerator factors of their own.
factor_ratios = st.tuples(
    st.lists(st.tuples(st.integers(min_value=1, max_value=8),
                       st.integers(min_value=1, max_value=4)), max_size=4),
    st.lists(st.integers(min_value=1, max_value=12), max_size=3),
).map(lambda parts: (tuple([c * t for t, c in parts[0]] + parts[1]),
                    tuple(t for t, _ in parts[0])))


def modulus_by_long_division(up, down):
    """The product of (1 - q^t) over up divided by that over down, by the
    general multiply and long division."""
    numerator = denominator = ONE
    for t in up:
        numerator = numerator * (ONE - ONE.shift(t))
    for t in down:
        denominator = denominator * (ONE - ONE.shift(t))
    return exact_div(numerator, denominator)


def as_ratio(up, down):
    """The factor_ratio value of the product of (1 - q^t) over up divided by
    that over down."""
    return factor_ratio([*((t, 1) for t in up), *((t, -1) for t in down)])


def long_division_outcome(poly, modulus):
    try:
        return exact_div(poly, modulus)
    except NotDivisible:
        return None


class TestCheckDivisibility:
    def test_pinned_divisible(self):
        quotient = check_divisibility(IntPoly((0, 0, 0, 0, 0, 0, 1, 0, 1)), ((2, -1), (4, 1)))
        assert quotient == IntPoly((0, 0, 0, 0, 0, 0, 1))

    def test_pinned_trivial_modulus_with_negative_quotient(self):
        quotient = check_divisibility(IntPoly((1, 1, 0, -1)), ())
        assert quotient == IntPoly((1, 1, 0, -1))

    def test_pinned_not_divisible(self):
        assert check_divisibility(IntPoly((1, 1)), ((1, -1), (3, 1))) is None

    def test_factors_that_are_no_polynomial_raise(self):
        with pytest.raises(NotDivisible):
            check_divisibility(ONE, ((1, 1), (2, -1)))

    def test_factors_define_the_modulus(self):
        # (1 - q^3) / (1 - q) is 1 + q + q^2, whatever modulus was meant.
        assert ratio_poly(((1, -1), (3, 1))) == IntPoly((1, 1, 1))
        assert check_divisibility(IntPoly((1, 1, 1)), ((1, -1), (3, 1))) == ONE
        assert check_divisibility(IntPoly((1, 0, 1)), ((1, -1), (3, 1))) is None

    @given(factor_ratios, wide_polys)
    def test_matches_long_division_on_multiples(self, factors, quotient):
        modulus = modulus_by_long_division(*factors)
        poly = modulus * quotient
        assert check_divisibility(poly, as_ratio(*factors)) == quotient == exact_div(poly, modulus)

    @given(factor_ratios, wide_polys, wide_polys.filter(bool))
    def test_matches_long_division_on_perturbed_input(self, factors, quotient, error):
        modulus = modulus_by_long_division(*factors)
        poly = modulus * quotient + error
        assert check_divisibility(poly, as_ratio(*factors)) == long_division_outcome(poly, modulus)

    def test_default_conj33_sweep_builds_each_modulus_once(self, capsys):
        ranges = STATEMENTS["conj33"].ranges
        chains = [ns for m in range(ranges["m_range"][0], ranges["m_range"][1] + 1)
                  for ns in itertools.product(range(1, ranges["ni_max"] + 1), repeat=m)]
        ratio_poly.cache_clear()
        assert main(["verify", "conj33", "--format", "csv"]) == 0
        capsys.readouterr()
        assert len(chains) == 84
        moduli = {cyclic_modulus_factors(ns) for ns in chains}
        assert ratio_poly.cache_info().misses == len(moduli) == 73


def test_every_cache_is_read_twice(capsys):
    """The package caches exactly these functions, and a small sweep reads
    each of them again: a cache nothing re-reads is only memory."""
    sweeps = {
        "_qbinom": ["gjz", "--m", "1..2", "--ni-max", "3"],
        "ratio_poly": ["conj33", "--m", "1..2", "--ni-max", "2"],
        "_narayana_row": ["thm12", "--n", "1..2", "--r", "1..2"],
        "_cyclic_products": ["conj33", "--m", "1..2", "--ni-max", "2"],
        "_gjz_chain": ["gjz", "--m", "1..2", "--ni-max", "3"],
    }
    for info in pkgutil.iter_modules(qnarayana.__path__):
        importlib.import_module(f"qnarayana.{info.name}")
    cached = {fn for name, module in sys.modules.items() if name.partition(".")[0] == "qnarayana"
              for fn in vars(module).values() if hasattr(fn, "cache_info")}
    assert sorted(fn.__name__ for fn in cached) == sorted(sweeps)
    for fn in cached:
        fn.cache_clear()
        main(["verify", *sweeps[fn.__name__], "--format", "csv"])
        capsys.readouterr()
        assert fn.cache_info().hits >= 1, fn.__name__


class TestNoLongDivision:
    """Sweeps and the proof replay divide one (1 - q^t) factor at a time:
    general long division runs only inside gcd_bezout."""

    SWEEPS = [
        ["thm12", "--n", "1..4", "--r", "1..2"],
        ["conj32", "--n", "1..3", "--r", "1..2", "--j-max", "5"],
        ["conj33", "--m", "1..2", "--ni-max", "3"],
        ["conj34", "--m", "1..2", "--ni-max", "3"],
        ["gjz", "--m", "1..2", "--ni-max", "3", "--j-max", "3"],
    ]

    def run(self, capsys):
        outputs = []
        for args in self.SWEEPS:
            code = main(["verify", *args, "--format", "csv"])
            outputs.append((code, capsys.readouterr().out))
        return outputs, replay_proof(2, 3, 1)

    def test_outputs_unchanged_with_long_division_forbidden(self, monkeypatch, capsys):
        expected = self.run(capsys)
        in_bezout = []
        bezout = verify.gcd_bezout

        def traced_bezout(*args):
            in_bezout.append(True)
            try:
                return bezout(*args)
            finally:
                in_bezout.pop()

        def forbidden(fn):
            def call(*args):
                if not in_bezout:
                    raise AssertionError(f"{fn.__name__} called outside gcd_bezout")
                return fn(*args)
            return call

        monkeypatch.setattr(verify, "gcd_bezout", traced_bezout)
        for name in ("exact_div", "divmod_poly"):
            guarded = forbidden(getattr(polyarith, name))
            for module in (polyarith, qobjects, sums, verify, cli, qnarayana):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, guarded)
        assert self.run(capsys) == expected


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
        assert outcome(verdict) == "exploratory"

    def test_conj33_pin(self):
        verdict = verify_case(CaseSpec("conj33", ns=(1,), j=0))
        assert verdict.divisible
        assert verdict.quotient == IntPoly((0, 0, 1))
        assert verdict.quotient_nonneg

    def test_conj34_shifted_case(self):
        verdict = verify_case(CaseSpec("conj34", ns=(2,), f=IntPoly((0, 0, 0, 1))))
        assert verdict.shift == 5
        assert verdict.divisible
        assert outcome(verdict) == "pass"

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
        assert outcome(verify_case(CaseSpec("thm12", n=1, r=1, j=0))) == "pass"
        assert outcome(verify_case(CaseSpec("conj34", ns=(2,), f=IntPoly((0, 1, 2))))) == "pass"
        assert outcome(verify_case(CaseSpec("gjz", ns=(2, 1), j=1))) == "pass"

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
                    assert trace.quotient * trace.modulus == trace.sum
                    expected_modulus = q_binomial(2 * n + 1, n) * q_integer(2 * n + 1) ** (
                        r - 1
                    )
                    assert trace.modulus == expected_modulus

    def test_failed_base_identity_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "q_integer", lambda m: IntPoly((2,) * m))
        with pytest.raises(ProofError, match="is not 1"):
            replay_proof(1, 2, 0)

    def test_failed_division_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "check_divisibility", lambda poly, factors: None)
        with pytest.raises(ProofError, match="not divisible by the modulus"):
            replay_proof(1, 2, 0)

    def test_rejects_out_of_range_parameters(self):
        with pytest.raises(InvalidParameter):
            replay_proof(0, 1, 0)
        with pytest.raises(InvalidParameter):
            replay_proof(1, 1, 2)
        with pytest.raises(InvalidParameter):
            replay_proof(1, 1, -1)
