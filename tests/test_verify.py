"""Verdict construction, statement classification, and the proof replay."""

import importlib
import itertools
import pickle
import pkgutil
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qnarayana
from qnarayana import cli, polyarith, qobjects, sums, verify
from qnarayana.cli import main
from qnarayana.errors import InvalidParameter, NotDivisible, ProofError
from qnarayana.polyarith import ONE, Q, ZERO, IntPoly, eval_int, exact_div, factor_ratio, ratio_poly
from qnarayana.qobjects import catalan_factors, q_binomial, q_integer
from qnarayana.sums import (
    NormalizedSum,
    cyclic_modulus,
    cyclic_modulus_factors,
    cyclic_sum,
    thm12_sum,
)
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

    def test_fields_decide_j_scale_f_suite_and_ranges(self):
        for name, s in STATEMENTS.items():
            assert (s.j_scale is None) == ("j" not in s.fields), name
            assert (s.f_suite is None) == ("f" not in s.fields), name
            keys = {"n_range", "r_range"} if "n" in s.fields else {"m_range", "ni_max"}
            assert set(s.ranges) == keys, name


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
        numerator = numerator * (ONE - Q**t)
    for t in down:
        denominator = denominator * (ONE - Q**t)
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


def package_caches():
    """Every cached function in the package's modules."""
    for info in pkgutil.iter_modules(qnarayana.__path__):
        importlib.import_module(f"qnarayana.{info.name}")
    return {fn for name, module in sys.modules.items() if name.partition(".")[0] == "qnarayana"
            for fn in vars(module).values() if hasattr(fn, "cache_info")}


def test_every_cache_is_read_twice(capsys):
    """The package caches exactly these functions, and a small sweep, or a
    repeated single value, reads each of them again: a cache nothing
    re-reads is only memory."""

    def sweep(*args):
        return lambda: main(["verify", *args, "--format", "csv"])

    reads = {
        # No sweep reads the q-binomial table.  It keeps @cache because
        # perfbench's tracer calls its cache_info(); dropping the cache is the
        # second half of ROADMAP item 6, after item 1.
        "_qbinom": lambda: (q_binomial(7, 3), q_binomial(7, 3)),
        "ratio_poly": sweep("conj33", "--m", "1..2", "--ni-max", "2"),
        "_narayana_row": sweep("thm12", "--n", "1..2", "--r", "1..2"),
        "_cyclic_products": sweep("conj33", "--m", "1..2", "--ni-max", "2"),
        "_gjz_terms": sweep("gjz", "--m", "1..2", "--ni-max", "3"),
        "_gjz_jsum": sweep("gjz", "--m", "1..3", "--ni-max", "2"),
        "_gjz_value": sweep("gjz", "--m", "1..2", "--ni-max", "3"),
    }
    cached = package_caches()
    assert sorted(fn.__name__ for fn in cached) == sorted(reads)
    for fn in cached:
        fn.cache_clear()
        reads[fn.__name__]()
        capsys.readouterr()
        assert fn.cache_info().hits >= 1, fn.__name__


def test_chain_sweeps_never_reach_the_qbinom_table(capsys):
    """Each chain term is built from ONE by its factors, so the four default
    chain sweeps, run in this process, neither fill nor read the table."""
    qobjects._qbinom.cache_clear()
    for statement in ("gjz", "conj31", "conj33", "conj34"):
        assert main(["verify", statement, "--jobs", "1", "--format", "csv"]) == 0
    capsys.readouterr()
    info = qobjects._qbinom.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_class_caches_hold_one_entry():
    """Only the q-binomial table and ratio_poly are kept for the process;
    every other cache holds its last key alone."""
    kept, caches = {qobjects._qbinom, ratio_poly}, package_caches()
    assert kept < caches
    for fn in caches - kept:
        assert fn.cache_info().maxsize == 1, fn.__name__


def default_sweep(statement):
    """The SweepSpec of a statement's default verify sweep."""
    defaults = STATEMENTS[statement]
    return cli.SweepSpec(statement, f_suite=defaults.f_suite, **defaults.ranges)


@pytest.mark.parametrize("statement", ["gjz", "conj31", "conj33", "conj34"])
def test_evaluation_order_does_not_change_results(statement):
    """A default chain sweep, evaluated in its statement's order with the
    class caches shared between cases, gives each case the pair that
    evaluate_case gives it in expansion order with every cache cleared."""
    spec = default_sweep(statement)
    caches, expected = package_caches(), []
    for case in spec.expand():
        for fn in caches:
            fn.cache_clear()
        expected.append(cli.evaluate_case(case))
    assert cli.run_sweep(spec).results == tuple(expected)


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


class TestIntegerRouteOracle:
    """thm11 and conj31 are decided in plain integers.  Their oracle is the
    polynomial pipeline at q = 1: the sum and the modulus it builds evaluate
    there to the integers the statements divide, so they decide the same
    verdict."""

    @staticmethod
    def q1_verdict(case, poly, modulus):
        total, divisor = eval_int(poly, 1), eval_int(modulus, 1)
        quotient = IntPoly((total // divisor,)) if total % divisor == 0 else None
        return Verdict(case, 0 if total else -1, 0, quotient)

    def test_thm11_matches_the_polynomial_route(self):
        # The default grid, and a band of n past it.
        cases = default_sweep("thm11").expand()
        cases += [CaseSpec("thm11", n=n, r=r) for n in (15, 16) for r in (1, 2)]
        assert len(cases) == 14 * 4 + 2 * 2
        for case in cases:
            modulus = ratio_poly(catalan_factors(case.n))
            assert verify_case(case) == self.q1_verdict(case, thm12_sum(case.n, case.r, 0), modulus)

    def test_conj31_matches_the_polynomial_route(self):
        cases = default_sweep("conj31").expand()
        assert len(cases) == 6 + 6**2 + 6**3
        for case in cases:
            poly = cyclic_sum(case.ns, IntPoly(())).poly
            assert verify_case(case) == self.q1_verdict(case, poly, cyclic_modulus(case.ns))

    def test_integer_sweeps_build_no_polynomial(self, monkeypatch, capsys):
        """With every polynomial sum and modulus builder made to raise, the
        default thm11 and conj31 sweeps print the same reports and exit with
        the same codes."""

        def sweeps():
            runs = []
            for statement in ("thm11", "conj31"):
                code = main(["verify", statement, "--jobs", "1", "--format", "csv"])
                runs.append((code, capsys.readouterr().out))
            return runs

        def forbidden(*args):
            raise AssertionError("an integer statement built a polynomial")

        expected = sweeps()
        for name in ("thm12_sum", "cyclic_sum", "cyclic_modulus", "ratio_poly"):
            monkeypatch.setattr(verify, name, forbidden)
        assert sweeps() == expected


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

    def test_ns_normalized_after_other_fields(self):
        assert CaseSpec("gjz", j=0, ns=[1, 2]).ns == (1, 2)
        assert CaseSpec("gjz", None, None, 0, [1, 2]).ns == (1, 2)


@pytest.mark.parametrize("value", [
    CaseSpec("conj34", ns=(1, 2), f=IntPoly((0, -1, 0, 0, 1))),
    Verdict(CaseSpec("thm12", n=2, r=1, j=0), 4, 0, IntPoly((1, 0, 2**201))),
    NormalizedSum(IntPoly((0, 5)), 3),
], ids=["CaseSpec", "Verdict", "NormalizedSum"])
def test_pickle_round_trip(value):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value
    assert type(copy) is type(value)


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

    def test_thm12_and_conj33_share_the_quotient_on_the_default_grid(self):
        # cyclic_sum((n,)*r, j*k^2) is [2n+1]^r times thm12_sum(n, r, j), and
        # the conj33 modulus is the thm12 one times [2n+1]^r.
        for case in default_sweep("thm12").expand():
            power = verify_case(case)
            chain = verify_case(CaseSpec("conj33", ns=(case.n,) * case.r, j=case.j))
            assert chain.quotient == power.quotient, case
            assert chain.sum_degree == power.sum_degree + 2 * case.n * case.r, case


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
