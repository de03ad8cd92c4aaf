"""Ring axioms, exact division, gcd/Bezout, evaluation, and serialization
behavior of the polynomial core."""

from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnarayana.errors import BothZero, InvalidParameter, NotDivisible, ParseError
from qnarayana.polyarith import (
    KRONECKER_THRESHOLD,
    NEG_INF,
    ONE,
    Q,
    RAT_ONE,
    RAT_ZERO,
    ZERO,
    IntPoly,
    RatPoly,
    eval_int,
    exact_div,
    format_poly,
    gcd_bezout,
    is_nonneg,
    mul_schoolbook,
    parse_poly,
)
from qnarayana.qobjects import q_binomial

int_polys = st.lists(
    st.integers(min_value=-9, max_value=9), max_size=13
).map(lambda cs: IntPoly(tuple(cs)))
nonzero_int_polys = int_polys.filter(bool)
rat_polys = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=9
).map(lambda cs: RatPoly(tuple(cs)))
nonzero_rat_polys = rat_polys.filter(bool)

# Up to 64 terms, so both sides of KRONECKER_THRESHOLD are reached, with
# coefficients up to 2**256 in size and zeros at about a third of positions
# (interior, and trailing before the constructor trims them).
wide_coeffs = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**256), max_value=2**256),
)
wide_int_polys = st.integers(min_value=0, max_value=64).flatmap(
    lambda n: st.lists(wide_coeffs, min_size=n, max_size=n)
).map(lambda cs: IntPoly(tuple(cs)))


def schoolbook(a, b):
    if not a or not b:
        return ZERO
    return IntPoly(tuple(mul_schoolbook(a.coeffs, b.coeffs)))


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)

    def test_zero_polynomial_is_empty(self):
        assert IntPoly((0, 0, 0)) == ZERO
        assert not ZERO

    def test_degree_of_zero_is_sentinel(self):
        assert ZERO.degree == NEG_INF
        assert NEG_INF < 0

    def test_degree_lead_constant(self):
        p = IntPoly((3, 0, -2))
        assert p.degree == 2
        assert p.lead == -2
        assert p.constant == 3
        assert ZERO.lead == 0 and ZERO.constant == 0

    def test_monomial(self):
        assert IntPoly.monomial(3) == IntPoly((0, 0, 0, 1))
        assert IntPoly.monomial(0, 5) == IntPoly((5,))
        with pytest.raises(InvalidParameter):
            IntPoly.monomial(-1)

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            IntPoly((1.5,))
        with pytest.raises(TypeError):
            IntPoly((Fraction(1, 2),))

    def test_arithmetic_results_are_canonical(self):
        assert (IntPoly((1, 1)) * IntPoly((1, -1))).coeffs == (1, 0, -1)
        a = IntPoly((3, -1, 4, 1, -5))
        assert (a + (-a)).coeffs == ()
        assert ZERO.coeffs == ()
        assert (IntPoly((1, 2, 3)) + IntPoly((0, 0, -3))).coeffs == (1, 2)

    def test_shift(self):
        assert Q.shift(2) == IntPoly((0, 0, 0, 1))
        assert ZERO.shift(5) == ZERO
        with pytest.raises(InvalidParameter):
            ONE.shift(-1)


class TestRingOperations:
    def test_pinned_add(self):
        assert IntPoly((1, 1)) + Q == IntPoly((1, 2))

    def test_mul_absorbs_zero(self):
        assert IntPoly((3, 1, 4)) * ZERO == ZERO

    def test_pinned_mul(self):
        assert IntPoly((1, 0, 1)) * IntPoly((1, 1, 1)) == IntPoly((1, 1, 2, 1, 1))

    def test_threshold_splits_the_tested_sizes(self):
        assert 1 <= KRONECKER_THRESHOLD < 60

    @given(wide_int_polys, wide_int_polys)
    def test_mul_matches_schoolbook(self, a, b):
        assert a * b == schoolbook(a, b)

    @pytest.mark.parametrize("shape", [
        (1, 60), (60, 1), (17, 64), (64, 17),
        (KRONECKER_THRESHOLD, KRONECKER_THRESHOLD + 1),
        (KRONECKER_THRESHOLD + 1, KRONECKER_THRESHOLD + 1),
        (KRONECKER_THRESHOLD + 1, 64), (64, 64),
    ])
    def test_mul_matches_schoolbook_lopsided(self, shape):
        n, m = shape
        a = IntPoly(tuple((-1) ** i * (2**256 - 7 * i) for i in range(n)))
        b = IntPoly(tuple(0 if i % 3 == 1 else 3**i - 2**100 for i in range(m)))
        assert a * b == schoolbook(a, b) == b * a

    @pytest.mark.parametrize("n", [KRONECKER_THRESHOLD + 1, 40])
    def test_mul_at_the_digit_width_bound(self, n):
        # With every |coefficient| equal to m, the middle product coefficient
        # is +-n*m*m, exactly the bound the digit width is chosen from; the
        # bound's bit length runs through every residue mod 8.
        for bits in range(8, 120):
            m = isqrt((1 << bits) // n)
            a = IntPoly((m,) * n)
            for signs in ((1,) * n, (-1,) * n, (1,) * (n - 1) + (-1,)):
                b = IntPoly(tuple(sign * m for sign in signs))
                assert a * b == schoolbook(a, b)

    def test_pinned_large_square(self):
        p = q_binomial(80, 40)
        square = p**2
        assert square == schoolbook(p, p)
        assert eval_int(square, 1) == comb(80, 40) ** 2

    def test_pow(self):
        assert IntPoly((1, 1)) ** 2 == IntPoly((1, 2, 1))
        assert IntPoly((1, 1)) ** 0 == ONE
        with pytest.raises(InvalidParameter):
            IntPoly((1, 1)) ** -1

    @given(int_polys, int_polys)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(int_polys, int_polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(int_polys, int_polys, int_polys)
    def test_add_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(int_polys, int_polys, int_polys)
    def test_mul_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(int_polys, int_polys, int_polys)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(int_polys)
    def test_additive_inverse(self, a):
        assert a + (-a) == ZERO
        assert a - a == ZERO


class TestExactDiv:
    def test_pinned_quotient(self):
        assert exact_div(IntPoly((1, 1, 2, 1, 1)), IntPoly((1, 1, 1))) == IntPoly((1, 0, 1))

    def test_identity_divisor(self):
        p = IntPoly((2, -3, 7))
        assert exact_div(p, ONE) == p

    def test_zero_dividend(self):
        assert exact_div(ZERO, IntPoly((1, 1))) == ZERO

    def test_degree_shortfall_raises(self):
        with pytest.raises(NotDivisible):
            exact_div(IntPoly((1, 1)), IntPoly((1, 1, 1)))

    def test_nonzero_remainder_raises_and_carries_it(self):
        with pytest.raises(NotDivisible) as excinfo:
            exact_div(IntPoly((1, 0, 1)), IntPoly((1, 1)))
        assert excinfo.value.remainder == IntPoly((2,))

    def test_fractional_step_raises(self):
        with pytest.raises(NotDivisible):
            exact_div(IntPoly((0, 0, 3)), IntPoly((0, 2)))

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(ONE, ZERO)

    def test_non_monic_divisor_exact_case(self):
        assert exact_div(IntPoly((0, 0, 6)), IntPoly((0, 2))) == IntPoly((0, 3))

    @given(int_polys, nonzero_int_polys)
    def test_mul_div_round_trip(self, a, b):
        assert exact_div(a * b, b) == a


class TestGcdBezout:
    def test_pinned_coprime_pair(self):
        g, u, v = gcd_bezout(RatPoly((1, 1, 1)), RatPoly((1, 1, 1, 1)))
        assert g == RAT_ONE
        assert u == RatPoly((0, -1))
        assert v == RAT_ONE

    def test_equal_arguments(self):
        a = RatPoly((2, 0, 4))
        g, u, v = gcd_bezout(a, a)
        assert g == a.monic()
        assert u == RAT_ZERO
        assert v == RatPoly((Fraction(1, 4),))

    def test_divisor_case(self):
        g, u, v = gcd_bezout(RatPoly((-1, 0, 1)), RatPoly((-1, 1)))
        assert g == RatPoly((-1, 1))
        assert u == RAT_ZERO
        assert v == RAT_ONE

    def test_both_zero_raises(self):
        with pytest.raises(BothZero):
            gcd_bezout(RAT_ZERO, RAT_ZERO)

    def test_one_zero_argument(self):
        a = RatPoly((0, 2))
        g, u, v = gcd_bezout(a, RAT_ZERO)
        assert g == RatPoly((0, 1))
        assert u * a + v * RAT_ZERO == g

    @given(rat_polys, rat_polys)
    def test_identity_and_normalization(self, a, b):
        if not a and not b:
            return
        g, u, v = gcd_bezout(a, b)
        assert u * a + v * b == g
        assert g.lead == 1
        for arg in (a, b):
            if arg:
                _, rem = divmod(arg, g)
                assert not rem

    @given(nonzero_rat_polys, nonzero_rat_polys)
    def test_minimal_degree_cofactors(self, a, b):
        g, u, v = gcd_bezout(a, b)
        if u and b.degree > g.degree:
            assert u.degree < b.degree - g.degree
        if v and a.degree > g.degree:
            assert v.degree < a.degree - g.degree

    @given(rat_polys, nonzero_rat_polys)
    def test_divmod_contract(self, a, b):
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert not rem or rem.degree < b.degree


class TestEvaluation:
    def test_pinned_values(self):
        assert eval_int(IntPoly((1, 1, 1)), 1) == 3
        assert eval_int(ZERO, 12) == 0
        assert eval_int(IntPoly((1, 0, 1, 1, 1, 0, 1)), 1) == 5

    @given(int_polys, int_polys, st.integers(min_value=-9, max_value=9))
    def test_evaluation_is_a_ring_homomorphism(self, a, b, x):
        assert eval_int(a * b, x) == eval_int(a, x) * eval_int(b, x)
        assert eval_int(a + b, x) == eval_int(a, x) + eval_int(b, x)


class TestNonneg:
    def test_pinned(self):
        assert is_nonneg(IntPoly((1, 0, 1)))
        assert not is_nonneg(IntPoly((1, 1, 0, -1)))
        assert is_nonneg(ZERO)


class TestFormat:
    def test_descending_order_pin(self):
        assert format_poly(IntPoly((1, 0, 1))) == "q^2 + 1"

    def test_zero(self):
        assert format_poly(ZERO) == "0"
        assert format_poly(ZERO, "json") == '{"coeffs":[]}'

    def test_negative_leading_term(self):
        assert format_poly(IntPoly((1, 1, 0, -1))) == "-q^3 + q + 1"

    def test_explicit_coefficient_uses_star(self):
        assert format_poly(IntPoly((0, 0, 3))) == "3*q^2"
        assert format_poly(IntPoly((-2, 0, 3))) == "3*q^2 - 2"

    def test_linear_term_has_no_caret(self):
        assert format_poly(IntPoly((0, 1))) == "q"
        assert format_poly(IntPoly((0, -7))) == "-7*q"

    def test_json_style(self):
        assert format_poly(IntPoly((1, 0, 1)), "json") == '{"coeffs":["1","0","1"]}'

    def test_unknown_style_rejected(self):
        with pytest.raises(InvalidParameter):
            format_poly(ONE, "yaml")


class TestParse:
    def test_pinned(self):
        assert parse_poly("q^2 + 1") == IntPoly((1, 0, 1))

    def test_basic_forms(self):
        assert parse_poly("0") == ZERO
        assert parse_poly("q") == Q
        assert parse_poly("-q") == IntPoly((0, -1))
        assert parse_poly("7") == IntPoly((7,))
        assert parse_poly("3*q^2 - 2") == IntPoly((-2, 0, 3))
        assert parse_poly("+q + 1") == IntPoly((1, 1))

    def test_repeated_exponents_accumulate(self):
        assert parse_poly("q + q") == IntPoly((0, 2))
        assert parse_poly("q - q") == ZERO

    def test_json_form(self):
        assert parse_poly('{"coeffs":["1","0","1"]}') == IntPoly((1, 0, 1))
        assert parse_poly('{"coeffs":[]}') == ZERO

    def test_error_positions(self):
        with pytest.raises(ParseError) as excinfo:
            parse_poly("")
        assert excinfo.value.position == 0
        with pytest.raises(ParseError) as excinfo:
            parse_poly("q^")
        assert excinfo.value.position == 2
        with pytest.raises(ParseError) as excinfo:
            parse_poly("2q")
        assert excinfo.value.position == 1
        with pytest.raises(ParseError) as excinfo:
            parse_poly("q + ")
        assert excinfo.value.position == 4
        with pytest.raises(ParseError) as excinfo:
            parse_poly("q^-1")
        assert excinfo.value.position == 2

    def test_json_error_positions_are_indices(self):
        with pytest.raises(ParseError) as excinfo:
            parse_poly('{"coeffs":["1","x"]}')
        assert excinfo.value.position == 1
        with pytest.raises(ParseError):
            parse_poly('{"coeffs":"1"}')
        with pytest.raises(ParseError):
            parse_poly('{"other":[]}')

    @given(int_polys)
    def test_text_round_trip(self, a):
        assert parse_poly(format_poly(a, "text")) == a

    @given(int_polys)
    def test_json_round_trip(self, a):
        assert parse_poly(format_poly(a, "json")) == a


class TestRatPoly:
    def test_conversion_round_trip(self):
        p = IntPoly((3, -1, 2))
        assert RatPoly.from_int_poly(p).to_int_poly() == p

    def test_fractional_conversion_raises(self):
        with pytest.raises(NotDivisible):
            RatPoly((Fraction(1, 2),)).to_int_poly()

    def test_monic(self):
        assert RatPoly((2, 4)).monic() == RatPoly((Fraction(1, 2), 1))
        with pytest.raises(InvalidParameter):
            RAT_ZERO.monic()
