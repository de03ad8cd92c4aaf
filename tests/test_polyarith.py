"""Ring axioms, exact division, Bezout cofactors, evaluation, and
serialization behavior of the polynomial core."""

import pickle
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnarayana.errors import InvalidParameter, NotDivisible
from qnarayana.polyarith import (
    KRONECKER_THRESHOLD,
    ONE,
    Q,
    ZERO,
    IntPoly,
    divmod_poly,
    eval_int,
    exact_div,
    factor_ratio,
    gcd_bezout,
    idiv_one_minus_qt,
    imul_one_minus_qt,
    int_text,
    is_nonneg,
    mul_ratio,
    mul_schoolbook,
    sum_shifted,
)
from qnarayana.qobjects import q_binomial

int_polys = st.lists(
    st.integers(min_value=-9, max_value=9), max_size=13
).map(lambda cs: IntPoly(tuple(cs)))
nonzero_int_polys = int_polys.filter(bool)
monic_int_polys = st.lists(
    st.integers(min_value=-9, max_value=9), max_size=8
).map(lambda cs: IntPoly((*cs, 1)))

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


# Past the 64 terms of wide_int_polys, so t >= len(a) is reached.
factor_ts = st.integers(min_value=1, max_value=80)


def one_minus_qt(t):
    return ONE - Q**t


def division_outcome(divide, a, t):
    """The quotient, or the remainder carried by NotDivisible."""
    try:
        return divide(a, t)
    except NotDivisible as exc:
        return "not divisible", exc.remainder


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
        assert ZERO.degree == -1

    def test_degree_lead_constant(self):
        p = IntPoly((3, 0, -2))
        assert p.degree == 2
        assert p.coeffs[-1] == -2
        assert p.coeffs[0] == 3

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


class TestValueSemantics:
    def test_equal_and_hashed_by_canonical_coefficients(self):
        assert IntPoly((1, 0)) == IntPoly((1,))
        assert hash(IntPoly((1, 0))) == hash(IntPoly((1,)))
        assert IntPoly((1, 2)) != IntPoly((1,))

    def test_never_equal_to_a_tuple(self):
        assert IntPoly((1,)) != (1,)
        assert (1,) != IntPoly((1,))

    def test_attributes_cannot_be_set_or_deleted(self):
        p = IntPoly((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = (3,)
        with pytest.raises(AttributeError):
            del p.coeffs
        with pytest.raises(AttributeError):
            p.other = 1
        assert p.coeffs == (1, 2)

    def test_pickle_round_trip(self):
        p = IntPoly((-(2**200) - 7, 0, 3))
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p
        assert type(copy) is IntPoly
        assert copy.coeffs == (-(2**200) - 7, 0, 3)


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

    @pytest.mark.parametrize("a, b, message, remainder", [
        ((1, 1), (1, 1, 1), "degree 2 divisor exceeds degree 1 dividend", (1, 1)),
        ((1, 0, 3, 2), (1, 2), "leading coefficient -1 not divisible by 2 at q^1", (1, -1)),
        ((1, 0, 1), (1, 1), "nonzero remainder", (2,)),
    ])
    def test_not_divisible_messages(self, a, b, message, remainder):
        with pytest.raises(NotDivisible) as excinfo:
            exact_div(IntPoly(a), IntPoly(b))
        assert str(excinfo.value) == message
        assert excinfo.value.remainder == IntPoly(remainder)

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(ONE, ZERO)

    def test_non_monic_divisor_exact_case(self):
        assert exact_div(IntPoly((0, 0, 6)), IntPoly((0, 2))) == IntPoly((0, 3))

    @given(int_polys, nonzero_int_polys)
    def test_mul_div_round_trip(self, a, b):
        assert exact_div(a * b, b) == a


class TestOneMinusQtKernels:
    """The one-pass kernels, applied through mul_ratio's one-factor ratios,
    against the general multiply and long division."""

    def test_pinned(self):
        assert mul_ratio(IntPoly((1, 1)), ((2, 1),)) == IntPoly((1, 1, -1, -1))
        assert mul_ratio(IntPoly((1, 1, -1, -1)), ((2, -1),)) == IntPoly((1, 1))
        assert mul_ratio(ZERO, ((3, 1),)) == ZERO
        assert mul_ratio(ZERO, ((3, -1),)) == ZERO

    def test_remainder_is_the_long_division_one(self):
        with pytest.raises(NotDivisible) as excinfo:
            mul_ratio(IntPoly((1, 2, 3, 4, 5)), ((2, -1),))
        assert excinfo.value.remainder == IntPoly((9, 6))
        with pytest.raises(NotDivisible) as excinfo:
            mul_ratio(IntPoly((1, 2)), ((5, -1),))
        assert excinfo.value.remainder == IntPoly((1, 2))

    def test_rejects_nonpositive_t(self):
        for kernel in (imul_one_minus_qt, idiv_one_minus_qt):
            with pytest.raises(InvalidParameter):
                kernel([1], 0)

    @given(wide_int_polys, factor_ts)
    def test_mul_matches_general_multiply(self, a, t):
        assert mul_ratio(a, ((t, 1),)) == a * one_minus_qt(t)

    @given(wide_int_polys, factor_ts)
    def test_div_inverts_mul(self, a, t):
        product = a * one_minus_qt(t)
        assert mul_ratio(product, ((t, -1),)) == a == exact_div(product, one_minus_qt(t))

    @given(wide_int_polys, wide_int_polys.filter(bool), factor_ts)
    def test_div_matches_exact_div_on_perturbed_input(self, a, error, t):
        # With a = 0 the dividend is an arbitrary nonzero polynomial.
        dividend = a * one_minus_qt(t) + error
        expected = division_outcome(lambda a, t: exact_div(a, one_minus_qt(t)), dividend, t)
        assert division_outcome(lambda a, t: mul_ratio(a, ((t, -1),)), dividend, t) == expected

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=70), wide_int_polys),
                    max_size=6))
    def test_sum_shifted_matches_shift_and_add(self, terms):
        expected = ZERO
        for shift, poly in terms:
            expected = expected + IntPoly((0,) * shift + poly.coeffs)
        assert sum_shifted(terms) == expected

    def test_mul_ratio_pinned(self):
        # (1 - q^4) / (1 - q^2) = 1 + q^2; 1 + q is not a multiple of 1 - q^2.
        assert mul_ratio(ONE, ((2, -1), (4, 1))) == IntPoly((1, 0, 1))
        assert mul_ratio(IntPoly((1, 1)), ()) == IntPoly((1, 1))
        with pytest.raises(NotDivisible):
            mul_ratio(IntPoly((1, 1)), ((1, 1), (2, -1), (3, -1)))

    def test_factor_ratio(self):
        pairs = [(5, 1), (2, 1), (1, 1), (2, 1), (3, -1), (2, -1), (1, -1)]
        # Sorted by t, whatever the order of the pairs.
        assert factor_ratio(pairs) == factor_ratio(reversed(pairs)) == ((2, 1), (3, -1), (5, 1))
        # Factors above and below cancel, and exponents are summed per t.
        assert factor_ratio([(4, -1), (4, -1)]) == ((4, -2),)
        assert factor_ratio([(4, 2), (4, -1), (7, 1), (4, -1)]) == ((7, 1),)
        # A zero exponent is dropped.
        assert factor_ratio([(3, 0), (6, 1)]) == ((6, 1),)
        assert factor_ratio([]) == ()

    @given(wide_int_polys,
           st.lists(st.tuples(factor_ts, st.integers(min_value=-3, max_value=3)), max_size=6))
    def test_mul_ratio_round_trip(self, a, pairs):
        ratio = factor_ratio(pairs)
        inverse = tuple((t, -e) for t, e in ratio)
        # a times the ratio's denominator, so that the ratio applies exactly.
        a = mul_ratio(a, tuple((t, -e) for t, e in ratio if e < 0))
        assert mul_ratio(mul_ratio(a, ratio), inverse) == a

    def test_sum_shifted_rejects_negative_shift(self):
        with pytest.raises(InvalidParameter):
            sum_shifted([(0, ONE), (-1, ONE)])


class TestGcdBezout:
    def test_pinned_coprime_pair(self):
        u, v = gcd_bezout(IntPoly((1, 1, 1)), IntPoly((1, 1, 1, 1)), 1)
        assert u == -Q
        assert v == ONE

    @staticmethod
    def consecutive_q_integer_cases():
        """(a**e, b**e, u, v) for a = [m], b = [m+1], whose base cofactors
        come from [m+1] - q*[m] = 1."""
        for m in range(1, 41):
            a, b = IntPoly((1,) * m), IntPoly((1,) * (m + 1))
            for e in range(6):
                yield (a**e, b**e, *gcd_bezout(a, b, e))

    def test_identity_and_normalization(self):
        # The identity with deg u < deg b**e fixes the pair uniquely.
        for power_a, power_b, u, v in self.consecutive_q_integer_cases():
            assert u * power_a + v * power_b == ONE
            assert not u or u.degree < power_b.degree

    def test_minimal_degree_cofactors(self):
        # Forced by the identity: deg v < deg a**e, or deg v <= 0 when a**e
        # is a constant.
        for power_a, _, _, v in self.consecutive_q_integer_cases():
            assert not v or v.degree < max(power_a.degree, 1)

    def test_wrong_base_pair_raises(self):
        with pytest.raises(InvalidParameter):
            gcd_bezout(IntPoly((1, 1, 1)), IntPoly((1,) * 5), 2)

    @given(int_polys, monic_int_polys)
    def test_divmod_contract(self, a, b):
        quot, rem = divmod_poly(a, b)
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
        assert str(IntPoly((1, 0, 1))) == "q^2 + 1"

    def test_zero(self):
        assert str(ZERO) == "0"

    def test_negative_leading_term(self):
        assert str(IntPoly((1, 1, 0, -1))) == "-q^3 + q + 1"

    def test_explicit_coefficient_uses_star(self):
        assert str(IntPoly((0, 0, 3))) == "3*q^2"
        assert str(IntPoly((-2, 0, 3))) == "3*q^2 - 2"

    def test_linear_term_has_no_caret(self):
        assert str(IntPoly((0, 1))) == "q"
        assert str(IntPoly((0, -7))) == "-7*q"

    def test_integers_beyond_the_str_digit_limit(self):
        # 5000 digits, more than str converts under the default limit (4300).
        big = 10**4999 + 7
        digits = "1" + "0" * 4998 + "7"
        assert int_text(big) == digits
        assert int_text(-big) == "-" + digits
        assert int_text(-12) == "-12"
        assert str(IntPoly((big, 0, -big))) == f"-{digits}*q^2 + {digits}"


    @given(wide_int_polys)
    def test_text_is_lossless(self, a):
        # No two distinct integer polynomials with coefficients below 2**B in
        # size agree at q = 2**(B+2), so matching the value there pins every
        # coefficient of the text.
        bits = max((abs(c).bit_length() for c in a.coeffs), default=0)
        x = 2 ** (bits + 2)
        assert eval(str(a).replace("^", "**"), {"q": x}) == eval_int(a, x)
