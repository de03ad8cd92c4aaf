"""Pinned values and structural invariants of the q-analogue constructors,
with the Pascal recurrence and the factorial-quotient route as independent
oracles for the product-formula Gaussian binomials, and the product of two
Gaussian binomials over [n] as the oracle for the q-Narayana row."""

import sys

import pytest

from qnarayana.errors import InvalidParameter
from qnarayana.polyarith import (
    ONE,
    Q,
    ZERO,
    IntPoly,
    eval_int,
    exact_div,
    factor_ratio,
    is_nonneg,
    mul_ratio,
)
from qnarayana.qobjects import (
    _qbinom,
    binomial_factors,
    binomial_step,
    catalan_factors,
    catalan_int,
    narayana_int,
    narayana_powers,
    q_binomial,
    q_catalan,
    q_integer,
    q_narayana,
    q_shifted_factorial,
)
from math import comb


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def call_with_recursion_limit(limit, fn, *args):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(saved)


def narayana_by_product(n, k):
    """Independent route: qbinom(n, k) * qbinom(n, k-1) / [n], the division
    by [n] = (1 - q^n) / (1 - q) done as a ratio of factors."""
    if k < 1 or k > n:
        return ZERO
    return mul_ratio(q_binomial(n, k) * q_binomial(n, k - 1), factor_ratio([(1, 1), (n, -1)]))


def qbinom_by_factorials(n, k):
    """Independent route: quotient of q-shifted factorials."""
    if k < 0 or k > n:
        return ZERO
    return exact_div(
        q_shifted_factorial(n),
        q_shifted_factorial(k) * q_shifted_factorial(n - k),
    )


class TestQInteger:
    def test_pinned(self):
        assert q_integer(1) == ONE
        assert q_integer(3) == IntPoly((1, 1, 1))

    def test_counts_coefficients(self):
        for n in range(1, 51):
            assert eval_int(q_integer(n), 1) == n

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameter):
            q_integer(0)
        with pytest.raises(InvalidParameter):
            q_integer(-3)


class TestQShiftedFactorial:
    def test_pinned(self):
        assert q_shifted_factorial(0) == ONE
        assert q_shifted_factorial(1) == IntPoly((1, -1))
        assert q_shifted_factorial(2) == IntPoly((1, -1, -1, 1))

    def test_degree_is_triangular(self):
        for n in range(12):
            assert q_shifted_factorial(n).degree == n * (n + 1) // 2

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameter):
            q_shifted_factorial(-1)

    def test_cold_cache_needs_no_recursion(self):
        expected = ONE
        for i in range(1, 201):
            expected = expected * (ONE - Q**i)
        assert call_with_recursion_limit(stack_depth() + 50, q_shifted_factorial, 200) == expected


class TestQBinomial:
    def test_pinned(self):
        assert q_binomial(4, 2) == IntPoly((1, 1, 2, 1, 1))
        assert q_binomial(5, 2) == IntPoly((1, 1, 2, 2, 2, 1, 1))

    def test_edges_and_out_of_range(self):
        for n in range(8):
            assert q_binomial(n, 0) == ONE
            assert q_binomial(n, n) == ONE
        assert q_binomial(3, 5) == ZERO
        assert q_binomial(3, -1) == ZERO

    def test_rejects_negative_n(self):
        with pytest.raises(InvalidParameter):
            q_binomial(-1, 0)

    def test_matches_factorial_route(self):
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k) == qbinom_by_factorials(n, k)

    @pytest.mark.parametrize("n, k", [(600, 1), (300, 3)])
    def test_cold_cache_needs_no_recursion(self, n, k):
        _qbinom.cache_clear()
        value = call_with_recursion_limit(stack_depth() + 50, q_binomial, n, k)
        assert eval_int(value, 1) == comb(n, k)
        assert value.degree == k * (n - k)

    def test_pascal_recurrence(self):
        for n in range(1, 13):
            for k in range(1, n):
                shifted = IntPoly((0,) * k + q_binomial(n - 1, k).coeffs)
                assert q_binomial(n, k) == q_binomial(n - 1, k - 1) + shifted

    def test_symmetry(self):
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)

    def test_palindromic_with_unit_ends(self):
        for n in range(1, 13):
            for k in range(n + 1):
                coeffs = q_binomial(n, k).coeffs
                assert coeffs == coeffs[::-1]
                assert coeffs[0] == 1
                assert len(coeffs) - 1 == k * (n - k)

    def test_factorial_identity(self):
        for n in range(10):
            for k in range(n + 1):
                product = (
                    q_binomial(n, k)
                    * q_shifted_factorial(k)
                    * q_shifted_factorial(n - k)
                )
                assert product == q_shifted_factorial(n)

    def test_specializes_to_binomial(self):
        for n in range(13):
            for k in range(n + 1):
                assert eval_int(q_binomial(n, k), 1) == comb(n, k)

    def test_steps_compose_to_the_factors(self):
        # The product of the neighbour ratios qbinom(a, b') / qbinom(a, b'-1)
        # over b' = 1..b is qbinom(a, b), whose polynomial Pascal's
        # recurrence gives independently.
        pascal = {(0, 0): ONE}
        for a in range(1, 21):
            for b in range(a + 1):
                shifted = IntPoly((0,) * b + pascal.get((a - 1, b), ZERO).coeffs)
                pascal[a, b] = pascal.get((a - 1, b - 1), ZERO) + shifted
        for a in range(21):
            for b in range(a + 1):
                steps = factor_ratio(p for s in range(1, b + 1) for p in binomial_step([(a, s)]))
                assert steps == binomial_factors([(a, b)]), (a, b)
                assert mul_ratio(ONE, steps) == pascal[a, b], (a, b)


class TestQNarayana:
    def test_pinned(self):
        assert q_narayana(3, 2) == IntPoly((1, 1, 1))
        assert q_narayana(5, 3) == IntPoly((1, 1, 3, 3, 4, 3, 3, 1, 1))

    def test_first_column_is_one(self):
        for n in range(1, 9):
            assert q_narayana(n, 1) == ONE

    def test_zero_outside_range(self):
        assert q_narayana(4, 0) == ZERO
        assert q_narayana(4, 5) == ZERO
        assert q_narayana(4, -2) == ZERO

    def test_rejects_nonpositive_n(self):
        with pytest.raises(InvalidParameter):
            q_narayana(0, 1)
        with pytest.raises(InvalidParameter):
            next(narayana_powers(0, 2))

    def test_nonnegative_coefficients(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                assert is_nonneg(q_narayana(n, k))

    def test_specializes_to_narayana(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert eval_int(q_narayana(n, k), 1) == narayana_int(n, k)

    def test_reflection(self):
        # q_narayana reads the nearer end of the row, and thm12_sum one power
        # for its k and -k terms, on this identity.
        for n in range(1, 31):
            row = list(narayana_powers(n, 1))
            assert row == row[::-1], n

    def test_matches_product_route(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                assert q_narayana(n, k) == narayana_by_product(n, k), (n, k)

    def test_powers_match_product_route(self):
        for n in range(1, 13):
            for r in range(4):
                expected = [narayana_by_product(n, k) ** r for k in range(1, n + 1)]
                assert list(narayana_powers(n, r)) == expected, (n, r)


class TestQCatalan:
    def test_pinned(self):
        assert q_catalan(1) == ONE
        assert q_catalan(2) == IntPoly((1, 0, 1))
        assert q_catalan(3) == IntPoly((1, 0, 1, 1, 1, 0, 1))

    def test_constant_term_and_nonnegativity(self):
        for n in range(1, 11):
            p = q_catalan(n)
            assert p.coeffs[0] == 1
            assert is_nonneg(p)

    def test_specializes_to_catalan(self):
        for n in range(1, 13):
            assert eval_int(q_catalan(n), 1) == catalan_int(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameter):
            q_catalan(0)

    def test_factors_give_the_product_formula(self):
        assert catalan_factors(3) == ((2, -1), (3, -1), (5, 1), (6, 1))
        for n in range(1, 31):
            assert mul_ratio(ONE, catalan_factors(n)) == q_catalan(n), n

    def test_factors_match_the_hand_cancelled_ratio(self):
        # Independent route: (1 - q^t) over n+2 <= t <= 2n divided by the
        # product over 2 <= t <= n, (1 - q^(n+1)) and (1 - q) cancelled by hand.
        for n in range(1, 41):
            expected = tuple((t, -1 if t <= n else 1) for t in range(2, 2 * n + 1) if t != n + 1)
            assert catalan_factors(n) == expected, n


class TestClassicalIntegers:
    def test_pinned(self):
        assert narayana_int(3, 2) == 3
        assert catalan_int(3) == 5

    def test_out_of_range_is_zero(self):
        assert narayana_int(4, 0) == 0
        assert narayana_int(4, 5) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameter):
            narayana_int(0, 1)
        with pytest.raises(InvalidParameter):
            catalan_int(0)

    def test_row_sums_are_catalan(self):
        for n in range(1, 21):
            assert sum(narayana_int(n, k) for k in range(1, n + 1)) == catalan_int(n)


class TestBridgeIdentities:
    def test_central_binomial_factors_through_catalan(self):
        for n in range(1, 7):
            assert q_binomial(2 * n + 1, n) == q_catalan(n) * q_integer(2 * n + 1)

    def test_adjacent_product_rebalancing(self):
        for n in range(1, 5):
            lhs_factor = q_shifted_factorial(2 * n) * q_shifted_factorial(2 * n + 2)
            rhs_factor = q_shifted_factorial(2 * n + 1) ** 2
            for k in range(-n, n + 1):
                lhs = (
                    q_binomial(2 * n + 1, n + k)
                    * q_binomial(2 * n + 1, n + k + 1)
                    * lhs_factor
                )
                rhs = (
                    rhs_factor
                    * q_binomial(2 * n, n + k)
                    * q_binomial(2 * n + 2, n + k + 1)
                )
                assert lhs == rhs
