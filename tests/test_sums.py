"""Alternating-sum builders: pinned values, q = 1 integer oracles written as
independent transcriptions, negative-k exponent bookkeeping, normalization
shifts, and the cyclic/power-sum bridge identity."""

import itertools
from math import comb

import pytest

from qnarayana.errors import InvalidParameter
from qnarayana.polyarith import ONE, Q, ZERO, IntPoly, eval_int, exact_div, is_nonneg
from qnarayana.qobjects import q_binomial, q_integer, q_narayana
from qnarayana.sums import (
    NormalizedSum,
    binom2,
    cyclic_modulus,
    cyclic_sum,
    gjz_sum,
    thm12_sum,
)


def comb0(n, k):
    return comb(n, k) if 0 <= k <= n else 0


def narayana_number(n, k):
    if k < 1 or k > n:
        return 0
    return comb0(n, k) * comb0(n, k - 1) // n


def power_sum_at_one(n, r):
    """q = 1 value of thm12_sum, transcribed over plain integers."""
    total = 0
    for k in range(-n, n + 1):
        total += (-1) ** abs(k) * narayana_number(2 * n + 1, n + k + 1) ** r
    return total


def cyclic_sum_at_one(ns):
    """q = 1 value of cyclic_sum, transcribed over plain integers."""
    chain = list(ns) + [ns[0]]
    total = 0
    for k in range(-ns[0], ns[0] + 1):
        prod = 1
        for i, ni in enumerate(ns):
            upper = ni + chain[i + 1] + 1
            prod *= comb0(upper, ni + k) * comb0(upper, ni + k + 1)
        total += (-1) ** abs(k) * prod
    return total


def thm12_sum_reversed(n, r, j):
    """Second transcription, summing k downward with its own exponent and
    sign encoding; must agree exactly with thm12_sum."""
    total = ZERO
    for k in range(n, -n - 1, -1):
        power = ONE
        for _ in range(r):
            power = power * q_narayana(2 * n + 1, n + k + 1)
        term = power.shift(j * k * k + (k * k - k) // 2)
        total = total + term if k % 2 == 0 else total - term
    return total


def cyclic_sum_reversed(ns, f):
    """Second transcription of cyclic_sum using a raw exponent dictionary,
    so negative exponents and the shift are derived independently."""
    chain = list(ns) + [ns[0]]
    n1 = ns[0]

    def f_at(k):
        return sum(c * k**i for i, c in enumerate(f.coeffs))

    raw = {}
    for k in range(n1, -n1 - 1, -1):
        prod = ONE
        for i, ni in enumerate(ns):
            upper = ni + chain[i + 1] + 1
            prod = prod * q_binomial(upper, ni + k) * q_binomial(upper, ni + k + 1)
        if not prod:
            continue
        base = f_at(k) + (k * k - k) // 2
        sign = 1 if k % 2 == 0 else -1
        for offset, c in enumerate(prod.coeffs):
            if c:
                raw[base + offset] = raw.get(base + offset, 0) + sign * c
    shift = max(0, -min(f_at(k) + (k * k - k) // 2 for k in range(-n1, n1 + 1)))
    raw = {e: c for e, c in raw.items() if c}
    if not raw:
        return NormalizedSum(ZERO, shift)
    coeffs = [0] * (max(raw) + shift + 1)
    for e, c in raw.items():
        coeffs[e + shift] = c
    return NormalizedSum(IntPoly(tuple(coeffs)), shift)


class TestBinom2:
    def test_nonnegative_for_negative_k(self):
        assert binom2(-1) == 1
        assert binom2(-2) == 3
        assert binom2(-3) == 6

    def test_usual_values(self):
        assert binom2(0) == 0
        assert binom2(1) == 0
        assert binom2(2) == 1
        assert binom2(5) == 10


class TestThm12Sum:
    def test_pinned(self):
        assert thm12_sum(1, 1, 0) == IntPoly((0, 0, 1))
        assert thm12_sum(1, 1, 1) == ONE
        assert thm12_sum(1, 1, 2) == IntPoly((1, 1, 0, -1))
        assert thm12_sum(2, 1, 0) == IntPoly((0, 0, 0, 0, 0, 0, 1, 0, 1))

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            thm12_sum(0, 1, 0)
        with pytest.raises(InvalidParameter):
            thm12_sum(1, 0, 0)
        with pytest.raises(InvalidParameter):
            thm12_sum(1, 1, -1)

    def test_specializes_to_integer_sum(self):
        for n in range(1, 6):
            for r in (1, 2):
                for j in range(2 * r + 1):
                    assert eval_int(thm12_sum(n, r, j), 1) == power_sum_at_one(n, r)

    def test_reindexing_transcription_agrees(self):
        for n in range(1, 5):
            for r in (1, 2):
                for j in range(2 * r):
                    assert thm12_sum(n, r, j) == thm12_sum_reversed(n, r, j)


class TestCyclicSum:
    def test_pinned_single_chain(self):
        result = cyclic_sum((1,), IntPoly(()))
        assert result.poly == IntPoly((0, 0, 1, 1, 1))
        assert result.shift == 0
        assert result.poly == q_integer(3) * thm12_sum(1, 1, 0)

    def test_specializes_to_integer_sum(self):
        chains = [(1,), (3,), (1, 2), (2, 1), (3, 3), (1, 2, 3), (2, 2, 2)]
        for ns in chains:
            assert eval_int(cyclic_sum(ns, IntPoly(())).poly, 1) == cyclic_sum_at_one(ns)

    def test_single_chain_at_one_pin(self):
        assert cyclic_sum_at_one((1,)) == 3
        assert eval_int(cyclic_sum((1,), IntPoly(())).poly, 1) == 3

    def test_shift_from_cubic_exponent(self):
        f = IntPoly((0, 0, 0, 1))
        result = cyclic_sum((2,), f)
        assert result.shift == 5
        assert result == cyclic_sum_reversed((2,), f)
        result = cyclic_sum((3,), f)
        assert result.shift == 21
        assert result == cyclic_sum_reversed((3,), f)

    def test_shift_zero_when_exponents_stay_nonnegative(self):
        assert cyclic_sum((2,), IntPoly((0, 0, 4))).shift == 0
        assert cyclic_sum((3,), IntPoly((0, -1, 0, 0, 1))).shift == 0

    def test_reindexing_transcription_agrees(self):
        cases = [
            ((1,), IntPoly(())),
            ((2, 3), IntPoly(())),
            ((3, 1), IntPoly((0, 0, 2))),
            ((2, 2), IntPoly((0, 0, 0, 1))),
            ((2, 1, 2), IntPoly((0, -1, 0, 0, 1))),
        ]
        for ns, f in cases:
            assert cyclic_sum(ns, f) == cyclic_sum_reversed(ns, f)

    def test_bridge_to_power_sum(self):
        for n in range(1, 5):
            for r in (1, 2):
                for j in range(2 * r):
                    lhs = cyclic_sum((n,) * r, IntPoly((0, 0, j))).poly
                    rhs = q_integer(2 * n + 1) ** r * thm12_sum(n, r, j)
                    assert lhs == rhs

    def test_pinned_regression_quotient(self):
        result = cyclic_sum((2, 2), IntPoly((0, 0, 2)))
        quotient = exact_div(result.poly, cyclic_modulus((2, 2)))
        assert quotient == IntPoly((1, 2, 5, 7, 11, 12, 14, 12, 12, 9, 7, 4, 3, 1, 1))

    def test_rejects_bad_chain(self):
        with pytest.raises(InvalidParameter):
            cyclic_sum((), IntPoly(()))
        with pytest.raises(InvalidParameter):
            cyclic_sum((0,), IntPoly(()))
        with pytest.raises(InvalidParameter):
            cyclic_sum((1, -2), IntPoly(()))


class TestCyclicModulus:
    def test_pinned(self):
        assert cyclic_modulus((1,)) == IntPoly((1, 1, 1))
        assert eval_int(cyclic_modulus((1, 1)), 1) == 9
        assert cyclic_modulus((2, 2)) == IntPoly((1, 2, 4, 6, 8, 8, 8, 6, 4, 2, 1))

    def test_constant_term_and_monic(self):
        for ns in [(1,), (2, 3), (4, 1, 2)]:
            modulus = cyclic_modulus(ns)
            assert modulus.constant == 1
            assert modulus.coeffs[-1] == 1

    def test_uniform_chain_factors(self):
        from qnarayana.qobjects import q_catalan

        for n in (1, 2, 3):
            for r in (1, 2, 3):
                expected = q_binomial(2 * n + 1, n) * q_integer(2 * n + 1) ** (r - 1)
                assert cyclic_modulus((n,) * r) == expected
                assert expected == q_catalan(n) * q_integer(2 * n + 1) ** r

    def test_rejects_bad_chain(self):
        with pytest.raises(InvalidParameter):
            cyclic_modulus(())


class TestGjzSum:
    def test_pinned(self):
        assert gjz_sum((1,), 0) == ZERO
        assert gjz_sum((1, 1), 0) == Q
        assert gjz_sum((1, 1), 1) == ONE

    def test_nonnegative_inside_claimed_range(self):
        for m in (1, 2, 3):
            for ns in itertools.product((1, 2, 3), repeat=m):
                for j in range(m):
                    assert is_nonneg(gjz_sum(ns, j))

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            gjz_sum((), 0)
        with pytest.raises(InvalidParameter):
            gjz_sum((1, 0), 0)
        with pytest.raises(InvalidParameter):
            gjz_sum((1,), -1)
