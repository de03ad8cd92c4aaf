"""Constructors for q-analogue combinatorial quantities.

Everything here returns an ``IntPoly`` in the variable q that specializes at
q = 1 to the classical integer it generalizes: q-integers, q-shifted
factorials, Gaussian binomials, q-Narayana polynomials, and q-Catalan
polynomials.  The classical integers themselves are computed separately over
plain integers so the two routes can cross-check each other.

Gaussian binomials are built by the all-integer Pascal-type recurrence

    qbinom(n, k) = qbinom(n-1, k-1) + q^k * qbinom(n-1, k)

on a memoized table, so no intermediate division can fail; dividing q-shifted
factorials gives the same values and is kept in the test suite as an
independent oracle.  The caches hold only immutable values, so concurrent
readers can never observe a partially built entry; at worst two workers
compute the same entry once each.
"""

from functools import cache
from math import comb

from .errors import InvalidParameter
from .polyarith import ONE, ZERO, IntPoly, exact_div, is_nonneg


@cache
def q_integer(n):
    """1 + q + ... + q^(n-1), the q-analogue of the positive integer n."""
    if n < 1:
        raise InvalidParameter(f"q_integer requires n >= 1, got {n}")
    return IntPoly((1,) * n)


@cache
def q_shifted_factorial(n):
    """(1-q)(1-q^2)...(1-q^n); the empty product 1 for n = 0."""
    if n < 0:
        raise InvalidParameter(f"q_shifted_factorial requires n >= 0, got {n}")
    value = ONE
    for i in range(1, n + 1):
        value = value * IntPoly((1,) + (0,) * (i - 1) + (-1,))
    return value


def q_binomial(n, k):
    """Gaussian binomial: q-analogue of choose(n, k).

    Zero when k < 0 or k > n; otherwise a palindromic polynomial of degree
    k(n-k) with nonnegative coefficients and constant term 1.
    """
    if n < 0:
        raise InvalidParameter(f"q_binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        return ZERO
    return _qbinom(n, k)


@cache
def _qbinom(n, k):
    if k == 0 or k == n:
        return ONE
    return _qbinom(n - 1, k - 1) + _qbinom(n - 1, k).shift(k)


@cache
def q_narayana(n, k):
    """q-Narayana polynomial: qbinom(n, k) * qbinom(n, k-1) / [n].

    Zero outside 1 <= k <= n.  The division is exact and the result has
    nonnegative coefficients; both facts are asserted, never assumed.
    """
    if n < 1:
        raise InvalidParameter(f"q_narayana requires n >= 1, got {n}")
    if k <= 0 or k > n:
        return ZERO
    value = exact_div(q_binomial(n, k) * q_binomial(n, k - 1), q_integer(n))
    if not is_nonneg(value):
        raise ArithmeticError(f"q_narayana({n}, {k}) has a negative coefficient")
    return value


@cache
def q_catalan(n):
    """q-Catalan polynomial: qbinom(2n, n) / [n+1], exact with nonnegative
    coefficients and constant term 1."""
    if n < 1:
        raise InvalidParameter(f"q_catalan requires n >= 1, got {n}")
    value = exact_div(q_binomial(2 * n, n), q_integer(n + 1))
    if not is_nonneg(value):
        raise ArithmeticError(f"q_catalan({n}) has a negative coefficient")
    return value


def narayana_int(n, k):
    """Classical Narayana number choose(n,k)*choose(n,k-1)/n, zero outside
    1 <= k <= n.  Computed over plain integers, not by evaluating the
    polynomial, so specialization checks are genuinely two-sided."""
    if n < 1:
        raise InvalidParameter(f"narayana_int requires n >= 1, got {n}")
    if k <= 0 or k > n:
        return 0
    quot, rem = divmod(comb(n, k) * comb(n, k - 1), n)
    if rem:
        raise ArithmeticError(f"narayana_int({n}, {k}) is not an integer")
    return quot


def catalan_int(n):
    """Classical Catalan number choose(2n, n) / (n+1)."""
    if n < 1:
        raise InvalidParameter(f"catalan_int requires n >= 1, got {n}")
    quot, rem = divmod(comb(2 * n, n), n + 1)
    if rem:
        raise ArithmeticError(f"catalan_int({n}) is not an integer")
    return quot
