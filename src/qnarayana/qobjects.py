"""Constructors for q-analogue combinatorial quantities.

Everything here returns an ``IntPoly`` in the variable q that specializes at
q = 1 to the classical integer it generalizes: q-integers, q-shifted
factorials, Gaussian binomials, q-Narayana polynomials, and q-Catalan
polynomials.  The classical integers themselves are computed separately over
plain integers so the two routes can cross-check each other.

Every object here is a ratio of factors (1 - q^t), and is built one factor
at a time with the one-pass kernels ``mul_one_minus_qt`` and
``div_one_minus_qt``.  Gaussian binomials use the product formula

    qbinom(n, k) = prod_{t=1..k} (1 - q^(n-k+t)) / (1 - q^t),  k <= n - k,

whose partial product after step t is exactly qbinom(n-k+t, t), an integer
polynomial, so every division is exact and a NotDivisible would be a bug.
``narayana_powers`` steps a q-Narayana row by the ratio of neighbours, exact
by the same argument.  Both take memory linear in the degree and no
recursion; Pascal's recurrence, the q-shifted-factorial quotient and
qbinom(n, k) * qbinom(n, k-1) / [n] are test oracles.  The Gaussian-binomial
table is the one cache here, because sweep heads share its entries (see
``sums`` for the rule).  It holds only immutable values, so every caller
can share an entry; the worker processes of a parallel sweep each build
their own.
"""

from functools import cache
from itertools import islice
from math import comb

from .errors import InvalidParameter
from .polyarith import ONE, ZERO, IntPoly, div_one_minus_qt, is_nonneg, mul_one_minus_qt, mul_ratio


def q_integer(n):
    """1 + q + ... + q^(n-1), the q-analogue of the positive integer n."""
    if n < 1:
        raise InvalidParameter(f"q_integer requires n >= 1, got {n}")
    return IntPoly((1,) * n)


def q_shifted_factorial(n):
    """(1-q)(1-q^2)...(1-q^n); the empty product 1 for n = 0."""
    if n < 0:
        raise InvalidParameter(f"q_shifted_factorial requires n >= 0, got {n}")
    return mul_ratio(ONE, tuple((t, 1) for t in range(1, n + 1)))


def q_binomial(n, k):
    """Gaussian binomial: q-analogue of choose(n, k).

    Zero when k < 0 or k > n; otherwise a palindromic polynomial of degree
    k(n-k) with nonnegative coefficients and constant term 1.
    """
    if n < 0:
        raise InvalidParameter(f"q_binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        return ZERO
    return _qbinom(n, min(k, n - k))


@cache
def _qbinom(n, k):
    value = ONE
    for t in range(1, k + 1):
        value = div_one_minus_qt(mul_one_minus_qt(value, n - k + t), t)
    return value


def q_narayana(n, k):
    """q-Narayana polynomial: qbinom(n, k) * qbinom(n, k-1) / [n], zero
    outside 1 <= k <= n and one at both ends.  In between it is read from the
    nearer end of narayana_powers(n, 1), as the row is a palindrome."""
    if n < 1:
        raise InvalidParameter(f"q_narayana requires n >= 1, got {n}")
    if not 1 < k < n:
        return ONE if k in (1, n) else ZERO
    return next(islice(narayana_powers(n, 1), min(k, n + 1 - k) - 1, None))


def narayana_powers(n, r):
    """q_narayana(n, i)**r for i = 1, ..., n, from q_narayana(n, 1) = 1 by
    r steps per i of the ratio of neighbours (1 - q^(n-i))(1 - q^(n-i+1)) /
    ((1 - q^i)(1 - q^(i+1))), its common factors cancelled.  After s steps
    the power is q_narayana(n, i)**(r-s) * q_narayana(n, i+1)**s, so each
    division is exact; each power is asserted nonnegative, never assumed.
    One factor is applied at a time, so only two powers are alive at once."""
    power = q_narayana(n, 1)
    for i in range(1, n + 1):
        if not is_nonneg(power):
            raise ArithmeticError(f"q_narayana({n}, {i}) has a negative coefficient")
        yield power
        above, below = {n - i, n - i + 1}, {i, i + 1}
        # Not mul_ratio: this frame would hold the old power while it built the next.
        for _ in range(r if i < n else 0):
            for t in above - below:
                power = mul_one_minus_qt(power, t)
            for t in below - above:
                power = div_one_minus_qt(power, t)


def q_catalan(n):
    """q-Catalan polynomial: qbinom(2n, n) / [n+1], exact with nonnegative
    coefficients and constant term 1."""
    if n < 1:
        raise InvalidParameter(f"q_catalan requires n >= 1, got {n}")
    value = mul_ratio(q_binomial(2 * n, n), ((1, 1), (n + 1, -1)))
    if not is_nonneg(value):
        raise ArithmeticError(f"q_catalan({n}) has a negative coefficient")
    return value


def catalan_factors(n):
    """q_catalan(n) as a ratio of factors (1 - q^t), a factor_ratio value:
    qbinom(2n, n) / [n+1] is the product of (1 - q^t) over n+2 <= t <= 2n
    divided by the product over 2 <= t <= n, once (1 - q^(n+1)) and (1 - q)
    cancel.  The modulus thm12 and conj32 divide by; q_catalan builds the
    same polynomial faster."""
    return tuple((t, -1 if t <= n else 1) for t in range(2, 2 * n + 1) if t != n + 1)


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
