"""Constructors for q-analogue combinatorial quantities.

Everything here returns an ``IntPoly`` in the variable q that specializes at
q = 1 to the classical integer it generalizes: q-integers, q-shifted
factorials, Gaussian binomials, q-Narayana polynomials, and q-Catalan
polynomials.  The classical integers themselves are computed separately over
plain integers so the two routes can cross-check each other.

Every object here is a ratio of factors (1 - q^t), built through
``polyarith.mul_ratio``, the one owner of coefficient lists.  The factors
are defined here once: ``binomial_factors`` gives a product of Gaussian
binomials as such a ratio, and ``binomial_step`` the ratio of neighbours
qbinom(a, b) / qbinom(a, b-1) = (1 - q^(a-b+1)) / (1 - q^b); ``sums``
builds its chain terms and cyclic moduli from them, and ``catalan_factors``
the q-Catalan modulus.  Gaussian binomials use the product formula

    qbinom(n, k) = prod_{t=1..k} (1 - q^(n-k+t)) / (1 - q^t),  k <= n - k,

one mul_ratio per t, whose partial product after step t is exactly
qbinom(n-k+t, t), an integer polynomial, so every division is exact and a
NotDivisible would be a bug.  ``narayana_powers`` steps a q-Narayana row by
binomial_step, exact by the same argument.  Both take memory linear in the
degree and no recursion; Pascal's recurrence, the q-shifted-factorial
quotient and qbinom(n, k) * qbinom(n, k-1) / [n] are test oracles.  The
Gaussian-binomial table is the one cache here.  No sweep reads it, as
``sums`` builds each chain term from its factors; it serves single values
(``qbinom``, ``qcatalan``) and library callers.  It holds only immutable
values, so every caller can share an entry.
"""

from functools import cache, reduce
from itertools import islice
from math import comb

from .errors import InvalidParameter
from .polyarith import ONE, ZERO, IntPoly, factor_ratio, is_nonneg, mul_ratio


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
    return reduce(mul_ratio, (((t, -1), (n - k + t, 1)) for t in range(1, k + 1)), ONE)


def binomial_factors(pairs):
    """The product of qbinom(a, b) over a list of pairs (a, b), 0 <= b <= a,
    as a factor_ratio value: qbinom(a, b) is the product over 1 <= t <= b of
    (1 - q^(a-b+t)) / (1 - q^t)."""
    return factor_ratio([*((t, 1) for a, b in pairs for t in range(a - b + 1, a + 1)),
                         *((t, -1) for _, b in pairs for t in range(1, b + 1))])


def binomial_step(pairs):
    """The product of qbinom(a, b) / qbinom(a, b-1) = (1 - q^(a-b+1)) /
    (1 - q^b) over a list of pairs (a, b), 1 <= b <= a, as a factor_ratio
    value."""
    return factor_ratio(p for a, b in pairs for p in ((a - b + 1, 1), (b, -1)))


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
    r steps per i of the ratio of neighbours, the binomial_step of (n, i)
    and (n, i+1): (1 - q^(n-i))(1 - q^(n-i+1)) / ((1 - q^i)(1 - q^(i+1))).
    After s steps the power is q_narayana(n, i)**(r-s) *
    q_narayana(n, i+1)**s, so each division is exact; each power is
    asserted nonnegative, never assumed."""
    power = q_narayana(n, 1)
    for i in range(1, n + 1):
        if not is_nonneg(power):
            raise ArithmeticError(f"q_narayana({n}, {i}) has a negative coefficient")
        yield power
        for _ in range(r if i < n else 0):
            power = mul_ratio(power, binomial_step([(n, i), (n, i + 1)]))


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
    the binomial_factors of qbinom(2n, n) times (1 - q) / (1 - q^(n+1)).
    The modulus thm12 and conj32 divide by; q_catalan builds the same
    polynomial faster."""
    return factor_ratio([*binomial_factors([(2 * n, n)]), (1, 1), (n + 1, -1)])


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
