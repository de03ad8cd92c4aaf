"""Alternating q-binomial sums and the moduli they are tested against.

Every sum here runs over a symmetric window -n1 <= k <= n1 with sign (-1)^k
and a q-power exponent built from an integer polynomial in k plus the
triangular number k(k-1)/2.  Three families are provided:

* ``thm12_sum``: signed sum of r-th powers of q-Narayana polynomials.
* ``cyclic_sum``: signed sum of products of adjacent-index Gaussian binomial
  pairs over a cyclically closed index chain (last index wraps to the
  first), with an arbitrary integer exponent polynomial f(k), an ``IntPoly``
  read as a polynomial in k; paired with ``cyclic_modulus``.
* ``gjz_sum``: signed sum of central Gaussian binomial products over an open
  chain (last index pairs with 0), carrying a q-shifted-factorial prefactor
  that is applied as one exact division at the end so a failed division is a
  loud, meaningful event rather than a silent rational.

Sign and exponent conventions for negative k: (-1)^k is the parity of |k|,
and k(k-1)/2 is evaluated by formula, so it is a nonnegative integer for
every integer k (for example k = -1 gives 1, k = -2 gives 3).

When f takes values making some exponent f(k) + k(k-1)/2 negative, the whole
sum is multiplied by the smallest power of q clearing every exponent in the
window, and that power is recorded as ``NormalizedSum.shift``.  Divisibility
verdicts are unaffected because every modulus in scope has constant term 1
and is therefore coprime to q.
"""

from dataclasses import dataclass
from functools import cache

from .errors import InvalidParameter
from .polyarith import ONE, ZERO, IntPoly, eval_int, exact_div
from .qobjects import q_binomial, q_integer, q_narayana, q_shifted_factorial


def binom2(k):
    """k(k-1)/2 for any integer k; always a nonnegative integer."""
    return k * (k - 1) // 2


@dataclass(frozen=True)
class NormalizedSum:
    """A sum with nonnegative exponents plus the q-power factored out to get
    there: ``poly * q**(-shift)`` is the mathematically exact value, and
    shift is 0 whenever no raw exponent in the window was negative."""

    poly: IntPoly
    shift: int


def _validated_ns(ns):
    indices = tuple(ns)
    if not indices:
        raise InvalidParameter("at least one chain index is required")
    for v in indices:
        if not isinstance(v, int) or v < 1:
            raise InvalidParameter(f"chain indices must be integers >= 1, got {v!r}")
    return indices


@cache
def _narayana_power(n, k, r):
    if r == 1:
        return q_narayana(n, k)
    return _narayana_power(n, k, r - 1) * q_narayana(n, k)


def thm12_sum(n, r, j):
    """Signed sum over -n <= k <= n of q^(j*k^2 + k(k-1)/2) times the r-th
    power of the q-Narayana polynomial at (2n+1, n+k+1).

    j may exceed the usual bound 2r-1; callers flag such cases as outside
    the guaranteed range rather than this function rejecting them.
    """
    if n < 1 or r < 1:
        raise InvalidParameter(f"n and r must be >= 1, got n={n}, r={r}")
    if j < 0:
        raise InvalidParameter(f"j must be >= 0, got {j}")
    total = ZERO
    for k in range(-n, n + 1):
        term = _narayana_power(2 * n + 1, n + k + 1, r).shift(j * k * k + binom2(k))
        total = total - term if k % 2 else total + term
    return total


def cyclic_sum(ns, f):
    """Signed sum over -n1 <= k <= n1 of q^(f(k) + k(k-1)/2) times the
    product over the cyclically closed chain (the index after the last is
    the first again) of qbinom(ni + n_next + 1, ni + k) * qbinom(ni + n_next
    + 1, ni + k + 1).

    Returns a NormalizedSum; the shift clears any negative raw exponents
    produced by f and is computed over the whole window, including terms
    whose binomial product vanishes.
    """
    ns = _validated_ns(ns)
    chain = ns + (ns[0],)
    n1 = ns[0]
    window = range(-n1, n1 + 1)
    exponents = [eval_int(f, k) + binom2(k) for k in window]
    shift = max(0, -min(exponents))
    total = ZERO
    for k, exponent in zip(window, exponents):
        prod = ONE
        for i, ni in enumerate(ns):
            left = q_binomial(ni + chain[i + 1] + 1, ni + k)
            if not left:
                prod = ZERO
                break
            right = q_binomial(ni + chain[i + 1] + 1, ni + k + 1)
            if not right:
                prod = ZERO
                break
            prod = prod * left * right
        if not prod:
            continue
        term = prod.shift(exponent + shift)
        total = total - term if k % 2 else total + term
    return NormalizedSum(total, shift)


def cyclic_modulus(ns):
    """qbinom(n1 + n_last + 1, n1) times the product over adjacent pairs of
    the q-integers [ni + n_next + 1]; constant term 1 and monic."""
    ns = _validated_ns(ns)
    modulus = q_binomial(ns[0] + ns[-1] + 1, ns[0])
    for i in range(len(ns) - 1):
        modulus = modulus * q_integer(ns[i] + ns[i + 1] + 1)
    return modulus


def gjz_sum(ns, j):
    """Open-chain analogue: the signed sum over -n1 <= k <= n1 of
    q^(j*k^2 + k(k-1)/2) times the product of qbinom(2*ni, ni + k), scaled
    by the prefactor built from q-shifted factorials (the chain index after
    the last is 0 here, not a wraparound).

    The prefactor division is grouped as a single exact division in integer
    polynomials; NotDivisible propagates to the caller as a reportable
    event (it is guaranteed impossible for 0 <= j <= m-1).
    """
    ns = _validated_ns(ns)
    if j < 0:
        raise InvalidParameter(f"j must be >= 0, got {j}")
    chain = ns + (0,)
    n1 = ns[0]
    total = ZERO
    for k in range(-n1, n1 + 1):
        prod = ONE
        for ni in ns:
            factor = q_binomial(2 * ni, ni + k)
            if not factor:
                prod = ZERO
                break
            prod = prod * factor
        if not prod:
            continue
        term = prod.shift(j * k * k + binom2(k))
        total = total - term if k % 2 else total + term
    if not total:
        return ZERO
    numerator = q_shifted_factorial(ns[0])
    for i in range(len(ns)):
        numerator = numerator * q_shifted_factorial(chain[i] + chain[i + 1])
    denominator = ONE
    for ni in ns:
        denominator = denominator * q_shifted_factorial(2 * ni)
    return exact_div(numerator * total, denominator)
