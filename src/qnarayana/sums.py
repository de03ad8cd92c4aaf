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
  chain (last index pairs with 0), carrying a q-shifted-factorial prefactor.
  The prefactor is a ratio of factors (1 - q^t); after the common ones
  cancel, the sum is multiplied by the numerator's and then divided exactly
  by each of the denominator's, so a failed division is a loud, meaningful
  event rather than a silent rational.

The per-k binomial products of a chain do not depend on j or f, and a sweep
evaluates all j (or f) of one chain in a row, so the chain families keep the
last chain's products in a one-entry cache and a call only shifts and sums
them.  thm12_sum keeps every q-Narayana power: power r is built from r - 1.

Sign and exponent conventions for negative k: (-1)^k is the parity of |k|,
and k(k-1)/2 is evaluated by formula, so it is a nonnegative integer for
every integer k (for example k = -1 gives 1, k = -2 gives 3).

When f takes values making some exponent f(k) + k(k-1)/2 negative, the whole
sum is multiplied by the smallest power of q clearing every exponent in the
window, and that power is recorded as ``NormalizedSum.shift``.  Divisibility
verdicts are unaffected because every modulus in scope has constant term 1
and is therefore coprime to q.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache

from .errors import InvalidParameter
from .polyarith import (
    ONE,
    IntPoly,
    div_one_minus_qt,
    eval_int,
    mul_one_minus_qt,
    sum_shifted,
)
from .qobjects import q_binomial, q_integer, q_narayana


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
    terms = []
    for k in range(-n, n + 1):
        power = _narayana_power(2 * n + 1, n + k + 1, r)
        terms.append((j * k * k + binom2(k), -power if k % 2 else power))
    return sum_shifted(terms)


def _signed_products(n1, factors):
    """(k, (-1)^k * the product of the polynomials factors(k)) for each k in
    -n1..n1 whose product is nonzero; factors(k) is consumed lazily and the
    product stops at its first zero factor."""
    terms = []
    for k in range(-n1, n1 + 1):
        prod = ONE
        for factor in factors(k):
            if not factor:
                break
            prod = prod * factor
        else:
            terms.append((k, -prod if k % 2 else prod))
    return tuple(terms)


@lru_cache(maxsize=1)
def _cyclic_products(ns):
    """The signed per-k products of cyclic_sum for one chain."""
    chain = ns + (ns[0],)
    return _signed_products(ns[0], lambda k: (
        q_binomial(ni + chain[i + 1] + 1, ni + k + d) for i, ni in enumerate(ns) for d in (0, 1)
    ))


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
    n1 = ns[0]
    exponents = [eval_int(f, k) + binom2(k) for k in range(-n1, n1 + 1)]
    shift = max(0, -min(exponents))
    terms = ((exponents[k + n1] + shift, prod) for k, prod in _cyclic_products(ns))
    return NormalizedSum(sum_shifted(terms), shift)


def cyclic_modulus(ns):
    """qbinom(n1 + n_last + 1, n1) times the product over adjacent pairs of
    the q-integers [ni + n_next + 1]; constant term 1 and monic."""
    ns = _validated_ns(ns)
    modulus = q_binomial(ns[0] + ns[-1] + 1, ns[0])
    for i in range(len(ns) - 1):
        modulus = modulus * q_integer(ns[i] + ns[i + 1] + 1)
    return modulus


@lru_cache(maxsize=1)
def _gjz_chain(ns):
    """The j-independent parts of gjz_sum for one chain: its signed per-k
    products, and the t of the prefactor's factors (1 - q^t) left in its
    numerator and in its denominator once the common ones cancel."""
    terms = _signed_products(ns[0], lambda k: (q_binomial(2 * ni, ni + k) for ni in ns))
    # (q;q)_a is the product of (1 - q^t) over 1 <= t <= a.
    chain = ns + (0,)
    numerator = Counter(range(1, ns[0] + 1))
    for i in range(len(ns)):
        numerator.update(range(1, chain[i] + chain[i + 1] + 1))
    denominator = Counter(t for ni in ns for t in range(1, 2 * ni + 1))
    return (terms, tuple(sorted((numerator - denominator).elements())),
            tuple(sorted((denominator - numerator).elements())))


def gjz_sum(ns, j):
    """Open-chain analogue: the signed sum over -n1 <= k <= n1 of
    q^(j*k^2 + k(k-1)/2) times the product of qbinom(2*ni, ni + k), scaled
    by the prefactor (q;q)_{n1} prod (q;q)_{ni + n_next} / prod (q;q)_{2*ni}
    (the chain index after the last is 0 here, not a wraparound).

    The prefactor is applied factor by factor in integer polynomials: the
    sum is multiplied by each remaining numerator factor (1 - q^t), then
    divided exactly by each remaining denominator factor.  Each factor is
    monic up to sign, so this succeeds exactly when one division by the
    whole denominator would.  NotDivisible propagates to the caller as a
    reportable event (it is guaranteed impossible for 0 <= j <= m-1).
    """
    ns = _validated_ns(ns)
    if j < 0:
        raise InvalidParameter(f"j must be >= 0, got {j}")
    terms, numerator, denominator = _gjz_chain(ns)
    total = sum_shifted((j * k * k + binom2(k), prod) for k, prod in terms)
    for t in numerator:
        total = mul_one_minus_qt(total, t)
    for t in denominator:
        total = div_one_minus_qt(total, t)
    return total
