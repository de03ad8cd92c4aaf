"""Alternating q-binomial sums and the moduli they are tested against.

Every sum here runs over a symmetric window -n1 <= k <= n1 with sign (-1)^k
and a q-power exponent built from an integer polynomial in k plus the
triangular number k(k-1)/2.  Three families are provided:

* ``thm12_sum``: signed sum of r-th powers of q-Narayana polynomials.
* ``cyclic_sum``: signed sum of products of adjacent-index Gaussian binomial
  pairs over a cyclically closed index chain (last index wraps to the
  first), with an arbitrary integer exponent polynomial f(k), an ``IntPoly``
  read as a polynomial in k; paired with ``cyclic_modulus_factors``.
* ``gjz_sum``: signed sum of central Gaussian binomial products over an open
  chain (last index pairs with 0), carrying a q-shifted-factorial prefactor.
  The prefactor is a ratio of factors (1 - q^t); after the common ones
  cancel, the sum is multiplied by the numerator's and then divided exactly
  by each of the denominator's, so a failed division is a loud, meaningful
  event rather than a silent rational.

A value is cached only where a sweep reads it twice.  A sweep takes one head
(one n and r, or one chain) at a time, with all its j or f in a row, so
each family keeps its last head in a one-entry cache: the per-k binomial
products of a chain, or the r-th powers of the q-Narayana row at (n, r).
Only ``qobjects._qbinom`` and ``polyarith.ratio_poly`` are read across
heads, and kept for the process.

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
from functools import lru_cache
from itertools import islice

from .errors import InvalidParameter
from .polyarith import ONE, IntPoly, cancel_factors, eval_int, mul_ratio, ratio_poly, sum_shifted
from .qobjects import narayana_powers, q_binomial


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


def validated_ns(ns):
    """A chain as a tuple; InvalidParameter unless it is a nonempty
    sequence of integers >= 1."""
    indices = tuple(ns)
    if not indices:
        raise InvalidParameter("at least one chain index is required")
    for v in indices:
        if not isinstance(v, int) or v < 1:
            raise InvalidParameter(f"chain indices must be integers >= 1, got {v!r}")
    return indices


@lru_cache(maxsize=1)
def _narayana_row(n, r):
    """For 0 <= i <= n, (-1)^i q_narayana(2n+1, n+i+1)**r.  The row is a
    palindrome, so these are its first n+1 powers in reverse order."""
    powers = islice(narayana_powers(2 * n + 1, r), n + 1)
    return tuple(-power if (n - i) % 2 else power for i, power in enumerate(powers))[::-1]


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
    row = _narayana_row(n, r)
    return sum_shifted((j * k * k + binom2(k), row[abs(k)]) for k in range(-n, n + 1))


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
    ns = validated_ns(ns)
    n1 = ns[0]
    exponents = [eval_int(f, k) + binom2(k) for k in range(-n1, n1 + 1)]
    shift = max(0, -min(exponents))
    terms = ((exponents[k + n1] + shift, prod) for k, prod in _cyclic_products(ns))
    return NormalizedSum(sum_shifted(terms), shift)


def cyclic_modulus(ns):
    """The polynomial of the modulus cyclic_modulus_factors(ns); monic."""
    return ratio_poly(*cyclic_modulus_factors(ns))


def cyclic_modulus_factors(ns):
    """The cyclic modulus qbinom(n1 + n_last + 1, n1) * prod [ni + n_next + 1]
    as the t of its numerator's and its denominator's factors (1 - q^t), the
    common ones cancelled: qbinom(a, b) is the product over 1 <= t <= b of
    (1 - q^(a-b+t)) / (1 - q^t), and [m] is (1 - q^m) / (1 - q)."""
    ns = validated_ns(ns)
    n1, nm = ns[0], ns[-1]
    up = [*range(nm + 2, n1 + nm + 2), *(a + b + 1 for a, b in zip(ns, ns[1:]))]
    return cancel_factors(up, [*range(1, n1 + 1), *(1,) * (len(ns) - 1)])


@lru_cache(maxsize=1)
def _gjz_chain(ns):
    """The j-independent parts of gjz_sum for one chain: its signed per-k
    products, and the t of the prefactor's factors (1 - q^t) left in its
    numerator and in its denominator once the common ones cancel."""
    terms = _signed_products(ns[0], lambda k: (q_binomial(2 * ni, ni + k) for ni in ns))
    # (q;q)_a is the product of (1 - q^t) over 1 <= t <= a.
    chain = ns + (0,)
    numerator = [*range(1, ns[0] + 1)]
    for i in range(len(ns)):
        numerator += range(1, chain[i] + chain[i + 1] + 1)
    return (terms, *cancel_factors(numerator, (t for ni in ns for t in range(1, 2 * ni + 1))))


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
    ns = validated_ns(ns)
    if j < 0:
        raise InvalidParameter(f"j must be >= 0, got {j}")
    terms, numerator, denominator = _gjz_chain(ns)
    total = sum_shifted((j * k * k + binom2(k), prod) for k, prod in terms)
    return mul_ratio(total, numerator, denominator)
