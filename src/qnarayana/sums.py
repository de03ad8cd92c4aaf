"""Alternating q-binomial sums and the moduli they are tested against.

Every sum here runs over a symmetric window -n1 <= k <= n1 with sign (-1)^k,
the parity of |k|, and a q-power exponent built from an integer polynomial
in k plus k(k-1)/2, which ``binom2`` evaluates by formula: a nonnegative
integer for every integer k (k = -1 gives 1).  Three families are provided:

* ``thm12_sum``: signed sum of r-th powers of q-Narayana polynomials.
* ``cyclic_sum``: signed sum of products of adjacent-index Gaussian binomial
  pairs over a cyclically closed index chain (last index wraps to the
  first), with an arbitrary integer exponent polynomial f(k), an ``IntPoly``
  read as a polynomial in k; paired with ``cyclic_modulus_factors``.
* ``gjz_sum``: signed sum of central Gaussian binomial products over an open
  chain (last index pairs with 0), times a q-shifted-factorial prefactor.

No sum multiplies two polynomials: every term is built one factor (1 - q^t)
at a time.  ``qobjects.binomial_factors`` is the one definition of a product
of Gaussian binomials as such factors, and ``qobjects.binomial_step`` of the
ratio of neighbours.  A chain family gives only its pairs (a, b) for each k,
and ``_chain_terms`` derives its terms from them.

A value is cached only where a sweep reads it twice, in a one-entry cache
keyed by the class of cases that share it: the r-th powers of the
q-Narayana row by (n, r); the gjz per-k products by the multiset of ns, and
their sum at j by (multiset, j); the gjz value by (the lesser of ns and its
reverse, j); the cyclic per-k products by the least rotation of ns.  Only
products are shared across rotations, never sums, as a cyclic sum's shift
depends on n1.  ``gjz_order`` and ``least_rotation`` also key a sweep's
evaluation order (see ``verify.Statement``), which puts the cases of one
class in a row; the n/r sweeps already run each (n, r) in a row.  Only
``polyarith.ratio_poly`` is read across classes, and kept for the process;
no sum reads the q-binomial table, as every term is built from ONE by its
factors.

When f makes some exponent f(k) + k(k-1)/2 in the window negative, the
whole sum is multiplied by the smallest power of q clearing them all,
recorded as ``NormalizedSum.shift``.  Divisibility verdicts are unaffected:
every modulus in scope has constant term 1, so it is coprime to q.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import islice

from .errors import InvalidParameter
from .polyarith import ONE, eval_int, factor_ratio, mul_ratio, ratio_poly, sum_shifted
from .qobjects import binomial_factors, binomial_step, narayana_powers


def binom2(k):
    """k(k-1)/2 for any integer k; always a nonnegative integer."""
    return k * (k - 1) // 2


class NormalizedSum(namedtuple("NormalizedSum", "poly shift")):
    """A sum with nonnegative exponents plus the q-power factored out to get
    there: ``poly * q**(-shift)`` is the mathematically exact value, and
    shift is 0 whenever no raw exponent in the window was negative."""

    __slots__ = ()


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


# The least value of each integer case parameter, and of a chain's length and indices.
LOWER_BOUNDS = {"n": 1, "r": 1, "j": 0, "ns": 1}


def check_bound(param, value, name=None):
    """InvalidParameter unless value >= LOWER_BOUNDS[param]; the message calls it name or param."""
    if value < LOWER_BOUNDS[param]:
        raise InvalidParameter(f"{name or param} must be >= {LOWER_BOUNDS[param]}, got {value}")


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
    check_bound("n", n)
    check_bound("r", r)
    check_bound("j", j)
    row = _narayana_row(n, r)
    return sum_shifted((j * k * k + binom2(k), row[abs(k)]) for k in range(-n, n + 1))


def _chain_terms(n1, pairs):
    """(k, (-1)^k * the product of qbinom(a, b) over pairs(k)) for each k in
    -n1..n1 where every 0 <= b <= a, an interval as each b rises by one with
    k.  The first term is ONE times the binomial_factors of all its pairs.
    Along k every a is fixed and every b rises by one, so each later term is
    the one before times the binomial_step of its pairs.  Both are one
    mul_ratio on the running product."""
    terms, prod = [], ONE
    for k in range(-n1, n1 + 1):
        factors = pairs(k)
        if all(0 <= b <= a for a, b in factors):
            prod = mul_ratio(prod, binomial_step(factors) if terms else binomial_factors(factors))
            terms.append((k, -prod if k % 2 else prod))
    return tuple(terms)


def least_rotation(ns):
    """The least rotation of a chain, the key of the cyclic products and of
    the evaluation order of the cyclic statements' sweeps."""
    return min(ns[i:] + ns[:i] for i in range(len(ns)))


@lru_cache(maxsize=1)
def _cyclic_products(necklace):
    """The signed per-k products of cyclic_sum, equal for every rotation of
    a chain: each is a product over the links (ni, n_next), which a rotation
    only reorders, and is nonzero only where -min(ns) <= k <= min(ns), inside
    every rotation's window.  necklace is the least rotation, so it starts
    at min(ns)."""
    links = list(zip(necklace, necklace[1:] + necklace[:1]))
    return _chain_terms(necklace[0],
                        lambda k: [(a + b + 1, a + k + d) for a, b in links for d in (0, 1)])


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
    terms = ((exponents[k + n1] + shift, prod) for k, prod in _cyclic_products(least_rotation(ns)))
    return NormalizedSum(sum_shifted(terms), shift)


def cyclic_modulus(ns):
    """The polynomial of the modulus cyclic_modulus_factors(ns); monic."""
    return ratio_poly(cyclic_modulus_factors(ns))


def cyclic_modulus_factors(ns):
    """The cyclic modulus qbinom(n1 + n_last + 1, n1) * prod [ni + n_next + 1]
    as a ratio of factors (1 - q^t), a factor_ratio value; [m] is
    qbinom(m, 1)."""
    ns = validated_ns(ns)
    pairs = [(ns[0] + ns[-1] + 1, ns[0]), *((a + b + 1, 1) for a, b in zip(ns, ns[1:]))]
    return binomial_factors(pairs)


def _multiset(ns):
    """A chain's indices in ascending order, the key of the gjz terms."""
    return tuple(sorted(ns))


def _reversal_class(ns):
    """The lesser of a chain and its reverse, the key of the gjz values."""
    return min(ns, ns[::-1])


def gjz_order(ns, j):
    """The key of a gjz case in a sweep's evaluation order: its multiset,
    then j, then its reversal class, so that each cache below meets its key
    in one run of cases."""
    return _multiset(ns), j, _reversal_class(ns)


@lru_cache(maxsize=1)
def _gjz_terms(multiset):
    """The signed per-k products of qbinom(2*ni, ni + k) over a chain, which
    depend only on its multiset: a product is nonzero only where |k| <=
    min(ns) <= n1, and the multiset starts at min(ns)."""
    return _chain_terms(multiset[0], lambda k: [(2 * ni, ni + k) for ni in multiset])


@lru_cache(maxsize=1)
def _gjz_jsum(multiset, j):
    """The signed sum of the gjz terms of a multiset at j, before the
    prefactor."""
    return sum_shifted((j * k * k + binom2(k), prod) for k, prod in _gjz_terms(multiset))


@lru_cache(maxsize=1)
def _gjz_value(ns, j):
    """gjz_sum(ns, j), equal for ns and its reverse: the j-sum depends only
    on the multiset, and the prefactor's factorials (q;q)_{n1} and
    (q;q)_{n_last + 0} trade places under reversal while the inner pairs
    (ni, n_next) only reorder.  The prefactor is (q;q)_{n1} prod
    (q;q)_{ni + n_next} / prod (q;q)_{2*ni}, (q;q)_n being the product of
    (1 - q^t) over 1 <= t <= n."""
    factorials = [(ns[0], 1), *((a + b, 1) for a, b in zip(ns, ns[1:] + (0,))),
                  *((2 * ni, -1) for ni in ns)]
    prefactor = factor_ratio((t, e) for n, e in factorials for t in range(1, n + 1))
    return mul_ratio(_gjz_jsum(_multiset(ns), j), prefactor)


def gjz_sum(ns, j):
    """Open-chain analogue: the signed sum over -n1 <= k <= n1 of
    q^(j*k^2 + k(k-1)/2) times the product of qbinom(2*ni, ni + k), scaled
    by the prefactor (q;q)_{n1} prod (q;q)_{ni + n_next} / prod (q;q)_{2*ni}
    (the chain index after the last is 0 here, not a wraparound).

    The prefactor is applied by mul_ratio, one factor (1 - q^t) at a time,
    and its NotDivisible propagates to the caller as a reportable event (it
    is guaranteed impossible for 0 <= j <= m-1).
    """
    ns = validated_ns(ns)
    check_bound("j", j)
    return _gjz_value(_reversal_class(ns), j)
