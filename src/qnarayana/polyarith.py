"""Exact dense polynomial arithmetic in one variable q.

One coefficient domain is provided: ``IntPoly`` over arbitrary-precision
integers.  Every operation is exact; nothing here rounds, truncates, or
approximates.  A division that cannot be performed exactly raises instead
of returning a best effort, because a nonzero remainder is a meaningful
mathematical event for the congruence checks built on top of this module.

Values are immutable and normalized: trailing zero coefficients are stripped
on construction, the zero polynomial is the empty coefficient tuple, and its
degree is -1.

``IntPoly`` multiplication is dispatched on size.  When both factors have
more than ``KRONECKER_THRESHOLD`` terms it uses Kronecker substitution: each
coefficient vector is packed into one big integer as digits of w bits, the
two integers are multiplied once (CPython's Karatsuba does the quadratic
work in C), and the product's digits are read back as coefficients.  The
width is chosen so that 2**(w-1) exceeds max|a| * max|b| * min(len(a),
len(b)), a bound on every product coefficient; adding 2**(w-1) to each digit
therefore keeps it in [0, 2**w) with no carry or borrow between digits, so
the unpacked coefficients are exact for either sign and any size.  Smaller
products use the schoolbook loop ``mul_schoolbook``, which the tests also
use as the reference for the fast path.

Every q-analogue built on this module is a ratio of factors (1 - q^t), so
two one-pass kernels handle such a factor without a general product or long
division, each in place on a list of coefficients: ``imul_one_minus_qt``
subtracts a shifted copy, and ``idiv_one_minus_qt`` runs the recurrence
c[i] += c[i-t] and checks that the top t coefficients vanish.  A chain of
factors runs on one list, which becomes an ``IntPoly`` only when its value
is returned.  A ratio prod (1 - q^t)^e is one hashable value, its (t, e)
pairs sorted by t with distinct t and e != 0, unique as distinct (1 - q^t)
are multiplicatively independent.  ``factor_ratio`` builds it and is the one
place factors cancel; ``mul_ratio`` applies it, every multiply first, and is
the one entry point for a polynomial times a ratio, a single factor being
the ratio ((t, 1),) or ((t, -1),); ``ratio_poly`` caches its polynomial.
``sum_shifted`` adds many polynomials times powers of q into one
coefficient list.  Long division (``divmod_poly``, ``exact_div``) is left
to ``gcd_bezout``, which needs a true remainder, and to the tests as the
reference for these kernels.

The public ``IntPoly(...)`` constructor checks that every coefficient is an
int.  Results of this module's own arithmetic (``+``, ``-``, ``*``,
``divmod_poly``, ``exact_div`` and the kernels above) are built by a trusted
internal constructor that only trims: it may be given only ints produced by
that arithmetic.  No other module uses the kernels or this constructor;
they build through ``mul_ratio``, ``sum_shifted`` and the operators above.
"""

from functools import cache
from itertools import accumulate
from math import comb
from operator import add, sub

from .errors import InvalidParameter, NotDivisible

# IntPoly.__mul__ uses Kronecker substitution when both factors have more
# terms than this, and the schoolbook loop otherwise.  Measured on CPython
# 3.11 (x86-64): Kronecker is slower below 16 terms and faster from 18 on,
# for coefficients from one digit to 64 bits.
KRONECKER_THRESHOLD = 17


def _trimmed(coeffs):
    """A list or tuple of coefficients as a tuple without trailing zeros."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return tuple(coeffs[:end]) if end < len(coeffs) else tuple(coeffs)


class IntPoly:
    """Polynomial with integer coefficients, stored dense and ascending.

    ``coeffs[i]`` is the coefficient of q**i.  The representation is
    canonical (no trailing zeros), so equality and hashing of ``coeffs``
    agree with mathematical equality.  Values are immutable: assigning or deleting
    an attribute raises AttributeError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        object.__setattr__(self, "coeffs", _trimmed([int(c) for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Pickling rebuilds through _trusted, not by setting the frozen slot.
        return _trusted, (self.coeffs,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _trusted(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _trusted([-c for c in self.coeffs])

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if min(len(a), len(b)) > KRONECKER_THRESHOLD:
            return _trusted(_mul_kronecker(a, b))
        return _trusted(mul_schoolbook(a, b))

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise InvalidParameter(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = ONE
        for _ in range(exponent):
            result = result * self
        return result

    def __str__(self):
        """Descending powers, such as "-q^3 + 2*q + 1": the form every
        report writes a polynomial in."""
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for exp in range(len(coeffs) - 1, -1, -1):
            c = coeffs[exp]
            if not c:
                continue
            mag = -c if c < 0 else c
            if exp == 0:
                body = int_text(mag)
            else:
                var = "q" if exp == 1 else f"q^{exp}"
                body = var if mag == 1 else f"{int_text(mag)}*{var}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self):
        return f"IntPoly({self.coeffs!r})"


ZERO = IntPoly(())
ONE = IntPoly((1,))
Q = IntPoly((0, 1))


def int_text(c):
    """str(c) for any int c, through decimal.Decimal where str refuses one
    of more than sys.get_int_max_str_digits() digits."""
    try:
        return str(c)
    except ValueError:
        # Imported here: importing decimal at startup adds 0.4 MB to every run.
        from decimal import Decimal
        return str(Decimal(c))


def _trusted(coeffs):
    """IntPoly from a list or tuple of exact ints made by this module's own
    arithmetic: trims trailing zeros but skips the per-coefficient check
    and conversion of the public constructor."""
    poly = object.__new__(IntPoly)
    object.__setattr__(poly, "coeffs", _trimmed(coeffs))
    return poly


def mul_schoolbook(a, b):
    """Product of two nonempty coefficient sequences by the quadratic
    schoolbook loop.  The small-size path of IntPoly.__mul__ and the
    reference its fast path is tested against."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _pack(coeffs, nbytes):
    """sum(c * 256**(nbytes*i)) as one int: the nonnegative and negative
    coefficients are packed as separate digit strings, then subtracted."""
    value = int.from_bytes(
        b"".join((c if c > 0 else 0).to_bytes(nbytes, "little") for c in coeffs), "little")
    if any(c < 0 for c in coeffs):
        value -= int.from_bytes(
            b"".join((-c if c < 0 else 0).to_bytes(nbytes, "little") for c in coeffs), "little")
    return value


def _mul_kronecker(a, b):
    """Product of two nonempty coefficient sequences by Kronecker
    substitution: evaluate both at 2**w, multiply once, read off the digits.

    Each product coefficient is a sum of at most min(len(a), len(b)) terms,
    so its magnitude is at most ``bound``.  The digit width w (whole bytes)
    satisfies 2**(w-1) > bound, so adding 2**(w-1) to every digit makes each
    one lie in [0, 2**w): no digit borrows from or carries into the next,
    and subtracting the offset again recovers the signed coefficients
    exactly, whatever their sign or size."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    nbytes = bound.bit_length() // 8 + 1
    n = len(a) + len(b) - 1
    half = 1 << (8 * nbytes - 1)
    offset = int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
    digits = (_pack(a, nbytes) * _pack(b, nbytes) + offset).to_bytes(nbytes * n, "little")
    return [int.from_bytes(digits[i:i + nbytes], "little") - half
            for i in range(0, nbytes * n, nbytes)]


def divmod_poly(a, b):
    """Quotient and remainder of integer long division: a = quot*b + rem with
    deg rem < deg b.

    Raises NotDivisible when a step would need a fractional coefficient,
    which cannot happen when b has leading coefficient 1 or -1.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    lead = b.coeffs[-1]
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        step, leftover = divmod(c, lead)
        if leftover:
            raise NotDivisible(
                f"leading coefficient {c} not divisible by {lead} at q^{i}",
                remainder=IntPoly(rem),
            )
        quot[i - db] = step
        for k, bc in enumerate(b.coeffs):
            rem[i - db + k] -= step * bc
    return _trusted(quot), _trusted(rem[:db])


def exact_div(a, b):
    """Exact quotient a / b in integer polynomials.

    Long division from the top, checking at every step that the leading
    coefficient divides exactly; raises NotDivisible on a fractional step or
    a nonzero final remainder.  Never truncates.
    """
    if a and a.degree < b.degree:
        raise NotDivisible(
            f"degree {b.degree} divisor exceeds degree {a.degree} dividend", remainder=a
        )
    quot, rem = divmod_poly(a, b)
    if rem:
        raise NotDivisible("nonzero remainder", remainder=rem)
    return quot


def imul_one_minus_qt(c, t):
    """c *= (1 - q**t) in place for t >= 1, c a list of coefficients: one
    subtract pass over c extended by t zeros."""
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    c += (0,) * t
    c[t:] = map(sub, c[t:], c[:-t])


def idiv_one_minus_qt(c, t):
    """c /= (1 - q**t) in place, exactly, for t >= 1, c a list of
    coefficients.

    The quotient's coefficients satisfy c[i] = a[i] + c[i-t], a running sum
    over each residue class of i mod t.  The last sum of each class is the
    class's coefficient of the remainder modulo 1 - q**t, and these sums
    fill the top min(t, len(c)) positions; raises NotDivisible, carrying
    that remainder, unless they are all zero.  Never truncates.
    """
    if t < 1:
        raise InvalidParameter(f"t must be >= 1, got {t}")
    for s in range(min(t, len(c))):
        c[s::t] = accumulate(c[s::t])
    top = max(len(c) - t, 0)
    if any(c[top:]):
        rem = [c[top + (s - top) % t] for s in range(len(c) - top)]
        raise NotDivisible(f"nonzero remainder modulo 1 - q^{t}", remainder=_trusted(rem))
    del c[top:]


def factor_ratio(pairs):
    """The ratio prod (1 - q**t)**e over (t, e) pairs as its one value, the
    pairs sorted by t with e summed per t and zero sums dropped: so it does
    not depend on the pairs' order, and factors above and below cancel."""
    exponents = {}
    for t, e in pairs:
        exponents[t] = exponents.get(t, 0) + e
    return tuple(sorted((t, e) for t, e in exponents.items() if e))


def mul_ratio(a, ratio):
    """a times a factor_ratio value: each multiply by (1 - q**t), e > 0,
    first, then each exact division, e < 0, each in ascending t, all on one
    coefficient list.  Each factor is monic up to sign, so the divisions all
    succeed exactly when the ratio's denominator divides, and give the same
    quotient; raises the NotDivisible of the first division that fails."""
    c = list(a.coeffs)
    for t, e in ratio:
        for _ in range(e):
            imul_one_minus_qt(c, t)
    for t, e in ratio:
        for _ in range(-e):
            idiv_one_minus_qt(c, t)
    return _trusted(c)


@cache
def ratio_poly(ratio):
    """mul_ratio(ONE, ratio), built once per process for each ratio;
    NotDivisible when the ratio is not a polynomial."""
    return mul_ratio(ONE, ratio)


def sum_shifted(terms):
    """The sum of poly * q**shift over (shift, poly) pairs, shift >= 0, added
    into one coefficient list."""
    terms = [(shift, poly.coeffs) for shift, poly in terms if poly]
    if not terms:
        return ZERO
    if min(shift for shift, _ in terms) < 0:
        raise InvalidParameter("shifts must be >= 0")
    out = [0] * max(shift + len(cs) for shift, cs in terms)
    for shift, cs in terms:
        end = shift + len(cs)
        out[shift:end] = map(add, out[shift:end], cs)
    return _trusted(out)


def gcd_bezout(a, b, e):
    """Bezout cofactors of a**e and b**e, for a and b with b - q*a == 1.

    Returns (u, v) with u*a**e + v*b**e == 1, the canonical pair: deg u <
    deg b**e, and v is then fixed by the identity.  Raises InvalidParameter
    when b - q*a is not 1.

    Raising -q*a + b == 1 to the power N = max(2e-1, 0) gives 1 as a
    binomial sum.  The terms holding b**i with i >= e are multiples of b**e;
    every other term holds a**(N-i) with N-i >= e, so they sum to U*a**e.
    Reducing U modulo b**e gives u, and v = (1 - u*a**e) / b**e is then an
    exact division.  b must have leading coefficient 1 or -1, so that the
    reduction stays in integers.
    """
    if b - Q * a != ONE:
        raise InvalidParameter("b - q*a is not 1")
    n = max(2 * e - 1, 0)
    big_u = ZERO
    for i in range(e):
        term = (-Q) ** (n - i) * a ** (n - i - e) * b ** i
        big_u = big_u + IntPoly((comb(n, i),)) * term
    power_a, power_b = a**e, b**e
    _, u = divmod_poly(big_u, power_b)
    return u, exact_div(ONE - u * power_a, power_b)


def eval_int(a, x):
    """Evaluate at an integer point by Horner's rule; exact."""
    acc = 0
    for c in reversed(a.coeffs):
        acc = acc * x + c
    return acc


def is_nonneg(a):
    """True iff every coefficient is >= 0 (vacuously true for zero)."""
    return all(c >= 0 for c in a.coeffs)
