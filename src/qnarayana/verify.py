"""Divisibility and nonnegativity verdicts for the statement catalog, plus
an executable replay of the Bezout-cofactor argument behind the main
congruence.

Statements are identified by short ids.  Everything that distinguishes one
id is a single Statement entry in STATEMENTS, as data rather than code paths,
so validation, sweep expansion and reporting never branch on the id.  Each
statement is classified two ways:

* kind: "theorem" (a failed claim is an implementation bug) versus
  "conjecture" (a failed claim is a mathematically interesting finding);
* claim: what the statement asserts, one of exact divisibility, a nonnegative
  quotient, or nonnegativity of the built polynomial itself.

outcome reads a verdict through both as pass, finding, fail or exploratory.

The integer statements (thm11, conj31) are decided by plain integer
arithmetic and additionally cross-checked against the q = 1 specialization
of the polynomial pipeline; the redundancy is an oracle, not waste.  For
thm11 the polynomial cross-check is capped at small n to keep large sweeps
fast; the integer route is authoritative at every size.
"""

from dataclasses import dataclass
from math import comb

from .errors import InvalidParameter, NotDivisible, ProofError
from .polyarith import ONE, IntPoly, eval_int, gcd_bezout, is_nonneg, mul_ratio, ratio_poly
from .qobjects import catalan_factors, catalan_int, narayana_int, q_integer
from .sums import (
    check_bound,
    cyclic_modulus,
    cyclic_modulus_factors,
    cyclic_sum,
    gjz_sum,
    thm12_sum,
    validated_ns,
)

# Exponent polynomials swept for conj34 when --f-suite is not given: zero,
# the quadratic recovering the j=1 theorem case, a mixed quadratic, k^3, whose
# negative values at negative k force a normalization shift once n1 >= 2, and
# k^4 - k, which never shifts because k^4 - k + k(k-1)/2 >= 0 for every
# integer k.
DEFAULT_F_SUITE = (
    IntPoly(()),
    IntPoly((0, 0, 1)),
    IntPoly((0, 1, 2)),
    IntPoly((0, 0, 0, 1)),
    IntPoly((0, -1, 0, 0, 1)),
)

# CaseSpec parameters in record order.
PARAMS = ("n", "r", "j", "ns", "f")

# thm11 cross-checks the polynomial route only up to this n: its thm12_sum
# builds a row of r-th powers, and uncapped `verify thm11 --r 1..4` goes from
# 0.41 to 0.90 s at --n 1..20 and 0.40 to 3.8 s at --n 1..30 (medians of 3
# runs, each a fresh interpreter, 2-vCPU Xeon).
_POLY_CROSS_CHECK_LIMIT = 14


@dataclass(frozen=True)
class CaseSpec:
    """One fully-instantiated statement instance to verify.

    Only the fields the statement uses may be set: n, r, j for the
    Narayana-power family; ns (and j or f) for the chain families.
    """

    statement: str
    n: int = None
    r: int = None
    j: int = None
    ns: tuple = None
    f: IntPoly = None

    def __post_init__(self):
        if self.ns is not None:
            object.__setattr__(self, "ns", tuple(self.ns))

    def validate(self):
        fields = get_statement(self.statement).fields
        for field in PARAMS:
            value = getattr(self, field)
            if value is None:
                if field in fields:
                    raise InvalidParameter(f"{self.statement} requires {field}")
            elif field not in fields:
                raise InvalidParameter(f"{self.statement} does not take {field}")
            elif field == "ns":
                validated_ns(value)
            elif field != "f":
                check_bound(field, value)
            elif not isinstance(value, IntPoly):
                raise InvalidParameter(f"f must be an IntPoly, got {value!r}")

    def in_theorem_range(self):
        """True when the parameters fall inside the range the statement
        actually claims; outside it a verdict is exploratory."""
        statement = get_statement(self.statement)
        if statement.j_scale is None:
            return True
        return 0 <= self.j < statement.j_count(self.r, self.ns)

    def params(self):
        """(name, value) of each parameter that is set, in the order n, r,
        j, ns, f."""
        return [(name, value) for name in PARAMS if (value := getattr(self, name)) is not None]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one case.  quotient is the exact quotient, or None when the
    modulus does not divide the sum; the three flags derive from it and the case.

    sum_degree is the degree of the polynomial the claim was tested on, -1
    for the zero polynomial (integer statements count as constants); shift
    is the normalization power of q factored out of the sum.
    """

    case: CaseSpec
    sum_degree: int
    shift: int
    quotient: IntPoly

    @property
    def divisible(self):
        return self.quotient is not None

    @property
    def quotient_nonneg(self):
        """Whether every quotient coefficient is >= 0; None unless divisible."""
        return None if self.quotient is None else is_nonneg(self.quotient)

    @property
    def in_theorem_range(self):
        return self.case.in_theorem_range()


@dataclass(frozen=True)
class ProofTrace:
    """Everything the replayed proof computed, already re-checked: the sum,
    the modulus, the Bezout cofactors certifying coprimality of the two
    q-integer powers, and the exact quotient."""

    n: int
    r: int
    j: int
    sum: IntPoly
    modulus: IntPoly
    bezout_u: IntPoly
    bezout_v: IntPoly
    quotient: IntPoly


def check_divisibility(poly, modulus):
    """Exact quotient of poly by a modulus, or None when the modulus does
    not divide it.

    modulus, the modulus's one definition, is a factor_ratio value;
    NotDivisible unless it is a polynomial.  The quotient is poly times the
    inverse ratio, each (t, -e): every factor is monic up to sign, so this
    succeeds exactly when the modulus divides poly.  The quotient is
    re-multiplied against the modulus before it is returned.
    """
    modulus_poly = ratio_poly(modulus)
    try:
        quotient = mul_ratio(poly, [(t, -e) for t, e in modulus])
    except NotDivisible:
        return None
    if quotient * modulus_poly != poly:
        raise ArithmeticError("division re-multiplication mismatch")
    return quotient


def _int_verdict(case, total, modulus):
    quot, rem = divmod(total, modulus)
    return Verdict(case, 0 if total else -1, 0, None if rem else IntPoly((quot,)))


def _comb0(n, k):
    return comb(n, k) if 0 <= k <= n else 0


def _verify_thm11(case):
    n, r = case.n, case.r
    total = 0
    for k in range(-n, n + 1):
        term = narayana_int(2 * n + 1, n + k + 1) ** r
        total += -term if k % 2 else term
    modulus = catalan_int(n)
    if n <= _POLY_CROSS_CHECK_LIMIT:
        if eval_int(thm12_sum(n, r, 0), 1) != total:
            raise ArithmeticError(
                f"integer and polynomial routes disagree on the sum at n={n}, r={r}"
            )
        if eval_int(ratio_poly(catalan_factors(n)), 1) != modulus:
            raise ArithmeticError(f"integer and polynomial routes disagree at n={n}")
    return _int_verdict(case, total, modulus)


def _verify_narayana_power(case):
    n = case.n
    summed = thm12_sum(n, case.r, case.j)
    quotient = check_divisibility(summed, catalan_factors(n))
    return Verdict(case, summed.degree, 0, quotient)


def _verify_conj31(case):
    ns = case.ns
    chain = ns + (ns[0],)
    n1 = ns[0]
    total = 0
    for k in range(-n1, n1 + 1):
        prod = 1
        for i, ni in enumerate(ns):
            upper = ni + chain[i + 1] + 1
            prod *= _comb0(upper, ni + k) * _comb0(upper, ni + k + 1)
            if not prod:
                break
        total += -prod if k % 2 else prod
    modulus = comb(n1 + ns[-1] + 1, n1)
    for i in range(len(ns) - 1):
        modulus *= ns[i] + ns[i + 1] + 1
    if eval_int(cyclic_sum(ns, IntPoly(())).poly, 1) != total:
        raise ArithmeticError(
            f"integer and polynomial routes disagree on the sum at ns={ns}"
        )
    if eval_int(cyclic_modulus(ns), 1) != modulus:
        raise ArithmeticError(f"integer and polynomial routes disagree at ns={ns}")
    return _int_verdict(case, total, modulus)


def _verify_cyclic(case):
    """conj34 at its exponent polynomial f; conj33 is conj34 at f = j*k^2."""
    f = IntPoly((0, 0, case.j)) if case.f is None else case.f
    summed = cyclic_sum(case.ns, f)
    quotient = check_divisibility(summed.poly, cyclic_modulus_factors(case.ns))
    return Verdict(case, summed.poly.degree, summed.shift, quotient)


def _verify_gjz(case):
    try:
        poly = gjz_sum(case.ns, case.j)
    except NotDivisible:
        return Verdict(case, -1, 0, None)
    return Verdict(case, poly.degree, 0, poly)


@dataclass(frozen=True)
class Statement:
    """Everything that distinguishes one statement id.

    kind is "theorem" (a failed claim is an implementation bug) or
    "conjecture" (a failed claim is a finding).  claim is what the statement
    asserts: "divisible", "nonneg_quotient" (divisible with a nonnegative
    quotient) or "nonneg_poly" (the built polynomial itself is nonnegative).
    fields are the CaseSpec parameters it takes, in the order n, r, j, ns, f.
    A statement taking j claims 0 <= j < j_count(r, ns); j_scale is None when
    it takes no j.
    ranges are the default verify sweep bounds, used when no --ns is given,
    and f_suite the default exponent polynomials for a statement taking f.
    build turns a validated CaseSpec into its Verdict.
    """

    kind: str
    claim: str
    fields: tuple
    j_scale: int
    ranges: dict
    build: object
    f_suite: tuple = None

    def j_count(self, r, ns):
        """How many j the statement claims: j_scale times r, or times len(ns)
        for the chain statements."""
        return self.j_scale * (r if ns is None else len(ns))


# The statement catalog, in the order the command line lists it.
STATEMENTS = {
    "thm11": Statement("theorem", "divisible", ("n", "r"), None,
                       {"n_range": (1, 14), "r_range": (1, 4)}, _verify_thm11),
    "thm12": Statement("theorem", "divisible", ("n", "r", "j"), 2,
                       {"n_range": (1, 10), "r_range": (1, 3)}, _verify_narayana_power),
    "gjz": Statement("theorem", "nonneg_poly", ("j", "ns"), 1,
                     {"m_range": (1, 4), "ni_max": 5}, _verify_gjz),
    "conj31": Statement("conjecture", "divisible", ("ns",), None,
                        {"m_range": (1, 3), "ni_max": 6}, _verify_conj31),
    "conj32": Statement("conjecture", "nonneg_quotient", ("n", "r", "j"), 2,
                        {"n_range": (1, 8), "r_range": (1, 3)}, _verify_narayana_power),
    "conj33": Statement("conjecture", "nonneg_quotient", ("j", "ns"), 2,
                        {"m_range": (1, 3), "ni_max": 4}, _verify_cyclic),
    "conj34": Statement("conjecture", "divisible", ("ns", "f"), None,
                        {"m_range": (1, 2), "ni_max": 5}, _verify_cyclic, DEFAULT_F_SUITE),
}


def get_statement(statement):
    """The registry entry for a statement id; InvalidParameter if unknown."""
    try:
        return STATEMENTS[statement]
    except KeyError:
        raise InvalidParameter(f"unknown statement {statement!r}") from None


def verify_case(case):
    """Build the case's sum and modulus and return a full Verdict."""
    case.validate()
    return STATEMENTS[case.statement].build(case)


def outcome(verdict):
    """Classify a verdict: pass, finding, fail or exploratory.

    Out-of-range parameters are exploratory observations whatever they show;
    in range, a failed claim is a finding for conjecture-class statements
    and a fail for theorem-class ones.
    """
    if not verdict.in_theorem_range:
        return "exploratory"
    statement = STATEMENTS[verdict.case.statement]
    if verdict.divisible and (statement.claim == "divisible" or verdict.quotient_nonneg):
        return "pass"
    return "fail" if statement.kind == "theorem" else "finding"


def replay_proof(n, r, j):
    """Re-run the proof mechanics for one (n, r, j): build the cyclic-form
    sum, certify via Bezout cofactors that the two neighboring q-integer
    powers are coprime, divide by the composite modulus, and re-check every
    identity on the way.  Any failure raises ProofError: a falsification
    event, never swallowed."""
    check_bound("n", n)
    check_bound("r", r)
    if not 0 <= j < STATEMENTS["thm12"].j_count(r, None):
        raise InvalidParameter(f"j must satisfy 0 <= j <= 2r-1, got {j}")
    ns = (n,) * r
    summed = cyclic_sum(ns, IntPoly((0, 0, j)))
    if summed.shift:
        raise ProofError(f"unexpected normalization shift {summed.shift}")
    base_a, base_b = q_integer(2 * n + 1), q_integer(2 * n + 2)
    try:
        u, v = gcd_bezout(base_a, base_b, r - 1)
    except InvalidParameter as exc:
        raise ProofError(f"[2n+2] - q*[2n+1] is not 1 at n={n}") from exc
    power_a, power_b = base_a ** (r - 1), base_b ** (r - 1)
    if u * power_a + v * power_b != ONE:
        raise ProofError(f"Bezout identity failed to re-expand at n={n}, r={r}")
    # The cyclic modulus of (n,)*r is qbinom(2n+1, n) * [2n+1]^(r-1).
    quotient = check_divisibility(summed.poly, cyclic_modulus_factors(ns))
    if quotient is None:
        raise ProofError(f"sum is not divisible by the modulus at n={n}, r={r}, j={j}")
    return ProofTrace(n, r, j, summed.poly, cyclic_modulus(ns), u, v, quotient)
