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

The integer statements (thm11, conj31) are decided by plain integer
arithmetic and additionally cross-checked against the q = 1 specialization
of the polynomial pipeline; the redundancy is an oracle, not waste.  For
thm11 the polynomial cross-check is capped at small n to keep large sweeps
fast; the integer route is authoritative at every size.
"""

from dataclasses import dataclass
from math import comb

from .errors import InvalidModulus, InvalidParameter, NotDivisible, ProofError
from .polyarith import ONE, Q, IntPoly, eval_int, exact_div, gcd_bezout, is_nonneg
from .qobjects import catalan_int, narayana_int, q_binomial, q_catalan, q_integer
from .sums import cyclic_modulus, cyclic_sum, gjz_sum, thm12_sum

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
_PARAMS = ("n", "r", "j", "ns", "f")

# thm11 cross-checks the polynomial route only up to this n: its thm12_sum is
# almost all Kronecker products, and uncapped `verify thm11 --r 1..4` goes from
# 0.96 to 5.9 s at --n 1..20 and 0.84 to 66 s at --n 1..30 (2-vCPU Xeon).
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
        for field in _PARAMS:
            value = getattr(self, field)
            if field in fields and value is None:
                raise InvalidParameter(f"{self.statement} requires {field}")
            if field not in fields and value is not None:
                raise InvalidParameter(f"{self.statement} does not take {field}")
        if self.n is not None and self.n < 1:
            raise InvalidParameter(f"n must be >= 1, got {self.n}")
        if self.r is not None and self.r < 1:
            raise InvalidParameter(f"r must be >= 1, got {self.r}")
        if self.j is not None and self.j < 0:
            raise InvalidParameter(f"j must be >= 0, got {self.j}")
        if self.ns is not None:
            if not self.ns:
                raise InvalidParameter("ns must be nonempty")
            for v in self.ns:
                if not isinstance(v, int) or v < 1:
                    raise InvalidParameter(f"ns entries must be integers >= 1, got {v!r}")
        if self.f is not None and not isinstance(self.f, IntPoly):
            raise InvalidParameter(f"f must be an IntPoly, got {self.f!r}")

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
        return [(name, value) for name in _PARAMS if (value := getattr(self, name)) is not None]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one case.  quotient is the exact quotient, or None when the
    modulus does not divide the sum; the three flags derive from it and the case.

    sum_degree is the degree of the polynomial the claim was tested on, with
    -1 standing in for the zero polynomial (integer statements count as
    constants); shift is the normalization power of q factored out of the sum.
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
    sum_poly: IntPoly
    modulus: IntPoly
    bezout_u: IntPoly
    bezout_v: IntPoly
    quotient: IntPoly


def check_divisibility(poly, modulus):
    """Exact quotient of a polynomial by a modulus with constant term 1, or
    None when the modulus does not divide it.

    The quotient is re-multiplied against the modulus and compared before it
    is returned.
    """
    if not modulus or modulus.constant != 1:
        raise InvalidModulus(
            f"modulus must have constant term 1, got {modulus}"
        )
    try:
        quotient = exact_div(poly, modulus)
    except NotDivisible:
        return None
    if quotient * modulus != poly:
        raise ArithmeticError("division re-multiplication mismatch")
    return quotient


def _poly_verdict(case, poly, shift, quotient):
    """Verdict on a built sum, given its normalization shift and its quotient
    (None if not divisible)."""
    return Verdict(case, poly.degree if poly else -1, shift, quotient)


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
        if eval_int(q_catalan(n), 1) != modulus:
            raise ArithmeticError(f"integer and polynomial routes disagree at n={n}")
    return _int_verdict(case, total, modulus)


def _verify_narayana_power(case):
    summed = thm12_sum(case.n, case.r, case.j)
    return _poly_verdict(case, summed, 0, check_divisibility(summed, q_catalan(case.n)))


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
    quotient = check_divisibility(summed.poly, cyclic_modulus(case.ns))
    return _poly_verdict(case, summed.poly, summed.shift, quotient)


def _verify_gjz(case):
    try:
        poly = gjz_sum(case.ns, case.j)
    except NotDivisible:
        return Verdict(case, -1, 0, None)
    return _poly_verdict(case, poly, 0, poly)


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


def claim_holds(verdict):
    """Whether the statement's own claim holds for this verdict, regardless
    of whether the parameters were inside the claimed range."""
    if STATEMENTS[verdict.case.statement].claim == "divisible":
        return verdict.divisible
    return bool(verdict.divisible and verdict.quotient_nonneg)


def replay_proof(n, r, j):
    """Re-run the proof mechanics for one (n, r, j): build the cyclic-form
    sum, certify via Bezout cofactors that the two neighboring q-integer
    powers are coprime, divide by the composite modulus, and re-check every
    identity on the way.  Any failure raises ProofError: a falsification
    event, never swallowed."""
    if n < 1 or r < 1:
        raise InvalidParameter(f"n and r must be >= 1, got n={n}, r={r}")
    if not 0 <= j <= 2 * r - 1:
        raise InvalidParameter(f"j must satisfy 0 <= j <= 2r-1, got {j}")
    summed = cyclic_sum((n,) * r, IntPoly((0, 0, j)))
    if summed.shift:
        raise ProofError(f"unexpected normalization shift {summed.shift}")
    # [2n+2] - q*[2n+1] = 1 gives the base cofactors (-q, 1).
    base_a, base_b = q_integer(2 * n + 1), q_integer(2 * n + 2)
    try:
        u, v = gcd_bezout(base_a, base_b, -Q, ONE, r - 1)
    except InvalidParameter as exc:
        raise ProofError(f"[2n+2] - q*[2n+1] is not 1 at n={n}") from exc
    power_a, power_b = base_a ** (r - 1), base_b ** (r - 1)
    if u * power_a + v * power_b != ONE:
        raise ProofError(f"Bezout identity failed to re-expand at n={n}, r={r}")
    modulus = q_binomial(2 * n + 1, n) * power_a
    try:
        quotient = exact_div(summed.poly, modulus)
    except NotDivisible as exc:
        raise ProofError(
            f"sum is not divisible by the modulus at n={n}, r={r}, j={j}"
        ) from exc
    if quotient * modulus != summed.poly:
        raise ProofError(f"quotient re-multiplication mismatch at n={n}, r={r}, j={j}")
    return ProofTrace(n, r, j, summed.poly, modulus, u, v, quotient)
