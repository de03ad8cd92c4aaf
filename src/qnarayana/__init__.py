"""Exact arithmetic for alternating q-Narayana and q-binomial sums.

The package builds q-analogue combinatorial polynomials (q-integers,
Gaussian binomials, q-Narayana and q-Catalan polynomials), forms the
alternating sums over symmetric windows that they enter, and decides
divisibility and coefficient-nonnegativity claims about those sums by exact
integer polynomial division; a replayable Bezout-cofactor proof trace and a
sweep-and-report command line sit on top.
"""

__version__ = "0.1.0"

from .errors import (
    InvalidModulus,
    InvalidParameter,
    NotDivisible,
    ProofError,
)
from .polyarith import (
    NEG_INF,
    ONE,
    Q,
    ZERO,
    IntPoly,
    eval_int,
    exact_div,
    gcd_bezout,
    is_nonneg,
)
from .qobjects import (
    catalan_int,
    narayana_int,
    q_binomial,
    q_catalan,
    q_integer,
    q_narayana,
    q_shifted_factorial,
)
from .sums import (
    NormalizedSum,
    binom2,
    cyclic_modulus,
    cyclic_sum,
    gjz_sum,
    thm12_sum,
)
from .verify import (
    STATEMENTS,
    CaseSpec,
    ProofTrace,
    Statement,
    Verdict,
    check_divisibility,
    claim_holds,
    replay_proof,
    verify_case,
)

__all__ = [
    "__version__",
    "InvalidModulus",
    "InvalidParameter",
    "NotDivisible",
    "ProofError",
    "NEG_INF",
    "ZERO",
    "ONE",
    "Q",
    "IntPoly",
    "exact_div",
    "gcd_bezout",
    "eval_int",
    "is_nonneg",
    "q_integer",
    "q_shifted_factorial",
    "q_binomial",
    "q_narayana",
    "q_catalan",
    "narayana_int",
    "catalan_int",
    "NormalizedSum",
    "binom2",
    "thm12_sum",
    "cyclic_sum",
    "cyclic_modulus",
    "gjz_sum",
    "STATEMENTS",
    "Statement",
    "CaseSpec",
    "Verdict",
    "ProofTrace",
    "check_divisibility",
    "verify_case",
    "claim_holds",
    "replay_proof",
]
