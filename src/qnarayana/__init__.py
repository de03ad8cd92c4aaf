"""Exact arithmetic for alternating q-Narayana and q-binomial sums.

The package builds q-analogue combinatorial polynomials (q-integers,
Gaussian binomials, q-Narayana and q-Catalan polynomials), forms the
alternating sums over symmetric windows that they enter, and decides
divisibility and coefficient-nonnegativity claims about those sums by exact
integer polynomial division; a replayable Bezout-cofactor proof trace and a
sweep-and-report command line sit on top.

The package root holds only ``__version__``; every other name is imported
from the module that defines it.
"""

__version__ = "0.1.0"
