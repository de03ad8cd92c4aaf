"""Exception types shared across the package."""


class InvalidParameter(ValueError):
    """A constructor or statement parameter is outside its allowed range."""


class NotDivisible(ArithmeticError):
    """An exact polynomial division left a remainder or would have needed a
    fractional coefficient.  Raised instead of ever truncating; carries the
    offending remainder when known."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class ParseError(ValueError):
    """Malformed polynomial input.  ``position`` is a character offset for
    the text grammar, or an element index for the JSON coefficient array."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class InvalidModulus(ValueError):
    """Divisibility was requested modulo a polynomial whose constant term is
    not 1, which the divisibility checks here do not cover."""


class ProofError(RuntimeError):
    """A step of the proof replay failed to hold: a falsification event."""
