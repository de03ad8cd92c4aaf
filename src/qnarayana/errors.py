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


class ProofError(RuntimeError):
    """A step of the proof replay failed to hold: a falsification event."""
