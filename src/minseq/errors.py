"""Exception types shared across the package.

MinseqError covers everything a caller can trigger with bad input; the CLI
maps it to exit code 2. InvariantViolation means the library caught itself
producing something inconsistent and maps to exit code 3.
"""


class MinseqError(Exception):
    """Base class for input/usage errors."""


class SpecMismatch(MinseqError):
    """Operands belong to different coefficient domains."""


class NotDivisible(MinseqError):
    """Exact division requested but the quotient does not exist."""


class NotInvertible(MinseqError):
    """Inverse requested for a non-unit."""


class NotAField(MinseqError):
    """Operation requires a field coefficient domain."""


class NotAFiniteField(MinseqError):
    """Operation requires a finite field coefficient domain."""


class ZeroPolynomial(MinseqError):
    """A nonzero polynomial was required."""


class DegreeOutOfRange(MinseqError):
    """Requested degree lies outside the valid range."""


class NotAnnihilator(MinseqError):
    """The given pair is not a solution for the sequence."""


class TrivialSequence(MinseqError):
    """Operation undefined for the all-zero sequence."""


class OutOfRange(MinseqError):
    """Requested index is not covered by the computed expansion."""


class PositiveValuation(MinseqError):
    """Rational input does not define a proper (power-series) tail."""


class InsufficientTerms(MinseqError):
    """Too few terms to pin down the recurrence; carries the complexity found."""

    def __init__(self, message, lc):
        super().__init__(message)
        self.lc = lc


class MuDoesNotVanish(MinseqError):
    """The computed minimal polynomial already avoids the given point."""


class BudgetExceeded(MinseqError):
    """Brute-force enumeration would exceed the configured budget."""


class InvariantViolation(Exception):
    """The library detected an internal inconsistency (CLI exit code 3)."""
