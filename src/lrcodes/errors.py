"""Exception types raised across the package.

Everything derives from LrcError so callers can catch the package's own
failures without swallowing programming errors.
"""

from __future__ import annotations


class LrcError(Exception):
    """Base class for all errors raised by this package."""


# field construction and arithmetic

class CompositeCharacteristic(LrcError):
    """Field characteristic is not prime."""


class ReduciblePolynomial(LrcError):
    """Supplied modulus polynomial is not irreducible over GF(2)."""


class UnsupportedExtension(LrcError):
    """Extension field outside the supported GF(2^e) range."""


class DivisionByZero(LrcError):
    """Division or inversion with a zero operand."""


class FieldMismatch(LrcError):
    """Objects over different fields used together."""


class BoundTooLarge(LrcError):
    """Requested field size exceeds the configured ceiling."""


# linear algebra

class IndexOutOfRange(LrcError):
    """Column index outside [1, cols]."""


class DimensionMismatch(LrcError):
    """Vector or matrix shape incompatible with the operation."""


class BudgetExceeded(LrcError):
    """Enumeration would exceed the configured work budget."""


# parameters

class BoundNonPositive(LrcError):
    """Distance bound evaluates below 1; parameters are vacuous."""


# cover structures

class NotDivisible(LrcError):
    """Group size does not divide the code length."""


class PreconditionViolated(LrcError):
    """Structural precondition of a builder or checker does not hold."""


class TooFewGroups(LrcError):
    """Fewer groups than the subset size the check must range over."""


class CoverIncomplete(LrcError):
    """Supplied groups do not cover every coordinate."""


# construction

class FieldTooSmall(LrcError):
    """Field order below the minimum the construction step requires."""


class NoValidVector(LrcError):
    """Extension step found no admissible column.

    `exhausted` is True when the whole group span was ruled out, and
    False when the fallback scan stopped at its budget first.
    """

    def __init__(self, message: str, num_cores: int, q: int,
                 exhausted: bool) -> None:
        super().__init__(message)
        self.num_cores = num_cores
        self.q = q
        self.exhausted = exhausted


class NotConstructible(LrcError):
    """Parameters admit no construction on this code path."""

    def __init__(self, message: str, tag: str) -> None:
        super().__init__(message)
        self.tag = tag


class UnknownCase(LrcError):
    """Existence of an optimal code is open for these parameters."""

    def __init__(self, message: str, tag: str) -> None:
        super().__init__(message)
        self.tag = tag


# verification

class StructureMismatch(LrcError):
    """Cover structure inconsistent with the matrix it is paired with."""


class RankDeficient(LrcError):
    """Generator matrix rank is below the declared dimension."""


# persistence

class CodeFileError(LrcError):
    """Stored code file is not valid JSON, lacks a key, holds a wrongly
    typed value, has another format tag, or disagrees with itself."""
