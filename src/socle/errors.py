"""Shared exception types.

Everything user-facing raises one of these so the CLI can map failures to
exit codes without string-matching.
"""


class SocleError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SocleError, ValueError):
    """Operands live over different numbers of variables."""


class NonUnitError(SocleError, ArithmeticError):
    """Inversion was asked of a series whose constant term is zero."""


class DomainError(SocleError, ValueError):
    """Input is outside the mathematical domain of the operation."""


class ParseError(SocleError, ValueError):
    """Malformed expression text.

    ``offset`` is the 1-based byte position of the offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"parse error at byte {offset}: {message}")
        self.offset = offset


class UnsupportedSpecError(SocleError, ValueError):
    """A module description the requested engine does not handle."""


class EmptyComplexError(SocleError, ValueError):
    """Window/cutoff too small to contain a single basis element."""


class InconsistentSequenceError(SocleError, ValueError):
    """Dimension data admits no exact sequence."""


class NotLefschetzError(SocleError, ValueError):
    """A homology profile violates the hard Lefschetz inequalities."""


class InternalCheckError(SocleError, AssertionError):
    """An internal invariant failed; indicates a bug, not bad input."""
