"""Exception hierarchy shared by all physkit modules."""

from __future__ import annotations


class PhyskitError(Exception):
    """Base class for every error raised by this package."""


class ContractError(PhyskitError, ValueError):
    """A caller violated an operation's precondition."""


class ShapeError(ContractError):
    """Operand shapes are incompatible; the message names the shapes."""


class NumericError(PhyskitError, ArithmeticError):
    """An operation received or produced non-finite values."""


class EstimationError(PhyskitError, RuntimeError):
    """A spectral estimate could not be formed (e.g. no in-band peak)."""


class ParseError(PhyskitError, ValueError):
    """A file could not be parsed; carries the offending line, if any."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
