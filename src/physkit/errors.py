"""Exception hierarchy shared by all physkit modules, and ``within``, the
one way an error is told where it happened."""

from __future__ import annotations

from contextlib import contextmanager


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
    """A file could not be parsed; the message names the offending line, if any."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


@contextmanager
def within(prefix: str):
    """Put prefix, the file, stage or step the block works on, in front of
    the message of a physkit error that escapes the block."""
    try:
        yield
    except PhyskitError as exc:
        exc.args = (f"{prefix}{exc.args[0] if exc.args else ''}",) + exc.args[1:]
        raise
