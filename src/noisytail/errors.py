"""Exception types shared across the package.

The CLI maps these onto exit codes: validation problems exit 2, I/O
problems exit 3, numeric failures exit 4.
"""


class NoisytailError(Exception):
    """Base class for all package errors."""


class InvalidInputError(NoisytailError, ValueError):
    """An operation received arguments violating its preconditions."""


class InvalidSpecError(NoisytailError, ValueError):
    """A configuration or spec object is out of range or inconsistent."""


class ParseError(NoisytailError, ValueError):
    """A data file failed to parse; the message names the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericError(NoisytailError, ArithmeticError):
    """A numeric routine produced or encountered a non-finite value."""
