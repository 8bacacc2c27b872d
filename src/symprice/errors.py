"""Exception taxonomy shared by every module.

Plain ValueError is used for bad call arguments (loops, out-of-range
vertices, malformed family parameters).  The classes below cover the
remaining failure modes and map onto the CLI exit codes.
"""


class SympriceError(Exception):
    """Base class for package-specific errors."""


class DomainError(SympriceError):
    """Input outside the mathematical domain of an operation.

    Typical case: a distance-based invariant asked on a digraph that is
    not strongly connected, or an unreachable pair inside a partial
    transmission sum.
    """


class SizeError(SympriceError):
    """Requested order exceeds a hard feasibility cap."""


class FormatError(SympriceError):
    """Malformed graph file; carries a line number when available."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantViolation(SympriceError):
    """An internal structural invariant failed; indicates a bug."""
