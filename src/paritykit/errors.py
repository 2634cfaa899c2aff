"""Exception types shared across the toolkit."""


class ParityKitError(Exception):
    """Base class for all toolkit errors."""


class PreconditionViolated(ParityKitError):
    """An operation was called on inputs that violate its contract."""


class InvalidFamilyParams(ParityKitError):
    """Generator family parameters are inconsistent (e.g. k > n)."""


class BudgetExceeded(ParityKitError):
    """A brute-force enumeration bound was exceeded."""


class MissingStrategies(ParityKitError):
    """A certification step needs witness strategies that are absent."""


class NotBipartite(ParityKitError):
    """The bipartite kernelizer was handed a non-bipartite game."""


class TraceMismatch(ParityKitError):
    """A kernel solution does not match the trace it should be lifted through."""


class ParseError(ParityKitError):
    """A PGSolver-format file could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
