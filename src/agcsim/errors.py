"""Exception hierarchy shared across the package."""


class AgcSimError(Exception):
    """Base class for all package errors."""


class StructuralError(AgcSimError):
    """Malformed inputs: dimension mismatches, bad indices, bad arguments."""


class NumericError(AgcSimError):
    """Non-finite values or failed numerical operations."""


class ConvergenceError(AgcSimError):
    """An iterative solver did not converge within its iteration budget."""


class ScenarioError(AgcSimError):
    """Scenario file cannot be parsed or validated.

    Carries the offending line number when known.  An error found on the
    values of a Scenario, which keep no lines, names in `keys` the values
    at fault, most likely first, so the parser can report a line.
    """

    def __init__(self, message, line=None, keys=()):
        self.reason = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.keys = keys


class InstabilityError(AgcSimError):
    """Simulated state left the validity region of the linear model."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class TuningError(AgcSimError):
    """Controller tuning found no stabilizing candidate."""
