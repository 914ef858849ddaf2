"""Exception hierarchy.

Three broad categories map onto the CLI exit codes: configuration
problems (2), data problems (3), and numerical failures (4).
"""


class ExtvalError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class ConfigError(ExtvalError):
    """Invalid or inconsistent configuration."""

    exit_code = 2


class DataError(ExtvalError):
    """Input data violates a structural requirement. ``row`` is the index
    of the first offending row when the requirement is per row."""

    exit_code = 3

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class NumericalError(ExtvalError):
    """A numerical procedure failed or produced an unusable result."""

    exit_code = 4


class DimensionError(DataError):
    """Array shapes are inconsistent with the declared design."""


class EmptyGroupError(DataError):
    """An operation requires a nonempty group of rows."""


class SingularInformationError(NumericalError):
    """Information matrix is singular (collinear design)."""


class SeparationError(NumericalError):
    """Logistic fit diverged; classes are (quasi-)separated."""


class NotConvergedError(NumericalError):
    """A fit did not converge and downstream use requires convergence."""


class ZeroWeightError(NumericalError):
    """A treatment arm carries no weight, or weights are non-finite."""


class UnattainableProportionError(NumericalError):
    """Requested well-represented proportion exceeds the attainable mass."""


class DegenerateScoresError(NumericalError):
    """All score products identical; the threshold cannot be solved."""


class StationarityError(NumericalError):
    """Plug-in estimates do not solve the stacked estimating equations."""


class SingularSystemError(NumericalError):
    """Jacobian of the stacked system is singular."""
