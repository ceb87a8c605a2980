"""Exception types shared across the package."""


class RuleboundsError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(RuleboundsError):
    """A configuration file or model declaration is invalid."""


class DataError(RuleboundsError):
    """A data file or record table is malformed or out of domain."""


class InfeasibleModelError(RuleboundsError):
    """The observed distribution is incompatible with the assumed structure.

    Carries the most-violated constraint and the minimal total violation
    found while trying to fit the response-type mixture.
    """

    def __init__(self, message, *, worst_constraint=None, violation=None):
        super().__init__(message)
        self.worst_constraint = worst_constraint
        self.violation = violation


class ProgramTooLargeError(RuleboundsError):
    """A program's profile arrays or tableau would exceed ``lp_bounds.MAX_TABLEAU_BYTES``.

    Raised before they are allocated: ``needed`` is the bytes they would
    take, ``budget`` the limit they exceed.
    """

    def __init__(self, message, *, needed, budget):
        super().__init__(message)
        self.needed = needed
        self.budget = budget


class SolverError(RuleboundsError):
    """The linear-program solver failed in a way that indicates a bug."""
