"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, data-layer errors -> 3,
solver errors -> 4, anything else -> 5.
"""


class CfdensError(Exception):
    """Base class for all package errors."""


class ConfigError(CfdensError):
    """Invalid run configuration. Collects every violated field."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(self.violations))


class DataError(CfdensError):
    """Base class for ingestion / table errors."""


class SchemaError(DataError):
    """A required CSV column is absent."""


class ParseError(DataError):
    """A cell could not be parsed; message carries the row index."""


class EmptyDataError(DataError):
    """No rows after ingestion."""


class DegenerateOutcomeError(DataError):
    """All outcomes equal; min-max rescaling is undefined."""


class GridError(CfdensError):
    """Evaluation grid too coarse or malformed."""


class FoldError(DataError):
    """Infeasible fold plan (n < k, k < 2, ...)."""


class DistanceDomainError(CfdensError):
    """Discrepancy evaluated outside its domain; names the distance."""


class ModelDomainError(CfdensError):
    """Model evaluated at invalid parameters or degenerate output."""


class InsufficientDataError(DataError):
    """Too few training rows for a nuisance fit; names the treatment level."""


class SolverError(CfdensError):
    """Root finder failed to converge; carries the residual trace."""

    def __init__(self, message, residual_history=None):
        self.residual_history = list(residual_history or [])
        super().__init__(message)


class InfeasibleMomentError(SolverError):
    """Moment-matching target lies outside the attainable mean set."""


class RankError(SolverError):
    """Singular derivative matrix; advises reducing the model dimension."""


class MagnitudeError(CfdensError):
    """Numeric overflow that stabilization could not contain."""
