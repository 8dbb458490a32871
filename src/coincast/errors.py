"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, input/data errors
(SchemaError, ValidationError, SizingError, DomainError, ShapeError) -> 3,
TrainingError -> 4.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ToolkitError):
    """Run configuration is invalid; raised before any data is read."""


class SchemaError(ToolkitError):
    """An input file does not have the expected column layout."""


class ValidationError(ToolkitError):
    """Input rows violate a data invariant (ordering, duplicates, OHLC bounds)."""


class SizingError(ToolkitError):
    """Input is too small for the requested operation."""


class DomainError(ToolkitError):
    """A value lies outside an operation's mathematical domain."""


class ShapeError(ToolkitError):
    """Array dimensions are inconsistent with each other."""


class TrainingError(ToolkitError):
    """Numeric failure during model training (divergence, non-finite loss)."""
