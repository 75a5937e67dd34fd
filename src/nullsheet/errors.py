"""Exception hierarchy shared across the package."""


class NullsheetError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NullsheetError):
    """Coordinate point lies outside the validity domain of a spacetime chart."""


class DegenerateDataError(NullsheetError):
    """Initial data degenerate for the requested operation (e.g. g11 ~ 0)."""


class MapInversionError(NullsheetError):
    """Characteristic map inversion failed (target outside the image)."""


class MapBreakdownError(NullsheetError):
    """Characteristic map lost monotonicity (1 + Lambda'(vartheta) t <= 0)."""


class CoverageError(NullsheetError):
    """Not enough characteristics to interpolate the requested surface grid."""


class ExpressionError(NullsheetError):
    """Rejected or unparseable curve expression."""


class ConfigError(NullsheetError):
    """Configuration schema violation; the message starts with the offending field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")


class OracleMismatchError(NullsheetError):
    """Oracle block inconsistent with the configured spacetime or initial data."""
