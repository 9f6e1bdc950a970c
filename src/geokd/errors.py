"""Exception types shared across the package."""


class GeokdError(Exception):
    """Base class for all package errors."""


class DimensionError(GeokdError):
    """Operand shapes are incompatible with the requested operation."""


class ValidationError(GeokdError):
    """An input value violates a documented precondition."""


class GraphParseError(ValidationError):
    """An input value, such as a field of a config, graph or checkpoint file,
    violates its schema; ``field`` names it."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")


class NumericError(GeokdError):
    """A computation produced non-finite values."""
