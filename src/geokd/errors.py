"""Exception types shared across the package."""


class GeokdError(Exception):
    """Base class for all package errors."""


class DimensionError(GeokdError):
    """Operand shapes are incompatible with the requested operation."""


class ValidationError(GeokdError):
    """An input value violates a documented precondition."""


class GraphParseError(GeokdError):
    """A graph or config file does not match its schema."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")


class NumericError(GeokdError):
    """A computation produced non-finite values."""
