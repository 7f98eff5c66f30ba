"""Exception types shared across the package."""

__all__ = ["PreconditionError", "DimensionError"]


class PreconditionError(ValueError):
    """An operation was called with inputs that violate its contract."""


class DimensionError(PreconditionError):
    """Vector dimensions of the arguments do not agree."""
