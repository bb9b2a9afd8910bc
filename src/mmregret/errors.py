"""Exception types shared across the package."""

__all__ = ["PreconditionError", "ConfigError"]


class PreconditionError(ValueError):
    """An operation was called with inputs violating its stated preconditions."""


class ConfigError(ValueError):
    """A run configuration (CLI flags or config file) is invalid."""
