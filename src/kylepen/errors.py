"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleError(ValueError):
    """A constraint admits no feasible point (e.g. fine floor above the global max)."""
