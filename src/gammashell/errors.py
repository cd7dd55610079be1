"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the defined domain of an operation."""


class PreconditionError(ValueError):
    """Structurally valid input that violates a documented precondition."""


class BudgetError(RuntimeError):
    """Requested computation exceeds the configured resource budget."""


class VerificationError(RuntimeError):
    """Two routes that must agree on a mathematical claim disagree."""
