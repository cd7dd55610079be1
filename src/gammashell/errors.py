"""Exception types and the value-record base shared across the package."""

__all__ = ["BudgetError", "DomainError", "PreconditionError", "VerificationError"]


class DomainError(ValueError):
    """Input outside the defined domain of an operation."""


class PreconditionError(ValueError):
    """Structurally valid input that violates a documented precondition."""


class BudgetError(RuntimeError):
    """Requested computation exceeds the configured resource budget."""


class VerificationError(RuntimeError):
    """Two routes that must agree on a mathematical claim disagree."""


def _check_budget(count: int, budget: int | None, what: str) -> None:
    """Refuse work whose exact size, counted before it starts, exceeds budget.

    The package's one budget check; a budget of None admits any count.
    """
    if budget is None:
        return
    _require_ints(budget=budget)
    if count > budget:
        raise BudgetError(f"{count} {what} exceed the budget of {budget}")


def _require_ints(**values) -> None:
    """The integer rule: DomainError unless each value's type is int, so no bool."""
    for name, value in values.items():
        if type(value) is not int:
            raise DomainError(f"{name} must be an integer, got {value!r}")


def _require_at_least(low: int, **values) -> None:
    """_require_ints, then DomainError unless every named value is >= low."""
    _require_ints(**values)
    for name, value in values.items():
        if value < low:
            raise DomainError(f"{name} must be at least {low}, got {value}")


class Record:
    """Base of the value records: fields, equality, hashing and repr.

    A subclass declares its fields once, in order, as _fields; __init__
    binds them by position or by name, in that order, and they are the
    instance's only attributes.  Two records are equal when they are of the
    same class with equal fields, and the hash is that of the field tuple,
    so a record with a dict or list field is unhashable.  Records are
    read-only.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args))
            if len(args) > len(fields) or values.keys() & kwargs:
                raise TypeError(f"{type(self).__name__} got too many or repeated fields")
            values.update(kwargs)
            if values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes {fields}, got {tuple(values)}")
            args = [values[f] for f in fields]
        vars(self).update(zip(fields, args))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a read-only record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a read-only record")
