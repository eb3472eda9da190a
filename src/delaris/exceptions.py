"""Exception types shared across the package."""


class DelarisError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(DelarisError, ValueError):
    """A parameter or parameter combination is invalid. Message names the field."""


class DomainError(DelarisError, ValueError):
    """An argument lies outside the mathematical domain of the function."""


class EvaluationError(DelarisError, ArithmeticError):
    """A closed-form evaluation would overflow or is otherwise not representable."""
