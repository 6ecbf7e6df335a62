"""Exception types shared across the package."""


class SemistabError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(SemistabError, ValueError):
    """An argument violates a documented precondition."""


class InvalidModel(SemistabError, ValueError):
    """A semigroup model is structurally invalid (shape or parameter range)."""


class SpecError(SemistabError, ValueError):
    """A model-spec string failed to parse.

    ``position`` is the character offset of the offending token when known.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NumericsFailure(SemistabError, RuntimeError):
    """A numerical kernel failed, or computed a value that cannot be right.

    ``best_estimate`` carries the best value obtained so far, when there is one.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
