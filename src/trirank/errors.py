"""Exception hierarchy shared across the package."""


class TrirankError(Exception):
    """Base class for all package errors."""


class NotPrime(TrirankError):
    pass


class DegreeOutOfBudget(TrirankError):
    pass


class BudgetExceeded(TrirankError):
    pass


class FieldMismatch(TrirankError):
    pass


class DimensionMismatch(TrirankError):
    pass


class BadParams(TrirankError):
    pass


class PolySyntaxError(TrirankError):
    """Polynomial grammar violation; carries line/column of the offending token."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class UnknownVariable(TrirankError):
    pass


class UnstableEstimate(TrirankError):
    pass


class OutOfExactScope(TrirankError):
    pass


class ContradictoryBounds(TrirankError):
    """A lower bound exceeds an upper bound: one of the inputs is wrong."""


class NoPointFound(TrirankError):
    pass


class VerificationFailed(TrirankError):
    pass


class TensorFormatError(TrirankError):
    pass
