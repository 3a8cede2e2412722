"""Shared exception types."""


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class ShapeError(ValueError):
    """Matrix dimensions do not conform."""


class ParseError(ValueError):
    """Malformed text input."""


class SingularError(ArithmeticError):
    """A matrix that had to be invertible is not.

    ``rank`` carries the actual rank when the caller computed it,
    otherwise it is None.
    """

    def __init__(self, message: str = "singular matrix", rank=None):
        super().__init__(message)
        self.rank = rank


class InvariantError(RuntimeError):
    """An internal contract of a computation does not hold.

    Raised by the contract checks (``debug_checks`` and the checks that are
    always on); it signals a defect in the library, not bad input.
    """
