"""Exception types shared across the package.

All indices mentioned in error messages are 1-based, matching the public API.
"""


class SubstochError(Exception):
    """Base class for every error raised by this library."""


class NotSquare(SubstochError):
    pass


class MatrixTooSmall(SubstochError):
    pass


class IndexOutOfRange(SubstochError):
    pass


class SingularMatrix(SubstochError):
    pass


class SingularSubmatrix(SubstochError):
    """A required principal or single-deletion minor is zero (or below the float floor)."""


class ValidationError(SubstochError):
    """Base class for substochastic certification failures."""


class NegativeEntry(ValidationError):
    def __init__(self, row: int, col: int, value=None):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"entry ({row},{col}) = {value} is negative")

    def __reduce__(self):  # pickle would call the class on the message alone
        return type(self), (self.row, self.col, self.value)


class RowSumExceedsOne(ValidationError):
    def __init__(self, row: int, total=None):
        self.row = row
        self.total = total
        super().__init__(f"row {row} sums to {total} > 1")

    def __reduce__(self):
        return type(self), (self.row, self.total)


class SpectralRadiusNotLessThanOne(ValidationError):
    pass


class PreconditionViolated(SubstochError):
    pass


class NotColumnSubstochastic(SubstochError):
    pass


class GenerationExhausted(SubstochError):
    """Rejection sampling failed to produce a certifiable instance within the retry bound."""


class InvariantViolation(SubstochError):
    """A mathematically guaranteed contract failed; indicates an
    implementation bug, not bad input."""


class ParseError(SubstochError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
            message = message + where
        super().__init__(message)


class CertificationError(SubstochError):
    """The input matrix cannot be certified for the requested operation."""
