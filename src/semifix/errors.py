"""Exception types shared across the package."""


class SemifixError(Exception):
    """Base class for all errors raised by semifix."""


class InvalidParameter(SemifixError):
    """An argument is outside its documented domain."""


class MalformedElement(SemifixError):
    """A literal or element value does not belong to the carrier."""


class UnsupportedOperation(SemifixError):
    """The operation needs an enumerable carrier and the semiring has none."""


class NotNaturallyOrdered(SemifixError):
    """The additive preorder of the semiring is not antisymmetric."""


class ParseError(SemifixError):
    """Lexical, syntactic or semantic error in a program or facts file."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class IndexOutOfRange(ParseError, InvalidParameter):
    """An index in an input file lies outside the declared dimension.

    It is also an InvalidParameter, the error an out-of-range matrix entry
    raises when a Matrix is built directly.
    """


class MalformedLiteral(ParseError, MalformedElement):
    """A fact literal outside the carrier, reported at the fact's line.

    It is also a MalformedElement, the error the semiring's parser raises for
    the literal itself.
    """


class GroundingError(ParseError):
    """The program and database cannot be grounded, at a line when one is at fault."""


class EnumerationBudgetExceeded(SemifixError):
    """Walk enumeration would exceed the configured budget."""

