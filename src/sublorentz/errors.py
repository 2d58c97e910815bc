"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


class DivisionByZero(EngineError):
    """Division by an expression whose normal form is zero."""


class NonRealValue(EngineError):
    """A value that is not real, such as the log of a negative constant."""


class NonRationalValue(EngineError):
    """A value that is no rational function of the names and their
    exp/sinh/cosh/log atoms, such as sqrt(u)."""


class UnknownSymbol(EngineError):
    """An identifier that is not declared in the chart."""


class ExprSyntaxError(EngineError):
    """Expression or structure-file syntax error, with position info."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DuplicateMode(EngineError):
    """A structure file declares both a coordinate frame and an abstract algebra."""


class MissingSection(EngineError):
    """A structure file lacks a required section."""


class DegenerateFrame(EngineError):
    """X1, X2, [X1,X2] are linearly dependent: the distribution is nowhere contact."""


class IndeterminateDomain(EngineError):
    """A zero test came back Unknown where a definite answer is required."""


class TraceViolation(EngineError):
    """The trace identity c01^1 + c02^2 = 0 fails."""


class HTildeNonzero(EngineError):
    """An operation requiring h_tilde = 0 was invoked on a structure with h_tilde != 0."""


class ThetaInvalid(EngineError):
    """A candidate normalizing angle does not satisfy its defining equations."""

    def __init__(self, message, residuals=()):
        self.residuals = tuple(residuals)
        super().__init__(message)


class DistributionNotPreserved(EngineError):
    """The candidate symmetry field does not preserve the distribution."""


class BracketPatternViolation(EngineError):
    """A bracket of a basis element with itself is given nonzero."""


class UnknownCatalogName(EngineError):
    """Unknown built-in algebra or structure name."""
