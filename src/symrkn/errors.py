"""Exception types shared across the package."""


class SymrknError(Exception):
    """Base class for all errors raised by this package."""


class DegreeOverflowError(SymrknError, ValueError):
    """A polynomial degree exceeds the supported maximum."""


class UnsupportedStageCountError(SymrknError, ValueError):
    """A quadrature stage count outside the supported range."""


class SymmetryViolationError(SymrknError, ValueError):
    """A coefficient entry violates the symmetric-family structure."""


class ExpansionConstraintError(SymrknError, ValueError):
    """A free expansion term lies inside the constrained index block."""


class InvalidGridError(SymrknError, ValueError):
    """A time grid whose span is not a whole number of steps."""


class DegenerateFitError(SymrknError, ValueError):
    """Too few or coincident abscissae for a least-squares slope."""


class TableauFormatError(SymrknError, ValueError):
    """A tableau document that cannot be parsed or has a foreign format tag."""


class StageDivergenceError(SymrknError, RuntimeError):
    """The fixed-point stage iteration failed to converge."""

    def __init__(self, message, residual=None, step_index=None):
        super().__init__(message)
        self.residual = residual
        self.step_index = step_index
