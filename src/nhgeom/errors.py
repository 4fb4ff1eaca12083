"""Exception hierarchy shared by all nhgeom modules."""


class NhgeomError(Exception):
    """Base class for all nhgeom errors."""


class ArgumentError(NhgeomError, ValueError):
    """An argument is outside what the function accepts."""


class NonFiniteError(ArgumentError):
    """An input array contains NaN or Inf entries."""


class DimensionMismatchError(ArgumentError):
    """Operands have incompatible shapes."""


class NormalizationBreakdownError(NhgeomError):
    """A left-right eigenvector overlap is numerically zero.

    This signals an exceptional point within tolerance: the biorthogonal
    normalization 1/<L|R> cannot be performed.
    """

    def __init__(self, message, overlaps=None):
        super().__init__(message)
        self.overlaps = overlaps


class BandAmbiguityError(NhgeomError):
    """Band matching between two eigensystems is not uniquely resolvable."""


class EPNotFoundError(NhgeomError):
    """No exceptional point was found on the searched segment."""


class LostTrackError(NhgeomError):
    """Exceptional-line continuation failed to re-acquire the curve."""


class NotDefectiveError(NhgeomError):
    """The degeneracy is diagonalizable (geometric multiplicity > 1)."""


class NoDoubleEigenvalueError(NhgeomError):
    """The requested energy is not close to a double eigenvalue."""
