"""Exception types shared across the package."""


class QDiffusionError(Exception):
    """Base class for all qdiffusion errors."""


class TruncationLoss(QDiffusionError):
    """Too much probability mass lies above the chosen cutoff."""


class NumberExceedsCutoff(TruncationLoss):
    """A Fock level was requested at or above the truncation cutoff."""


class NotNormalized(QDiffusionError):
    """A state vector was expected to have unit norm."""


class DimensionMismatch(QDiffusionError):
    """Two operands live on different truncated bases."""


class DegreeTooLarge(QDiffusionError):
    """Polynomial degree exceeds the supported overflow guard."""


class DivergentWithoutContinuation(QDiffusionError):
    """The Gaussian integral diverges and analytic continuation was not requested."""


class SingularDenominator(QDiffusionError):
    """The quadratic Gaussian formula hit a vanishing denominator."""


class ZeroTimeNontrivialIndex(QDiffusionError):
    """Only the (0, 0) Kraus operator exists at zero channel time."""


class CutoffTooSmall(TruncationLoss):
    """The cutoff cannot accommodate the requested Kraus order."""


class SignResolutionFailed(QDiffusionError):
    """Neither overall sign of the squeezed output yields unit trace."""


class SignTraceTruncated(SignResolutionFailed, TruncationLoss):
    """The squeezed output's unsigned trace is finite but short of unit
    magnitude: mass lost above the cutoff, not a numerical failure."""


class QuadratureNotConverged(QDiffusionError):
    """Grid refinement changed the quadrature result beyond tolerance."""


class StepTooLarge(QDiffusionError):
    """The integrator step violates the accuracy contract."""


class NotDecayed(QDiffusionError):
    """An integrand is not negligible at the quadrature boundary."""


class ZeroTime(QDiffusionError):
    """The phase-space density is singular at zero channel time."""


class StencilOutOfRange(QDiffusionError):
    """A finite-difference stencil would leave the valid parameter domain."""


class SchemaError(QDiffusionError):
    """A scenario config violates the documented schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class UnsupportedRouteForInput(QDiffusionError):
    """A requested route cannot handle the configured input state."""
