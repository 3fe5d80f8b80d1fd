"""Exception hierarchy shared by all nnlstep modules."""


class NnlstepError(Exception):
    """Base class for all errors raised by this package."""


class BranchPointError(NnlstepError):
    """Evaluation requested exactly at a branch point (k = ±A or ±iA)."""


class BranchDomainError(NnlstepError):
    """Evaluation requested on a branch cut without specifying a side."""


class BranchPointProximity(BranchPointError):
    """Vector evaluation of scattering data requested exactly at ±A."""


class DivisionByZeroSpectral(NnlstepError):
    """Reflection coefficient requested where a_j is (numerically) zero."""


class PoleOnContour(NnlstepError):
    """Cauchy-kernel pole lies on (or within guard distance of) the contour."""


class ToleranceNotMet(NnlstepError):
    """Quadrature failed to converge to the requested tolerance.

    Carries the best estimate and an error bound.
    """

    def __init__(self, message, best=None, error=None):
        super().__init__(message)
        self.best = best
        self.error = error


class InconclusiveWinding(NnlstepError):
    """Adjacent winding samples jump by more than pi/2 at maximal refinement."""


class WindingOutOfRange(NnlstepError):
    """Running argument winding left (-pi, pi); modulated formulas invalid."""


class MissingNormingConstant(NnlstepError):
    """Spectral data lacks gamma_+ (b does not extend analytically)."""


class RegionMismatch(NnlstepError):
    """Direction (xi or x) outside the validity region of the evaluator."""


class SingularStation(NnlstepError):
    """Transition profile denominator vanishes at the requested station x."""


class SolitonPole(NnlstepError):
    """Exact one-soliton evaluated at one of its point singularities."""


class BlowupDetected(NnlstepError):
    """Simulated field exceeded the blow-up threshold."""

    def __init__(self, message, t=None, max_abs=None):
        super().__init__(message)
        self.t = t
        self.max_abs = max_abs


class GridTooCoarse(UserWarning):
    """Initial data has per-cell jumps the grid cannot resolve."""
