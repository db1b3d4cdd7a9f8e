"""Exception types raised by the tomography pipeline."""
from __future__ import annotations

__all__ = [
    "TomographyError",
    "DimensionMismatch",
    "UnknownOutcome",
    "ZeroProbability",
    "DegenerateTrace",
    "DegenerateLikelihood",
    "Unidentifiable",
    "EffectiveSampleSizeTooLow",
    "StepSizeTooLarge",
    "IncompletePOVM",
]


class TomographyError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(TomographyError):
    """Operator shapes are incompatible."""


class UnknownOutcome(TomographyError):
    """A record contains an outcome label the measurement family lacks."""


class ZeroProbability(TomographyError):
    """A filtering step assigned (numerically) zero probability to the data.

    Attributes:
        step: index of the offending step, when known.
        record_id: identifier of the offending record, when known.
    """

    def __init__(self, message: str, step: int | None = None,
                 record_id: int | None = None):
        super().__init__(message)
        self.step = step
        self.record_id = record_id


class DegenerateTrace(TomographyError):
    """A likelihood denominator tr(rho E) is not strictly positive."""


class DegenerateLikelihood(TomographyError):
    """Every state explains the data equally well; the estimator is undefined."""


class Unidentifiable(TomographyError):
    """The requested observable has a component along a flat likelihood
    direction, so the data carry no information about it."""


class EffectiveSampleSizeTooLow(TomographyError):
    """Importance sampling collapsed onto too few effective samples."""

    def __init__(self, message: str, ess: float = 0.0):
        super().__init__(message)
        self.ess = ess


class StepSizeTooLarge(TomographyError):
    """A time step changed the state more than a valid discretization may."""


class IncompletePOVM(TomographyError):
    """POVM elements do not sum to the identity."""
