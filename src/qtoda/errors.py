"""Exception types shared across the package."""


class QTodaError(Exception):
    """Base class for library-specific failures."""


class DegreeBoundExceeded(QTodaError):
    """A partition or polynomial exceeds the session degree bound."""


class InvalidTau(QTodaError):
    """The deformation parameter is 0 or -1, where the formulas degenerate."""


class NonCoprime(QTodaError):
    """The lattice type (a, b) must consist of coprime positive integers."""


class IncompatibleStep(QTodaError):
    """Two shift-operator series have steps with no usable common refinement."""


class NonInvertibleLeading(QTodaError):
    """Series inversion needs an invertible coefficient at an extreme power."""


class RelationViolated(QTodaError):
    """A machine-checked operator identity failed; carries the first offender."""

    def __init__(self, message, power=None, residual=None):
        super().__init__(message)
        self.power = power
        self.residual = residual


class TruncationInsufficient(QTodaError):
    """The requested window cannot be certified from the available terms."""


class UnsupportedFlow(QTodaError):
    """The requested lattice flow is not defined for these session parameters."""


class NonFinite(QTodaError):
    """A trajectory left the range of double precision."""


class MixedSParts(QTodaError):
    """Two q-power sums of different s-parts were added."""


class NotSFree(QTodaError):
    """A q-power sum with an s-part was packed as a polynomial in q^(1/G)."""
