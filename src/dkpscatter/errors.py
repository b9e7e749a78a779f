"""Exception types shared across the package."""


class DkpScatterError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(DkpScatterError, ValueError):
    """A constructor or call argument violates its documented constraint."""


class PoleError(DkpScatterError):
    """A gamma-function argument landed on a nonpositive integer."""


class NonConvergenceError(DkpScatterError):
    """An iterative evaluation hit its term or step cap before converging."""


class IllConditionedError(DkpScatterError):
    """Cancellation in an evaluation would leave fewer correct digits than
    the package guarantees."""


class DegenerateParametersError(DkpScatterError):
    """Hypergeometric parameter difference a-b is integer where the inversion
    formula needs it nonintegral."""


class BoundaryEnergyError(DkpScatterError):
    """Energy sits within the configured guard band of a channel threshold."""


class EvanescentIncidentError(DkpScatterError):
    """The incident channel does not propagate for these parameters."""


class ChannelClosedError(DkpScatterError):
    """A scattering channel needed by this computation is evanescent."""


class RangeError(DkpScatterError):
    """A position argument is outside the numerically representable window."""
