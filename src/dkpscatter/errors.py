"""Exception types shared across the package."""

__all__ = [
    "DkpScatterError",
    "InvalidParameterError",
    "PoleError",
    "NonConvergenceError",
    "DegenerateParametersError",
    "IllConditionedError",
    "BoundaryEnergyError",
    "EvanescentIncidentError",
    "ChannelClosedError",
    "RangeError",
]


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
    """Hypergeometric parameter difference a-b is integer where the
    connection formula for z < -1 needs it nonintegral."""


class BoundaryEnergyError(DkpScatterError):
    """Energy sits within BOUNDARY_EPS of a channel threshold, or in the gap
    where neither channel propagates."""


class EvanescentIncidentError(DkpScatterError):
    """The incident channel does not propagate for these parameters."""


class ChannelClosedError(DkpScatterError):
    """A scattering channel needed by this computation is evanescent."""


class RangeError(DkpScatterError):
    """A value leaves the double range, or would be formed without its digits:
    |2bx| above the exponent cap, a ratio of (a, b, m, E) or the denominator
    of R and T out of the normal range, |nu| or |mu| above the waves' cap, a
    wave, current, Gamma ratio, log_gamma or hyp2f1 value that is not finite,
    a Gauss series that cannot be summed in doubles, or the sharp step's
    momenta out of range or its R at its pole.  README "Errors" gives each
    case."""
